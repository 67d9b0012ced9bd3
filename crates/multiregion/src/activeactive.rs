//! Active-active redundant computation (§6, Figure 6).
//!
//! "In each region a complex Flink job with large-memory footprint will
//! compute the pricing for different areas. Each region has an instance of
//! 'update service' and one of them is labelled as primary by an
//! all-active coordinating service. The update service from the primary
//! region stores the pricing result in an active/active database... When
//! disaster strikes the primary region, the active-active service assigns
//! another region to be the primary."
//!
//! Each round recomputes every region's state from its whole retained
//! aggregate log by design: it reads the committed records through a
//! fresh [`CursorSet`] at the log start.

use crate::kv::ReplicatedKv;
use crate::topology::MultiRegionTopology;
use parking_lot::RwLock;
use rtdi_common::{Error, Result, Row, Timestamp};
use rtdi_stream::topic::CursorSet;
use std::collections::BTreeMap;

/// The all-active coordinating service: tracks which region's update
/// service is primary.
pub struct ActiveActiveCoordinator {
    primary: RwLock<String>,
}

impl ActiveActiveCoordinator {
    pub fn new(initial_primary: &str) -> Self {
        ActiveActiveCoordinator {
            primary: RwLock::new(initial_primary.to_string()),
        }
    }

    pub fn primary(&self) -> String {
        self.primary.read().clone()
    }

    /// Fail over to another region.
    pub fn fail_over(&self, to: &str) {
        *self.primary.write() = to.to_string();
    }

    /// Pick a healthy region as primary if the current one cannot serve.
    /// The update service consumes the aggregate cluster, so losing only
    /// that half of a region already forces a coordinator failover.
    pub fn ensure_healthy_primary(&self, topo: &MultiRegionTopology) -> Result<String> {
        let current = self.primary();
        if let Ok(r) = topo.region(&current) {
            if !r.aggregate.is_down() {
                return Ok(current);
            }
        }
        let healthy = topo
            .regions
            .iter()
            .find(|r| !r.aggregate.is_down())
            .ok_or_else(|| Error::Unavailable("no healthy region".into()))?;
        self.fail_over(&healthy.name);
        Ok(healthy.name.clone())
    }
}

/// Run one redundant computation round: every healthy region consumes the
/// committed records of its aggregate topic from the log start and
/// computes per-key results with `compute`; only the primary region's
/// update service writes to the KV store. Returns the per-region computed
/// states so tests can assert convergence. A transient fetch fault is
/// ridden out; a fetch of a healthy region that fails for good fails the
/// round, so a round computes every healthy region or none.
pub fn redundant_compute_round(
    topo: &MultiRegionTopology,
    coordinator: &ActiveActiveCoordinator,
    kv: &ReplicatedKv,
    now: Timestamp,
    compute: impl Fn(&[Row]) -> BTreeMap<String, Row>,
) -> Result<BTreeMap<String, BTreeMap<String, Row>>> {
    let primary = coordinator.ensure_healthy_primary(topo)?;
    let mut states = BTreeMap::new();
    for region in &topo.regions {
        if region.aggregate.is_down() {
            continue;
        }
        let mut log = CursorSet::at_log_start(region.aggregate.topic(topo.topic())?)?;
        let mut rows = Vec::new();
        // a state computed from part of the log is no region's state
        if !log.poll(|turn| {
            let records = turn.fetch(usize::MAX / 2)?;
            rows.extend(records.into_iter().map(|r| r.into_record().value));
            Ok(())
        })? {
            let cut = format!("a fetch of region '{}' failed", region.name);
            return Err(Error::Unavailable(cut));
        }
        let state = compute(&rows);
        if region.name == primary {
            for (key, row) in &state {
                kv.put(key, row.clone(), now, &primary);
            }
        }
        states.insert(region.name.clone(), state);
    }
    Ok(states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdi_common::Record;
    use rtdi_stream::topic::TopicConfig;

    fn demand_supply_ratio(rows: &[Row]) -> BTreeMap<String, Row> {
        let mut out: BTreeMap<String, (f64, f64)> = BTreeMap::new();
        for r in rows {
            let hex = r.get_str("hex").unwrap_or("?").to_string();
            let e = out.entry(hex).or_insert((0.0, 0.0));
            match r.get_str("kind") {
                Some("demand") => e.0 += 1.0,
                Some("supply") => e.1 += 1.0,
                _ => {}
            }
        }
        out.into_iter()
            .map(|(hex, (d, s))| {
                let ratio = if s == 0.0 { d.max(1.0) } else { d / s };
                (hex, Row::new().with("ratio", ratio))
            })
            .collect()
    }

    fn event(i: i64, hex: &str, kind: &str) -> Record {
        Record::new(Row::new().with("hex", hex).with("kind", kind), i).with_key(hex)
    }

    fn topo() -> MultiRegionTopology {
        MultiRegionTopology::new(
            &["west", "east"],
            "marketplace",
            TopicConfig::high_throughput().with_partitions(2),
        )
        .unwrap()
    }

    #[test]
    fn redundant_states_converge_across_regions() {
        let topo = topo();
        for i in 0..40 {
            let region = if i % 2 == 0 { "west" } else { "east" };
            let kind = if i % 3 == 0 { "supply" } else { "demand" };
            topo.produce(region, event(i, &format!("hex{}", i % 4), kind), i)
                .unwrap();
        }
        topo.replicate(100);
        let coord = ActiveActiveCoordinator::new("west");
        let kv = ReplicatedKv::new();
        let states = redundant_compute_round(&topo, &coord, &kv, 100, demand_supply_ratio).unwrap();
        // both regions computed identical state from the consistent
        // aggregate input (the §6 convergence argument)
        assert_eq!(states["west"], states["east"]);
        // only the primary wrote
        assert_eq!(kv.writer_of("hex0").unwrap(), "west");
    }

    #[test]
    fn failover_switches_writer_without_losing_results() {
        let topo = topo();
        for i in 0..20 {
            topo.produce("west", event(i, "hexA", "demand"), i).unwrap();
        }
        topo.replicate(50);
        let coord = ActiveActiveCoordinator::new("west");
        let kv = ReplicatedKv::new();
        redundant_compute_round(&topo, &coord, &kv, 50, demand_supply_ratio).unwrap();
        let before = kv.get("hexA").unwrap();

        // disaster strikes the primary
        topo.region("west").unwrap().set_down(true);
        // new events keep flowing in the surviving region
        for i in 20..30 {
            topo.produce("east", event(i, "hexA", "demand"), i).unwrap();
        }
        topo.replicate(100);
        redundant_compute_round(&topo, &coord, &kv, 100, demand_supply_ratio).unwrap();
        assert_eq!(coord.primary(), "east");
        assert_eq!(kv.writer_of("hexA").unwrap(), "east");
        let after = kv.get("hexA").unwrap();
        // east's state includes everything it saw; results move forward
        assert!(after.get_double("ratio").unwrap() >= before.get_double("ratio").unwrap());
    }

    #[test]
    fn no_healthy_region_is_an_error() {
        let topo = topo();
        topo.region("west").unwrap().set_down(true);
        topo.region("east").unwrap().set_down(true);
        let coord = ActiveActiveCoordinator::new("west");
        let kv = ReplicatedKv::new();
        assert!(matches!(
            redundant_compute_round(&topo, &coord, &kv, 0, demand_supply_ratio),
            Err(Error::Unavailable(_))
        ));
    }
}
