//! Multi-region (§6): E20, E29, and the replication part of the recovery
//! experiment E23.

use super::{present, Report};
use rtdi_common::chaos::{FaultKind, FaultPlan, FaultPoint, RegionOutageKind, Trigger};
use rtdi_common::{Chaos, Error, Record, Result, Row};
use rtdi_multiregion::activepassive::{ActivePassiveConsumer, OffsetSyncService};
use rtdi_multiregion::topology::MultiRegionTopology;
use rtdi_multiregion::{DrConfig, DrDrill};
use rtdi_storage::{FaultyStore, InMemoryStore, MirroredStore, ObjectStore};
use rtdi_stream::topic::TopicConfig;
use std::collections::BTreeSet;
use std::sync::Arc;

pub fn claims(r: &mut Report) -> Result<()> {
    e20_offset_sync(r)?;
    e23_replication_catch_up(r)?;
    e29_region_failover(r)?;
    e29_catch_up_and_resync(r)?;
    Ok(())
}

fn two_regions(topic: &str, config: TopicConfig) -> Result<MultiRegionTopology> {
    MultiRegionTopology::new(&["west", "east"], topic, config.with_partitions(4))
}

/// Record `i`, produced in west when even and in east when odd.
fn produce_alternating(topo: &MultiRegionTopology, i: usize) -> Result<()> {
    let region = if i.is_multiple_of(2) { "west" } else { "east" };
    let record = Record::new(Row::new().with("i", i as i64), i as i64)
        .with_key(format!("k{i}"))
        .with_unique_id(format!("id-{i}"));
    topo.produce(region, record, i as i64)
}

fn e20_offset_sync(r: &mut Report) -> Result<()> {
    const N: usize = 10_000;
    let topo = two_regions("payments", TopicConfig::lossless())?;
    // replication runs all the time in production: every 500 records here,
    // so the aggregates interleave their sources finely
    for i in 0..N {
        produce_alternating(&topo, i)?;
        if i % 500 == 499 {
            topo.replicate(i as i64);
        }
    }
    topo.replicate(N as i64 + 100);
    let sync = OffsetSyncService::new(topo.mappings().clone());
    let mut consumer = ActivePassiveConsumer::new("proc", "payments", "west");
    let before = consumer.consume_available(&topo)?;
    topo.region("west")?.set_down(true);
    let after = r.timed(
        "E20",
        format!("fail over a consumer of {N} payments"),
        || {
            consumer.fail_over(&topo, &sync, "east")?;
            consumer.consume_available(&topo)
        },
    )?;
    let ids = |records: &[Record]| -> BTreeSet<String> {
        let id = |rec: &Record| rec.audit().unique_id.as_ref().map(ToString::to_string);
        records.iter().filter_map(id).collect()
    };
    let mut seen = ids(&before);
    seen.extend(ids(&after));
    r.claim(
        "E20.loss",
        "§6, Fig 7",
        "an active-passive consumer resumes from the synchronized offset without losing data",
        (N - seen.len()) as f64,
        "of 10000 payments never delivered across the failover",
        seen.len() == N && !before.is_empty(),
    );
    let replayed = before.len() + after.len() - seen.len();
    r.claim(
        "E20.replay",
        "§6",
        "and replays only what lies between offset checkpoints, not the stream",
        replayed as f64 * 100.0 / N as f64,
        "% of the stream delivered twice (an earliest-offset resume replays 100%)",
        replayed * 20 < N,
    );
    Ok(())
}

fn e23_replication_catch_up(r: &mut Report) -> Result<()> {
    const BACKLOG: usize = 5_000;
    let topo = two_regions("trips", TopicConfig::default())?;
    for i in 0..BACKLOG {
        produce_alternating(&topo, 2 * i)?; // all in west
    }
    // the cross-region link is dead: replication makes no progress
    topo.chaos().arm(
        FaultPoint::MultiregionReplicate,
        FaultPlan::fail(FaultKind::Unavailable, Trigger::Always),
    );
    let during = topo.replicate(100);
    topo.chaos().disarm(FaultPoint::MultiregionReplicate);
    let after = r.timed(
        "E23",
        format!("drain a {BACKLOG}-record replication backlog"),
        || topo.replicate(200),
    );
    r.claim(
        "E23.replication",
        "§4.1.4, §6",
        "replication resumes where it stopped once a dead link heals",
        after as f64,
        "route-records copied into the 2 aggregates on the first run after the outage (0 during)",
        during == 0 && after == 2 * BACKLOG as u64,
    );
    Ok(())
}

fn e29_region_failover(r: &mut Report) -> Result<()> {
    // a seed whose one planned outage kills the serving region
    let home_kill = (0..64).find(|&seed| {
        let plan =
            Chaos::seeded(seed).plan_region_outages(&["west", "east"], 1, 20_000, 40_000, 15_000);
        plan[0].kind == RegionOutageKind::RegionKill && plan[0].region == "west"
    });
    let seed = present(home_kill, "seed in 0..64 that kills the home region")?;
    let config = DrConfig {
        cycles: 1,
        ..DrConfig::default()
    };
    let drill = r.timed(
        "E29",
        "one kill/heal drill cycle of the home region",
        || DrDrill::new(seed, config)?.run(),
    )?;
    let cycle = present(drill.cycles.first(), "drill cycle")?;
    if cycle.kind != "region-kill" || !cycle.affected {
        return Err(Error::Internal(format!("the drill struck {cycle:?}")));
    }
    r.claim(
        "E29.rpo",
        "§6",
        "losing a region loses no data",
        drill.lost as f64,
        "of the committed records lost to the consumer or the compute job",
        drill.lost == 0 && drill.committed > 0 && drill.aggregates_equal && drill.isr_full,
    );
    let slowest = cycle
        .rto_consume_ms
        .max(cycle.rto_compute_ms)
        .max(cycle.rto_query_ms);
    r.claim(
        "E29.rto",
        "§6",
        "every layer is serving again from the surviving region",
        slowest as f64,
        "logical ms from the kill until consume, compute and query are all back (detection included)",
        cycle.detect_ms > 0 && slowest >= cycle.detect_ms && slowest <= cycle.detect_ms + 1_000,
    );
    r.claim(
        "E29.replay",
        "§6",
        "at the cost of a bounded replay",
        drill.consumer_duplicates as f64,
        "records delivered twice to the failed-over consumer (bound: 64 per route and partition)",
        drill.consumer_duplicates <= drill.replay_bound(64) && drill.surge_converged,
    );
    r.claim(
        "E29.catch_up",
        "§6",
        "and the healed region catches up",
        cycle.catchup_ms as f64,
        "logical ms from heal until every aggregate holds every record again",
        cycle.catchup_ms >= 0,
    );
    Ok(())
}

fn e29_catch_up_and_resync(r: &mut Report) -> Result<()> {
    const BACKLOG: usize = 8_000;
    let topo = two_regions("trips", TopicConfig::high_throughput())?;
    for i in 0..BACKLOG {
        produce_alternating(&topo, i)?;
    }
    r.timed(
        "E29",
        format!("replicate a {BACKLOG}-record backlog to 2 aggregates"),
        || topo.replicate(BACKLOG as i64),
    );
    let (west, east) = (topo.aggregate_count("west")?, topo.aggregate_count("east")?);
    r.claim(
        "E29.aggregates",
        "§6",
        "each region's aggregate cluster holds the global view",
        west.min(east) as f64,
        "of 8000 records (half produced in each region) in both aggregates after one run",
        west == BACKLOG as u64 && east == BACKLOG as u64,
    );

    // what the mesh costs in steady state: a produce round with both
    // routes replicating against one with nowhere to replicate to
    let solo = MultiRegionTopology::new(&["solo"], "trips", TopicConfig::high_throughput())?;
    let rounds = |topo: &MultiRegionTopology, regions: [&str; 2]| {
        (0..1_000i64).try_for_each(|i| {
            let record = Record::new(Row::new().with("i", i), i).with_key(format!("r{i}"));
            topo.produce(regions[i as usize % 2], record, i)?;
            topo.replicate(i);
            Ok::<_, Error>(())
        })
    };
    r.timed(
        "E29",
        "1000 produce rounds with full-mesh replication",
        || rounds(&topo, ["west", "east"]),
    )?;
    r.timed("E29", "1000 produce rounds in a single region", || {
        rounds(&solo, ["solo", "solo"])
    })?;

    // a checkpoint mirror that missed every write while its region was down
    const OBJECTS: usize = 64;
    let mirror = Arc::new(FaultyStore::new(InMemoryStore::new()));
    let primary = Arc::new(InMemoryStore::new());
    let view = MirroredStore::new(primary, mirror.clone() as Arc<dyn ObjectStore>);
    mirror.set_down(true);
    for i in 0..OBJECTS {
        view.put(
            &format!("checkpoints/dr/ckpt-{i:010}"),
            vec![0u8; 4096].into(),
        )?;
    }
    mirror.set_down(false);
    let copied = r.timed(
        "E29",
        format!("re-mirror {OBJECTS} checkpoint objects"),
        || view.resync(),
    )?;
    r.claim(
        "E29.checkpoints",
        "§6",
        "and checkpoints written during the outage reach the healed region's store",
        copied as f64,
        "of 64 checkpoint objects copied to the mirror by one resync",
        copied == OBJECTS && mirror.inner().object_count() == OBJECTS,
    );
    Ok(())
}
