//! Region-scale disaster-recovery soak: seeded kill/heal drills against
//! whole region failure domains (§6), asserting the platform's recovery
//! contract end to end under live traffic:
//!
//! - **RPO = 0**: every record acknowledged to a producer is observed by
//!   the failed-over consumer AND counted by the redeployed compute job;
//! - **bounded replay**: consumer duplicates after failover stay within
//!   the offset-sync checkpoint interval per route per partition;
//! - **convergence**: after the last heal, every region's aggregate holds
//!   the full committed stream, the active-active surge states agree
//!   across regions, and every partition is back to a full ISR;
//! - **determinism**: the drill's `DR_SUMMARY` ledger (detection, RTO per
//!   layer, duplicates, catch-up) is byte-identical for a given seed.
//!
//! Like the other soaks, each drill runs twice per seed in-process and
//! `ci.sh` additionally diffs the printed `DR_SUMMARY` lines between two
//! separate processes for two fixed seeds.

use rtdi::common::chaos::{Chaos, RegionOutageKind};
use rtdi::multiregion::{DrConfig, DrDrill};

/// Offset-mapping checkpoint interval of the replicator (records): the
/// bound on replay after an offset-synchronized failover.
const SYNC_INTERVAL: u64 = 64;

fn run_drill(seed: u64, cfg: DrConfig) -> rtdi::multiregion::DrReport {
    DrDrill::new(seed, cfg)
        .expect("drill setup")
        .run()
        .expect("drill run")
}

/// Run the full drill twice with one seed; assert the recovery contract
/// and that both runs produce byte-identical ledgers. Returns the summary.
fn soak_twice(seed: u64) -> String {
    let report = run_drill(seed, DrConfig::default());

    // RPO: nothing committed may be lost, at any layer
    assert!(report.committed > 200, "drill produced too little traffic");
    assert_eq!(report.lost, 0, "RPO violated:\n{}", report.summary());
    assert_eq!(
        report.consumer_seen,
        report.committed,
        "consumer missed records:\n{}",
        report.summary()
    );
    assert_eq!(
        report.compute_distinct,
        report.committed,
        "compute job missed records:\n{}",
        report.summary()
    );

    // bounded replay: duplicates are a failover artifact, not a leak
    assert!(
        report.consumer_duplicates <= report.replay_bound(SYNC_INTERVAL),
        "consumer replay {} beyond the offset-sync bound {}",
        report.consumer_duplicates,
        report.replay_bound(SYNC_INTERVAL)
    );

    // every planned outage ran and was accounted
    assert_eq!(report.cycles.len(), 3, "{}", report.summary());
    for c in &report.cycles {
        assert!(c.catchup_ms >= 0, "cycle {} never caught up", c.cycle);
        if c.affected {
            // the strike hit the serving region: every layer recovered
            // after detection, never before
            assert!(c.detect_ms > 0, "affected cycle without detection");
            assert!(c.rto_consume_ms >= c.detect_ms, "{}", report.summary());
            assert!(c.rto_query_ms >= c.detect_ms, "{}", report.summary());
        }
    }

    // convergence after the last heal
    assert!(report.aggregates_equal, "{}", report.summary());
    assert!(report.surge_converged, "{}", report.summary());
    assert!(report.isr_full, "{}", report.summary());

    // determinism: a second full drill with the same seed produces a
    // byte-identical ledger
    let again = run_drill(seed, DrConfig::default());
    assert_eq!(
        report.summary(),
        again.summary(),
        "seed {seed:#x} drill is not deterministic"
    );
    report.summary()
}

#[test]
fn region_dr_soak() {
    soak_twice(0xD12A57E2);
}

#[test]
fn region_dr_soak_alternate_seed() {
    soak_twice(0x5EED_0DDA);
}

/// Replication-lag outages must surface as query staleness while they
/// last, then drain: find a seed whose first strike is a lag burst and
/// assert the freshness tracer exposed the lag to `QueryStats`.
#[test]
fn replication_lag_surfaces_as_query_staleness() {
    let mut hit = None;
    for seed in 0..64 {
        let plan =
            Chaos::seeded(seed).plan_region_outages(&["west", "east"], 1, 20_000, 40_000, 15_000);
        if plan[0].kind == RegionOutageKind::ReplicatorLag {
            hit = Some(seed);
            break;
        }
    }
    let seed = hit.expect("some seed plans a replicator-lag burst first");
    let cfg = DrConfig {
        cycles: 1,
        ..DrConfig::default()
    };
    let report = run_drill(seed, cfg);
    let cycle = &report.cycles[0];
    assert_eq!(cycle.kind, "replicator-lag");
    // lag is observed, not announced: no failover, no detection latency
    assert_eq!(cycle.detect_ms, 0);
    assert!(!cycle.affected);
    assert_eq!(report.consumer_failovers, 0);
    // the backlog was visible at heal time and drained afterwards
    assert!(cycle.lag_at_heal > 0, "{}", report.summary());
    assert!(cycle.catchup_ms > 0, "{}", report.summary());
    // degraded-but-partial serving: queries kept answering and reported
    // data staleness comparable to the outage length
    assert!(
        report.max_staleness_ms >= 7_000,
        "staleness not surfaced: {}\n{}",
        report.max_staleness_ms,
        report.summary()
    );
    assert_eq!(report.lost, 0, "{}", report.summary());
}

/// ci.sh hook: seed from `RTDI_DR_SEED`, ledger printed for cross-process
/// diffing (the lines already carry the `DR_SUMMARY` prefix).
#[test]
fn region_dr_env_seed_prints_summary() {
    let seed = std::env::var("RTDI_DR_SEED")
        .ok()
        .and_then(|s| {
            s.strip_prefix("0x")
                .map(|h| u64::from_str_radix(h, 16).ok())
                .unwrap_or_else(|| s.parse().ok())
        })
        .unwrap_or(0xD12);
    let summary = soak_twice(seed);
    for line in summary.lines() {
        println!("{line}");
    }
}
