//! E20 (§6, Figure 7): active-passive failover with offset
//! synchronization — "the consumer can take the latest synchronized offset
//! and resume the consumption". No loss ever; the replay after failover is
//! bounded by the offset-checkpoint interval.

use criterion::{criterion_group, criterion_main, Criterion};
use rtdi_bench::{quick_criterion, report, report_header, time_it};
use rtdi_common::{Record, Row};
use rtdi_multiregion::activepassive::{ActivePassiveConsumer, OffsetSyncService};
use rtdi_multiregion::topology::MultiRegionTopology;
use rtdi_stream::topic::TopicConfig;
use std::collections::BTreeSet;

fn run_failover(n: usize) -> (usize, usize) {
    let topo = MultiRegionTopology::new(
        &["west", "east"],
        "payments",
        TopicConfig::lossless().with_partitions(4),
    )
    .unwrap();
    // replication runs continuously in production; replicate every 500
    // produced records so aggregate clusters interleave sources finely
    // (one giant replication batch would create artificial region-sized
    // blocks and inflate the conservative failover replay)
    for i in 0..n {
        let region = if i % 2 == 0 { "west" } else { "east" };
        topo.produce(
            region,
            Record::new(Row::new().with("p", i as i64), i as i64)
                .with_key(format!("p{i}"))
                .with_unique_id(format!("pay-{i}")),
            i as i64,
        )
        .unwrap();
        if i % 500 == 499 {
            topo.replicate(i as i64);
        }
    }
    topo.replicate(n as i64 + 100);
    let sync = OffsetSyncService::new(topo.mappings().clone());
    let mut consumer = ActivePassiveConsumer::new("proc", "payments", "west");
    let before = consumer.consume_available(&topo).unwrap();
    topo.region("west").unwrap().set_down(true);
    consumer.fail_over(&topo, &sync, "east").unwrap();
    let after = consumer.consume_available(&topo).unwrap();
    let mut unique: BTreeSet<String> = BTreeSet::new();
    for r in before.iter().chain(&after) {
        unique.insert(r.audit().unique_id.as_ref().unwrap().to_string());
    }
    assert_eq!(unique.len(), n, "data lost in failover");
    (after.len(), before.len() + after.len() - unique.len())
}

fn bench(c: &mut Criterion) {
    report_header(
        "E20 active-passive offset sync",
        "failover resumes from the latest synchronized offset: zero loss, \
         replay bounded by the checkpoint gap (not a full re-read)",
    );
    for n in [10_000usize, 50_000] {
        let ((replayed_total, duplicates), t) = time_it(|| run_failover(n));
        report(
            format!("{n} payments, kill primary, fail over").as_str(),
            format!(
                "0 lost, {duplicates} duplicates replayed \
                 ({:.2}% of stream), records read after failover {replayed_total}, end-to-end {:.0} ms",
                duplicates as f64 * 100.0 / n as f64,
                t.as_secs_f64() * 1e3
            ),
        );
    }
    // the naive alternatives the paper rules out:
    report(
        "naive high-watermark resume",
        "would lose every in-flight record (unacceptable for payments)".to_string(),
    );
    report(
        "naive earliest resume",
        "would replay the full retained stream (100% duplicates)".to_string(),
    );

    let mut g = c.benchmark_group("e20");
    g.bench_function("failover_5k", |b| b.iter(|| run_failover(5_000)));
    g.finish();
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench
}
criterion_main!(benches);
