//! E5 (§4.1.4): Chaperone "collects key statistics like the number of
//! unique messages in a tumbling time window from every stage of the
//! replication pipeline ... and generates alerts when mismatch is
//! detected" — at auditing cost low enough to run on every message.

use criterion::{criterion_group, criterion_main, Criterion};
use rtdi_bench::{quick_criterion, report, report_header, time_it};
use rtdi_common::{Record, Row};
use rtdi_stream::chaperone::{AlertKind, Chaperone};

fn rec(i: usize) -> Record {
    Record::new(Row::new(), (i as i64) * 3).with_unique_id(format!("m{i}"))
}

fn bench(c: &mut Criterion) {
    report_header(
        "E5 Chaperone end-to-end audit",
        "per-window unique-message accounting across stages detects loss \
         and duplication exactly; overhead is a hash insert per message",
    );
    let ch = Chaperone::new(10_000);
    let n = 200_000usize;
    let (_, observe_elapsed) = time_it(|| {
        for i in 0..n {
            let r = rec(i);
            ch.observe("regional", &r);
            // replicate with injected faults: drop 100, duplicate 50
            if i % 2_000 == 0 {
                continue; // loss
            }
            ch.observe("aggregate", &r);
            if i % 4_000 == 1 {
                ch.observe("aggregate", &r); // duplication
            }
        }
    });
    report(
        "observe throughput (2 stages)",
        format!(
            "{:.0} msgs/s",
            (2 * n) as f64 / observe_elapsed.as_secs_f64()
        ),
    );
    let (alerts, audit_elapsed) = time_it(|| ch.audit("regional", "aggregate"));
    let losses: u64 = alerts
        .iter()
        .filter(|a| a.kind == AlertKind::Loss)
        .map(|a| a.magnitude)
        .sum();
    let dups: u64 = alerts
        .iter()
        .filter(|a| a.kind == AlertKind::Duplication)
        .map(|a| a.magnitude)
        .sum();
    report(
        "detected",
        format!(
            "{losses} lost (injected 100), {dups} duplicated (injected 50), audit in {:.1} ms",
            audit_elapsed.as_secs_f64() * 1e3
        ),
    );
    assert_eq!(losses, 100);
    assert_eq!(dups, 50);

    let mut g = c.benchmark_group("e05");
    g.bench_function("observe_1k_msgs", |b| {
        let ch = Chaperone::new(10_000);
        let mut i = 0usize;
        b.iter(|| {
            for _ in 0..1000 {
                ch.observe("stage", &rec(i));
                i += 1;
            }
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench
}
criterion_main!(benches);
