//! E9 (§4.2.1-4.2.2, Figure 5): the job manager recovers jobs from
//! transient failures automatically (checkpoint-restore makes restarts
//! cheap, not re-runs), and its resource model separates CPU-bound from
//! memory-bound jobs.

use criterion::{criterion_group, criterion_main, Criterion};
use parking_lot::Mutex;
use rtdi_bench::{quick_criterion, report, report_header, time_it};
use rtdi_common::{Record, Result, Row};
use rtdi_compute::jobmanager::{JobHealth, JobManager, JobSpec, JobType};
use rtdi_compute::operator::{MapOp, Operator};
use rtdi_compute::runtime::{CheckpointStore, Job, StagedConfig};
use rtdi_compute::sink::CollectSink;
use rtdi_compute::source::VecSource;
use rtdi_storage::object::InMemoryStore;
use std::sync::Arc;

/// Operator that fails once at a given record index (across restarts the
/// budget is shared so the retry succeeds).
struct FailOnce {
    at: u64,
    seen: u64,
    budget: Arc<Mutex<u32>>,
}

impl Operator for FailOnce {
    fn name(&self) -> &str {
        "fail-once"
    }
    fn process(&mut self, r: &Arc<Record>, out: &mut Vec<Arc<Record>>) -> Result<()> {
        self.seen += 1;
        if self.seen == self.at {
            let mut b = self.budget.lock();
            if *b > 0 {
                *b -= 1;
                return Err(rtdi_common::Error::Unavailable("node lost".into()));
            }
        }
        out.push(Arc::clone(r));
        Ok(())
    }
}

fn spec(n: usize, fail_at: u64, budget: Arc<Mutex<u32>>, sink: CollectSink) -> JobSpec {
    JobSpec {
        name: format!("job-{fail_at}"),
        job_type: JobType::Stateless,
        tier: 1,
        expected_records_per_sec: 10_000,
        factory: Box::new(move || {
            Job::new(
                format!("job-{fail_at}"),
                Box::new(VecSource::new(
                    (0..n)
                        .map(|i| Record::new(Row::new().with("i", i as i64), i as i64))
                        .collect(),
                )),
                vec![
                    Box::new(FailOnce {
                        at: fail_at,
                        seen: 0,
                        budget: budget.clone(),
                    }),
                    Box::new(MapOp::new("id", |r: &Row| r.clone())),
                ],
                Box::new(sink.clone()),
            )
        }),
    }
}

fn bench(c: &mut Criterion) {
    report_header(
        "E9 job manager auto-recovery",
        "transient failures recover automatically from checkpoints; \
         restart cost ~ work since last checkpoint, not the whole job",
    );
    let n = 100_000usize;
    let jm = JobManager::new(
        StagedConfig {
            checkpoint_interval: 10_000,
            checkpoint_store: Some(CheckpointStore::new(Arc::new(InMemoryStore::new()))),
            ..StagedConfig::default()
        },
        3,
    );
    // clean run baseline
    let sink = CollectSink::new();
    let (clean, clean_t) = time_it(|| {
        jm.supervise(&spec(n, u64::MAX, Arc::new(Mutex::new(0)), sink.clone()))
            .unwrap()
    });
    // failure at 90% through; recovery resumes from last checkpoint
    let sink2 = CollectSink::new();
    let (recovered, rec_t) = time_it(|| {
        jm.supervise(&spec(
            n,
            (n as u64) * 9 / 10,
            Arc::new(Mutex::new(1)),
            sink2.clone(),
        ))
        .unwrap()
    });
    report(
        "clean run",
        format!("{} records in {:?}", clean.records_in, clean_t),
    );
    // at-least-once duplicates observed at the sink measure the true replay
    let replayed = sink2.len().saturating_sub(n);
    report(
        "run with injected failure at 90%",
        format!(
            "completed {} records, {} replayed from the last checkpoint \
             ({:.1}% of the job, not a full re-run) in {:?}",
            recovered.records_in,
            replayed,
            replayed as f64 * 100.0 / n as f64,
            rec_t
        ),
    );
    // checkpoint recovery means far less than a full re-run was repeated
    assert!(replayed < n / 2, "full re-run happened");

    // resource model
    let mk = |jt| JobSpec {
        name: "m".into(),
        job_type: jt,
        tier: 0,
        expected_records_per_sec: 100_000,
        factory: Box::new(|| {
            Job::new(
                "x",
                Box::new(VecSource::new(vec![])),
                vec![],
                Box::new(CollectSink::new()),
            )
        }),
    };
    for jt in [
        JobType::Stateless,
        JobType::WindowedAggregation,
        JobType::StreamJoin,
    ] {
        let r = JobManager::estimate_resources(&mk(jt));
        report(
            format!("resource model {jt:?}").as_str(),
            format!("{} cores, {} MB", r.cpu_cores, r.memory_mb),
        );
    }
    // rule engine snapshot
    let action = jm.evaluate_health(&JobHealth {
        lag: 5_000_000,
        records_per_sec: 100_000,
        ..Default::default()
    });
    report(
        "rule engine on 5M lag",
        format!("{:?} via {:?}", action.0, action.1),
    );

    let mut g = c.benchmark_group("e09");
    g.bench_function("supervised_clean_run_10k", |b| {
        b.iter(|| {
            let jm = JobManager::new(StagedConfig::default(), 1);
            let sink = CollectSink::new();
            jm.supervise(&spec(10_000, u64::MAX, Arc::new(Mutex::new(0)), sink))
                .unwrap()
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
