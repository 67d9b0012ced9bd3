//! The repo benchmark: four closed-loop workloads timed from outside the
//! `RealtimePlatform` facade. README.md defines every workload and metric.
//!
//! ```text
//! rtdi-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! rtdi-benchmark --smoke
//! ```

mod alloc;
mod api;
mod gen;
mod harness;
mod metrics;
mod oracle;
mod probes;
mod reference;
mod stats;
mod trace;
mod workloads;

use harness::{Args, Outcome, Scale, Workload};
use workloads::archive_backfill::ArchiveBackfill;
use workloads::dashboard_query::DashboardQuery;
use workloads::ingest_drain::IngestDrain;
use workloads::trickle_visible::TrickleVisible;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

type Run = fn(&Args) -> Outcome;

const WORKLOADS: [(&str, Run); 4] = [
    (IngestDrain::NAME, harness::run::<IngestDrain>),
    (TrickleVisible::NAME, harness::run::<TrickleVisible>),
    (DashboardQuery::NAME, harness::run::<DashboardQuery>),
    (ArchiveBackfill::NAME, harness::run::<ArchiveBackfill>),
];

fn usage() -> ! {
    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    eprintln!(
        "usage: rtdi-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         rtdi-benchmark --smoke [--seed <n>]",
        names.join("|")
    );
    std::process::exit(64);
}

fn main() {
    let mut workload = None;
    let mut smoke = false;
    let mut args = Args {
        seed: 1,
        seconds: 20.0,
        trace: false,
        scale: Scale(1),
        one_round: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value() == "1",
            "--smoke" => smoke = true,
            _ => usage(),
        }
    }

    if smoke {
        // every workload, one round at 1/20 size, traced so that the probes
        // and the span file are exercised too
        args = Args {
            trace: true,
            scale: Scale(20),
            one_round: true,
            ..args
        };
        let started = std::time::Instant::now();
        let mut failed = 0;
        for (_, run) in WORKLOADS {
            failed += run(&args).check.failed;
        }
        println!(
            "smoke: {failed} failed in {:.1} s",
            started.elapsed().as_secs_f64()
        );
        std::process::exit(if failed == 0 { 0 } else { 1 });
    }

    let Some((_, run)) = WORKLOADS
        .iter()
        .find(|(n, _)| Some(*n) == workload.as_deref())
    else {
        usage()
    };
    let outcome = run(&args);
    let metrics = outcome.per_layer.as_ref().unwrap_or(&outcome.end_to_end);
    println!(
        "{}",
        metrics::result_line(outcome.check.attempted, outcome.check.failed, metrics)
    );
    if outcome.check.failed > 0 {
        std::process::exit(1);
    }
}
