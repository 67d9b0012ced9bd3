//! The shape every workload shares: closed loop, one driver thread, `R`
//! identical rounds on fresh state, every timing in reference seconds (see
//! `reference.rs`) and reported as the lower quartile over the rounds.

use crate::alloc;
use crate::api::Result;
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::reference::Reference;
use crate::stats::{iqr_share, max, median, min, percentile};
use crate::trace::{Total, Tracer};
use std::path::PathBuf;
use std::time::Instant;

/// Size divisor: 1 for a measured run, 20 for `--smoke`.
#[derive(Clone, Copy)]
pub struct Scale(pub usize);

impl Scale {
    pub fn of(self, full: usize) -> usize {
        (full / self.0).max(1)
    }
}

/// Failure accounting: every error, every answer unequal to the oracle and
/// every record an answer does not reflect counts against `attempted`.
#[derive(Default)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
    /// Failures printed so far; the first few say what went wrong.
    printed: usize,
}

impl Check {
    fn note(&mut self, failed: u64, what: String) {
        self.failed += failed;
        if self.printed < 8 {
            eprintln!("FAILED: {what}");
            self.printed += 1;
        }
    }

    /// One checked answer.
    pub fn that(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.note(1, what());
        }
    }

    /// One call into the system; an error is a failed operation.
    pub fn call<T>(&mut self, what: &str, result: Result<T>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.note(1, format!("{what}: {e}"));
                None
            }
        }
    }

    /// `offered` records, `got` of them reflected where they should be.
    pub fn reflected(&mut self, what: &str, offered: u64, got: u64) {
        self.attempted += offered;
        if got != offered {
            self.note(
                offered.abs_diff(got).min(offered),
                format!("{what}: {got} of {offered} records reflected"),
            );
        }
    }

    /// A call whose answer says how many of `offered` records it reflects.
    pub fn reflecting(&mut self, what: &str, offered: u64, answer: Result<u64>) {
        let got = self.call(what, answer).unwrap_or(0);
        self.reflected(what, offered, got);
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// What one round measured.
pub struct Round {
    /// The host's slowdown around the round, set by the measuring loop.
    pub slowdown: f64,
    /// Wall seconds of the timed part.
    pub wall_s: f64,
    /// Heap allocations in the timed part.
    pub allocs: u64,
    /// One sample per verified answer of the workload's request kind.
    pub latencies_ms: Vec<f64>,
    /// Seconds of named calls, for the workload's own extra lines.
    pub parts: Vec<(&'static str, f64)>,
}

impl Round {
    pub fn new(wall_s: f64, allocs: u64, latencies_ms: Vec<f64>) -> Self {
        Round {
            slowdown: 1.0,
            wall_s,
            allocs,
            latencies_ms,
            parts: Vec::new(),
        }
    }

    pub fn part(&self, name: &str) -> f64 {
        self.parts
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, s)| s)
            .sum()
    }
}

/// What the shared end-to-end names mean on one workload.
pub struct Names {
    /// `work_per_s` counts these per wall-second of a round.
    pub work_per_s: &'static str,
    /// `latency_p50_ms` / `latency_p95_ms` are `<latency>_p50_ms` / `_p95_ms`.
    pub latency: &'static str,
    /// `allocs_per_unit` is this.
    pub allocs: &'static str,
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// Fresh state and inputs of one round.
    type Inputs;

    /// Untimed set-up shared by every round (repeated [`BUILDS`] times).
    fn build(seed: u64, scale: Scale) -> Self;
    fn names() -> Names;
    /// Units of verified work in one round.
    fn units(&self) -> u64;
    /// Untimed: fresh state and inputs for round `round`.
    fn prepare(&mut self, round: u32, check: &mut Check) -> Self::Inputs;
    /// The timed round; every answer is checked against the oracle.
    fn round(&mut self, inputs: Self::Inputs, tr: &mut Tracer, check: &mut Check) -> Round;
    /// More end-to-end lines under their own names: `(name, unit, value)`.
    fn extras(&self, _rounds: &[Round]) -> Vec<(&'static str, &'static str, f64)> {
        Vec::new()
    }
    /// Per-layer metrics of this workload's layers, from the traced rounds'
    /// spans and from isolated probes on fresh inputs.
    fn per_layer(&mut self, probe: &mut Probe, out: &mut Values);
}

/// What an isolated probe of the traced run works with.
pub struct Probe<'a> {
    pub tr: &'a mut Tracer,
    pub check: &'a mut Check,
    /// The run's `--seed` and size, for the probe's own inputs.
    pub seed: u64,
    pub scale: Scale,
    reference: &'a Reference,
}

impl Probe<'_> {
    /// Run `f`, which times its calls through the tracer, between two
    /// reference samples: its result and the host's slowdown meanwhile. The
    /// spans it leaves carry that slowdown and no round.
    pub fn bracket<T>(&mut self, f: impl FnOnce(&mut Tracer, &mut Check) -> T) -> (T, f64) {
        let first = self.tr.spans.len();
        let (out, slowdown) = self.reference.around(|| f(self.tr, self.check));
        self.tr.stamp_from(first, slowdown);
        (out, slowdown)
    }

    /// One bracketed call: its result and its reference seconds.
    pub fn call<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        count: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let ((out, seconds), slowdown) = self.bracket(|tr, _| tr.call(layer, name, count, f));
        (out, seconds / slowdown)
    }
}

pub struct Args {
    pub seed: u64,
    /// Wall seconds of the measuring loop (a traced run splits them
    /// between its untraced and its traced rounds).
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// `--smoke` runs exactly one round.
    pub one_round: bool,
}

pub struct Outcome {
    pub check: Check,
    pub end_to_end: Values,
    pub per_layer: Option<Values>,
}

/// Set-ups per run; `setup_s` is their median.
const BUILDS: usize = 3;
/// A measured run never reports from fewer rounds.
const MIN_ROUNDS: usize = 3;
/// Allocations are reported from this round (the second, or the only one):
/// a fixed round with fixed inputs, so the count repeats exactly however
/// many rounds the host had time for, and one-time initialisation in the
/// first round stays out of it.
const ALLOC_ROUND: usize = 1;

fn mean(a: f64, b: f64) -> f64 {
    (a + b) / 2.0
}

/// What a run reports of a timing that has one value per round, in
/// reference units (each round's value over that round's slowdown): the
/// lower quartile. What is left of the host's noise after the reference is
/// divided out still mostly adds time, so a low quantile repeats better than
/// the median, and the minimum is too exposed to one slow reference sample.
pub fn at_reference(per_round: &[f64]) -> f64 {
    percentile(per_round, 25.0)
}

struct Measured {
    rounds: Vec<Round>,
    /// Reference seconds of each round's untimed preparation.
    prepare_s: Vec<f64>,
}

fn measure<W: Workload>(
    w: &mut W,
    reference: &Reference,
    tr: &mut Tracer,
    check: &mut Check,
    first_round: u32,
    args: &Args,
) -> Measured {
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let started = Instant::now();
    let mut out = Measured {
        rounds: Vec::new(),
        prepare_s: Vec::new(),
    };
    let mut before = reference.slowdown();
    loop {
        let n = out.rounds.len();
        let done = if args.one_round {
            n >= 1
        } else {
            n >= MIN_ROUNDS && started.elapsed().as_secs_f64() >= seconds
        };
        if done {
            return out;
        }
        let t = Instant::now();
        let inputs = w.prepare(first_round + n as u32, check);
        let prepare_s = t.elapsed().as_secs_f64();
        let between = reference.slowdown();
        out.prepare_s.push(prepare_s / mean(before, between));
        let first_span = tr.spans.len();
        let mut round = w.round(inputs, tr, check);
        before = reference.slowdown();
        round.slowdown = mean(between, before);
        tr.stamp_from(first_span, round.slowdown);
        out.rounds.push(round);
    }
}

/// Per round, `raw` over the round's slowdown.
fn per_round(rounds: &[Round], raw: &[f64]) -> Vec<f64> {
    rounds
        .iter()
        .zip(raw)
        .map(|(r, v)| v / r.slowdown)
        .collect()
}

pub fn run<W: Workload>(args: &Args) -> Outcome {
    let reference = Reference::new(args.scale.0);
    let mut check = Check::default();
    let mut build_s = Vec::new();
    let mut built = None;
    for _ in 0..if args.one_round { 1 } else { BUILDS } {
        drop(built.take());
        let (seconds, slowdown) = reference.around(|| {
            let t = Instant::now();
            built = Some(W::build(args.seed, args.scale));
            t.elapsed().as_secs_f64()
        });
        build_s.push(seconds / slowdown);
    }
    let mut w = built.expect("built at least once");

    let plain = measure(
        &mut w,
        &reference,
        &mut Tracer::new(false),
        &mut check,
        0,
        args,
    );
    let rounds = &plain.rounds;
    let units = w.units() as f64;
    let raw_wall: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let raw_latency = |p: f64| -> Vec<f64> {
        rounds
            .iter()
            .map(|r| percentile(&r.latencies_ms, p))
            .collect()
    };
    let (raw_p50, raw_p95) = (raw_latency(50.0), raw_latency(95.0));
    let wall = per_round(rounds, &raw_wall);
    let alloc_round = rounds.get(ALLOC_ROUND).unwrap_or(&rounds[0]);
    let names = W::names();
    let (p50_name, p95_name) = (
        format!("{}_p50_ms", names.latency),
        format!("{}_p95_ms", names.latency),
    );
    // (shared name, this workload's name, value, the best raw round by the wall clock)
    let lines = [
        (
            "setup_s",
            "setup_s",
            median(&build_s) + median(&plain.prepare_s),
            None,
        ),
        (
            "work_per_s",
            names.work_per_s,
            units / at_reference(&wall),
            Some(units / min(&raw_wall)),
        ),
        (
            "latency_p50_ms",
            p50_name.as_str(),
            at_reference(&per_round(rounds, &raw_p50)),
            Some(min(&raw_p50)),
        ),
        (
            "latency_p95_ms",
            p95_name.as_str(),
            at_reference(&per_round(rounds, &raw_p95)),
            Some(min(&raw_p95)),
        ),
        (
            "allocs_per_unit",
            names.allocs,
            alloc_round.allocs as f64 / units,
            None,
        ),
        ("peak_rss_mb", "peak_rss_mb", alloc::peak_rss_mb(), None),
    ];

    let slowdowns: Vec<f64> = rounds.iter().map(|r| r.slowdown).collect();
    println!(
        "workload {} seed {} rounds {} units/round {} host slowdown median {:.2} (min {:.2}, max {:.2})",
        W::NAME,
        args.seed,
        rounds.len(),
        w.units(),
        median(&slowdowns),
        min(&slowdowns),
        max(&slowdowns)
    );
    println!(
        "end-to-end, untraced: times in reference seconds, lower quartile of rounds \
         | best raw round by the wall clock"
    );
    let mut e2e = Values::new(END_TO_END);
    for (shared, own, value, raw) in &lines {
        e2e.set(shared, *value);
        let unit = e2e.unit(shared);
        let raw = raw.map_or(String::new(), |raw| format!("| {raw:>14.4}"));
        println!("  {own:<22} = {shared:<15} {value:>14.4} {unit:<6}{raw}");
    }
    for (name, unit, value) in w.extras(rounds) {
        println!("  {name:<22}   {:<15} {value:>14.4} {unit}", "");
    }

    let per_layer = args.trace.then(|| {
        let mut tr = Tracer::new(true);
        let first = rounds.len() as u32;
        let traced = measure(&mut w, &reference, &mut tr, &mut check, first, args);
        let traced_wall: Vec<f64> = traced.rounds.iter().map(|r| r.wall_s).collect();
        let traced_wall = per_round(&traced.rounds, &traced_wall);
        let mut out = Values::new(PER_LAYER);
        out.set(
            "bench.trace_overhead_share",
            at_reference(&traced_wall) / at_reference(&wall) - 1.0,
        );
        out.set("bench.round_iqr_share", iqr_share(&wall));
        print_budget(&tr);
        w.per_layer(
            &mut Probe {
                tr: &mut tr,
                check: &mut check,
                seed: args.seed,
                scale: args.scale,
                reference: &reference,
            },
            &mut out,
        );
        out.set("bench.spans", tr.spans.len() as f64);
        println!(
            "per-layer, traced ({} rounds, {} spans): times in reference seconds",
            traced.rounds.len(),
            tr.spans.len()
        );
        for (d, v) in out.iter_set() {
            println!("  {:<38} {v:>14.4} {}", d.name, d.unit);
        }
        let path = span_file(W::NAME, args.seed);
        match tr.write_jsonl(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => check.that(false, || format!("span file {}: {e}", path.display())),
        }
        out
    });

    println!(
        "failed_share {} ({} of {} attempted)",
        check.failed_share(),
        check.failed,
        check.attempted
    );
    Outcome {
        check,
        end_to_end: e2e,
        per_layer,
    }
}

/// The traced rounds' spans named `layer`/`span`, one total per round.
fn span_totals(tr: &Tracer, layer: &str, span: &str) -> Vec<Total> {
    tr.by_round(layer, span)
        .iter()
        .map(|s| Total::of(s))
        .collect()
}

/// `<layer>.<span>_us_per_rec` from the traced rounds' spans of that name:
/// per round the spans' reference time over their count.
pub fn span_us_per_rec(tr: &Tracer, out: &mut Values, layer: &str, span: &str) {
    let us: Vec<f64> = span_totals(tr, layer, span)
        .iter()
        .map(Total::us_per_unit)
        .collect();
    out.set(&format!("{layer}.{span}_us_per_rec"), at_reference(&us));
}

/// The same, and `<layer>.<span>_allocs_per_rec` beside it.
pub fn span_rates(tr: &Tracer, out: &mut Values, layer: &str, span: &str) {
    span_us_per_rec(tr, out, layer, span);
    let allocs: Vec<f64> = span_totals(tr, layer, span)
        .iter()
        .map(Total::allocs_per_unit)
        .collect();
    out.set(&format!("{layer}.{span}_allocs_per_rec"), min(&allocs));
}

/// ROADMAP 1c's budget table: self time per layer against the rounds' wall.
fn print_budget(tr: &Tracer) {
    let (layers, wall) = tr.layer_budget();
    println!("budget: self time per layer over the traced rounds, by the wall clock");
    let mut inside = 0;
    for (layer, ns) in &layers {
        println!(
            "  {layer:<10} {:>10.3} ms {:>6.1} %",
            *ns as f64 / 1e6,
            100.0 * *ns as f64 / wall as f64
        );
        if *layer != "bench" {
            inside += ns;
        }
    }
    println!(
        "  layers sum to {:.1} % of the round wall ({:.3} ms)",
        100.0 * inside as f64 / wall as f64,
        wall as f64 / 1e6
    );
}

fn span_file(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-seed{seed}.jsonl"))
}
