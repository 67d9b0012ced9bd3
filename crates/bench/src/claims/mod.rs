//! The paper's quantitative claims (E1–E30, DESIGN.md §3) as typed rows.
//!
//! Each experiment is a plain function that builds its fixture at one
//! fixed size, measures, and records [`Claim`]s whose `holds` is a shape
//! predicate over counts, bytes, logical-clock milliseconds and ratios of
//! those — values that repeat exactly on a noisy host. Wall times are
//! recorded beside them as ungated [`Timing`]s. `tests/paper_claims.rs`
//! runs [`run_all`] in tier-1, asserts every `holds`, and compares
//! [`Report::table`] with the block recorded in EXPERIMENTS.md.
//!
//! The allocation counter is process-wide, so the experiments run one
//! after another on the calling thread; an experiment that injects a
//! fault does it through a `Chaos` handle of its own.

pub mod compute;
pub mod multiregion;
pub mod olap;
pub mod sql;
pub mod stream;
pub mod usecases;

use rtdi_common::{Error, Result};
use std::fmt::Write;
use std::time::{Duration, Instant};

/// One "paper says X, we measure Y, the shape holds" row.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// `E<n>.<aspect>`; the part before the dot is the DESIGN.md §3 row.
    pub id: &'static str,
    pub paper_source: &'static str,
    pub paper_value: &'static str,
    pub measured: f64,
    pub unit: &'static str,
    pub holds: bool,
}

/// A wall time printed beside the table, never asserted.
#[derive(Debug, Clone)]
pub struct Timing {
    pub id: &'static str,
    pub what: String,
    pub elapsed: Duration,
}

#[derive(Debug, Default)]
pub struct Report {
    pub claims: Vec<Claim>,
    pub timings: Vec<Timing>,
}

impl Report {
    pub fn claim(
        &mut self,
        id: &'static str,
        paper_source: &'static str,
        paper_value: &'static str,
        measured: f64,
        unit: &'static str,
        holds: bool,
    ) {
        self.claims.push(Claim {
            id,
            paper_source,
            paper_value,
            measured,
            unit,
            holds,
        });
    }

    /// Run `f`, record its wall time under `id`, hand its value back.
    pub fn timed<T>(
        &mut self,
        id: &'static str,
        what: impl Into<String>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.timings.push(Timing {
            id,
            what: what.into(),
            elapsed: start.elapsed(),
        });
        out
    }

    /// The claims as a markdown table, ordered by experiment number (rows
    /// of one experiment keep the order they were recorded in). Whole
    /// numbers print as integers, everything else with two decimals.
    pub fn table(&self) -> String {
        let mut rows: Vec<&Claim> = self.claims.iter().collect();
        rows.sort_by_key(|c| experiment_number(c.id));
        let mut out = String::from(
            "| Claim | Paper | Paper says | Measured | Unit | Holds |\n|---|---|---|---|---|---|\n",
        );
        for c in rows {
            let measured = if c.measured.fract() == 0.0 && c.measured.abs() < 1e15 {
                format!("{}", c.measured as i64)
            } else {
                format!("{:.2}", c.measured)
            };
            let holds = if c.holds { "yes" } else { "NO" };
            // writing to a String cannot fail
            let _ = writeln!(
                out,
                "| {} | {} | {} | {measured} | {} | {holds} |",
                c.id, c.paper_source, c.paper_value, c.unit
            );
        }
        out
    }
}

/// `"E27.bytes"` -> 27; ids that do not parse sort last.
pub fn experiment_number(id: &str) -> u32 {
    let digits = id.trim_start_matches('E');
    let end = digits.find('.').unwrap_or(digits.len());
    digits[..end].parse().unwrap_or(u32::MAX)
}

/// Every experiment, layer by layer.
pub fn run_all() -> Result<Report> {
    let mut r = Report::default();
    stream::claims(&mut r)?;
    compute::claims(&mut r)?;
    olap::claims(&mut r)?;
    sql::claims(&mut r)?;
    usecases::claims(&mut r)?;
    multiregion::claims(&mut r)?;
    Ok(r)
}

/// `Option` to `Result`, for values a fixture is known to produce.
fn present<T>(value: Option<T>, what: &str) -> Result<T> {
    value.ok_or_else(|| Error::Internal(format!("claims fixture: no {what}")))
}
