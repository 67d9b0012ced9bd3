//! The equivalence oracle for [`crate::runtime::run_staged_with`].
//!
//! [`run_reference`] executes a job the plainest way there is: one thread,
//! one record at a time through the unfused, unsharded operator chain, one
//! watermark cascade per source poll (the staged pump's cadence) and a
//! `Timestamp::MAX` flush at the end. It has no checkpointing, recovery,
//! tracing, fault points or configuration, and shares no driver code with
//! the staged runtime — which is what makes it worth comparing against.
//!
//! Test-only by convention: the crate's unit tests, the umbrella crate's
//! `tests/` and `crates/bench` call it; production paths never do, and it
//! is deliberately not re-exported from the crate root.

use crate::operator::Operator;
use crate::runtime::{Job, JobRunStats, StageStats};
use crate::sink::Sink;
use crate::watermark::watermark;
use rtdi_common::{Record, Result, Timestamp};
use std::sync::Arc;

/// Run a bounded job to completion on the calling thread. The returned
/// stats carry the record counts and one [`StageStats`] per logical
/// operator (name and late drops).
pub fn run_reference(mut job: Job) -> Result<JobRunStats> {
    let mut stats = JobRunStats::default();
    loop {
        let batch = job.source.poll_batch(512)?;
        if batch.is_empty() {
            if job.source.is_exhausted() {
                break;
            }
            std::thread::yield_now();
            continue;
        }
        for record in batch {
            stats.records_in += 1;
            stats.records_out += push_chain(&mut job.operators, record, job.sink.as_mut())?;
        }
        let wm = watermark(job.source.event_time(), job.max_out_of_orderness);
        stats.records_out += cascade_watermark(&mut job.operators, wm, job.sink.as_mut())?;
    }
    // end of input: flush every window
    stats.records_out += cascade_watermark(&mut job.operators, Timestamp::MAX, job.sink.as_mut())?;
    job.sink.flush()?;
    stats.stages = job
        .operators
        .iter()
        .map(|op| StageStats {
            stage: op.name().to_string(),
            operators: op.operator_names(),
            late_dropped: op.late_dropped(),
            ..StageStats::default()
        })
        .collect();
    Ok(stats)
}

/// Push one record through the chain; returns records written to the sink.
fn push_chain(
    operators: &mut [Box<dyn Operator>],
    record: Arc<Record>,
    sink: &mut dyn Sink,
) -> Result<u64> {
    let mut current = vec![record];
    for op in operators.iter_mut() {
        let mut next = Vec::new();
        for r in &current {
            op.process(r, &mut next)?;
        }
        current = next;
        if current.is_empty() {
            return Ok(0);
        }
    }
    let n = current.len() as u64;
    for r in current {
        // copies only a record the source still holds (a filter's output)
        sink.write(Arc::unwrap_or_clone(r))?;
    }
    Ok(n)
}

/// Advance the watermark through the chain; emissions from operator i flow
/// through operators i+1.. and into the sink.
fn cascade_watermark(
    operators: &mut [Box<dyn Operator>],
    wm: Timestamp,
    sink: &mut dyn Sink,
) -> Result<u64> {
    let mut written = 0u64;
    for i in 0..operators.len() {
        let mut emitted = Vec::new();
        operators[i].on_watermark(wm, &mut emitted);
        for rec in emitted {
            let (_, rest) = operators.split_at_mut(i + 1);
            written += push_chain(rest, rec, sink)?;
        }
    }
    Ok(written)
}
