//! Scatter-gather over segments.
//!
//! §4.3: "the query is first decomposed into sub-plans which execute on
//! the distributed segments in parallel, and then the plan results are
//! aggregated and merged into a final one". [`gather`] is that mechanism,
//! once: the embedded table, the broker and the offline side of a hybrid
//! table each hand it a way to serve segment `i` and get back the merged
//! partial and its ledger. [`scatter`] underneath fans the sub-queries
//! across a scoped worker pool; workers pull task indices from a shared
//! atomic cursor so uneven segment sizes balance automatically.

use crate::query::{PartialAgg, PartialResult, Query};
use rtdi_common::{Error, Result};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The host's core count, asked of the OS once per process: the answer
/// reads cgroup files and allocates, which no query and no ingest round
/// should pay again.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Resolve a configured thread count: `0` means one worker per available
/// core, and the pool never exceeds the task count. One task or none is
/// one worker, decided before the core count is looked at.
pub fn effective_threads(configured: usize, tasks: usize) -> usize {
    if tasks <= 1 {
        return 1;
    }
    let t = if configured == 0 { cores() } else { configured };
    t.min(tasks).max(1)
}

/// Run `f(i)` for every task in `0..tasks` on up to `threads` workers and
/// return the results in task order (so merge order — and therefore
/// floating-point aggregation — is deterministic regardless of which
/// worker ran which task). The calling thread is one of the workers:
/// `threads - 1` scoped threads are spawned beside it. Falls back to a
/// plain loop when one worker suffices. A worker that panics, the caller
/// included, loses the results it held: every slot it had claimed reports
/// `Error::Internal`, the rest still answer.
pub fn scatter<T, F>(tasks: usize, threads: usize, f: F) -> Vec<Result<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    let threads = effective_threads(threads, tasks);
    if threads <= 1 {
        return (0..tasks).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let work = || {
        let mut mine = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= tasks {
                break;
            }
            mine.push((i, f(i)));
        }
        mine
    };
    let mut out: Vec<Option<Result<T>>> = (0..tasks).map(|_| None).collect();
    std::thread::scope(|s| {
        let workers: Vec<_> = (1..threads).map(|_| s.spawn(work)).collect();
        // a panicked worker's claims stay `None`
        let own = panic::catch_unwind(AssertUnwindSafe(work)).unwrap_or_default();
        let theirs = workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_default());
        for (i, r) in theirs.chain(own) {
            out[i] = Some(r);
        }
    });
    // every index is claimed exactly once and a worker that returns hands
    // in all of its claims, so an empty slot is a dead worker's
    let lost: Vec<usize> = (0..tasks).filter(|&i| out[i].is_none()).collect();
    let dead = || {
        Error::Internal(format!(
            "scatter worker panicked holding task slots {lost:?}"
        ))
    };
    out.into_iter()
        .map(|r| r.unwrap_or_else(|| Err(dead())))
        .collect()
}

/// Serve `tasks` segments through `serve` on up to `threads` workers and
/// fold what they return into `out`, in task order — into the caller's
/// accumulator rather than a fresh one, so a caller that served segments
/// before the scatter keeps one left-to-right merge order (floating-point
/// sums depend on it). This is the one place that decides what a segment's
/// outcome means: the deadline is checked before each segment is served
/// and an expired one sheds it; a segment no replica could serve
/// (`Unavailable`/`Timeout`, which only a server node raises) is booked
/// unavailable; both degrade the answer to a partial one. Any other error
/// fails the query. Whether a scan that served nothing is an error is the
/// caller's call, on the ledger it finally holds
/// ([`PartialResult::finalize`]).
pub fn gather<F>(
    out: &mut PartialResult,
    query: &Query,
    tasks: usize,
    threads: usize,
    serve: F,
) -> Result<()>
where
    F: Fn(usize) -> Result<PartialAgg> + Sync,
{
    let parts = scatter(tasks, threads, |i| {
        if let Some(d) = &query.deadline {
            d.check(&query.table)?;
        }
        serve(i)
    });
    for part in parts {
        match part {
            Ok(part) => out.serve(part),
            Err(Error::DeadlineExceeded(_)) => out.ledger.shed(),
            Err(Error::Unavailable(_) | Error::Timeout(_)) => out.ledger.segments_unavailable += 1,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::collections::HashSet;

    #[test]
    fn results_arrive_in_task_order() {
        for threads in [1, 2, 4] {
            let out = scatter(17, threads, |i| Ok(i * 2));
            let vals: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(vals, (0..17).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn errors_surface_per_task() {
        let out = scatter(4, 2, |i| {
            if i == 2 {
                Err(rtdi_common::Error::Unavailable("boom".into()))
            } else {
                Ok(i)
            }
        });
        assert!(out[2].is_err());
        assert_eq!(out.iter().filter(|r| r.is_ok()).count(), 3);
    }

    /// A panicking task costs its worker, and with it only the slots that
    /// worker held. Task 0 is the first claim of whichever worker draws it,
    /// so that worker dies holding nothing else: every other slot answers.
    #[test]
    fn a_panicking_task_fails_its_slot_not_the_caller() {
        let out = scatter(9, 2, |i| {
            if i == 0 {
                panic!("kernel bug in task {i}");
            }
            Ok(i * 2)
        });
        match &out[0] {
            Err(Error::Internal(msg)) => assert!(msg.contains("task slots [0]"), "{msg}"),
            other => panic!("slot 0 must report the dead worker, got {other:?}"),
        }
        let rest: Vec<usize> = out.into_iter().skip(1).map(|r| r.unwrap()).collect();
        assert_eq!(rest, (1..9).map(|i| i * 2).collect::<Vec<_>>());
    }

    /// `gather` driven by a fake `serve` over a seeded pattern of outcomes:
    /// the ledger counts the pattern, groups fold and rows concatenate in
    /// task order whatever the worker count, and a hard error wins.
    #[test]
    fn gather_books_every_outcome_and_merges_in_task_order() {
        use crate::groups::Groups;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use rtdi_common::{AggFn, Row, Value};

        #[derive(Clone, Copy, PartialEq)]
        enum Outcome {
            Served,
            Shed,
            Unavailable,
            TimedOut,
            Corrupt,
        }
        let sum = AggFn::Sum("x".into());
        // a sum whose low bits depend on the order it was added up in
        let x = |i: usize| [1e16, 1.0, -1e16, 3.0][i % 4] * (i + 1) as f64;
        let serve = |pattern: &[Outcome], i: usize| match pattern[i] {
            Outcome::Served => {
                let mut part = PartialAgg {
                    docs_scanned: i as u64,
                    ..Default::default()
                };
                let mut acc = sum.new_acc();
                acc.add_num(x(i));
                part.groups = Groups::from_sorted(1, [Some("g")].into_iter(), vec![acc]);
                part.rows.push(Row::new().with("task", i as i64));
                Ok(part)
            }
            Outcome::Shed => Err(Error::DeadlineExceeded(format!("task {i}"))),
            Outcome::Unavailable => Err(Error::Unavailable(format!("task {i}"))),
            Outcome::TimedOut => Err(Error::Timeout(format!("task {i}"))),
            Outcome::Corrupt => Err(Error::Corruption(format!("task {i}"))),
        };
        let grouped = Query::select_all("t")
            .aggregate("s", sum.clone())
            .group(&["g"]);
        let rows = Query::select_all("t");
        let mut rng = StdRng::seed_from_u64(0x6A7B);
        for round in 0..24 {
            let degraded = [Outcome::Shed, Outcome::Unavailable, Outcome::TimedOut];
            let pattern: Vec<Outcome> = (0..rng.gen_range(0..40))
                // the first rounds serve everything: `partial()` must stay false
                .map(
                    |_| match rng.gen_range(0..if round < 4 { 1usize } else { 6 }) {
                        n @ 3..=5 => degraded[n - 3],
                        _ => Outcome::Served,
                    },
                )
                .collect();
            let count = |o: Outcome| pattern.iter().filter(|&&p| p == o).count() as u64;
            let served: Vec<usize> = (0..pattern.len())
                .filter(|&i| pattern[i] == Outcome::Served)
                .collect();
            // what one left-to-right pass over the served tasks adds up to
            let mut expect_sum = sum.new_acc();
            for &i in &served {
                let mut acc = sum.new_acc();
                acc.add_num(x(i));
                expect_sum.merge(&acc);
            }
            for threads in [1, 4] {
                for query in [&grouped, &rows] {
                    let mut out = PartialResult::default();
                    let n = pattern.len();
                    gather(&mut out, query, n, threads, |i| serve(&pattern, i)).unwrap();
                    let ledger = out.ledger;
                    assert_eq!(ledger.segments_queried, served.len() as u64);
                    assert_eq!(ledger.segments_shed, count(Outcome::Shed));
                    assert_eq!(
                        ledger.segments_unavailable,
                        count(Outcome::Unavailable) + count(Outcome::TimedOut)
                    );
                    assert_eq!(ledger.segments_pruned, 0);
                    assert_eq!(ledger.docs_scanned, served.iter().sum::<usize>() as u64);
                    assert_eq!(ledger.deadline_exceeded, ledger.segments_shed > 0);
                    assert_eq!(ledger.partial(), served.len() < n);
                    let tasks: Vec<Value> = served.iter().map(|&i| Value::Int(i as i64)).collect();
                    let got: Vec<Value> = out
                        .agg
                        .rows
                        .iter()
                        .map(|r| r.get("task").unwrap().clone())
                        .collect();
                    assert_eq!(got, tasks, "rows concatenate in task order");
                    let merged = out
                        .agg
                        .groups
                        .iter()
                        .next()
                        .map(|(_, accs)| accs[0].result());
                    let expect = (!served.is_empty()).then(|| expect_sum.result());
                    assert_eq!(merged, expect, "groups fold in task order");
                }
            }
            // one corrupt segment anywhere fails the query, whatever else
            // was shed or unavailable around it
            if !pattern.is_empty() {
                let mut broken = pattern.clone();
                broken[rng.gen_range(0..pattern.len())] = Outcome::Corrupt;
                for threads in [1, 4] {
                    let mut out = PartialResult::default();
                    let res = gather(&mut out, &grouped, broken.len(), threads, |i| {
                        serve(&broken, i)
                    });
                    assert!(matches!(res, Err(Error::Corruption(_))), "{res:?}");
                }
            }
        }
    }

    #[test]
    fn multiple_workers_participate() {
        // structural check (host may be single-core): with 2 configured
        // workers and enough tasks, at least 2 distinct threads run tasks
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        let out = scatter(64, 2, |i| {
            seen.lock().insert(std::thread::current().id());
            std::thread::sleep(std::time::Duration::from_micros(200));
            Ok(i)
        });
        assert_eq!(out.len(), 64);
        assert!(
            seen.lock().len() >= 2,
            "expected at least 2 worker threads, saw {}",
            seen.lock().len()
        );
    }

    /// The calling thread is a worker, and a panic on it is caught as a
    /// spawned worker's is: it costs the one slot the caller held, not the
    /// call. The spawned worker's first task waits until the caller has
    /// claimed one, so the caller always holds exactly one.
    #[test]
    fn a_panicking_caller_fails_its_slot_not_the_call() {
        use std::sync::atomic::AtomicBool;
        let caller = std::thread::current().id();
        let claimed = AtomicBool::new(false);
        let out = scatter(16, 2, |i| {
            if std::thread::current().id() == caller {
                claimed.store(true, Ordering::SeqCst);
                panic!("the caller's task {i}");
            }
            while !claimed.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            Ok(i)
        });
        let lost: Vec<usize> = (0..16).filter(|&i| out[i].is_err()).collect();
        assert_eq!(
            lost.len(),
            1,
            "the caller dies on its first claim: {lost:?}"
        );
        for (i, r) in out.into_iter().enumerate() {
            match r {
                Ok(v) => assert_eq!(v, i),
                Err(Error::Internal(msg)) => assert!(msg.contains(&format!("[{i}]")), "{msg}"),
                Err(e) => panic!("slot {i}: {e:?}"),
            }
        }
    }

    #[test]
    fn zero_threads_means_auto() {
        assert!(effective_threads(0, 100) >= 1);
        assert_eq!(effective_threads(8, 3), 3);
        assert_eq!(effective_threads(2, 100), 2);
        assert_eq!(effective_threads(4, 0), 1);
        assert_eq!(effective_threads(0, 1), 1);
    }
}
