//! Time sources.
//!
//! Real-time infrastructure is all about time: event time vs processing
//! time, watermarks, freshness SLAs. Components take a [`Clock`] trait
//! object so tests and the discrete-event experiments (e.g. the
//! backpressure-recovery comparison, E6) can run on a deterministic
//! [`SimClock`] while production-style benches use the [`WallClock`].

use parking_lot::Mutex;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

/// Milliseconds since the Unix epoch. All event timestamps in the stack use
/// this representation (matching Kafka/Flink/Pinot conventions).
pub type Timestamp = i64;

/// A source of "now".
pub trait Clock: Send + Sync {
    /// Current time in epoch milliseconds.
    fn now(&self) -> Timestamp;
}

/// Wall-clock time.
#[derive(Debug, Default, Clone, Copy)]
pub struct WallClock;

impl Clock for WallClock {
    fn now(&self) -> Timestamp {
        match SystemTime::now().duration_since(UNIX_EPOCH) {
            Ok(since) => since.as_millis() as Timestamp,
            Err(before) => -(before.duration().as_millis() as Timestamp),
        }
    }
}

/// Deterministic, manually-advanced clock for simulations and tests.
///
/// Cloning shares the underlying time cell, so a pipeline holding many
/// clones advances together.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now_ms: Arc<AtomicI64>,
}

impl SimClock {
    pub fn new(start: Timestamp) -> Self {
        SimClock {
            now_ms: Arc::new(AtomicI64::new(start)),
        }
    }

    /// Advance the clock by `delta_ms` and return the new now.
    pub fn advance(&self, delta_ms: i64) -> Timestamp {
        self.now_ms.fetch_add(delta_ms, Ordering::SeqCst) + delta_ms
    }

    /// Jump to an absolute time. Time never moves backwards: setting a
    /// value in the past is ignored (returns current now).
    pub fn set(&self, to: Timestamp) -> Timestamp {
        let mut cur = self.now_ms.load(Ordering::SeqCst);
        while to > cur {
            match self
                .now_ms
                .compare_exchange(cur, to, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return to,
                Err(actual) => cur = actual,
            }
        }
        cur
    }
}

impl Clock for SimClock {
    fn now(&self) -> Timestamp {
        self.now_ms.load(Ordering::SeqCst)
    }
}

/// A discrete-event simulation scheduler built on virtual time.
///
/// Used by experiments that reproduce *time-shaped* claims the paper makes
/// about production systems (e.g. "Storm took several hours to recover,
/// Flink took 20 minutes") without actually waiting hours: work items carry
/// virtual costs and the simulator advances time event by event.
type Event = Box<dyn FnOnce(&mut EventCtx) + Send>;

pub struct EventSimulator {
    clock: SimClock,
    // (due_time, seq, event) — seq breaks ties FIFO.
    queue: Mutex<std::collections::BinaryHeap<std::cmp::Reverse<(Timestamp, u64, usize)>>>,
    events: Mutex<Vec<Option<Event>>>,
    seq: AtomicI64,
}

/// Context handed to each simulated event; lets events schedule more work.
pub struct EventCtx {
    now: Timestamp,
    scheduled: Vec<(Timestamp, Event)>,
}

impl EventCtx {
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Schedule `f` to run `delay_ms` after the current event.
    pub fn schedule_in(&mut self, delay_ms: i64, f: impl FnOnce(&mut EventCtx) + Send + 'static) {
        self.scheduled
            .push((self.now + delay_ms.max(0), Box::new(f)));
    }
}

impl EventSimulator {
    pub fn new(start: Timestamp) -> Self {
        EventSimulator {
            clock: SimClock::new(start),
            queue: Mutex::new(std::collections::BinaryHeap::new()),
            events: Mutex::new(Vec::new()),
            seq: AtomicI64::new(0),
        }
    }

    pub fn clock(&self) -> SimClock {
        self.clock.clone()
    }

    /// Schedule an event at absolute virtual time `at`.
    pub fn schedule_at(&self, at: Timestamp, f: impl FnOnce(&mut EventCtx) + Send + 'static) {
        let mut events = self.events.lock();
        let idx = events.len();
        events.push(Some(Box::new(f)));
        let seq = self.seq.fetch_add(1, Ordering::SeqCst) as u64;
        self.queue
            .lock()
            .push(std::cmp::Reverse((at.max(self.clock.now()), seq, idx)));
    }

    /// Run events until the queue is empty or `until` virtual time is
    /// reached. Returns the virtual time when the simulation stopped.
    pub fn run_until(&self, until: Timestamp) -> Timestamp {
        loop {
            let next = { self.queue.lock().pop() };
            let Some(std::cmp::Reverse((at, _, idx))) = next else {
                break;
            };
            if at > until {
                // put it back; it fires after the horizon
                let seq = self.seq.fetch_add(1, Ordering::SeqCst) as u64;
                self.queue.lock().push(std::cmp::Reverse((at, seq, idx)));
                self.clock.set(until);
                return until;
            }
            self.clock.set(at);
            let f = self.events.lock()[idx].take();
            if let Some(f) = f {
                let mut ctx = EventCtx {
                    now: at,
                    scheduled: Vec::new(),
                };
                f(&mut ctx);
                for (t, g) in ctx.scheduled {
                    self.schedule_at(t, g);
                }
            }
        }
        self.clock.now()
    }

    /// Drain the entire queue regardless of horizon.
    pub fn run_to_completion(&self) -> Timestamp {
        self.run_until(Timestamp::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn wall_clock_is_reasonable() {
        let t = WallClock.now();
        // after 2020-01-01 and before 2100
        assert!(t > 1_577_836_800_000);
        assert!(t < 4_102_444_800_000);
    }

    #[test]
    fn sim_clock_advances_and_never_rewinds() {
        let c = SimClock::new(1000);
        assert_eq!(c.now(), 1000);
        assert_eq!(c.advance(500), 1500);
        assert_eq!(c.set(1200), 1500); // rewind ignored
        assert_eq!(c.set(2000), 2000);
        let c2 = c.clone();
        c2.advance(1);
        assert_eq!(c.now(), 2001); // clones share time
    }

    #[test]
    fn simulator_runs_in_time_order() {
        let sim = EventSimulator::new(0);
        let order = Arc::new(Mutex::new(Vec::new()));
        for (at, tag) in [(30i64, 'c'), (10, 'a'), (20, 'b')] {
            let order = order.clone();
            sim.schedule_at(at, move |ctx| {
                order.lock().push((ctx.now(), tag));
            });
        }
        let end = sim.run_to_completion();
        assert_eq!(end, 30);
        assert_eq!(&*order.lock(), &[(10, 'a'), (20, 'b'), (30, 'c')]);
    }

    #[test]
    fn events_can_schedule_followups() {
        let sim = EventSimulator::new(0);
        let count = Arc::new(AtomicUsize::new(0));
        let c = count.clone();
        // chain of 5 events, 100ms apart
        fn step(ctx: &mut EventCtx, c: Arc<AtomicUsize>, left: usize) {
            c.fetch_add(1, Ordering::SeqCst);
            if left > 0 {
                let c2 = c.clone();
                ctx.schedule_in(100, move |ctx| step(ctx, c2, left - 1));
            }
        }
        sim.schedule_at(0, move |ctx| step(ctx, c, 4));
        let end = sim.run_to_completion();
        assert_eq!(count.load(Ordering::SeqCst), 5);
        assert_eq!(end, 400);
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let sim = EventSimulator::new(0);
        let hits = Arc::new(AtomicUsize::new(0));
        for at in [10i64, 20, 5000] {
            let hits = hits.clone();
            sim.schedule_at(at, move |_| {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        let t = sim.run_until(100);
        assert_eq!(t, 100);
        assert_eq!(hits.load(Ordering::SeqCst), 2);
        sim.run_to_completion();
        assert_eq!(hits.load(Ordering::SeqCst), 3);
    }
}
