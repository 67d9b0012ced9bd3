//! Time sources.
//!
//! Real-time infrastructure is all about time: event time vs processing
//! time, watermarks, freshness SLAs. Components take a [`Clock`] trait
//! object so tests, soaks and drills can run on a deterministic
//! [`SimClock`] while production-style runs use the [`WallClock`].

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
}

impl Clock for SimClock {
    fn now(&self) -> Timestamp {
        self.now_ms.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_reasonable() {
        let t = WallClock.now();
        // after 2020-01-01 and before 2100
        assert!(t > 1_577_836_800_000);
        assert!(t < 4_102_444_800_000);
    }

    #[test]
    fn sim_clock_advances_and_clones_share_time() {
        let c = SimClock::new(1000);
        assert_eq!(c.now(), 1000);
        assert_eq!(c.advance(500), 1500);
        let c2 = c.clone();
        c2.advance(1);
        assert_eq!(c.now(), 1501); // clones share time
    }
}
