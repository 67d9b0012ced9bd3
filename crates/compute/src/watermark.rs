//! Watermarks: event-time progress tracking.
//!
//! The runtime generates bounded-out-of-orderness watermarks: after seeing
//! an event at time `t`, it promises no event older than
//! `t - max_out_of_orderness` will matter — older events are "late" and
//! the surge pipeline (§5.1) explicitly drops them ("the late-arriving
//! messages do not contribute to the surge computation").
//!
//! The Kappa+ backfill (§7) runs the same pipelines with a much larger
//! bound because archived data "could be out of order and therefore demand
//! larger window for buffering".

use rtdi_common::Timestamp;

/// Bounded-out-of-orderness watermark generator.
#[derive(Debug, Clone)]
pub struct WatermarkGenerator {
    max_out_of_orderness: i64,
    max_seen: Timestamp,
}

impl WatermarkGenerator {
    pub fn new(max_out_of_orderness: i64) -> Self {
        WatermarkGenerator {
            max_out_of_orderness: max_out_of_orderness.max(0),
            max_seen: Timestamp::MIN,
        }
    }

    /// Observe an event timestamp.
    pub fn observe(&mut self, ts: Timestamp) {
        if ts > self.max_seen {
            self.max_seen = ts;
        }
    }

    /// Current watermark: no event with `ts <= watermark` is expected
    /// anymore (Flink semantics: watermark t means no more elements with
    /// timestamp <= t).
    pub fn current(&self) -> Timestamp {
        if self.max_seen == Timestamp::MIN {
            Timestamp::MIN
        } else {
            self.max_seen.saturating_sub(self.max_out_of_orderness + 1)
        }
    }

    pub fn max_out_of_orderness(&self) -> i64 {
        self.max_out_of_orderness
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermark_trails_max_by_bound() {
        let mut g = WatermarkGenerator::new(100);
        assert_eq!(g.current(), Timestamp::MIN);
        g.observe(1000);
        assert_eq!(g.current(), 899);
        g.observe(500); // out-of-order event does not regress the watermark
        assert_eq!(g.current(), 899);
        g.observe(2000);
        assert_eq!(g.current(), 1899);
    }

    #[test]
    fn zero_bound_means_strictly_ordered() {
        let mut g = WatermarkGenerator::new(0);
        g.observe(10);
        assert_eq!(g.current(), 9);
    }

    #[test]
    fn negative_bound_clamped() {
        let mut g = WatermarkGenerator::new(-5);
        g.observe(10);
        assert_eq!(g.current(), 9);
        assert_eq!(g.max_out_of_orderness(), 0);
    }
}
