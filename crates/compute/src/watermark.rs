//! Watermarks: event-time progress tracking.
//!
//! The source owns event time: [`crate::source::Source::event_time`]
//! reports the time every live input has reached (the minimum over a
//! topic's partitions or a union's children of the largest timestamp each
//! handed out; an idle input does not hold it back). The staged pump and
//! the reference runner turn that time into a bounded-out-of-orderness
//! watermark with [`watermark`]: after the source reached `t`, no event
//! older than `t - max_out_of_orderness` will matter — older events are
//! "late" and the surge pipeline (§5.1) explicitly drops them ("the
//! late-arriving messages do not contribute to the surge computation").
//!
//! The Kappa+ backfill (§7) runs the same pipelines with a much larger
//! bound because archived data "could be out of order and therefore demand
//! larger window for buffering".

use rtdi_common::Timestamp;

/// The watermark a source that reached `event_time` allows: no event with
/// `ts <= watermark` is expected anymore (Flink semantics). A negative
/// bound counts as 0; a source that reached nothing allows
/// `Timestamp::MIN`.
pub fn watermark(event_time: Timestamp, max_out_of_orderness: i64) -> Timestamp {
    if event_time == Timestamp::MIN {
        Timestamp::MIN
    } else {
        event_time.saturating_sub(max_out_of_orderness.max(0) + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermark_trails_event_time_by_bound() {
        assert_eq!(watermark(Timestamp::MIN, 100), Timestamp::MIN);
        assert_eq!(watermark(1000, 100), 899);
        assert_eq!(watermark(2000, 100), 1899);
    }

    #[test]
    fn zero_bound_means_strictly_ordered() {
        assert_eq!(watermark(10, 0), 9);
    }

    #[test]
    fn negative_bound_clamped() {
        assert_eq!(watermark(10, -5), 9);
    }

    #[test]
    fn saturates_instead_of_wrapping() {
        assert_eq!(watermark(Timestamp::MIN + 1, 100), Timestamp::MIN);
    }
}
