//! The event envelope moved through the messaging layer.
//!
//! A [`Record`] is what producers publish and consumers receive: an
//! optional partitioning key, a structured payload ([`Row`]), an event
//! timestamp, the typed audit envelope the paper describes in §9.4 ("each
//! event is decorated with a unique identifier, application timestamp,
//! service name, tier by the Kafka client") and a small string header map
//! for caller-defined keys and the cold DLQ/proxy bookkeeping.

use crate::time::Timestamp;
use crate::value::{Row, Value};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// Well-known header keys. The audit envelope (unique id, timestamps,
/// service, origin region) is the typed [`Audit`] of a record, not headers.
pub mod headers {
    /// Number of delivery attempts so far (set by the consumer proxy).
    pub const ATTEMPTS: &str = "rtdi.attempts";
    /// Original topic for messages parked in a dead letter queue.
    pub const DLQ_SOURCE: &str = "rtdi.dlq_source";
    /// Why the record was parked: a closed `ParkReason` value
    /// (retries-exhausted | schema | poison), never free text.
    pub const DLQ_REASON: &str = "rtdi.dlq_reason";
    /// Human-readable detail (the final error) accompanying `DLQ_REASON`.
    pub const DLQ_DETAIL: &str = "rtdi.dlq_detail";
}

/// Globally unique message id: what Chaperone counts at every hop.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum UniqueId {
    /// Minted by a producer client: `origin` (interned: an id costs an
    /// `Arc` bump) names one producer instance, `seq` counts its sends.
    Seq { origin: Arc<str>, seq: u64 },
    /// Supplied by the caller.
    Text(Arc<str>),
}

impl fmt::Display for UniqueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UniqueId::Seq { origin, seq } => write!(f, "{origin}-{seq}"),
            UniqueId::Text(text) => f.write_str(text),
        }
    }
}

/// Small ordered string->string map for record headers.
///
/// Keys are `Cow<'static, str>`: the well-known [`headers`] constants are
/// stored by reference (only dynamic, caller-built keys are owned).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordHeaders {
    /// Boxed: most records carry no header and pay one pointer for it.
    entries: Option<Box<HeaderEntries>>,
}

type HeaderEntries = Vec<(Cow<'static, str>, String)>;

impl RecordHeaders {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn set(&mut self, key: impl Into<Cow<'static, str>>, value: impl Into<String>) {
        let key = key.into();
        let value = value.into();
        let entries = self.entries.get_or_insert_with(Default::default);
        if let Some(e) = entries.iter_mut().find(|(k, _)| *k == key) {
            e.1 = value;
        } else {
            entries.push((key, value));
        }
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        let entries = self.entries.iter().flat_map(|e| e.iter());
        entries.map(|(k, v)| (k.as_ref(), v.as_str()))
    }

    pub fn len(&self) -> usize {
        self.entries.as_ref().map_or(0, |e| e.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The audit envelope of a record (§9.4), typed. Who writes each field:
/// the producer client all but the last, the tracer the two stamps, the
/// multi-region topology the last.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Audit {
    /// Audit id, minted by the producer client unless the caller set one.
    pub unique_id: Option<UniqueId>,
    /// Application timestamp at produce time.
    pub app_ts: Option<Timestamp>,
    /// Timestamp of the last traced hop: each stage that owns the record
    /// restamps it, so the next measures only its own dwell (see `trace`).
    pub trace_ts: Option<Timestamp>,
    /// Producing service name (the consumer proxy's tenant).
    pub service: Option<Arc<str>>,
    /// Region where the record was originally produced.
    pub origin_region: Option<Arc<str>>,
}

/// What [`Record::audit`] shows of a record that carries no envelope.
static NO_AUDIT: Audit = Audit {
    unique_id: None,
    app_ts: None,
    trace_ts: None,
    service: None,
    origin_region: None,
};

/// One event flowing through the messaging layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Partitioning key. `None` means round-robin assignment.
    pub key: Option<Value>,
    /// Structured payload.
    pub value: Row,
    /// Event time in epoch milliseconds.
    pub timestamp: Timestamp,
    /// Caller-defined and DLQ/proxy metadata.
    pub headers: RecordHeaders,
    /// Boxed: an undecorated record (a generator's, an operator's output)
    /// pays one pointer for the envelope, not its 96 bytes.
    audit: Option<Box<Audit>>,
}

// undecorated records stay small: generators and the log hold them by the
// 100k
const _: () = assert!(std::mem::size_of::<Record>() == 80);

impl Record {
    pub fn new(value: Row, timestamp: Timestamp) -> Self {
        Record {
            key: None,
            value,
            timestamp,
            headers: RecordHeaders::new(),
            audit: None,
        }
    }

    /// Builder-style key assignment.
    pub fn with_key(mut self, key: impl Into<Value>) -> Self {
        self.key = Some(key.into());
        self
    }

    pub fn with_header(
        mut self,
        key: impl Into<Cow<'static, str>>,
        value: impl Into<String>,
    ) -> Self {
        self.headers.set(key, value);
        self
    }

    /// Builder-style caller-supplied audit id.
    pub fn with_unique_id(mut self, id: impl AsRef<str>) -> Self {
        self.audit_mut().unique_id = Some(UniqueId::Text(id.as_ref().into()));
        self
    }

    /// This record with `value` for its payload: what an operator that
    /// changes the row emits. The key, timestamp, headers and envelope are
    /// copied; the old row is not.
    pub fn rewritten(&self, value: Row) -> Self {
        Record {
            key: self.key.clone(),
            value,
            timestamp: self.timestamp,
            headers: self.headers.clone(),
            audit: self.audit.clone(),
        }
    }

    /// The audit envelope; every field `None` when the record has none.
    pub fn audit(&self) -> &Audit {
        self.audit.as_deref().unwrap_or(&NO_AUDIT)
    }

    /// The audit envelope for writing, created on first use.
    pub fn audit_mut(&mut self) -> &mut Audit {
        self.audit.get_or_insert_with(Default::default)
    }

    /// Deterministic partition choice for a keyed record; `None` for an
    /// unkeyed record or when there is no partition to choose.
    pub fn partition_for(&self, num_partitions: usize) -> Option<usize> {
        let key = self.key.as_ref()?;
        let partition = key.partition_hash().checked_rem(num_partitions as u64)?;
        Some(partition as usize)
    }

    /// Rough wire/memory size, used for throughput accounting and quota
    /// enforcement.
    pub fn approx_bytes(&self) -> usize {
        let key = self.key.as_ref().map(|_| 16).unwrap_or(0)
            + match &self.key {
                Some(Value::Str(s)) => s.len(),
                Some(Value::Bytes(b)) => b.len(),
                _ => 0,
            };
        let headers: usize = self
            .headers
            .iter()
            .map(|(k, v)| k.len() + v.len() + 8)
            .sum();
        let a = self.audit();
        let audit = match &a.unique_id {
            Some(UniqueId::Seq { origin, .. }) => origin.len() + 8,
            Some(UniqueId::Text(text)) => text.len(),
            None => 0,
        } + 8 * (a.app_ts.is_some() as usize + a.trace_ts.is_some() as usize)
            + a.service.as_ref().map_or(0, |s| s.len())
            + a.origin_region.as_ref().map_or(0, |s| s.len());
        key + self.value.approx_bytes() + headers + audit + 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headers_set_get_overwrite() {
        let mut h = RecordHeaders::new();
        h.set("a", "1");
        h.set("b", "2");
        h.set("a", "3");
        assert_eq!(h.get("a"), Some("3"));
        assert_eq!(h.get("b"), Some("2"));
        assert_eq!(h.len(), 2);
        assert_eq!(h.get("zzz"), None);
    }

    #[test]
    fn keyed_record_partitions_deterministically() {
        let r = Record::new(Row::new().with("x", 1i64), 100).with_key("driver-1");
        let p1 = r.partition_for(16).unwrap();
        let p2 = r.partition_for(16).unwrap();
        assert_eq!(p1, p2);
        assert!(p1 < 16);
    }

    #[test]
    fn unkeyed_record_has_no_partition() {
        let r = Record::new(Row::new(), 0);
        assert_eq!(r.partition_for(8), None);
    }

    #[test]
    fn partition_spread_is_reasonable() {
        // 1000 distinct keys over 16 partitions: every partition should be hit.
        let mut counts = vec![0usize; 16];
        for i in 0..1000 {
            let r = Record::new(Row::new(), 0).with_key(format!("key-{i}"));
            counts[r.partition_for(16).unwrap()] += 1;
        }
        assert!(counts.iter().all(|&c| c > 20), "skewed: {counts:?}");
    }

    #[test]
    fn unique_id_forms_render_their_text() {
        let r = Record::new(Row::new(), 5).with_unique_id("m-123");
        assert_eq!(r.audit().unique_id, Some(UniqueId::Text("m-123".into())));
        assert_eq!(Record::new(Row::new(), 5).audit(), &Audit::default());
        let minted = UniqueId::Seq {
            origin: "driver-app#0".into(),
            seq: 7,
        };
        assert_eq!(minted.to_string(), "driver-app#0-7");
        assert_eq!(r.audit().unique_id.as_ref().unwrap().to_string(), "m-123");
    }

    #[test]
    fn zero_partitions_choose_nothing() {
        let r = Record::new(Row::new(), 0).with_key(1i64);
        assert_eq!(r.partition_for(0), None);
    }
}
