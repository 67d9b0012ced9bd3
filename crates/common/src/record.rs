//! The event envelope moved through the messaging layer.
//!
//! A [`Record`] is what producers publish and consumers receive: an
//! optional partitioning key, a structured payload ([`Row`]), an event
//! timestamp, the audit envelope the paper describes in §9.4 ("each event
//! is decorated with a unique identifier, application timestamp, service
//! name, tier by the Kafka client") and a small string header map for
//! caller-defined keys and the cold DLQ/proxy bookkeeping.
//!
//! The envelope travels inside the record, so a produced record is one
//! allocation (the `Arc` the log keeps). What a producer stamps on every
//! record sits inline: one handle to the producer's [`Origin`] (its id
//! space and its service), the id's sequence number, the two timestamps
//! and the bits that say which fields are present. What is rare — a
//! caller's text id, a service set by hand, the origin region, the
//! headers — shares one box that most records never allocate. A record is
//! 104 bytes with or without an envelope.

use crate::time::Timestamp;
use crate::value::{Row, Value};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// Well-known header keys. The audit envelope (unique id, timestamps,
/// service, origin region) is read through [`Record`]'s typed accessors,
/// not headers.
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

/// Globally unique message id: what Chaperone counts at every hop. It
/// borrows its text from the record, so reading one copies nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UniqueId<'a> {
    /// Minted by a producer client: `origin` names one producer instance
    /// (its [`Origin::name`]), `seq` counts its sends.
    Seq { origin: &'a Arc<str>, seq: u64 },
    /// Supplied by the caller.
    Text(&'a Arc<str>),
}

impl fmt::Display for UniqueId<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UniqueId::Seq { origin, seq } => write!(f, "{origin}-{seq}"),
            UniqueId::Text(text) => f.write_str(text),
        }
    }
}

/// One producer instance, what it stamps on every record it sends: the id
/// space of its sequence numbers and its service. A producer makes one and
/// every record it stamps holds a handle to it.
#[derive(Debug)]
pub struct Origin {
    /// `"<service>#<instance>"`: the id space of the producer's `seq`.
    pub name: Arc<str>,
    /// Producing service name (the consumer proxy's tenant).
    pub service: Arc<str>,
}

/// Bits of [`Envelope::word`] above the inline sequence number: which
/// stamps are present, and which fields the origin handle supplies.
const HAS_APP_TS: u64 = 1 << 63;
const HAS_TRACE_TS: u64 = 1 << 62;
/// The id is `Seq { origin.name, seq }`, `seq` in the low bits.
const ORIGIN_ID: u64 = 1 << 61;
/// The service is `origin.service`.
const ORIGIN_SERVICE: u64 = 1 << 60;
/// The largest sequence number kept inline; a larger one is kept cold.
const SEQ_MASK: u64 = ORIGIN_SERVICE - 1;

/// The audit envelope and the headers of a record. Only
/// [`Record::stamp`] writes the inline id and service; every other writer
/// of a field that is not a timestamp writes the cold box.
#[derive(Clone, Default)]
struct Envelope {
    /// The producer that stamped the record, while it supplies the id or
    /// the service.
    origin: Option<Arc<Origin>>,
    /// The inline id's sequence number under [`SEQ_MASK`], flags above.
    word: u64,
    /// Application timestamp at produce time, if [`HAS_APP_TS`].
    app_ts: Timestamp,
    /// Timestamp of the last traced hop, if [`HAS_TRACE_TS`]: each stage
    /// that owns the record restamps it, so the next measures only its own
    /// dwell (see `trace`).
    trace_ts: Timestamp,
    /// Boxed: most records carry none of it and pay one pointer.
    cold: Option<Box<Cold>>,
}

/// The rare part of a record's envelope.
#[derive(Clone, Default)]
struct Cold {
    headers: Vec<(Cow<'static, str>, String)>,
    /// An id no origin handle of this record supplies: a caller's text, or
    /// a sequence number set by hand or read back from a log.
    unique_id: Option<OwnedId>,
    service: Option<Arc<str>>,
    /// Region where the record was originally produced.
    origin_region: Option<Arc<str>>,
}

#[derive(Clone)]
enum OwnedId {
    Seq(Arc<str>, u64),
    Text(Arc<str>),
}

impl OwnedId {
    fn of(id: UniqueId<'_>) -> Self {
        match id {
            UniqueId::Seq { origin, seq } => OwnedId::Seq(Arc::clone(origin), seq),
            UniqueId::Text(text) => OwnedId::Text(Arc::clone(text)),
        }
    }

    fn as_id(&self) -> UniqueId<'_> {
        match self {
            OwnedId::Seq(origin, seq) => UniqueId::Seq { origin, seq: *seq },
            OwnedId::Text(text) => UniqueId::Text(text),
        }
    }
}

/// One event flowing through the messaging layer.
#[derive(Clone)]
pub struct Record {
    /// Partitioning key. `None` means round-robin assignment.
    pub key: Option<Value>,
    /// Structured payload.
    pub value: Row,
    /// Event time in epoch milliseconds.
    pub timestamp: Timestamp,
    envelope: Envelope,
}

// generators and the log hold records by the 100k: the envelope's hot part
// is 32 bytes inline and its rare part one pointer
const _: () = assert!(std::mem::size_of::<Record>() <= 104);

/// A record's envelope as its readers see it, field by field.
type EnvelopeFields<'a> = (
    Option<UniqueId<'a>>,
    Option<Timestamp>,
    Option<Timestamp>,
    Option<&'a str>,
    Option<&'a str>,
);

impl Record {
    pub fn new(value: Row, timestamp: Timestamp) -> Self {
        Record {
            key: None,
            value,
            timestamp,
            envelope: Envelope::default(),
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
        self.set_header(key, value);
        self
    }

    /// Builder-style caller-supplied audit id.
    pub fn with_unique_id(mut self, id: impl AsRef<str>) -> Self {
        self.set_unique_id(Some(UniqueId::Text(&id.as_ref().into())));
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
            envelope: self.envelope.clone(),
        }
    }

    /// Decorate the record as `origin`'s send number `seq` at `now` (§9.4):
    /// its id (unless it has one: a caller's id is kept), both timestamps
    /// and the service. One reference-count bump, no allocation.
    pub fn stamp(&mut self, origin: &Arc<Origin>, seq: u64, now: Timestamp) {
        let same = (self.envelope.origin.as_ref()).is_some_and(|o| Arc::ptr_eq(o, origin));
        if !same && self.envelope.word & ORIGIN_ID != 0 {
            // an id another producer minted is kept, apart from its origin
            let id = self.unique_id().map(OwnedId::of);
            self.envelope.word &= !(ORIGIN_ID | SEQ_MASK);
            self.cold_mut().unique_id = id;
        }
        if self.unique_id().is_none() {
            if seq <= SEQ_MASK {
                self.envelope.word |= ORIGIN_ID | seq;
            } else {
                self.cold_mut().unique_id = Some(OwnedId::Seq(Arc::clone(&origin.name), seq));
            }
        }
        let e = &mut self.envelope;
        if let Some(cold) = &mut e.cold {
            cold.service = None;
        }
        if !same {
            e.origin = Some(Arc::clone(origin));
        }
        e.word |= HAS_APP_TS | HAS_TRACE_TS | ORIGIN_SERVICE;
        (e.app_ts, e.trace_ts) = (now, now);
    }

    /// Audit id, minted by the producer client unless the caller set one.
    pub fn unique_id(&self) -> Option<UniqueId<'_>> {
        let e = &self.envelope;
        match &e.origin {
            Some(origin) if e.word & ORIGIN_ID != 0 => Some(UniqueId::Seq {
                origin: &origin.name,
                seq: e.word & SEQ_MASK,
            }),
            _ => e.cold.as_ref()?.unique_id.as_ref().map(OwnedId::as_id),
        }
    }

    /// Application timestamp at produce time.
    pub fn app_ts(&self) -> Option<Timestamp> {
        let e = &self.envelope;
        (e.word & HAS_APP_TS != 0).then_some(e.app_ts)
    }

    /// Timestamp of the last traced hop.
    pub fn trace_ts(&self) -> Option<Timestamp> {
        let e = &self.envelope;
        (e.word & HAS_TRACE_TS != 0).then_some(e.trace_ts)
    }

    /// Producing service name (the consumer proxy's tenant).
    pub fn service(&self) -> Option<&str> {
        let e = &self.envelope;
        match &e.origin {
            Some(origin) if e.word & ORIGIN_SERVICE != 0 => Some(&origin.service),
            _ => e.cold.as_ref()?.service.as_deref(),
        }
    }

    /// Region where the record was originally produced.
    pub fn origin_region(&self) -> Option<&str> {
        self.envelope.cold.as_ref()?.origin_region.as_deref()
    }

    pub fn set_unique_id(&mut self, id: Option<UniqueId<'_>>) {
        self.envelope.word &= !(ORIGIN_ID | SEQ_MASK);
        self.set_cold(id.map(OwnedId::of), |c| &mut c.unique_id);
    }

    pub fn set_app_ts(&mut self, ts: Option<Timestamp>) {
        let e = &mut self.envelope;
        e.word = (e.word & !HAS_APP_TS) | ts.map_or(0, |_| HAS_APP_TS);
        e.app_ts = ts.unwrap_or(0);
    }

    pub fn set_trace_ts(&mut self, ts: Option<Timestamp>) {
        let e = &mut self.envelope;
        e.word = (e.word & !HAS_TRACE_TS) | ts.map_or(0, |_| HAS_TRACE_TS);
        e.trace_ts = ts.unwrap_or(0);
    }

    pub fn set_service(&mut self, service: Option<Arc<str>>) {
        self.envelope.word &= !ORIGIN_SERVICE;
        self.set_cold(service, |c| &mut c.service);
    }

    pub fn set_origin_region(&mut self, region: Option<Arc<str>>) {
        self.set_cold(region, |c| &mut c.origin_region);
    }

    /// The value of header `key`.
    pub fn header(&self, key: &str) -> Option<&str> {
        self.headers().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// The headers, in the order they were first set.
    pub fn headers(&self) -> impl ExactSizeIterator<Item = (&str, &str)> {
        let entries = self.envelope.cold.as_ref().map_or(&[][..], |c| &c.headers);
        entries.iter().map(|(k, v)| (k.as_ref(), v.as_str()))
    }

    /// Set header `key`, keeping its place when it is set already. The
    /// well-known [`headers`] constants are kept by reference.
    pub fn set_header(&mut self, key: impl Into<Cow<'static, str>>, value: impl Into<String>) {
        let (key, value) = (key.into(), value.into());
        let entries = &mut self.cold_mut().headers;
        match entries.iter_mut().find(|(k, _)| *k == key) {
            Some(entry) => entry.1 = value,
            None => entries.push((key, value)),
        }
    }

    fn cold_mut(&mut self) -> &mut Cold {
        self.envelope.cold.get_or_insert_with(Box::default)
    }

    /// Write one cold field (clearing one of a record with no cold box
    /// allocates none), and drop the origin once it supplies no field.
    fn set_cold<T>(&mut self, value: Option<T>, field: impl FnOnce(&mut Cold) -> &mut Option<T>) {
        if value.is_some() || self.envelope.cold.is_some() {
            *field(self.cold_mut()) = value;
        }
        let e = &mut self.envelope;
        if e.word & (ORIGIN_ID | ORIGIN_SERVICE) == 0 {
            e.origin = None;
        }
    }

    fn envelope_fields(&self) -> EnvelopeFields<'_> {
        (
            self.unique_id(),
            self.app_ts(),
            self.trace_ts(),
            self.service(),
            self.origin_region(),
        )
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
        let headers: usize = self.headers().map(|(k, v)| k.len() + v.len() + 8).sum();
        let audit = match self.unique_id() {
            Some(UniqueId::Seq { origin, .. }) => origin.len() + 8,
            Some(UniqueId::Text(text)) => text.len(),
            None => 0,
        } + 8 * (self.app_ts().is_some() as usize + self.trace_ts().is_some() as usize)
            + self.service().map_or(0, str::len)
            + self.origin_region().map_or(0, str::len);
        key + self.value.approx_bytes() + headers + audit + 8
    }
}

/// Records are equal when every field reads the same, however the
/// envelope holds it.
impl PartialEq for Record {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
            && self.value == other.value
            && self.timestamp == other.timestamp
            && self.envelope_fields() == other.envelope_fields()
            && self.headers().eq(other.headers())
    }
}

impl fmt::Debug for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (unique_id, app_ts, trace_ts, service, origin_region) = self.envelope_fields();
        f.debug_struct("Record")
            .field("key", &self.key)
            .field("value", &self.value)
            .field("timestamp", &self.timestamp)
            .field("unique_id", &unique_id)
            .field("app_ts", &app_ts)
            .field("trace_ts", &trace_ts)
            .field("service", &service)
            .field("origin_region", &origin_region)
            .field("headers", &self.headers().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headers_set_get_overwrite() {
        let h = Record::new(Row::new(), 0)
            .with_header("a", "1")
            .with_header("b", "2")
            .with_header("a", "3");
        assert_eq!(h.header("a"), Some("3"));
        assert_eq!(h.header("b"), Some("2"));
        assert_eq!(h.headers().len(), 2);
        assert_eq!(h.header("zzz"), None);
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
        assert_eq!(r.unique_id(), Some(UniqueId::Text(&"m-123".into())));
        assert_eq!(r.unique_id().unwrap().to_string(), "m-123");
        assert_eq!(Record::new(Row::new(), 5).unique_id(), None);
        let origin = "driver-app#0".into();
        let minted = UniqueId::Seq {
            origin: &origin,
            seq: 7,
        };
        assert_eq!(minted.to_string(), "driver-app#0-7");
    }

    #[test]
    fn a_stamp_is_inline_and_a_hand_set_field_is_cold() {
        let origin = Arc::new(Origin {
            name: "svc#1".into(),
            service: "svc".into(),
        });
        let mut r = Record::new(Row::new(), 5);
        r.stamp(&origin, 9, 100);
        assert!(r.envelope.cold.is_none());
        assert_eq!(r.unique_id().unwrap().to_string(), "svc#1-9");
        assert_eq!((r.app_ts(), r.trace_ts()), (Some(100), Some(100)));
        assert_eq!(r.service(), Some("svc"));
        // a service by hand leaves the id with the origin
        r.set_service(Some("other".into()));
        assert_eq!(r.service(), Some("other"));
        assert_eq!(r.unique_id().unwrap().to_string(), "svc#1-9");
        // another producer keeps the id and stamps its own service
        let next = Arc::new(Origin {
            name: "next#2".into(),
            service: "next".into(),
        });
        r.stamp(&next, 3, 200);
        assert_eq!(r.unique_id().unwrap().to_string(), "svc#1-9");
        assert_eq!(r.service(), Some("next"));
        // clearing the last field the origin supplied lets the origin go
        r.set_service(None);
        assert!(r.envelope.origin.is_none());
        assert_eq!(r.unique_id().unwrap().to_string(), "svc#1-9");
        // a sequence number past the inline bits is kept cold, exactly
        let mut far = Record::new(Row::new(), 5);
        far.stamp(&origin, u64::MAX, 1);
        let id = far.unique_id();
        assert_eq!(
            id.map(|id| id.to_string()).as_deref(),
            Some("svc#1-18446744073709551615")
        );
    }

    #[test]
    fn zero_partitions_choose_nothing() {
        let r = Record::new(Row::new(), 0).with_key(1i64);
        assert_eq!(r.partition_for(0), None);
    }
}
