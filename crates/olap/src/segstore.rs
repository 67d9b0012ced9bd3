//! Segment archival: centralized controller vs peer-to-peer (§4.3.4).
//!
//! "The original design of Apache Pinot introduced a strict dependency on
//! an external archival or 'segment store'... completed segments had to be
//! synchronously backed up to this segment store to recover from any
//! subsequent failures. In addition, this backup was done through one
//! single controller. Needless to say, this was a huge scalability
//! bottleneck and caused data freshness violation... Our team designed and
//! implemented an asynchronous solution wherein server replicas can serve
//! the archived segments in case of failures."
//!
//! [`SegmentStoreMode::Centralized`] reproduces the original design:
//! sealed segments block ingestion while a single controller uploads them.
//! [`SegmentStoreMode::PeerToPeer`] reproduces Uber's scheme: sealing
//! returns immediately, uploads happen asynchronously, and recovery
//! prefers fetching from a peer replica over the deep store.

use crate::segment::{IndexSpec, Segment};
use parking_lot::Mutex;
use rtdi_common::{Error, Result, RetryPolicy};
use rtdi_storage::object::ObjectStore;
use std::sync::Arc;

/// Backup strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentStoreMode {
    /// Synchronous upload through a single controller (the bottleneck).
    Centralized,
    /// Asynchronous upload; replicas serve recovery in the meantime.
    PeerToPeer,
}

/// Deep store for sealed segments.
pub struct SegmentStore {
    store: Arc<dyn ObjectStore>,
    mode: SegmentStoreMode,
    /// The single-controller lock of the centralized scheme.
    controller: Mutex<()>,
    /// Pending async uploads (peer-to-peer mode).
    pending: Mutex<Vec<(String, Arc<Segment>)>>,
    /// Index spec to rebuild indices on recovery from the deep store.
    index_spec: IndexSpec,
}

impl SegmentStore {
    pub fn new(store: Arc<dyn ObjectStore>, mode: SegmentStoreMode, index_spec: IndexSpec) -> Self {
        SegmentStore {
            store,
            mode,
            controller: Mutex::new(()),
            pending: Mutex::new(Vec::new()),
            index_spec,
        }
    }

    fn key(table: &str, segment: &str) -> String {
        format!("segments/{table}/{segment}")
    }

    fn upload(&self, table: &str, segment: &Segment) -> Result<()> {
        // real on-disk segment bytes: dictionary/bit-packed columns, zone
        // maps and a CRC-checked footer (not a row-oriented stand-in)
        let data = segment.persist()?;
        let key = Self::key(table, segment.name());
        // same-key overwrite: retrying a flaky archive put is idempotent
        RetryPolicy::transient().run(|_| self.store.put(&key, data.clone()))
    }

    /// Back up a sealed segment.
    ///
    /// Centralized: blocks on the controller lock until the upload
    /// completes — the caller (ingestion) stalls, hurting freshness.
    /// Peer-to-peer: enqueue and return immediately.
    pub fn backup(&self, table: &str, segment: Arc<Segment>) -> Result<()> {
        match self.mode {
            SegmentStoreMode::Centralized => {
                let _controller = self.controller.lock();
                self.upload(table, &segment)
            }
            SegmentStoreMode::PeerToPeer => {
                self.pending.lock().push((table.to_string(), segment));
                Ok(())
            }
        }
    }

    /// Complete queued async uploads (a background thread in production;
    /// explicit here for determinism). Returns how many uploaded.
    pub fn flush_pending(&self) -> Result<usize> {
        let drained: Vec<(String, Arc<Segment>)> = self.pending.lock().drain(..).collect();
        let n = drained.len();
        for (table, seg) in drained {
            self.upload(&table, &seg)?;
        }
        Ok(n)
    }

    pub fn pending_count(&self) -> usize {
        self.pending.lock().len()
    }

    /// Recover a segment after a replica failure.
    ///
    /// Peer-to-peer mode tries the provided peers first ("server replicas
    /// can serve the archived segments"); both modes fall back to the deep
    /// store, rebuilding indices from the archived data.
    pub fn recover(
        &self,
        table: &str,
        segment: &str,
        peers: &[Arc<crate::broker::ServerNode>],
    ) -> Result<Arc<Segment>> {
        if self.mode == SegmentStoreMode::PeerToPeer {
            for peer in peers {
                if let Ok(seg) = peer.fetch_segment(segment) {
                    return Ok(seg);
                }
            }
        }
        // transiently flaky deep store is retried before the segment is
        // declared unrecoverable
        let key = Self::key(table, segment);
        let data = RetryPolicy::new(3)
            .with_backoff_us(50, 2_000)
            .run(|_| self.store.get(&key))
            .map_err(|_| Error::NotFound(format!("segment '{segment}' unrecoverable")))?;
        // damaged objects surface as Error::Corruption (CRC/bounds checks
        // in the decoder) — never a panic, and never masked as NotFound
        let lazy = Segment::load_lazy(data)?;
        Ok(Arc::new(lazy.into_segment(&self.index_spec)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::ServerNode;
    use crate::query::Query;
    use rtdi_common::{AggFn, FieldType, Row, Schema};
    use rtdi_storage::object::{FaultyStore, InMemoryStore};

    fn schema() -> Schema {
        Schema::of("t", &[("city", FieldType::Str), ("v", FieldType::Int)])
    }

    fn seg(name: &str, n: usize) -> Arc<Segment> {
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                Row::new()
                    .with("city", ["sf", "la"][i % 2])
                    .with("v", i as i64)
            })
            .collect();
        Arc::new(Segment::build(name, &schema(), rows, &IndexSpec::none()).unwrap())
    }

    /// Is the segment in the deep store?
    fn archived(ss: &SegmentStore, segment: &str) -> bool {
        ss.store.exists(&SegmentStore::key("t", segment)).unwrap()
    }

    #[test]
    fn centralized_backup_is_synchronous() {
        let ss = SegmentStore::new(
            Arc::new(InMemoryStore::new()),
            SegmentStoreMode::Centralized,
            IndexSpec::none(),
        );
        ss.backup("t", seg("s1", 10)).unwrap();
        assert!(archived(&ss, "s1"));
        assert_eq!(ss.pending_count(), 0);
    }

    #[test]
    fn p2p_backup_is_asynchronous() {
        let ss = SegmentStore::new(
            Arc::new(InMemoryStore::new()),
            SegmentStoreMode::PeerToPeer,
            IndexSpec::none(),
        );
        ss.backup("t", seg("s1", 10)).unwrap();
        assert!(!archived(&ss, "s1"), "upload deferred");
        assert_eq!(ss.pending_count(), 1);
        assert_eq!(ss.flush_pending().unwrap(), 1);
        assert!(archived(&ss, "s1"));
    }

    #[test]
    fn recovery_from_deep_store_rebuilds_indices() {
        let ss = SegmentStore::new(
            Arc::new(InMemoryStore::new()),
            SegmentStoreMode::Centralized,
            IndexSpec::none().with_inverted(&["city"]),
        );
        let original = seg("s1", 100);
        ss.backup("t", original.clone()).unwrap();
        let recovered = ss.recover("t", "s1", &[]).unwrap();
        assert_eq!(recovered.doc_count(), 100);
        let q = Query::select_all("t")
            .filter(crate::query::Predicate::eq("city", "sf"))
            .aggregate("n", AggFn::Count);
        assert_eq!(
            recovered.execute(&q, None).unwrap().rows[0].get_int("n"),
            original.execute(&q, None).unwrap().rows[0].get_int("n"),
        );
    }

    #[test]
    fn p2p_recovery_prefers_live_peer() {
        // deep store is down; a peer replica still serves the segment
        let faulty = FaultyStore::new(InMemoryStore::new());
        faulty.set_down(true);
        let ss = SegmentStore::new(
            Arc::new(faulty),
            SegmentStoreMode::PeerToPeer,
            IndexSpec::none(),
        );
        let peer = ServerNode::new(0);
        peer.host(seg("s1", 50));
        let recovered = ss.recover("t", "s1", &[peer]).unwrap();
        assert_eq!(recovered.doc_count(), 50);
        // centralized mode cannot use peers: unrecoverable
        let faulty2 = FaultyStore::new(InMemoryStore::new());
        faulty2.set_down(true);
        let ss2 = SegmentStore::new(
            Arc::new(faulty2),
            SegmentStoreMode::Centralized,
            IndexSpec::none(),
        );
        let peer2 = ServerNode::new(0);
        peer2.host(seg("s1", 50));
        assert!(ss2.recover("t", "s1", &[peer2]).is_err());
    }

    #[test]
    fn backup_writes_real_segment_bytes() {
        let object_store = Arc::new(InMemoryStore::new());
        let ss = SegmentStore::new(
            object_store.clone(),
            SegmentStoreMode::Centralized,
            IndexSpec::none(),
        );
        ss.backup("t", seg("s1", 100)).unwrap();
        let data = object_store.get("segments/t/s1").unwrap();
        assert!(
            rtdi_storage::SegmentFile::open(data).is_ok(),
            "deep-store object is not in the on-disk segment format"
        );
    }

    #[test]
    fn corrupt_deep_store_object_errors_cleanly() {
        let object_store = Arc::new(InMemoryStore::new());
        let ss = SegmentStore::new(
            object_store.clone(),
            SegmentStoreMode::Centralized,
            IndexSpec::none().with_inverted(&["city"]),
        );
        ss.backup("t", seg("s1", 100)).unwrap();
        let pristine = object_store.get("segments/t/s1").unwrap().to_vec();
        // single-byte flips anywhere must surface as Error::Corruption —
        // never a panic, and never masked as NotFound
        for pos in [0usize, 4, 11, pristine.len() / 2, pristine.len() - 5] {
            let mut broken = pristine.clone();
            broken[pos] ^= 0xFF;
            object_store.put("segments/t/s1", broken.into()).unwrap();
            match ss.recover("t", "s1", &[]) {
                Err(Error::Corruption(_)) => {}
                Err(other) => panic!("flip at {pos}: expected Corruption, got {other}"),
                Ok(_) => panic!("flip at {pos}: corrupt object decoded"),
            }
        }
        // truncations too
        for cut in [0usize, 3, 7, pristine.len() / 3, pristine.len() - 1] {
            object_store
                .put("segments/t/s1", pristine[..cut].to_vec().into())
                .unwrap();
            match ss.recover("t", "s1", &[]) {
                Err(Error::Corruption(_)) => {}
                Err(other) => panic!("cut at {cut}: expected Corruption, got {other}"),
                Ok(_) => panic!("cut at {cut}: truncated object decoded"),
            }
        }
        // the intact object still recovers
        object_store.put("segments/t/s1", pristine.into()).unwrap();
        assert_eq!(ss.recover("t", "s1", &[]).unwrap().doc_count(), 100);
    }

    #[test]
    fn p2p_recovery_falls_back_to_deep_store_when_no_peer() {
        let ss = SegmentStore::new(
            Arc::new(InMemoryStore::new()),
            SegmentStoreMode::PeerToPeer,
            IndexSpec::none(),
        );
        ss.backup("t", seg("s1", 20)).unwrap();
        ss.flush_pending().unwrap();
        let dead_peer = ServerNode::new(0);
        dead_peer.set_down(true);
        let recovered = ss.recover("t", "s1", &[dead_peer]).unwrap();
        assert_eq!(recovered.doc_count(), 20);
        assert!(ss.recover("t", "ghost", &[]).is_err());
    }
}
