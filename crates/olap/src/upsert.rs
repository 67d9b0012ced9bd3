//! Upsert support (§4.3.1).
//!
//! "The key technical challenge for upsert is tracking the locations of
//! the records with the same primary key. In a real-time system, it's very
//! complicated and inefficient to keep track of these locations in a
//! centralized manner... we organize the input stream into multiple
//! partitions by the primary key, and distribute each partition to a node
//! for processing. As a result, all the records with the same primary key
//! are assigned to the same node... a shared-nothing solution."
//!
//! One [`PrimaryKeyIndex`] exists *per partition*; because the stream is
//! partitioned by primary key, no cross-partition coordination is ever
//! needed. Each index maps primary key -> current (segment, doc) location
//! and maintains per-segment valid-doc bitmaps that query execution
//! intersects with its filter results.

use rtdi_common::Value;
use rtdi_storage::bitmap::Bitmap;
use std::collections::HashMap;
use std::sync::Arc;

/// Location of the current version of a primary key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordLocation {
    /// The segment's own name, shared: a location costs a pointer bump.
    pub segment: Arc<str>,
    pub doc_id: usize,
}

/// Per-partition primary-key -> location tracking with valid-doc bitmaps.
#[derive(Debug, Default)]
pub struct PrimaryKeyIndex {
    locations: HashMap<String, RecordLocation>,
    /// segment name -> valid docs bitmap
    valid: HashMap<Arc<str>, Bitmap>,
}

impl PrimaryKeyIndex {
    pub fn new() -> Self {
        Self::default()
    }

    fn key_string(key: &Value) -> String {
        key.to_string()
    }

    /// Record that `key`'s newest version now lives at (segment, doc_id).
    /// Any previous location is invalidated. Returns the displaced
    /// location, if any.
    pub fn upsert(
        &mut self,
        key: &Value,
        segment: &Arc<str>,
        doc_id: usize,
    ) -> Option<RecordLocation> {
        let ks = Self::key_string(key);
        let new_loc = RecordLocation {
            segment: segment.clone(),
            doc_id,
        };
        let old = self.locations.insert(ks, new_loc);
        if let Some(prev) = &old {
            if let Some(bm) = self.valid.get_mut(&prev.segment) {
                bm.unset(prev.doc_id);
            }
        }
        let bm = self
            .valid
            .entry(segment.clone())
            .or_insert_with(|| Bitmap::new(0));
        if doc_id >= bm.len() {
            bm.resize(doc_id + 1);
        }
        bm.set(doc_id);
        old
    }

    /// Current location of a key.
    pub fn location(&self, key: &Value) -> Option<&RecordLocation> {
        self.locations.get(&Self::key_string(key))
    }

    /// Valid-doc bitmap for a segment (None = segment unknown, treat all
    /// docs valid — non-upsert segments).
    pub fn valid_docs(&self, segment: &str) -> Option<&Bitmap> {
        self.valid.get(segment)
    }

    pub fn memory_bytes(&self) -> usize {
        let keys: usize = self
            .locations
            .iter()
            .map(|(k, l)| k.len() + l.segment.len() + 32)
            .sum();
        let bitmaps: usize = self.valid.values().map(Bitmap::memory_bytes).sum();
        keys + bitmaps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upsert_tracks_latest_location() {
        let mut idx = PrimaryKeyIndex::new();
        assert!(idx
            .upsert(&Value::Str("trip-1".into()), &"seg-a".into(), 0)
            .is_none());
        assert!(idx
            .upsert(&Value::Str("trip-2".into()), &"seg-a".into(), 1)
            .is_none());
        // update trip-1 in a newer segment
        let displaced = idx
            .upsert(&Value::Str("trip-1".into()), &"seg-b".into(), 0)
            .unwrap();
        assert_eq!(&*displaced.segment, "seg-a");
        assert_eq!(displaced.doc_id, 0);
        assert_eq!(
            &*idx.location(&Value::Str("trip-1".into())).unwrap().segment,
            "seg-b"
        );
        assert_eq!(idx.locations.len(), 2);
    }

    #[test]
    fn valid_bitmaps_reflect_displacement() {
        let mut idx = PrimaryKeyIndex::new();
        idx.upsert(&Value::Str("k1".into()), &"seg-a".into(), 0);
        idx.upsert(&Value::Str("k2".into()), &"seg-a".into(), 1);
        idx.upsert(&Value::Str("k3".into()), &"seg-a".into(), 2);
        let bm = idx.valid_docs("seg-a").unwrap();
        assert_eq!(bm.count(), 3);
        // k2 updated within the same segment
        idx.upsert(&Value::Str("k2".into()), &"seg-a".into(), 3);
        let bm = idx.valid_docs("seg-a").unwrap();
        assert!(bm.get(0) && !bm.get(1) && bm.get(2) && bm.get(3));
        // k1 moves to another segment
        idx.upsert(&Value::Str("k1".into()), &"seg-b".into(), 0);
        assert!(!idx.valid_docs("seg-a").unwrap().get(0));
        assert!(idx.valid_docs("seg-b").unwrap().get(0));
        assert!(idx.valid_docs("never-seen").is_none());
    }

    #[test]
    fn memory_grows_with_keys() {
        let mut idx = PrimaryKeyIndex::new();
        let before = idx.memory_bytes();
        for i in 0..1000 {
            idx.upsert(&Value::Str(format!("key-{i}")), &"seg".into(), i);
        }
        assert!(idx.memory_bytes() > before + 1000 * 8);
    }
}
