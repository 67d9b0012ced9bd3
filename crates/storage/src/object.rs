//! Object/blob store abstraction.
//!
//! §3: "This provides a generic object or blob storage interface for all
//! the layers above it with a read after write consistency guarantee...
//! optimized for high write rate." Flink checkpoints, Pinot segment
//! archival and raw-log persistence all sit on this trait; the one
//! backend is in memory.

use bytes::Bytes;
use parking_lot::RwLock;
use rtdi_common::{Chaos, Error, FaultPoint, Result};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A flat key -> bytes store with read-after-write consistency.
pub trait ObjectStore: Send + Sync {
    /// Write (or overwrite) an object.
    fn put(&self, key: &str, data: Bytes) -> Result<()>;
    /// Read an object.
    fn get(&self, key: &str) -> Result<Bytes>;
    /// Delete an object. Deleting a missing key is not an error.
    fn delete(&self, key: &str) -> Result<()>;
    /// List keys with the given prefix, sorted.
    fn list(&self, prefix: &str) -> Result<Vec<String>>;
    /// Whether a key exists.
    fn exists(&self, key: &str) -> Result<bool> {
        Ok(self.list(key)?.iter().any(|k| k == key))
    }
}

/// In-memory object store; the default backend for tests and benches.
#[derive(Debug, Default)]
pub struct InMemoryStore {
    objects: RwLock<BTreeMap<String, Bytes>>,
}

impl InMemoryStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Current total stored bytes.
    pub fn stored_bytes(&self) -> u64 {
        self.objects.read().values().map(|b| b.len() as u64).sum()
    }

    pub fn object_count(&self) -> usize {
        self.objects.read().len()
    }
}

impl ObjectStore for InMemoryStore {
    fn put(&self, key: &str, data: Bytes) -> Result<()> {
        self.objects.write().insert(key.to_string(), data);
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Bytes> {
        self.objects
            .read()
            .get(key)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("object '{key}'")))
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.objects.write().remove(key);
        Ok(())
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        Ok(self
            .objects
            .read()
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect())
    }

    fn exists(&self, key: &str) -> Result<bool> {
        Ok(self.objects.read().contains_key(key))
    }
}

/// Outage-modelling wrapper used by the failure experiments: availability
/// experiments flip the store into a failing state; transient
/// per-operation faults come from the `storage.object_put/get` points of
/// the [`Chaos`] handle it was given ([`FaultyStore::with_chaos`]). The
/// plain stores check nothing.
pub struct FaultyStore<S> {
    inner: S,
    /// When true, every operation fails with `Unavailable`.
    down: AtomicBool,
    chaos: Chaos,
}

impl<S: ObjectStore> FaultyStore<S> {
    pub fn new(inner: S) -> Self {
        FaultyStore {
            inner,
            down: AtomicBool::new(false),
            chaos: Chaos::default(),
        }
    }

    /// Puts and gets fail when `chaos` says so.
    pub fn with_chaos(mut self, chaos: Chaos) -> Self {
        self.chaos = chaos;
        self
    }

    pub fn set_down(&self, down: bool) {
        self.down.store(down, Ordering::SeqCst);
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn check_up(&self) -> Result<()> {
        if self.down.load(Ordering::SeqCst) {
            Err(Error::Unavailable("object store down".into()))
        } else {
            Ok(())
        }
    }
}

impl<S: ObjectStore> ObjectStore for FaultyStore<S> {
    fn put(&self, key: &str, data: Bytes) -> Result<()> {
        self.check_up()?;
        self.chaos.check(FaultPoint::StorageObjectPut)?;
        self.inner.put(key, data)
    }

    fn get(&self, key: &str) -> Result<Bytes> {
        self.check_up()?;
        self.chaos.check(FaultPoint::StorageObjectGet)?;
        self.inner.get(key)
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.check_up()?;
        self.inner.delete(key)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.check_up()?;
        self.inner.list(prefix)
    }
}

/// Cross-region replicated object store (§6.4): every write lands on the
/// primary region's store and is mirrored best-effort to the backup
/// region. Checkpoint persistence stays strict on the primary (a mirror
/// hiccup must not fail the job), while a region failover reads from the
/// surviving mirror. `resync` replays the
/// primary into the mirror after an outage, returning how many objects
/// were copied — the replication catch-up measure the DR drill reports.
pub struct MirroredStore {
    primary: Arc<dyn ObjectStore>,
    mirror: Arc<dyn ObjectStore>,
}

impl MirroredStore {
    pub fn new(primary: Arc<dyn ObjectStore>, mirror: Arc<dyn ObjectStore>) -> Self {
        MirroredStore { primary, mirror }
    }

    /// Copy every primary object whose bytes are missing or absent from
    /// the mirror. Returns the number of objects copied.
    pub fn resync(&self) -> Result<usize> {
        let mut copied = 0;
        for key in self.primary.list("")? {
            let data = self.primary.get(&key)?;
            let up_to_date = matches!(self.mirror.get(&key), Ok(existing) if existing == data);
            if !up_to_date {
                self.mirror.put(&key, data)?;
                copied += 1;
            }
        }
        Ok(copied)
    }
}

impl ObjectStore for MirroredStore {
    fn put(&self, key: &str, data: Bytes) -> Result<()> {
        self.primary.put(key, data.clone())?;
        // best effort: a write the mirror missed is what `resync` copies
        let _ = self.mirror.put(key, data);
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Bytes> {
        match self.primary.get(key) {
            Ok(data) => Ok(data),
            Err(_) => self.mirror.get(key),
        }
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.primary.delete(key)?;
        let _ = self.mirror.delete(key);
        Ok(())
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        match self.primary.list(prefix) {
            Ok(mut keys) => {
                if let Ok(mirrored) = self.mirror.list(prefix) {
                    keys.extend(mirrored);
                    keys.sort();
                    keys.dedup();
                }
                Ok(keys)
            }
            Err(_) => self.mirror.list(prefix),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(store: &dyn ObjectStore) {
        store.put("a/b/one", Bytes::from_static(b"1")).unwrap();
        store.put("a/b/two", Bytes::from_static(b"22")).unwrap();
        store.put("a/c/three", Bytes::from_static(b"333")).unwrap();
        assert_eq!(store.get("a/b/one").unwrap(), Bytes::from_static(b"1"));
        // read-after-write on overwrite
        store.put("a/b/one", Bytes::from_static(b"1x")).unwrap();
        assert_eq!(store.get("a/b/one").unwrap(), Bytes::from_static(b"1x"));
        assert_eq!(
            store.list("a/b/").unwrap(),
            vec!["a/b/one".to_string(), "a/b/two".to_string()]
        );
        assert_eq!(store.list("a/").unwrap().len(), 3);
        assert!(store.exists("a/c/three").unwrap());
        store.delete("a/b/one").unwrap();
        assert!(!store.exists("a/b/one").unwrap());
        assert!(store.get("a/b/one").is_err());
        store.delete("a/b/one").unwrap(); // idempotent
    }

    #[test]
    fn memory_store_roundtrip() {
        roundtrip(&InMemoryStore::new());
    }

    #[test]
    fn memory_store_accounts_bytes() {
        let s = InMemoryStore::new();
        s.put("k", Bytes::from(vec![0u8; 100])).unwrap();
        s.put("k", Bytes::from(vec![0u8; 50])).unwrap();
        assert_eq!(s.stored_bytes(), 50); // overwrite replaced
        assert_eq!(s.object_count(), 1);
    }

    #[test]
    fn faulty_store_down_blocks_everything() {
        let s = FaultyStore::new(InMemoryStore::new());
        s.put("k", Bytes::from_static(b"v")).unwrap();
        s.set_down(true);
        assert!(matches!(s.get("k"), Err(Error::Unavailable(_))));
        assert!(matches!(
            s.put("k2", Bytes::new()),
            Err(Error::Unavailable(_))
        ));
        s.set_down(false);
        assert_eq!(s.get("k").unwrap(), Bytes::from_static(b"v"));
    }

    #[test]
    fn chaos_point_fails_every_nth_put() {
        use rtdi_common::chaos::{FaultKind, FaultPlan, Trigger};
        let chaos = Chaos::seeded(0x5707A6E);
        chaos.arm(
            FaultPoint::StorageObjectPut,
            FaultPlan::fail(FaultKind::Unavailable, Trigger::EveryNth(3)),
        );
        let s = FaultyStore::new(InMemoryStore::new()).with_chaos(chaos.clone());
        // a store that was not given the handle is out of its reach
        let bystander = FaultyStore::new(InMemoryStore::new());
        let mut failures = 0;
        for i in 0..9 {
            if s.put(&format!("k{i}"), Bytes::new()).is_err() {
                failures += 1;
            }
            bystander.put(&format!("k{i}"), Bytes::new()).unwrap();
        }
        assert_eq!(failures, 3);
        assert_eq!(s.inner().object_count(), 6);
        assert_eq!(bystander.inner().object_count(), 9);
        assert_eq!(chaos.stats(FaultPoint::StorageObjectPut), (9, 3));
    }

    #[test]
    fn mirrored_store_survives_mirror_outage_and_resyncs() {
        let primary = Arc::new(InMemoryStore::new());
        let mirror_inner = Arc::new(FaultyStore::new(InMemoryStore::new()));
        let mirrored = MirroredStore::new(primary.clone(), mirror_inner.clone());

        mirrored.put("ckpt/1", Bytes::from_static(b"a")).unwrap();
        assert_eq!(
            mirrored.mirror.get("ckpt/1").unwrap(),
            Bytes::from_static(b"a")
        );

        // mirror region goes dark: primary writes still succeed
        mirror_inner.set_down(true);
        mirrored.put("ckpt/2", Bytes::from_static(b"b")).unwrap();
        mirrored.put("ckpt/1", Bytes::from_static(b"a2")).unwrap();
        assert!(mirror_inner.inner().get("ckpt/2").is_err(), "missed");
        assert_eq!(mirrored.get("ckpt/2").unwrap(), Bytes::from_static(b"b"));

        // mirror heals: catch-up copies the missed + stale objects only
        mirror_inner.set_down(false);
        assert_eq!(mirrored.resync().unwrap(), 2);
        assert_eq!(mirrored.resync().unwrap(), 0, "idempotent");
        assert_eq!(
            mirrored.mirror.get("ckpt/1").unwrap(),
            Bytes::from_static(b"a2")
        );

        // primary region dies: reads fall back to the mirror
        let gone = Arc::new(FaultyStore::new(InMemoryStore::new()));
        gone.set_down(true);
        let failed_over = MirroredStore::new(gone, mirror_inner.clone());
        assert_eq!(failed_over.get("ckpt/2").unwrap(), Bytes::from_static(b"b"));
        assert_eq!(failed_over.list("ckpt/").unwrap().len(), 2);
    }
}
