//! Key-group framed operator state — the rescale unit of keyed compute.
//!
//! Flink partitions every keyed operator's state into a fixed number of
//! *key groups* (far more groups than instances) and assigns contiguous
//! group ranges to parallel instances; rescaling then moves whole groups
//! between instances without rehashing a single key. This module is our
//! version of that contract:
//!
//! - [`KEY_GROUPS`] is the fixed group space (128), [`key_group_of`] maps
//!   a key hash to its group, and [`shard_of_group`] maps a group to the
//!   owning instance at a given parallelism;
//! - [`KeyedSnapshot`] is the checkpoint envelope a keyed operator writes:
//!   its watermark and drop counter plus one opaque frame of state bytes
//!   per non-empty key group.
//!
//! The envelope is **parallelism-independent**: every shard of a stage
//! snapshots the frames it owns, the runtime merges them into one stage
//! snapshot ordered by group id, and on restore each (possibly different
//! number of) shard decodes the envelope and keeps only the groups
//! [`shard_of_group`] assigns to it. Duplicate group ids are legal — a
//! salted hot key leaves partial state for the same group in several
//! shards — and are resolved by the operator's restore-side fold.

use bytes::{BufMut, Bytes, BytesMut};
use rtdi_common::wire::Reader;
use rtdi_common::{Error, Result, Timestamp};

/// Fixed key-group space. Must never change once checkpoints exist: a
/// group id is persisted state.
pub const KEY_GROUPS: u32 = 128;

/// The key group a key hash belongs to (stable across parallelism).
pub fn key_group_of(hash: u64) -> u32 {
    (hash % u64::from(KEY_GROUPS)) as u32
}

/// The instance owning `group` at `parallelism` — contiguous ranges, the
/// same formula Flink uses, so rescaling moves group ranges wholesale.
pub fn shard_of_group(group: u32, parallelism: usize) -> usize {
    let p = parallelism.max(1).min(KEY_GROUPS as usize);
    (group as usize * p) / KEY_GROUPS as usize
}

/// Checkpoint envelope of one keyed-operator instance: watermark, drop
/// counter, and one opaque frame per non-empty key group.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KeyedSnapshot {
    /// The instance's current watermark.
    pub watermark: Timestamp,
    /// Records dropped as too late (stage-wide counter on restore).
    pub dropped: u64,
    /// `(group id, state bytes)` pairs. Sorted by group id in a merged
    /// stage snapshot; duplicates allowed (salted hot-key state).
    pub frames: Vec<(u32, Bytes)>,
}

const MAGIC: u32 = 0x4b47_5230; // "KGR0"

impl KeyedSnapshot {
    /// Serialize the envelope.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(
            24 + self.frames.iter().map(|(_, b)| 8 + b.len()).sum::<usize>(),
        );
        buf.put_u32(MAGIC);
        buf.put_i64(self.watermark);
        buf.put_u64(self.dropped);
        buf.put_u32(self.frames.len() as u32);
        for (group, bytes) in &self.frames {
            buf.put_u32(*group);
            buf.put_u32(bytes.len() as u32);
            buf.put_slice(bytes);
        }
        buf.freeze()
    }

    /// Decode an envelope, rejecting truncated or foreign bytes. Each
    /// frame is a slice of `data`, not a copy.
    pub fn decode(data: Bytes) -> Result<Self> {
        let mut r = Reader::new(&data);
        if r.u32("keyed snapshot magic")? != MAGIC {
            return Err(Error::Corruption("keyed snapshot bad magic".into()));
        }
        let watermark = r.i64("keyed snapshot watermark")?;
        let dropped = r.u64("keyed snapshot drop counter")?;
        // every frame has at least its group id and length prefix
        let n = r.count(8, "keyed snapshot frame count")?;
        let mut frames = Vec::with_capacity(n);
        for _ in 0..n {
            let group = r.u32("keyed snapshot frame header")?;
            if group >= KEY_GROUPS {
                return Err(Error::Corruption(format!(
                    "keyed snapshot group {group} out of range"
                )));
            }
            frames.push((group, r.owned_block(&data, "keyed snapshot frame body")?));
        }
        Ok(KeyedSnapshot {
            watermark,
            dropped,
            frames,
        })
    }

    /// Merge per-shard envelopes into one stage envelope: watermark is the
    /// max (all shards saw the same barrier-aligned watermark; MIN-valued
    /// idle shards must not drag it down), drop counters sum, and frames
    /// are concatenated then stably sorted by group id — shard order is
    /// the tiebreak, so the merge itself is deterministic.
    pub fn merge(parts: impl IntoIterator<Item = KeyedSnapshot>) -> KeyedSnapshot {
        let mut out = KeyedSnapshot {
            watermark: Timestamp::MIN,
            dropped: 0,
            frames: Vec::new(),
        };
        for part in parts {
            out.watermark = out.watermark.max(part.watermark);
            out.dropped += part.dropped;
            out.frames.extend(part.frames);
        }
        out.frames.sort_by_key(|(group, _)| *group);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_group_owned_by_exactly_one_shard() {
        for p in [1usize, 2, 3, 4, 5, 7, 8, 16, 128] {
            let mut per_shard = vec![0u32; p];
            let mut prev = 0usize;
            for g in 0..KEY_GROUPS {
                let s = shard_of_group(g, p);
                assert!(s < p, "shard {s} out of range at parallelism {p}");
                assert!(s >= prev, "group ranges must be contiguous and ordered");
                prev = s;
                per_shard[s] += 1;
            }
            assert!(
                per_shard.iter().all(|&c| c > 0),
                "parallelism {p}: some shard owns no groups"
            );
            let (min, max) = (
                per_shard.iter().min().unwrap(),
                per_shard.iter().max().unwrap(),
            );
            assert!(max - min <= 1, "parallelism {p}: groups must balance");
        }
    }

    #[test]
    fn group_assignment_is_parallelism_independent() {
        // A key's group never changes; only the group->shard map does.
        for hash in [0u64, 1, 127, 128, 0xDEAD_BEEF, u64::MAX] {
            let g = key_group_of(hash);
            assert!(g < KEY_GROUPS);
            assert_eq!(g, key_group_of(hash));
        }
    }

    #[test]
    fn envelope_roundtrip() {
        let snap = KeyedSnapshot {
            watermark: 123_456,
            dropped: 7,
            frames: vec![
                (3, Bytes::from_static(b"alpha")),
                (90, Bytes::from_static(b"")),
                (127, Bytes::from_static(b"omega")),
            ],
        };
        let decoded = KeyedSnapshot::decode(snap.encode()).unwrap();
        assert_eq!(decoded, snap);
    }

    #[test]
    fn decode_rejects_garbage_and_truncation() {
        assert!(KeyedSnapshot::decode(Bytes::from_static(b"short")).is_err());
        assert!(KeyedSnapshot::decode(Bytes::from_static(&[0xFF; 32])).is_err());
        let good = KeyedSnapshot {
            watermark: 1,
            dropped: 0,
            frames: vec![(5, Bytes::from_static(b"state"))],
        }
        .encode();
        for cut in 0..good.len() {
            let got = KeyedSnapshot::decode(good.slice(0..cut));
            assert!(matches!(got, Err(Error::Corruption(_))), "cut {cut}");
        }
        // a frame count the remaining bytes cannot hold sizes no Vec
        let mut bad = good.to_vec();
        bad[20..24].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(KeyedSnapshot::decode(bad.into()).is_err());
    }

    #[test]
    fn merge_sorts_by_group_and_sums_drops() {
        let a = KeyedSnapshot {
            watermark: 500,
            dropped: 2,
            frames: vec![
                (7, Bytes::from_static(b"a7")),
                (1, Bytes::from_static(b"a1")),
            ],
        };
        let b = KeyedSnapshot {
            watermark: 500,
            dropped: 3,
            frames: vec![
                (7, Bytes::from_static(b"b7")),
                (0, Bytes::from_static(b"b0")),
            ],
        };
        let merged = KeyedSnapshot::merge([a, b]);
        assert_eq!(merged.watermark, 500);
        assert_eq!(merged.dropped, 5);
        let groups: Vec<u32> = merged.frames.iter().map(|(g, _)| *g).collect();
        assert_eq!(groups, vec![0, 1, 7, 7], "sorted, duplicates preserved");
        // Stable: shard a's frame for group 7 precedes shard b's.
        assert_eq!(&merged.frames[2].1[..], b"a7");
        assert_eq!(&merged.frames[3].1[..], b"b7");
    }

    #[test]
    fn rescale_redistributes_every_frame_exactly_once() {
        // Snapshot taken at parallelism 2, restored at parallelism 3:
        // every frame lands in exactly one new shard.
        let stage = KeyedSnapshot {
            watermark: 9,
            dropped: 0,
            frames: (0..KEY_GROUPS)
                .map(|g| (g, Bytes::from(g.to_le_bytes().to_vec())))
                .collect(),
        };
        for new_p in [1usize, 2, 3, 4, 8] {
            let mut seen = 0usize;
            for shard in 0..new_p {
                let owned = |(g, _): &&(u32, Bytes)| shard_of_group(*g, new_p) == shard;
                seen += stage.frames.iter().filter(owned).count();
            }
            assert_eq!(seen, KEY_GROUPS as usize, "rescale to {new_p} lost frames");
        }
    }
}
