//! Count-min frequency sketch for hot-key detection (§4.2: skew is the
//! dominant failure mode of keyed compute at city scale).
//!
//! The compute router keeps one sketch per parallel stage and consults it
//! on every record: once a key's estimated frequency crosses the stage's
//! salting threshold the router stops hashing it to its key group and
//! sprays it across all shards instead (two-phase pre-aggregation). The
//! sketch is deliberately tiny — a few KiB — and fully deterministic:
//! row seeds are fixed constants, so the same input stream produces the
//! same estimates (and therefore the same routing) in every run.

/// A count-min sketch: `depth` rows of `width` saturating counters.
///
/// Estimates are upper bounds — collisions only ever inflate a count —
/// which is the right bias for hot-key detection: a false positive salts
/// a key that did not need it (correct, slightly more merge work), while
/// a false negative would leave a hot shard overloaded.
#[derive(Debug, Clone)]
pub struct CountMinSketch {
    rows: Vec<Vec<u64>>,
}

/// Fixed per-row mixing constants (odd, from splitmix64's increment
/// sequence) so estimates are reproducible across runs and processes.
const ROW_SEEDS: [u64; 8] = [
    0x9e37_79b9_7f4a_7c15,
    0xbf58_476d_1ce4_e5b9,
    0x94d0_49bb_1331_11eb,
    0xd6e8_feb8_6659_fd93,
    0xa076_1d64_78bd_642f,
    0xe703_7ed1_a0b4_28db,
    0x8ebc_6af0_9c88_c6e3,
    0x5896_27f4_a23f_3b2d,
];

fn mix(hash: u64, seed: u64) -> u64 {
    let mut x = hash ^ seed;
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl CountMinSketch {
    /// `depth` is clamped to `1..=8` (one fixed seed per row); `width`
    /// is rounded up to at least 16 counters.
    pub fn new(depth: usize, width: usize) -> Self {
        let depth = depth.clamp(1, ROW_SEEDS.len());
        let width = width.max(16);
        CountMinSketch {
            rows: vec![vec![0u64; width]; depth],
        }
    }

    /// Record one occurrence of `hash` and return the updated estimate.
    pub fn observe(&mut self, hash: u64) -> u64 {
        let mut est = u64::MAX;
        for (row, seed) in self.rows.iter_mut().zip(ROW_SEEDS) {
            let idx = (mix(hash, seed) % row.len() as u64) as usize;
            row[idx] = row[idx].saturating_add(1);
            est = est.min(row[idx]);
        }
        est
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    impl CountMinSketch {
        /// Upper-bound estimate of how many times `hash` has been observed.
        fn estimate(&self, hash: u64) -> u64 {
            self.rows
                .iter()
                .zip(ROW_SEEDS)
                .map(|(row, seed)| row[(mix(hash, seed) % row.len() as u64) as usize])
                .min()
                .unwrap_or(0)
        }
    }

    #[test]
    fn estimates_never_undercount() {
        let mut sk = CountMinSketch::new(4, 256);
        let keys: Vec<u64> = (0..50)
            .map(|i| Value::hash_of_str(&format!("key-{i}")))
            .collect();
        for (i, k) in keys.iter().enumerate() {
            for _ in 0..=i {
                sk.observe(*k);
            }
        }
        for (i, k) in keys.iter().enumerate() {
            assert!(
                sk.estimate(*k) >= (i + 1) as u64,
                "count-min must be an upper bound"
            );
        }
    }

    #[test]
    fn hot_key_crosses_threshold_cold_keys_stay_low() {
        let mut sk = CountMinSketch::new(4, 1024);
        let hot = Value::hash_of_str("rest-0001");
        for i in 0..10_000u64 {
            sk.observe(Value::hash_of_str(&format!("cold-{i}")));
        }
        for _ in 0..500 {
            sk.observe(hot);
        }
        assert!(sk.estimate(hot) >= 500);
        // With 4 rows x 1024 counters and ~10.5k observations, a cold
        // key's overcount is bounded far below a hot-key threshold.
        let cold = Value::hash_of_str("cold-42");
        assert!(
            sk.estimate(cold) < 200,
            "cold estimate {}",
            sk.estimate(cold)
        );
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = CountMinSketch::new(4, 128);
        let mut b = CountMinSketch::new(4, 128);
        for i in 0..1_000u64 {
            let h = Value::hash_of_int(i as i64);
            assert_eq!(a.observe(h), b.observe(h));
        }
    }
}
