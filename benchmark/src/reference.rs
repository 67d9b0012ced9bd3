//! The host-speed reference: how much slower than idle the host is now.
//!
//! This host (2 vCPUs of a shared machine) runs the same code up to twice
//! as slowly for seconds to minutes at a time while neighbours are busy,
//! with no steal time reported. Over 14 runs of 20 s the best round of each
//! workload spread by 14–21 % of its median and the median round by 16–25 %:
//! whole runs pass without one undisturbed round, so no statistic of raw
//! wall times repeats. What does repeat is a round's time against the time
//! of a fixed piece of work done right before and after it.
//!
//! A sample runs two std-only kernels of about 9 ms each — one bound by
//! compute (formatting, SipHash, lookups in a table that fits the L2 cache),
//! one by memory latency (a random walk over 16 MiB with small allocations)
//! — and returns the geometric mean of their times over their times on this
//! host when idle. The workloads slow down by more than the second kernel
//! and by less than the first; against the mean of the two, the same 14 runs
//! spread by 2–12 % (README.md, "Why reference seconds").

use std::collections::HashMap;
use std::fmt::Write;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::Instant;

/// Seconds the kernels take on this host when nothing else runs (the
/// fastest of 1 500 samples). Only ratios between runs matter:
/// on another host every time scales by one constant.
const COMPUTE_IDLE_S: f64 = 0.0107;
const MEMORY_IDLE_S: f64 = 0.0077;

const TABLE_KEYS: u64 = 1 << 16;
const WALK_SLOTS: usize = 1 << 22;

pub struct Reference {
    /// Size divisor of a sample: 1 when measuring, 20 for `--smoke`.
    shrink: usize,
    table: HashMap<u64, u64>,
    /// A full-cycle linear congruential successor per slot: following it
    /// visits the 16 MiB in an order no prefetcher predicts.
    walk: Vec<u32>,
}

impl Reference {
    pub fn new(shrink: usize) -> Self {
        Reference {
            shrink,
            table: (0..TABLE_KEYS)
                .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48, i))
                .collect(),
            walk: (0..WALK_SLOTS as u64)
                .map(|i| ((i * 1_664_525 + 1_013_904_223) % WALK_SLOTS as u64) as u32)
                .collect(),
        }
    }

    fn compute(&self, steps: u64) -> u64 {
        let mut key = String::with_capacity(32);
        let mut acc = 0u64;
        for i in 0..steps {
            key.clear();
            let _ = write!(key, "city-{:03}/drv-{:05}", i % 512, acc % 4000);
            let mut hasher = DefaultHasher::new();
            key.hash(&mut hasher);
            let h = hasher.finish();
            acc = acc.wrapping_add(self.table.get(&(h >> 48)).copied().unwrap_or(h & 0xff));
        }
        acc
    }

    fn memory(&self, steps: usize) -> u64 {
        let mut at = 12_345usize;
        let mut kept: Vec<String> = Vec::with_capacity(steps / 3 + 1);
        for step in 0..steps {
            at = self.walk[at] as usize;
            if step % 3 == 0 {
                kept.push(format!("drv-{:05}", at % 4000));
            }
        }
        (at + kept.len()) as u64
    }

    /// Run `f` between two samples: its result and the mean slowdown.
    pub fn around<T>(&self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.slowdown();
        let out = f();
        (out, (before + self.slowdown()) / 2.0)
    }

    /// The host's slowdown now: 1 when idle, 2 when everything takes twice
    /// as long. Takes about 20 ms.
    pub fn slowdown(&self) -> f64 {
        // a short untimed pass brings the kernel's own working set back
        // into cache after whatever ran before
        std::hint::black_box(self.compute(4_000));
        let t = Instant::now();
        std::hint::black_box(self.compute(120_000 / self.shrink as u64));
        let compute = t.elapsed().as_secs_f64() / COMPUTE_IDLE_S;
        let t = Instant::now();
        std::hint::black_box(self.memory(60_000 / self.shrink));
        let memory = t.elapsed().as_secs_f64() / MEMORY_IDLE_S;
        (compute * memory).sqrt() * self.shrink as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_do_fixed_work() {
        let r = Reference::new(1);
        assert_eq!(r.compute(1_000), r.compute(1_000));
        assert_eq!(r.memory(1_000), r.memory(1_000));
        assert_ne!(r.compute(1_000), r.compute(1_001));
        // the walk is one cycle over every slot
        let mut at = 0usize;
        let mut steps = 0usize;
        loop {
            at = r.walk[at] as usize;
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, WALK_SLOTS);
        assert!(r.slowdown() > 0.0);
    }
}
