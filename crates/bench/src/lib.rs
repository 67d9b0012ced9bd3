//! The reproduction's measurements of the paper: [`claims`] holds every
//! quantitative claim (DESIGN.md §3, E1–E30) as a typed, asserted row,
//! and this module the workspace's one counting allocator.
//! `tests/paper_claims.rs` gates the claims in tier-1 and keeps the table
//! in EXPERIMENTS.md equal to what they print; end-to-end time is the
//! business of `benchmark/`.

// Non-test code returns `Error`, never panics.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod claims;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A [`System`]-backed allocator that counts every allocation and tracks
/// the bytes live and their high-water mark. Installed as the global
/// allocator of every binary that links this crate, so an allocation
/// budget can be asserted wherever a claim or a test needs one.
pub struct CountingAllocator;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE: AtomicU64 = AtomicU64::new(0);

fn grow_live(bytes: u64) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_LIVE.fetch_max(live, Ordering::Relaxed);
}

fn shrink_live(bytes: u64) {
    LIVE_BYTES.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        grow_live(layout.size() as u64);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink_live(layout.size() as u64);
        // SAFETY: `ptr` came from `System` through this type with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        let (old, new) = (layout.size() as u64, new_size as u64);
        ALLOC_BYTES.fetch_add(new.saturating_sub(old), Ordering::Relaxed);
        if new >= old {
            grow_live(new - old);
        } else {
            shrink_live(old - new);
        }
        // SAFETY: `ptr` came from `System` through this type with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocation totals observed while a closure ran (see
/// [`count_allocations`]). Counts are process-wide, so keep concurrent
/// allocating threads quiet while measuring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    pub allocs: u64,
    pub bytes: u64,
    /// The most bytes live at once while the region ran, above what was
    /// live when it started.
    pub peak_live: u64,
}

impl std::fmt::Display for AllocStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} allocs / {:.1} KiB, peak {:.1} KiB live",
            self.allocs,
            self.bytes as f64 / 1024.0,
            self.peak_live as f64 / 1024.0
        )
    }
}

/// Run `f` and report how many heap allocations (and net grown bytes)
/// happened while it ran, and the most bytes it held live at once. Regions
/// nest: an inner one leaves the outer one's high-water mark as it found
/// it, or higher.
pub fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, AllocStats) {
    let c0 = ALLOC_COUNT.load(Ordering::Relaxed);
    let b0 = ALLOC_BYTES.load(Ordering::Relaxed);
    let live0 = LIVE_BYTES.load(Ordering::Relaxed);
    let outer_peak = PEAK_LIVE.swap(live0, Ordering::Relaxed);
    let out = f();
    let peak = PEAK_LIVE.fetch_max(outer_peak, Ordering::Relaxed);
    let stats = AllocStats {
        allocs: ALLOC_COUNT.load(Ordering::Relaxed) - c0,
        bytes: ALLOC_BYTES.load(Ordering::Relaxed) - b0,
        peak_live: peak.saturating_sub(live0),
    };
    (out, stats)
}

/// Assert that a measured region stayed under an allocation budget.
/// Panics with the measured numbers so a regressing kernel fails loudly.
pub fn assert_allocs_at_most(label: &str, stats: AllocStats, max_allocs: u64) {
    assert!(
        stats.allocs <= max_allocs,
        "{label}: expected at most {max_allocs} allocations, measured {stats}"
    );
}
