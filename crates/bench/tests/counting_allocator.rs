//! The counting allocator's test, alone in a binary of its own: the crate's
//! unit tests exercise the claim models and allocate while they run.

use rtdi_bench::{assert_allocs_at_most, count_allocations};
use std::hint::black_box;

/// One `#[test]`: the counter is process-wide, so a sibling running
/// beside this one would add its allocations to every reading here.
#[test]
fn counts_heap_traffic_and_enforces_budgets() {
    // every buffer passes through `black_box`: an optimised build may elide
    // an allocation whose contents nothing reads
    let (v, built) = count_allocations(|| black_box(vec![0u8; 4096]));
    assert_eq!(v.len(), 4096);
    assert!(built.allocs >= 1);
    assert!(built.bytes >= 4096);

    let (sum, quiet) = count_allocations(|| (0u64..1000).sum::<u64>());
    assert_eq!(sum, 499_500);
    assert_allocs_at_most("pure arithmetic", quiet, 0);

    // a buffer built and freed inside the region still counts at its peak,
    // and a region nested inside leaves the outer high-water mark standing
    let ((), held) = count_allocations(|| {
        drop(black_box(vec![1u8; 1 << 20]));
        let ((), inner) = count_allocations(|| drop(black_box(vec![2u8; 1 << 10])));
        assert!(inner.peak_live >= 1 << 10 && inner.peak_live < 1 << 20);
    });
    assert!(held.peak_live >= 1 << 20, "{held}");
    assert!(built.peak_live >= 4096 && quiet.peak_live == 0);

    let over = std::panic::catch_unwind(|| assert_allocs_at_most("vec build", built, 0));
    let message = over.unwrap_err().downcast::<String>().unwrap();
    assert!(message.contains("vec build: expected at most 0 allocations"));
}
