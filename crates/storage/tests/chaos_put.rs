//! The `storage.object_put` fault point, armed on the process-global
//! registry. A test binary to itself: while `EveryNth(3)` is armed every
//! `put` in the process counts as a hit, so a sibling test that writes
//! would either fail or take one of the nine counted here.

use bytes::Bytes;
use rtdi_common::chaos::{self, FaultKind, FaultPlan, FaultPoint, Trigger};
use rtdi_storage::object::{InMemoryStore, ObjectStore};

#[test]
fn chaos_point_fails_every_nth_put() {
    chaos::registry().reset(0x5707A6E);
    chaos::registry().arm(
        FaultPoint::StorageObjectPut,
        FaultPlan::fail(FaultKind::Unavailable, Trigger::EveryNth(3)),
    );
    let s = InMemoryStore::new();
    let mut failures = 0;
    for i in 0..9 {
        if s.put(&format!("k{i}"), Bytes::new()).is_err() {
            failures += 1;
        }
    }
    chaos::registry().disarm_all();
    assert_eq!(failures, 3);
    assert_eq!(s.object_count(), 6);
}
