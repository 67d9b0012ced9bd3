//! Active-passive consumption with offset synchronization (§6, Figure 7):
//! a payment processor that cannot lose data fails over between regions
//! using uReplicator's offset-mapping checkpoints.
//!
//! Run with: `cargo run --example multiregion_failover`

use rtdi::common::{Record, Row};
use rtdi::multiregion::activepassive::{ActivePassiveConsumer, OffsetSyncService};
use rtdi::multiregion::topology::MultiRegionTopology;
use rtdi::stream::topic::TopicConfig;
use std::collections::BTreeSet;

fn payment(i: i64, region: &str) -> Record {
    let mut payment = Record::new(
        Row::new()
            .with("payment_id", i)
            .with("amount", 10.0 + (i % 50) as f64),
        i,
    )
    .with_key(format!("p{i}"))
    .with_unique_id(format!("pay-{i}"));
    payment.set_service(Some(region.into()));
    payment
}

fn main() {
    // payments use lossless topics (§10: "disseminating financial data
    // that needs zero data loss guarantees in a multi region ecosystem")
    let topo = MultiRegionTopology::new(
        &["us-west", "us-east"],
        "payments",
        TopicConfig::lossless().with_partitions(4),
    )
    .expect("topology");

    // steady traffic from both regions, replicated with offset checkpoints
    for i in 0..5_000i64 {
        let region = if i % 2 == 0 { "us-west" } else { "us-east" };
        topo.produce(region, payment(i, region), i).unwrap();
    }
    topo.replicate(10_000);
    println!("5000 payments replicated into both aggregate clusters");

    let sync = OffsetSyncService::new(topo.mappings().clone());
    let mut consumer = ActivePassiveConsumer::new("payment-processor", "payments", "us-west");
    let batch1 = consumer.consume_available(&topo).expect("consume");
    println!("processor consumed {} payments in us-west", batch1.len());

    // more traffic lands, then the active region dies
    for i in 5_000..6_000i64 {
        let region = if i % 2 == 0 { "us-west" } else { "us-east" };
        topo.produce(region, payment(i, region), i).unwrap();
    }
    topo.replicate(12_000);
    let batch2 = consumer.consume_available(&topo).expect("consume");
    println!(
        "processor consumed {} more, then us-west fails",
        batch2.len()
    );
    topo.region("us-west").unwrap().set_down(true);
    assert!(consumer.consume_available(&topo).is_err());

    // fail over with offset translation
    consumer
        .fail_over(&topo, &sync, "us-east")
        .expect("failover");
    let batch3 = consumer.consume_available(&topo).expect("resume");
    println!(
        "failed over to us-east, resumed from synchronized offsets, {} records replayed/processed",
        batch3.len()
    );

    // verify: zero data loss, bounded replay
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for r in batch1.iter().chain(&batch2).chain(&batch3) {
        seen.insert(r.unique_id().unwrap().to_string());
    }
    println!(
        "unique payments processed: {} of 6000 (replay overlap: {})",
        seen.len(),
        batch1.len() + batch2.len() + batch3.len() - seen.len()
    );
    assert_eq!(seen.len(), 6_000, "payments lost!");
    println!("zero data loss confirmed");
}
