//! E2 (§4.1.1): cluster federation. "The ideal cluster size is less than
//! 150 nodes for optimum performance. With federation, the Kafka service
//! can scale horizontally by adding more clusters when a cluster is full."
//!
//! Compares the per-operation coordination cost of one giant 600-node
//! cluster against 4 federated 150-node clusters, measures the logical
//! routing overhead federation adds, and times live topic migration.

use criterion::{criterion_group, criterion_main, Criterion};
use rtdi_bench::{quick_criterion, report, report_header, time_it};
use rtdi_common::{Record, Row};
use rtdi_stream::cluster::{Cluster, ClusterConfig};
use rtdi_stream::federation::FederatedCluster;
use rtdi_stream::producer::StreamEndpoint;
use rtdi_stream::topic::TopicConfig;

fn record(i: usize) -> Record {
    Record::new(Row::new().with("i", i as i64), i as i64).with_key(format!("k{i}"))
}

fn bench(c: &mut Criterion) {
    report_header(
        "E2 cluster federation",
        "one >150-node cluster degrades super-linearly; federating into \
         <=150-node clusters keeps per-op cost flat and scales by adding \
         clusters; topics migrate without consumer restarts",
    );
    // coordination-cost model: giant vs federated
    let giant = Cluster::new(
        "giant",
        ClusterConfig {
            nodes: 600,
            ..Default::default()
        },
    );
    let ideal = Cluster::new(
        "ideal",
        ClusterConfig {
            nodes: 150,
            ..Default::default()
        },
    );
    report(
        "coordination cost 600-node monolith",
        format!("{:.2} units/op", giant.coordination_cost()),
    );
    report(
        "coordination cost 4x150 federated",
        format!("{:.2} units/op", ideal.coordination_cost()),
    );
    report(
        "monolith/federated cost ratio",
        format!(
            "{:.1}x",
            giant.coordination_cost() / ideal.coordination_cost()
        ),
    );

    // capacity spill: topics placed across clusters as they fill
    let fed = FederatedCluster::new();
    for i in 0..4 {
        fed.add_cluster(Cluster::new(
            format!("c{i}"),
            ClusterConfig {
                nodes: 150,
                partitions_per_node: 2, // 300 replica slots per cluster
                ..Default::default()
            },
        ));
    }
    let mut created = 0;
    while fed
        .create_topic(
            &format!("topic-{created}"),
            TopicConfig::default().with_partitions(16),
        )
        .is_ok()
    {
        created += 1;
    }
    let spread: Vec<usize> = fed
        .cluster_names()
        .iter()
        .map(|n| fed.cluster(n).unwrap().topic_names().len())
        .collect();
    report(
        "topics placed before total exhaustion",
        format!("{created} (per cluster: {spread:?})"),
    );

    // migration without restart
    let fed = FederatedCluster::new();
    fed.add_cluster(Cluster::new("a", ClusterConfig::default()));
    fed.add_cluster(Cluster::new("b", ClusterConfig::default()));
    fed.create_topic("hot", TopicConfig::default().with_partitions(8))
        .unwrap();
    for i in 0..100_000 {
        fed.send("hot", record(i).into(), 0).unwrap();
    }
    let (_, mig) = time_it(|| fed.migrate_topic("hot", "b").unwrap());
    report(
        "live migration of 100k-record topic",
        format!(
            "{:.1} ms (consumers redirected, zero restarts)",
            mig.as_secs_f64() * 1e3
        ),
    );

    // routing overhead: produce via federation vs direct cluster handle
    let direct = Cluster::new("d", ClusterConfig::default());
    direct
        .create_topic("t", TopicConfig::default().with_partitions(8))
        .unwrap();
    let fed2 = FederatedCluster::new();
    fed2.add_cluster(Cluster::new("x", ClusterConfig::default()));
    fed2.create_topic("t", TopicConfig::default().with_partitions(8))
        .unwrap();

    let mut g = c.benchmark_group("e02");
    g.bench_function("produce_direct", |b| {
        let mut i = 0;
        b.iter(|| {
            direct.produce("t", record(i), 0).unwrap();
            i += 1;
        })
    });
    g.bench_function("produce_federated_routing", |b| {
        let mut i = 0;
        b.iter(|| {
            fed2.send("t", record(i).into(), 0).unwrap();
            i += 1;
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench
}
criterion_main!(benches);
