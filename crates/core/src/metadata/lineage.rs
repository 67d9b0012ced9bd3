//! Data lineage tracking.
//!
//! §9.4: the metadata system "tracks the data lineage representing flow of
//! data across these components" — e.g. a Kafka topic feeds a Flink job
//! which sinks into a Pinot table that a dashboard queries. The lineage
//! graph answers "what is downstream of this topic?" (impact analysis),
//! which operators use when triaging data-quality incidents.

use parking_lot::RwLock;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// A directed edge: data flows `from` -> `to` via a named processor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineageEdge {
    pub from: String,
    pub to: String,
    /// What moves the data (a Flink job name, "compaction", "uReplicator"...).
    pub via: String,
}

/// Thread-safe lineage graph: each dataset's downstream edges.
#[derive(Clone, Default)]
pub struct LineageGraph {
    downstream: Arc<RwLock<BTreeMap<String, Vec<LineageEdge>>>>,
}

impl LineageGraph {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record(&self, from: &str, to: &str, via: &str) {
        let edge = LineageEdge {
            from: from.to_string(),
            to: to.to_string(),
            via: via.to_string(),
        };
        let mut g = self.downstream.write();
        let down = g.entry(from.to_string()).or_default();
        if !down.contains(&edge) {
            down.push(edge);
        }
    }

    /// Every dataset transitively reachable downstream of `of` (impact
    /// analysis: "if this topic is corrupt, what must be backfilled?").
    pub fn impact(&self, of: &str) -> Vec<String> {
        let g = self.downstream.read();
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::from([of.to_string()]);
        while let Some(node) = queue.pop_front() {
            for e in g.get(&node).into_iter().flatten() {
                if seen.insert(e.to.clone()) {
                    queue.push_back(e.to.clone());
                }
            }
        }
        seen.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LineageGraph {
        let g = LineageGraph::new();
        // trips topic -> flink surge job -> surge kv
        g.record("kafka.trips", "flink.surge", "surge-pipeline");
        g.record("flink.surge", "kv.surge", "surge-pipeline");
        // trips topic also archived -> hive -> pinot offline
        g.record("kafka.trips", "hive.trips", "archival");
        g.record("hive.trips", "pinot.trips", "piper-offline-push");
        g
    }

    #[test]
    fn transitive_impact() {
        let g = sample();
        let impact = g.impact("kafka.trips");
        assert!(impact.contains(&"kv.surge".to_string()));
        assert!(impact.contains(&"pinot.trips".to_string()));
        assert_eq!(impact.len(), 4);
        assert_eq!(g.impact("hive.trips"), vec!["pinot.trips".to_string()]);
        assert!(g.impact("unknown").is_empty());
    }

    #[test]
    fn duplicate_edges_deduplicated() {
        let g = LineageGraph::new();
        g.record("a", "b", "x");
        g.record("a", "b", "x");
        assert_eq!(g.downstream.read()["a"].len(), 1);
        g.record("a", "b", "y"); // different processor = distinct edge
        assert_eq!(g.downstream.read()["a"].len(), 2);
    }

    #[test]
    fn cycles_terminate() {
        let g = LineageGraph::new();
        g.record("a", "b", "p");
        g.record("b", "a", "q");
        let impact = g.impact("a");
        assert_eq!(impact, vec!["a".to_string(), "b".to_string()]);
    }
}
