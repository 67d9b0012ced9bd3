//! uReplicator's rebalancing (§4.1.4), the model claim E4 runs: "an
//! in-built rebalancing algorithm so that it minimizes the number of the
//! affected topic partitions during rebalancing ... when there is bursty
//! traffic it can dynamically redistribute the load to the standby
//! workers." [`StickyAssigner`] is that minimal-movement partition->worker
//! assignment, measured against the naive modulo rehash of vanilla
//! mirroring.

use std::collections::BTreeMap;

/// A partition->worker assignment with sticky (minimal-movement)
/// rebalancing.
#[derive(Debug, Default)]
pub struct StickyAssigner {
    workers: Vec<String>,
    /// Standby workers receive load only during bursts or failover.
    standby: Vec<String>,
    assignment: BTreeMap<u32, String>,
}

impl StickyAssigner {
    pub fn new(workers: Vec<String>, standby: Vec<String>) -> Self {
        StickyAssigner {
            workers,
            standby,
            assignment: BTreeMap::new(),
        }
    }

    /// Assign `partitions` to the active workers, moving as few existing
    /// assignments as possible: partitions keep their worker unless it is
    /// gone or overloaded; only the overflow/orphans move. Returns the set
    /// of partitions whose worker changed.
    pub fn rebalance(&mut self, partitions: u32) -> Vec<u32> {
        let active = self.workers.clone();
        if active.is_empty() {
            let moved: Vec<u32> = self.assignment.keys().copied().collect();
            self.assignment.clear();
            return moved;
        }
        let capacity = (partitions as usize).div_ceil(active.len());
        let mut load: BTreeMap<&str, usize> = active.iter().map(|w| (w.as_str(), 0)).collect();
        let mut moved = Vec::new();
        let mut orphans = Vec::new();
        // keep sticky assignments that are still valid and under capacity
        for p in 0..partitions {
            let sticky = self.assignment.get(&p);
            match sticky.and_then(|w| load.get_mut(w.as_str())) {
                Some(l) if *l < capacity => *l += 1,
                _ => orphans.push(p),
            }
        }
        // place orphans on least-loaded workers
        for p in orphans {
            let Some(w) = active.iter().min_by_key(|w| load.get(w.as_str())) else {
                break;
            };
            if let Some(l) = load.get_mut(w.as_str()) {
                *l += 1;
            }
            if self.assignment.insert(p, w.clone()).as_ref() != Some(w) {
                moved.push(p);
            }
        }
        // drop assignments beyond the partition count (topic shrank)
        self.assignment.retain(|p, _| *p < partitions);
        moved
    }

    /// Naive modulo assignment for comparison (what a consistent-hash-free
    /// mirror does): partition p -> worker[p % n]. Returns moved
    /// partitions relative to the current assignment.
    pub fn naive_rebalance(&mut self, partitions: u32) -> Vec<u32> {
        let mut moved = Vec::new();
        let n = self.workers.len();
        if n == 0 {
            let all: Vec<u32> = self.assignment.keys().copied().collect();
            self.assignment.clear();
            return all;
        }
        for p in 0..partitions {
            let w = self.workers[(p as usize) % n].clone();
            if self.assignment.get(&p) != Some(&w) {
                moved.push(p);
                self.assignment.insert(p, w);
            }
        }
        self.assignment.retain(|p, _| *p < partitions);
        moved
    }

    pub fn add_worker(&mut self, w: impl Into<String>) {
        self.workers.push(w.into());
    }

    pub fn remove_worker(&mut self, w: &str) {
        self.workers.retain(|x| x != w);
    }

    /// Burst handling: promote standby workers into the active set.
    /// Returns how many were promoted.
    pub fn promote_standby(&mut self, n: usize) -> usize {
        let take = n.min(self.standby.len());
        for w in self.standby.drain(..take) {
            self.workers.push(w);
        }
        take
    }

    /// Max partitions on one worker divided by the ideal share; 1.0 is a
    /// perfect balance.
    pub fn skew(&self, partitions: u32) -> f64 {
        if self.workers.is_empty() || partitions == 0 {
            return 0.0;
        }
        let mut load: BTreeMap<&String, usize> = BTreeMap::new();
        for w in self.assignment.values() {
            *load.entry(w).or_insert(0) += 1;
        }
        let max = load.values().copied().max().unwrap_or(0) as f64;
        let ideal = partitions as f64 / self.workers.len() as f64;
        max / ideal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sticky_rebalance_moves_minimum() {
        let mut a = StickyAssigner::new((0..10).map(|i| format!("w{i}")).collect(), vec![]);
        let initial = a.rebalance(1000);
        assert_eq!(initial.len(), 1000, "initial assignment places everything");
        // adding one worker should move roughly 1000/11 partitions, not all
        a.add_worker("w10");
        let moved = a.rebalance(1000);
        assert!(
            moved.len() <= 120,
            "sticky moved {} partitions, expected ~91",
            moved.len()
        );
        assert!(a.skew(1000) <= 1.2, "skew {}", a.skew(1000));
    }

    #[test]
    fn naive_rebalance_moves_most() {
        let mut a = StickyAssigner::new((0..10).map(|i| format!("w{i}")).collect(), vec![]);
        a.naive_rebalance(1000);
        a.add_worker("w10");
        let moved = a.naive_rebalance(1000);
        assert!(
            moved.len() > 800,
            "naive modulo should reshuffle almost everything, moved {}",
            moved.len()
        );
    }

    #[test]
    fn worker_removal_only_moves_its_partitions() {
        let mut a = StickyAssigner::new((0..4).map(|i| format!("w{i}")).collect(), vec![]);
        a.rebalance(100);
        let victim_parts: Vec<u32> = a
            .assignment
            .iter()
            .filter(|(_, w)| *w == "w0")
            .map(|(p, _)| *p)
            .collect();
        a.remove_worker("w0");
        let moved = a.rebalance(100);
        assert_eq!(moved.len(), victim_parts.len());
        for p in moved {
            assert!(victim_parts.contains(&p));
        }
    }

    #[test]
    fn standby_promotion_absorbs_bursts() {
        let mut a = StickyAssigner::new(
            vec!["w0".into(), "w1".into()],
            vec!["s0".into(), "s1".into()],
        );
        a.rebalance(100);
        let before_share = 100 / 2;
        let promoted = a.promote_standby(2);
        assert_eq!(promoted, 2);
        let moved = a.rebalance(100);
        assert_eq!(a.workers.len(), 4);
        // the two new workers absorb ~half the load with minimal movement
        assert!(moved.len() <= before_share + 5, "moved {}", moved.len());
        assert!(a.skew(100) <= 1.2);
        assert_eq!(a.promote_standby(5), 0, "standby pool exhausted");
    }
}
