//! Star-tree pre-aggregation index.
//!
//! §4.3: Pinot "uses specialized indices for faster query execution such
//! as Startree, sorted and range indices, which could result in order of
//! magnitude difference of query latency" — the experiment E11 ablation
//! measures exactly that.
//!
//! A star tree splits documents by dimension values in a fixed dimension
//! order; every node stores pre-aggregated metrics for its subtree, and
//! every interior node has an extra *star* child representing "any value"
//! of that dimension. A group-by/filter query whose dimensions are a
//! subset of the tree's dimensions is answered by tree traversal without
//! touching raw documents.

use crate::groups::Groups;
use crate::query::{PredicateOp, Query};
use rtdi_common::{AggAcc, AggFn, Error, Result, Row};
use std::collections::BTreeMap;

/// Build parameters for a star tree.
#[derive(Debug, Clone, PartialEq)]
pub struct StarTreeSpec {
    /// Dimension columns in split order (put high-query-frequency, low
    /// cardinality dimensions first, as Pinot docs recommend).
    pub dimensions: Vec<String>,
    /// Pre-aggregated metrics.
    pub metrics: Vec<AggFn>,
    /// Stop splitting when a node covers at most this many documents.
    pub max_leaf_records: usize,
}

impl StarTreeSpec {
    pub fn new(dimensions: &[&str], metrics: Vec<AggFn>) -> Self {
        StarTreeSpec {
            dimensions: dimensions.iter().map(|d| d.to_string()).collect(),
            metrics,
            max_leaf_records: 1,
        }
    }
}

struct Node {
    /// value -> child (`None` = the dimension is NULL/absent); the star
    /// child is stored separately.
    children: BTreeMap<Option<String>, Node>,
    star: Option<Box<Node>>,
    metrics: Vec<AggAcc>,
    docs: usize,
}

/// The built index.
pub struct StarTree {
    spec: StarTreeSpec,
    root: Node,
    node_count: usize,
}

impl StarTree {
    pub fn build(rows: &[Row], spec: &StarTreeSpec) -> Result<StarTree> {
        if spec.dimensions.is_empty() {
            return Err(Error::InvalidArgument(
                "star tree needs at least one dimension".into(),
            ));
        }
        for m in &spec.metrics {
            if matches!(m, AggFn::DistinctCount(_) | AggFn::Avg(_)) {
                // DistinctCount sets can be pre-aggregated too (we store
                // accs), Avg as well; allow everything except nothing —
                // keep permissive: all AggFns pre-aggregate losslessly with
                // our accumulator representation.
            }
        }
        let doc_ids: Vec<usize> = (0..rows.len()).collect();
        let mut node_count = 0;
        let root = build_node(rows, &doc_ids, spec, 0, &mut node_count);
        Ok(StarTree {
            spec: spec.clone(),
            root,
            node_count,
        })
    }

    pub fn memory_bytes(&self) -> usize {
        // rough: accs + map overhead per node
        self.node_count * (self.spec.metrics.len() * 24 + 64)
    }

    /// Try answering a query from the tree, as mergeable per-group
    /// accumulators keyed in `query.group_by` order. Returns `None` when
    /// the query shape is not covered (caller falls back to raw execution):
    /// - predicates must be equality on tree dimensions;
    /// - group-by columns must be tree dimensions;
    /// - every aggregation must match a pre-aggregated metric.
    pub fn try_execute_partial(&self, query: &Query) -> Result<Option<Groups>> {
        // map each aggregation to a metric index
        let mut metric_idx = Vec::with_capacity(query.aggregations.len());
        for (_, f) in query.aggregations.iter() {
            match self.spec.metrics.iter().position(|m| m == f) {
                Some(i) => metric_idx.push(i),
                None => return Ok(None),
            }
        }
        for p in query.predicates.iter() {
            if p.op != PredicateOp::Eq || !self.spec.dimensions.contains(&p.column) {
                return Ok(None);
            }
        }
        for g in query.group_by.iter() {
            if !self.spec.dimensions.contains(g) {
                return Ok(None);
            }
        }
        // traverse
        let mut results: Vec<(GroupKey, &Node)> = Vec::new();
        let mut incomplete = false;
        collect(
            &self.root,
            &self.spec.dimensions,
            0,
            query,
            Vec::new(),
            &mut results,
            &mut incomplete,
        );
        if incomplete {
            return Ok(None);
        }
        // re-key into query.group_by order and merge the nodes of one key
        // (can happen when group-by dims are not a prefix of the dimension
        // order), in traversal order and projected to the queried metrics
        let mut groups: BTreeMap<Vec<Option<&str>>, Vec<AggAcc>> = BTreeMap::new();
        for (key, node) in &results {
            let cell = |g: &String| key.iter().find(|(d, _)| d == g)?.1.as_deref();
            let accs = groups.entry(query.group_by.iter().map(cell).collect());
            let accs = accs.or_insert_with(|| query.new_accs());
            for (slot, mi) in accs.iter_mut().zip(&metric_idx) {
                slot.merge(&node.metrics[*mi]);
            }
        }
        let (keys, accs): (Vec<_>, Vec<_>) = groups.into_iter().unzip();
        let accs = accs.into_iter().flatten().collect();
        Ok(Some(match query.group_by.len() {
            _ if keys.is_empty() => Groups::default(),
            0 => Groups::global(accs),
            width => Groups::from_sorted(width, keys.iter().flatten().copied(), accs),
        }))
    }
}

fn build_node(
    rows: &[Row],
    docs: &[usize],
    spec: &StarTreeSpec,
    depth: usize,
    node_count: &mut usize,
) -> Node {
    *node_count += 1;
    let mut metrics: Vec<AggAcc> = spec.metrics.iter().map(|m| m.new_acc()).collect();
    for &d in docs {
        for (acc, m) in metrics.iter_mut().zip(&spec.metrics) {
            acc.add(m, &rows[d]);
        }
    }
    let mut node = Node {
        children: BTreeMap::new(),
        star: None,
        metrics,
        docs: docs.len(),
    };
    if depth >= spec.dimensions.len() || docs.len() <= spec.max_leaf_records {
        return node;
    }
    let dim = &spec.dimensions[depth];
    let mut partitions: BTreeMap<Option<String>, Vec<usize>> = BTreeMap::new();
    for &d in docs {
        let key = rows[d]
            .get(dim)
            .filter(|v| !v.is_null())
            .map(|v| v.to_string());
        partitions.entry(key).or_default().push(d);
    }
    for (value, part) in partitions {
        node.children
            .insert(value, build_node(rows, &part, spec, depth + 1, node_count));
    }
    // star child: all docs, next dimension
    node.star = Some(Box::new(build_node(
        rows,
        docs,
        spec,
        depth + 1,
        node_count,
    )));
    node
}

/// Dimension values accumulated along a traversal path; `None` marks the
/// star (aggregated-over) branch.
type GroupKey = Vec<(String, Option<String>)>;

/// Walk the tree, respecting predicates (descend matching child) and
/// group-by (fan out over children); descend star otherwise.
fn collect<'a>(
    node: &'a Node,
    dims: &[String],
    depth: usize,
    query: &Query,
    key: GroupKey,
    out: &mut Vec<(GroupKey, &'a Node)>,
    incomplete: &mut bool,
) {
    // stop early when no remaining dimension is referenced by the query:
    // this node's subtree totals are exactly the answer (this is what makes
    // max_leaf_records-truncated trees still answer coarse aggregates)
    let references_rest = dims[depth..]
        .iter()
        .any(|d| query.predicates.iter().any(|p| &p.column == d) || query.group_by.contains(d));
    if depth == dims.len() || !references_rest {
        out.push((key, node));
        return;
    }
    let dim = &dims[depth];
    let pred = query
        .predicates
        .iter()
        .find(|p| &p.column == dim)
        .map(|p| p.value.to_string());
    let grouped = query.group_by.contains(dim);

    match (pred, grouped) {
        (Some(v), _) => {
            // children may be absent if the build stopped at
            // max_leaf_records before this depth
            if node.children.is_empty() && node.star.is_none() && node.docs > 0 {
                *incomplete = true;
                return;
            }
            if let Some(child) = node.children.get(&Some(v.clone())) {
                let mut key = key;
                if grouped {
                    key.push((dim.clone(), Some(v)));
                }
                collect(child, dims, depth + 1, query, key, out, incomplete);
            }
            // no child with that value = zero matching docs: emit nothing
        }
        (None, true) => {
            if node.children.is_empty() && node.docs > 0 {
                *incomplete = true;
                return;
            }
            for (v, child) in &node.children {
                let mut k = key.clone();
                k.push((dim.clone(), v.clone()));
                collect(child, dims, depth + 1, query, k, out, incomplete);
            }
        }
        (None, false) => match &node.star {
            Some(star) => collect(star, dims, depth + 1, query, key, out, incomplete),
            None => {
                if node.docs > 0 {
                    *incomplete = true;
                }
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Predicate;

    fn rows() -> Vec<Row> {
        let mut out = Vec::new();
        for i in 0..240usize {
            out.push(
                Row::new()
                    .with("city", ["sf", "la", "nyc"][i % 3])
                    .with("product", ["rides", "eats"][i % 2])
                    .with("fare", (i % 10) as f64),
            );
        }
        out
    }

    fn spec() -> StarTreeSpec {
        StarTreeSpec::new(
            &["city", "product"],
            vec![AggFn::Count, AggFn::Sum("fare".into())],
        )
    }

    /// The tree's answer as rows, finalized as a segment's would be.
    fn answer(st: &StarTree, query: &Query) -> Option<Vec<Row>> {
        let groups = st.try_execute_partial(query).unwrap()?;
        let partial = crate::query::PartialAgg {
            groups,
            used_startree: true,
            ..Default::default()
        };
        Some(partial.finalize(query))
    }

    fn exact(query: &Query, rows: &[Row]) -> BTreeMap<String, (i64, f64)> {
        let mut groups: BTreeMap<String, (i64, f64)> = BTreeMap::new();
        for r in rows {
            if !query.predicates.iter().all(|p| p.matches(r)) {
                continue;
            }
            let key = query
                .group_by
                .iter()
                .map(|g| r.get_str(g).unwrap().to_string())
                .collect::<Vec<_>>()
                .join("|");
            let e = groups.entry(key).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += r.get_double("fare").unwrap();
        }
        groups
    }

    fn tree_result_map(rows_out: Vec<Row>, group_by: &[&str]) -> BTreeMap<String, (i64, f64)> {
        rows_out
            .into_iter()
            .map(|r| {
                let key = group_by
                    .iter()
                    .map(|g| r.get_str(g).unwrap().to_string())
                    .collect::<Vec<_>>()
                    .join("|");
                (
                    key,
                    (r.get_int("n").unwrap(), r.get_double("sum_fare").unwrap()),
                )
            })
            .collect()
    }

    #[test]
    fn global_aggregate_matches_exact() {
        let rows = rows();
        let st = StarTree::build(&rows, &spec()).unwrap();
        let q = Query::select_all("t")
            .aggregate("n", AggFn::Count)
            .aggregate("sum_fare", AggFn::Sum("fare".into()));
        let out = answer(&st, &q).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get_int("n"), Some(240));
        let expected: f64 = rows.iter().map(|r| r.get_double("fare").unwrap()).sum();
        assert_eq!(out[0].get_double("sum_fare"), Some(expected));
    }

    #[test]
    fn group_by_prefix_dimension() {
        let rows = rows();
        let st = StarTree::build(&rows, &spec()).unwrap();
        let q = Query::select_all("t")
            .aggregate("n", AggFn::Count)
            .aggregate("sum_fare", AggFn::Sum("fare".into()))
            .group(&["city"]);
        let out = answer(&st, &q).unwrap();
        assert_eq!(tree_result_map(out, &["city"]), exact(&q, &rows));
    }

    #[test]
    fn group_by_non_prefix_dimension_merges_across_branches() {
        let rows = rows();
        let st = StarTree::build(&rows, &spec()).unwrap();
        // group by 'product' which is the SECOND dimension: traversal must
        // go through the star child of 'city' — no merge duplication
        let q = Query::select_all("t")
            .aggregate("n", AggFn::Count)
            .aggregate("sum_fare", AggFn::Sum("fare".into()))
            .group(&["product"]);
        let out = answer(&st, &q).unwrap();
        assert_eq!(tree_result_map(out, &["product"]), exact(&q, &rows));
    }

    #[test]
    fn filtered_group_by() {
        let rows = rows();
        let st = StarTree::build(&rows, &spec()).unwrap();
        let q = Query::select_all("t")
            .filter(Predicate::eq("city", "sf"))
            .aggregate("n", AggFn::Count)
            .aggregate("sum_fare", AggFn::Sum("fare".into()))
            .group(&["product"]);
        let out = answer(&st, &q).unwrap();
        assert_eq!(tree_result_map(out, &["product"]), exact(&q, &rows));
    }

    #[test]
    fn unsupported_shapes_fall_back() {
        let rows = rows();
        let st = StarTree::build(&rows, &spec()).unwrap();
        // non-eq predicate on a dimension
        let q = Query::select_all("t")
            .filter(Predicate::new("city", PredicateOp::Ne, "sf"))
            .aggregate("n", AggFn::Count);
        assert!(answer(&st, &q).is_none());
        // predicate on a non-dimension
        let q = Query::select_all("t")
            .filter(Predicate::eq("fare", 3.0))
            .aggregate("n", AggFn::Count);
        assert!(answer(&st, &q).is_none());
        // unknown aggregation metric
        let q = Query::select_all("t").aggregate("m", AggFn::Max("fare".into()));
        assert!(answer(&st, &q).is_none());
        // group by non-dimension
        let q = Query::select_all("t")
            .aggregate("n", AggFn::Count)
            .group(&["fare"]);
        assert!(answer(&st, &q).is_none());
    }

    #[test]
    fn missing_filter_value_returns_zero_row() {
        let rows = rows();
        let st = StarTree::build(&rows, &spec()).unwrap();
        let q = Query::select_all("t")
            .filter(Predicate::eq("city", "tokyo"))
            .aggregate("n", AggFn::Count)
            .aggregate("sum_fare", AggFn::Sum("fare".into()));
        let out = answer(&st, &q).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get_int("n"), Some(0));
    }

    #[test]
    fn leaf_threshold_triggers_fallback_when_tree_too_shallow() {
        let rows = rows();
        let mut sp = spec();
        sp.max_leaf_records = 10_000; // root is already a leaf
        let st = StarTree::build(&rows, &sp).unwrap();
        // global aggregate still answerable from the root
        let q = Query::select_all("t").aggregate("n", AggFn::Count);
        assert_eq!(answer(&st, &q).unwrap()[0].get_int("n"), Some(240));
        // but group-by needs children that were never built
        let q = Query::select_all("t")
            .aggregate("n", AggFn::Count)
            .group(&["city"]);
        assert!(answer(&st, &q).is_none());
    }

    #[test]
    fn distinct_count_preaggregates_correctly() {
        let rows = rows();
        let sp = StarTreeSpec::new(&["city"], vec![AggFn::DistinctCount("product".into())]);
        let st = StarTree::build(&rows, &sp).unwrap();
        let q = Query::select_all("t")
            .aggregate("products", AggFn::DistinctCount("product".into()))
            .group(&["city"]);
        let out = answer(&st, &q).unwrap();
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|r| r.get_int("products") == Some(2)));
    }

    #[test]
    fn empty_dimensions_rejected() {
        assert!(StarTree::build(&rows(), &StarTreeSpec::new(&[], vec![AggFn::Count])).is_err());
    }

    #[test]
    fn node_count_reported() {
        let st = StarTree::build(&rows(), &spec()).unwrap();
        // root + (3 cities + star) + 4 x (2 products + star) = 1 + 4 + 12
        assert_eq!(st.node_count, 17);
        assert!(st.memory_bytes() > 0);
    }
}
