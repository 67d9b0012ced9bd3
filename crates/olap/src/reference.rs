//! The equivalence oracle for segment execution.
//!
//! [`execute`] answers a [`Query`] the plainest way there is: one row at a
//! time, [`Predicate::matches`](crate::query::Predicate::matches) per
//! predicate, a stringified group key and a map probe per row,
//! [`AggAcc::add`] per aggregation. It shares no code with the column
//! kernels of [`crate::segment`] that sealed and consuming segments both
//! run — which is what makes it worth comparing against. Rows are taken as
//! given: it is an oracle for rows that fit the schema.
//!
//! Test-only by convention: the crate's unit tests, the umbrella crate's
//! `tests/` and `crates/bench` call it; production paths never do, and it
//! is deliberately not re-exported from the crate root.

use crate::bitmap::Bitmap;
use crate::query::{sort_and_limit, GroupKey, PartialAgg, Query};
use rtdi_common::{AggAcc, Row, Schema};
use std::sync::Arc;

/// The rows `valid_docs` and every predicate admit, in doc order.
fn matching<'a>(
    rows: &'a [Row],
    query: &'a Query,
    valid_docs: Option<&'a Bitmap>,
) -> impl Iterator<Item = &'a Row> {
    rows.iter()
        .enumerate()
        .filter(move |(doc, _)| valid_docs.is_none_or(|valid| valid.get(*doc)))
        .map(|(_, row)| row)
        .filter(|row| query.predicates.iter().all(|p| p.matches(row)))
}

/// The rows `query` answers over `rows`, by row scan. `valid_docs`
/// restricts to currently-valid documents (upsert tables).
pub fn execute(
    schema: &Schema,
    rows: &[Row],
    query: &Query,
    valid_docs: Option<&Bitmap>,
) -> Vec<Row> {
    if query.is_aggregation() {
        return execute_partial(rows, query, valid_docs).finalize(query);
    }
    // an empty select projects onto the schema (missing fields become NULL)
    let names: Vec<Arc<str>> = if query.select.is_empty() {
        schema.field_names().map(Arc::from).collect()
    } else {
        query.select.iter().map(|s| Arc::from(s.as_str())).collect()
    };
    let mut out: Vec<Row> = matching(rows, query, valid_docs)
        .map(|row| row.project_shared(&names))
        .collect();
    sort_and_limit(&mut out, &query.order_by, query.limit);
    out
}

/// Mergeable aggregation over `rows` by row scan.
fn execute_partial(rows: &[Row], query: &Query, valid_docs: Option<&Bitmap>) -> PartialAgg {
    let mut partial = PartialAgg::default();
    for row in matching(rows, query, valid_docs) {
        let key: GroupKey = query
            .group_by
            .iter()
            .map(|c| row.get(c).filter(|v| !v.is_null()).map(|v| v.to_string()))
            .collect();
        let accs: &mut Vec<AggAcc> = partial.groups.entry(key).or_insert_with(|| {
            query
                .aggregations
                .iter()
                .map(|(_, f)| f.new_acc())
                .collect()
        });
        for (acc, (_, f)) in accs.iter_mut().zip(query.aggregations.iter()) {
            acc.add(f, row);
        }
    }
    partial
}
