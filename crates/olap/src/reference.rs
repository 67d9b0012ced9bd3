//! The equivalence oracle for segment execution.
//!
//! [`execute`] answers a [`Query`] the plainest way there is: one row at a
//! time, [`Predicate::matches`](crate::query::Predicate::matches) per
//! predicate, a stringified group key and a map probe per row,
//! [`AggAcc::add`] per aggregation, a row per group, a stable sort of the
//! rows. It shares no code with the column kernels of [`crate::segment`]
//! that sealed and consuming segments both run, nor with the group
//! container of [`crate::groups`] they ship their answers in — which is
//! what makes it worth comparing against. Rows are taken as
//! given: it is an oracle for rows that fit the schema.
//!
//! Test-only by convention: the crate's unit tests, the umbrella crate's
//! `tests/` and `crates/bench` call it; production paths never do, and it
//! is deliberately not re-exported from the crate root.

use crate::query::{sort_and_limit, Query};
use rtdi_common::{row_names, AggAcc, Row, RowNames, Schema, Value};
use rtdi_storage::bitmap::Bitmap;
use std::collections::BTreeMap;

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
    let mut out: Vec<Row> = if query.is_aggregation() {
        aggregate(matching(rows, query, valid_docs), query)
    } else {
        // an empty select projects onto the schema (missing fields become NULL)
        let names: RowNames = if query.select.is_empty() {
            row_names(schema.field_names())
        } else {
            row_names(query.select.iter().map(String::as_str))
        };
        matching(rows, query, valid_docs)
            .map(|row| row.project_onto(&names))
            .collect()
    };
    sort_and_limit(&mut out, &query.order_by, query.limit);
    out
}

/// One row per group of `rows`, in key order (NULL first, then text, column
/// by column), which a stable sort then keeps among ORDER BY ties. A global
/// aggregation over nothing still answers its zero row. The row-store
/// model of claim E10 (`crates/bench`) aggregates with it too.
pub fn aggregate<'a>(rows: impl Iterator<Item = &'a Row>, query: &Query) -> Vec<Row> {
    let mut groups = BTreeMap::new();
    if query.group_by.is_empty() {
        groups.insert(Vec::new(), query.new_accs());
    }
    for row in rows {
        let key: Vec<Option<String>> = query
            .group_by
            .iter()
            .map(|c| row.get(c).filter(|v| !v.is_null()).map(|v| v.to_string()))
            .collect();
        let accs = groups.entry(key).or_insert_with(|| query.new_accs());
        for (acc, (_, f)) in accs.iter_mut().zip(query.aggregations.iter()) {
            acc.add(f, row);
        }
    }
    let group_rows = groups.into_iter().map(|(key, accs)| {
        let cells = key.into_iter().map(|k| k.map_or(Value::Null, Value::from));
        let results = accs.iter().map(AggAcc::result);
        let names = query.group_by.iter().cloned();
        let agg_names = query.aggregations.iter().map(|(n, _)| n.clone());
        names.zip(cells).chain(agg_names.zip(results)).collect()
    });
    group_rows.collect()
}
