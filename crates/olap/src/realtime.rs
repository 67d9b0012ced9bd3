//! Consuming (mutable) segments.
//!
//! Real-time ingestion appends rows to a mutable segment that serves
//! queries immediately — the seconds-level data freshness of §4.3 — and is
//! sealed into an immutable, fully-indexed [`crate::segment::Segment`]
//! once it reaches its row threshold.
//!
//! The segment is columnar from its first row, as Pinot's is: one
//! append-only `ColumnData` per schema field, strings interned into a
//! dictionary kept in insertion order. A query runs the kernels a sealed
//! segment runs, over these columns and no index; sealing sorts each
//! dictionary, remaps its ids and moves the columns into the `Segment`.
//! No row is stored and none is pivoted twice.

use crate::query::{PartialAgg, Query, QueryResult};
use crate::segment::{self, intern_field_names, ColumnSet, IndexSpec, Segment};
use rtdi_common::{Field, Positions, Result, Row, RowNames, Schema, Timestamp, Value};
use rtdi_storage::bitmap::Bitmap;
use rtdi_storage::column::ColumnData;
use std::sync::Arc;

/// An append-only, immediately-queryable segment.
pub struct MutableSegment {
    /// Shared with the upsert index, which names it once per row.
    name: Arc<str>,
    schema: Schema,
    field_names: RowNames,
    /// `columns[i]` holds `schema.fields[i]`.
    columns: Vec<ColumnData>,
    /// Where each schema field sits in rows of the shape appended last.
    /// Rows of one shape follow one another, so the next row confirms the
    /// positions with one pointer compare instead of finding them again;
    /// kept here so that an append allocates nothing for them.
    cells: Positions,
    doc_count: usize,
}

impl ColumnSet for MutableSegment {
    fn doc_count(&self) -> usize {
        self.doc_count
    }

    fn field_names(&self) -> &RowNames {
        &self.field_names
    }

    fn column(&self, name: &str) -> Option<&ColumnData> {
        self.schema.field_index(name).map(|i| &self.columns[i])
    }
}

impl MutableSegment {
    pub fn new(name: impl Into<Arc<str>>, schema: Schema) -> Self {
        MutableSegment {
            name: name.into(),
            field_names: intern_field_names(&schema),
            columns: schema
                .fields
                .iter()
                .map(|f| ColumnData::new(f.field_type))
                .collect(),
            cells: Positions::default(),
            schema,
            doc_count: 0,
        }
    }

    /// The empty segment that follows this one in its partition: the same
    /// schema, this one's name list and the positions it resolved.
    pub fn successor(&self, name: impl Into<Arc<str>>) -> Self {
        MutableSegment {
            name: name.into(),
            schema: self.schema.clone(),
            field_names: Arc::clone(&self.field_names),
            columns: (self.schema.fields.iter())
                .map(|f| ColumnData::new(f.field_type))
                .collect(),
            cells: self.cells.clone(),
            doc_count: 0,
        }
    }

    pub fn name(&self) -> &Arc<str> {
        &self.name
    }

    /// Validate a row against the schema and append it; returns its doc id
    /// within this segment. Each schema field takes its cell coerced to the
    /// field's type; row columns outside the schema are dropped. A row
    /// without the column `default` names gets the timestamp given there
    /// (the ingester's event-time fallback for the table's time column).
    ///
    /// The one appending function, made for a batch of like rows: the
    /// fields' positions are resolved once per row shape ([`Positions`];
    /// of a column named twice the first cell is read), the cells found
    /// are validated, and only then pushed from their positions — a
    /// refused row leaves no trace.
    pub fn append(&mut self, row: &Row, default: Option<(&str, Timestamp)>) -> Result<usize> {
        let default = default.map(|(column, ts)| (column, Value::Int(ts)));
        let cell = |field: &Field, at: Option<usize>| match at {
            Some(at) => row.cell(at),
            None => (default.as_ref())
                .filter(|(column, _)| *column == field.name)
                .map(|(_, ts)| ts),
        };
        let at = self.cells.of(row, &self.field_names);
        for (field, &at) in self.schema.fields.iter().zip(at) {
            self.schema.validate_cell(field, cell(field, at))?;
        }
        let fields = self.schema.fields.iter().zip(at);
        for (column, (field, &at)) in self.columns.iter_mut().zip(fields) {
            column.push(cell(field, at));
        }
        self.doc_count += 1;
        Ok(self.doc_count - 1)
    }

    /// Append a row as it is: a cell its field cannot hold becomes NULL
    /// ([`Segment::build`] takes rows without validating them).
    pub(crate) fn push(&mut self, row: &Row) {
        let at = self.cells.of(row, &self.field_names);
        for (column, &at) in self.columns.iter_mut().zip(at) {
            column.push(at.and_then(|at| row.cell(at)));
        }
        self.doc_count += 1;
    }

    pub fn doc_count(&self) -> usize {
        self.doc_count
    }

    pub fn memory_bytes(&self) -> usize {
        self.columns.iter().map(ColumnData::memory_bytes).sum()
    }

    /// Value of a column at a document (NULL for a column outside the
    /// schema, as in a sealed segment).
    pub fn value_at(&self, column: &str, doc: usize) -> Value {
        self.column(column).map_or(Value::Null, |c| c.value_at(doc))
    }

    /// Min/max of an integer column's non-null values, the fold of the
    /// block statistics kept at append: a time window that cannot overlap
    /// them skips this segment the way it skips a sealed one.
    pub fn int_range(&self, column: &str) -> Option<(Timestamp, Timestamp)> {
        self.column(column)?.int_range()
    }

    /// Seal into an immutable, indexed segment. The mutable segment's doc
    /// ids are preserved only when the index spec does not re-sort
    /// (`spec.sorted == None`) — upsert tables rely on that, so
    /// [`crate::table::OlapTable`] strips `sorted` from specs of upsert
    /// tables.
    pub fn seal(self, spec: &IndexSpec) -> Result<Segment> {
        Segment::seal(
            self.name.to_string(),
            self.schema,
            self.field_names,
            self.columns,
            self.doc_count,
            spec,
        )
    }

    /// Execute a query with the sealed segments' kernels (no index, so
    /// every predicate is a columnar scan).
    pub fn execute(&self, query: &Query, valid_docs: Option<&Bitmap>) -> Result<QueryResult> {
        segment::execute(self, query, valid_docs)
    }

    /// Mergeable aggregation over the consuming columns.
    pub fn execute_partial(
        &self,
        query: &Query,
        valid_docs: Option<&Bitmap>,
    ) -> Result<PartialAgg> {
        segment::execute_partial(self, query, valid_docs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Predicate;
    use rtdi_common::{AggFn, FieldType};

    fn schema() -> Schema {
        Schema::of(
            "orders",
            &[
                ("city", FieldType::Str),
                ("total", FieldType::Double),
                ("ts", FieldType::Timestamp),
            ],
        )
    }

    fn filled(n: usize) -> MutableSegment {
        let mut seg = MutableSegment::new("rt-0-0", schema());
        for i in 0..n {
            let row = Row::new()
                .with("city", ["sf", "la"][i % 2])
                .with("total", i as f64)
                .with("ts", i as i64);
            seg.append(&row, None).unwrap();
        }
        seg
    }

    #[test]
    fn append_and_query_immediately() {
        let seg = filled(10);
        assert_eq!(seg.doc_count(), 10);
        let q = Query::select_all("orders")
            .filter(Predicate::eq("city", "sf"))
            .aggregate("n", AggFn::Count);
        let res = seg.execute(&q, None).unwrap();
        assert_eq!(res.rows[0].get_int("n"), Some(5));
    }

    #[test]
    fn schema_violations_rejected() {
        let mut seg = MutableSegment::new("rt", schema());
        assert!(seg.append(&Row::new().with("city", 42i64), None).is_err());
        assert_eq!(seg.doc_count(), 0);
    }

    #[test]
    fn append_keeps_schema_cells_and_defaults_a_missing_time_column() {
        let mut seg = MutableSegment::new("rt", schema());
        // an Int in the Double field widens, a column outside the schema is
        // dropped, and a row without `ts` takes the default
        let row = Row::new()
            .with("city", "sf")
            .with("total", 3i64)
            .with("tip", 1.0);
        assert_eq!(seg.append(&row, Some(("ts", 77))).unwrap(), 0);
        let with_ts = Row::new().with("city", "la").with("ts", 5i64);
        assert_eq!(seg.append(&with_ts, Some(("ts", 78))).unwrap(), 1);
        assert_eq!(seg.value_at("city", 0), Value::from("sf"));
        assert_eq!(seg.value_at("total", 0), Value::Double(3.0));
        assert_eq!(seg.value_at("ts", 0), Value::Int(77));
        assert_eq!(seg.value_at("ts", 1), Value::Int(5));
        assert_eq!(seg.value_at("total", 1), Value::Null);
        assert_eq!(seg.value_at("tip", 0), Value::Null);
        assert_eq!(seg.int_range("ts"), Some((5, 77)));
        // the default is validated like a cell of the row
        assert!(seg.append(&Row::new(), Some(("city", 1))).is_err());
        assert_eq!(seg.doc_count(), 2);
    }

    #[test]
    fn rows_of_changing_shape_are_read_by_name() {
        let mut seg = MutableSegment::new("rt", schema());
        let shapes = [
            Row::new()
                .with("city", "sf")
                .with("total", 1.0)
                .with("ts", 1i64),
            Row::new()
                .with("ts", 2i64)
                .with("tip", 0.5)
                .with("city", "la"),
            Row::new().with("total", 3.0).with("city", "nyc"),
            Row::new()
                .with("city", "sf")
                .with("total", 4.0)
                .with("ts", 4i64),
            Row::new(),
            Row::new()
                .with("tip", 0.5)
                .with("ts", 6i64)
                .with("total", 6.0),
        ];
        // a refused row leaves no cell behind, whatever it made the segment
        // remember about its shape
        let refused = Row::new().with("total", "free").with("city", "sf");
        for (doc, row) in shapes.iter().enumerate() {
            assert!(seg.append(&refused, None).is_err());
            assert_eq!(seg.append(row, Some(("ts", 99))).unwrap(), doc);
        }
        for (doc, row) in shapes.iter().enumerate() {
            let cell = |name| row.get(name).cloned();
            assert_eq!(
                seg.value_at("city", doc),
                cell("city").unwrap_or(Value::Null)
            );
            assert_eq!(
                seg.value_at("total", doc),
                cell("total").unwrap_or(Value::Null)
            );
            assert_eq!(
                seg.value_at("ts", doc),
                cell("ts").unwrap_or(Value::Int(99))
            );
        }
        // without the default the column is NULL again
        seg.append(&shapes[2], None).unwrap();
        assert_eq!(seg.value_at("ts", shapes.len()), Value::Null);
    }

    #[test]
    fn string_predicates_on_a_column_with_only_nulls_match_nothing() {
        use crate::query::PredicateOp::{Eq, Ge, Gt, Le, Lt, Ne};
        // a sparse field before its first value: the dictionary is empty
        // while every NULL cell stores id 0
        let nulls_only = || {
            let mut seg = MutableSegment::new("rt", schema());
            for ts in 0..70i64 {
                seg.append(&Row::new().with("ts", ts), None).unwrap();
            }
            seg
        };
        let count = |seg: &dyn Fn(&Query) -> QueryResult, op| {
            let q = Query::select_all("orders")
                .filter(Predicate::new("city", op, "a"))
                .aggregate("n", AggFn::Count);
            seg(&q).rows[0].get_int("n")
        };
        let mut seg = nulls_only();
        let sealed = nulls_only().seal(&IndexSpec::none()).unwrap();
        for op in [Eq, Ne, Lt, Le, Gt, Ge] {
            assert_eq!(count(&|q| seg.execute(q, None).unwrap(), op), Some(0));
            assert_eq!(count(&|q| sealed.execute(q, None).unwrap(), op), Some(0));
        }
        // the first value ends the window; the NULL docs still match nothing
        seg.append(&Row::new().with("city", "b"), None).unwrap();
        assert_eq!(count(&|q| seg.execute(q, None).unwrap(), Gt), Some(1));
        assert_eq!(count(&|q| seg.execute(q, None).unwrap(), Lt), Some(0));
        let sealed = seg.seal(&IndexSpec::none()).unwrap();
        assert_eq!(count(&|q| sealed.execute(q, None).unwrap(), Gt), Some(1));
        assert_eq!(count(&|q| sealed.execute(q, None).unwrap(), Ne), Some(1));
    }

    #[test]
    fn selection_with_projection() {
        let seg = filled(6);
        let q = Query::select_all("orders")
            .columns(&["total"])
            .filter(Predicate::new("total", crate::query::PredicateOp::Ge, 4.0));
        let res = seg.execute(&q, None).unwrap();
        assert_eq!(res.rows.len(), 2);
        assert_eq!(res.rows[0].len(), 1);
    }

    #[test]
    fn valid_docs_respected() {
        let seg = filled(4);
        let mut valid = Bitmap::full(4);
        valid.unset(1);
        let q = Query::select_all("orders").aggregate("n", AggFn::Count);
        assert_eq!(
            seg.execute(&q, Some(&valid)).unwrap().rows[0].get_int("n"),
            Some(3)
        );
    }

    #[test]
    fn seal_preserves_docs_and_results() {
        let seg = filled(100);
        let sealed = filled(100)
            .seal(&IndexSpec::none().with_inverted(&["city"]))
            .unwrap();
        assert_eq!(sealed.doc_count(), 100);
        let q = Query::select_all("orders")
            .filter(Predicate::eq("city", "la"))
            .aggregate("sum".to_string(), AggFn::Sum("total".into()));
        let a = seg.execute(&q, None).unwrap().rows[0].get_double("sum");
        let b = sealed.execute(&q, None).unwrap().rows[0].get_double("sum");
        assert_eq!(a, b);
        // doc id alignment (no sorted column): every doc identical
        for i in 0..100 {
            assert_eq!(seg.value_at("total", i), sealed.value_at("total", i));
        }
    }

    #[test]
    fn partial_merges_with_immutable_partial() {
        let seg = filled(50);
        let sealed = filled(50).seal(&IndexSpec::none()).unwrap();
        let q = Query::select_all("orders")
            .aggregate("avg_total".to_string(), AggFn::Avg("total".into()))
            .group(&["city"]);
        let mut p = seg.execute_partial(&q, None).unwrap();
        p.merge(sealed.execute_partial(&q, None).unwrap());
        let rows = p.finalize(&q);
        assert_eq!(rows.len(), 2);
        // avg across both halves equals avg of the duplicated dataset =
        // avg of one copy
        let sf = rows
            .iter()
            .find(|r| r.get_str("city") == Some("sf"))
            .unwrap();
        let expected: f64 = (0..50)
            .filter(|i| i % 2 == 0)
            .map(|i| i as f64)
            .sum::<f64>()
            / 25.0;
        assert!((sf.get_double("avg_total").unwrap() - expected).abs() < 1e-9);
    }
}
