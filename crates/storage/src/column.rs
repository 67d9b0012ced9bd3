//! The one decoded column: what a row batch is pivoted into, what
//! [`crate::segfile`] encodes and decodes, and what the OLAP kernels read.
//!
//! Every writer builds it the same way — [`ColumnData::new`], one
//! [`ColumnData::push`] per cell, one [`ColumnData::seal`] — and every
//! writer therefore coerces a cell by the same rule: a numeric or Bool
//! field takes what [`Value::as_int`], [`Value::as_double`] or
//! [`Value::as_bool`] gives, a Str, Json or Bytes field takes only the
//! value [`FieldType::accepts`], and a cell that does not coerce is NULL.
//! The per-cell methods are `#[inline]`: their callers are in other
//! crates, and the release profile has no LTO.

use crate::bitmap::Bitmap;
use rtdi_common::{json, FieldType, Text, Value};
use std::cmp::Ordering;
use std::collections::HashMap;

/// Docs per block of an Int column's statistics.
pub const BLOCK: usize = 1024;

/// The bounds of a block without a non-NULL value: no value lies in them,
/// and they are the identity of a min/max fold.
const NO_VALUES: (i64, i64) = (i64::MAX, i64::MIN);

/// Typed columnar storage. A NULL cell holds its type's zero (id 0, an
/// empty byte string) under a set bit of `nulls`.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// Int and Timestamp fields.
    Int {
        values: Vec<i64>,
        nulls: Bitmap,
        /// Min and max of the non-NULL values of each run of [`BLOCK`]
        /// docs (`(i64::MAX, i64::MIN)` when there is none), kept at push
        /// and rebuilt when docs are reordered or decoded. A predicate
        /// skips or takes whole the blocks whose bounds settle it; time
        /// pruning reads their fold.
        blocks: Vec<(i64, i64)>,
    },
    Double {
        values: Vec<f64>,
        nulls: Bitmap,
    },
    Bool {
        values: Bitmap,
        nulls: Bitmap,
    },
    /// Dictionary-encoded strings; a Json field's dictionary holds each
    /// document's text (`json`). A sealed column's dictionary is sorted, so
    /// dict-id order equals lexicographic order, and `intern` is `None`. A
    /// column being built has its dictionary in insertion order and
    /// `intern` maps every entry to its id. A short entry is held inline
    /// in both ([`Text`]), so interning it allocates no string.
    Str {
        dict: Vec<Text>,
        ids: Vec<u32>,
        nulls: Bitmap,
        intern: Option<HashMap<Text, u32>>,
        json: bool,
    },
    /// Raw bytes, one value per doc: the file's var-byte forward index.
    Bytes {
        values: Vec<Vec<u8>>,
        nulls: Bitmap,
    },
}

impl ColumnData {
    /// An empty column of a field of this type, ready for [`Self::push`].
    pub fn new(field_type: FieldType) -> ColumnData {
        let nulls = Bitmap::new(0);
        match field_type {
            FieldType::Int | FieldType::Timestamp => ColumnData::Int {
                values: Vec::new(),
                nulls,
                blocks: Vec::new(),
            },
            FieldType::Double => ColumnData::Double {
                values: Vec::new(),
                nulls,
            },
            FieldType::Bool => ColumnData::Bool {
                values: Bitmap::new(0),
                nulls,
            },
            FieldType::Str | FieldType::Json => ColumnData::Str {
                dict: Vec::new(),
                ids: Vec::new(),
                nulls,
                intern: Some(HashMap::new()),
                json: field_type == FieldType::Json,
            },
            FieldType::Bytes => ColumnData::Bytes {
                values: Vec::new(),
                nulls,
            },
        }
    }

    /// Append one cell coerced to the column's type. An absent, NULL or
    /// uncoercible value is stored as NULL.
    #[inline]
    pub fn push(&mut self, v: Option<&Value>) {
        match self {
            ColumnData::Int {
                values,
                nulls,
                blocks,
            } => {
                let v = v.and_then(Value::as_int);
                if values.len().is_multiple_of(BLOCK) {
                    blocks.push(NO_VALUES);
                }
                if let (Some(v), Some((lo, hi))) = (v, blocks.last_mut()) {
                    (*lo, *hi) = ((*lo).min(v), (*hi).max(v));
                }
                nulls.push(v.is_none());
                values.push(v.unwrap_or(0));
            }
            ColumnData::Double { values, nulls } => {
                let v = v.and_then(Value::as_double);
                nulls.push(v.is_none());
                values.push(v.unwrap_or(0.0));
            }
            ColumnData::Bool { values, nulls } => {
                let v = v.and_then(Value::as_bool);
                nulls.push(v.is_none());
                values.push(v == Some(true));
            }
            ColumnData::Str {
                json: false,
                dict,
                ids,
                nulls,
                intern,
            } => {
                let text = match v {
                    Some(Value::Str(s)) => Some(s.as_str()),
                    _ => None,
                };
                push_text(dict, ids, nulls, intern, text);
            }
            ColumnData::Str {
                json: true,
                dict,
                ids,
                nulls,
                intern,
            } => {
                let text = match v {
                    Some(Value::Json(doc)) => Some(json::to_string(doc)),
                    _ => None,
                };
                push_text(dict, ids, nulls, intern, text.as_deref());
            }
            ColumnData::Bytes { values, nulls } => {
                let v = match v {
                    Some(Value::Bytes(b)) => Some(b),
                    _ => None,
                };
                nulls.push(v.is_none());
                values.push(v.cloned().unwrap_or_default());
            }
        }
    }

    /// [`Self::push`] of `Value::Str(s)` without building the value: what
    /// compaction hands over straight from a raw log's bytes.
    #[inline]
    pub fn push_str(&mut self, s: &str) {
        match self {
            ColumnData::Str {
                json: false,
                dict,
                ids,
                nulls,
                intern,
            } => push_text(dict, ids, nulls, intern, Some(s)),
            // no other field takes a string
            _ => self.push(None),
        }
    }

    /// Turn a column being built into its sealed form: the dictionary is
    /// sorted and the ids rewritten through the permutation (a sort of
    /// the distinct values, not of the cells).
    pub fn seal(&mut self) {
        let ColumnData::Str {
            dict,
            ids,
            nulls,
            intern,
            ..
        } = self
        else {
            return;
        };
        if intern.take().is_none() {
            return;
        }
        let mut order: Vec<u32> = (0..dict.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| dict[a as usize].cmp(&dict[b as usize]));
        let mut new_id = vec![0u32; dict.len()];
        let mut sorted = Vec::with_capacity(dict.len());
        for (new, &old) in order.iter().enumerate() {
            new_id[old as usize] = new as u32;
            sorted.push(std::mem::take(&mut dict[old as usize]));
        }
        *dict = sorted;
        // NULL cells hold id 0 whatever the dictionary
        for (doc, id) in ids.iter_mut().enumerate() {
            if !nulls.get(doc) {
                *id = new_id[*id as usize];
            }
        }
    }

    /// Reorder the rows: row `i` becomes the former row `order[i]`.
    pub fn permute(&mut self, order: &[u32]) {
        fn take<T: Clone>(values: &[T], order: &[u32]) -> Vec<T> {
            order.iter().map(|&d| values[d as usize].clone()).collect()
        }
        let bits = |bm: &Bitmap| {
            let mut out = Bitmap::new(0);
            order.iter().for_each(|&d| out.push(bm.get(d as usize)));
            out
        };
        match self {
            ColumnData::Int {
                values,
                nulls,
                blocks,
            } => {
                *values = take(values, order);
                *nulls = bits(nulls);
                *blocks = int_blocks(values, nulls);
            }
            ColumnData::Double { values, nulls } => {
                *values = take(values, order);
                *nulls = bits(nulls);
            }
            ColumnData::Bool { values, nulls } => {
                *values = bits(values);
                *nulls = bits(nulls);
            }
            ColumnData::Str { ids, nulls, .. } => {
                *ids = take(ids, order);
                *nulls = bits(nulls);
            }
            ColumnData::Bytes { values, nulls } => {
                *values = take(values, order);
                *nulls = bits(nulls);
            }
        }
    }

    /// How the cells of two docs order: [`Value::total_cmp`] of what
    /// [`Self::value_at`] would build for each, NULL first. A sorted
    /// segment's rows are in this order: the OLAP seal sorts by it, the
    /// warehouse compaction too, and the segment decoder holds a file's
    /// sort claim to it.
    #[inline]
    pub fn cmp_docs(&self, a: usize, b: usize) -> Ordering {
        let nulls = self.nulls();
        match (nulls.get(a), nulls.get(b)) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Less,
            (false, true) => return Ordering::Greater,
            (false, false) => {}
        }
        match self {
            ColumnData::Int { values, .. } => values[a].cmp(&values[b]),
            ColumnData::Double { values, .. } => values[a].total_cmp(&values[b]),
            ColumnData::Bool { values, .. } => values.get(a).cmp(&values.get(b)),
            ColumnData::Str { dict, ids, .. } => {
                let (a, b) = (ids[a] as usize, ids[b] as usize);
                // a column being built has its dictionary in insertion order
                if a == b {
                    Ordering::Equal
                } else {
                    dict[a].cmp(&dict[b])
                }
            }
            ColumnData::Bytes { values, .. } => values[a].cmp(&values[b]),
        }
    }

    /// Whether no doc orders after the next by [`Self::cmp_docs`].
    pub fn is_sorted(&self) -> bool {
        (1..self.len()).all(|d| self.cmp_docs(d - 1, d) != Ordering::Greater)
    }

    /// The cell as a [`Value`]: a Str column's text (a Json field's too) as
    /// `Value::Str`.
    #[inline]
    pub fn value_at(&self, doc: usize) -> Value {
        if self.nulls().get(doc) {
            return Value::Null;
        }
        match self {
            ColumnData::Int { values, .. } => Value::Int(values[doc]),
            ColumnData::Double { values, .. } => Value::Double(values[doc]),
            ColumnData::Bool { values, .. } => Value::Bool(values.get(doc)),
            ColumnData::Str { dict, ids, .. } => Value::Str(dict[ids[doc] as usize].clone()),
            ColumnData::Bytes { values, .. } => Value::Bytes(values[doc].clone()),
        }
    }

    /// Rows pushed so far.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int { values, .. } => values.len(),
            ColumnData::Double { values, .. } => values.len(),
            ColumnData::Bool { values, .. } => values.len(),
            ColumnData::Str { ids, .. } => ids.len(),
            ColumnData::Bytes { values, .. } => values.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    pub fn nulls(&self) -> &Bitmap {
        match self {
            ColumnData::Int { nulls, .. }
            | ColumnData::Double { nulls, .. }
            | ColumnData::Bool { nulls, .. }
            | ColumnData::Str { nulls, .. }
            | ColumnData::Bytes { nulls, .. } => nulls,
        }
    }

    /// An integer column's blocks; none for any other column.
    #[inline]
    pub fn blocks(&self) -> &[(i64, i64)] {
        match self {
            ColumnData::Int { blocks, .. } => blocks,
            _ => &[],
        }
    }

    /// Min and max of an integer column's non-null values: the fold of its
    /// blocks.
    pub fn int_range(&self) -> Option<(i64, i64)> {
        let (lo, hi) = self
            .blocks()
            .iter()
            .fold(NO_VALUES, |(lo, hi), &(l, h)| (lo.min(l), hi.max(h)));
        (lo <= hi).then_some((lo, hi))
    }

    pub fn memory_bytes(&self) -> usize {
        match self {
            ColumnData::Int {
                values,
                nulls,
                blocks,
            } => values.len() * 8 + nulls.memory_bytes() + blocks.len() * 16,
            ColumnData::Double { values, nulls } => values.len() * 8 + nulls.memory_bytes(),
            ColumnData::Bool { values, nulls } => values.memory_bytes() + nulls.memory_bytes(),
            ColumnData::Str {
                dict,
                ids,
                nulls,
                intern,
                ..
            } => {
                // a column being built holds every entry again in `intern`;
                // an entry is its cell, plus its text when that is too long
                // to live inline
                let copies = if intern.is_some() { 2 } else { 1 };
                let entry = |s: &Text| size_of::<Text>() + if s.is_inline() { 0 } else { s.len() };
                dict.iter().map(entry).sum::<usize>() * copies
                    + ids.len() * 4
                    + nulls.memory_bytes()
            }
            ColumnData::Bytes { values, nulls } => {
                values.iter().map(|v| v.len() + 24).sum::<usize>() + nulls.memory_bytes()
            }
        }
    }
}

/// Append a cell of a [`ColumnData::Str`] column: its text's id, entered
/// at the end of the dictionary when it is new, or NULL for `None`.
#[inline]
fn push_text(
    dict: &mut Vec<Text>,
    ids: &mut Vec<u32>,
    nulls: &mut Bitmap,
    intern: &mut Option<HashMap<Text, u32>>,
    text: Option<&str>,
) {
    // a sealed column pushed to is being built again: its sorted
    // dictionary becomes the first insertions
    let intern = intern.get_or_insert_with(|| {
        (0u32..)
            .zip(dict.iter())
            .map(|(i, s)| (s.clone(), i))
            .collect()
    });
    let id = text.map(|s| match intern.get(s) {
        Some(&id) => id,
        None => {
            let id = dict.len() as u32;
            let text = Text::from(s);
            intern.insert(text.clone(), id);
            dict.push(text);
            id
        }
    });
    nulls.push(id.is_none());
    ids.push(id.unwrap_or(0));
}

/// The [`ColumnData::Int`] blocks of a column's values, NULLs aside.
pub(crate) fn int_blocks(values: &[i64], nulls: &Bitmap) -> Vec<(i64, i64)> {
    let block = |(b, chunk): (usize, &[i64])| {
        let live = (b * BLOCK..).zip(chunk).filter(|&(d, _)| !nulls.get(d));
        live.fold(NO_VALUES, |(lo, hi), (_, &v)| (lo.min(v), hi.max(v)))
    };
    values.chunks(BLOCK).enumerate().map(block).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdi_common::Row;

    /// A dictionary entry costs its 24-byte cell, and its text only when
    /// the text is too long for the cell; a column being built pays twice.
    #[test]
    fn a_dictionary_charges_heap_text_only_above_the_inline_limit() {
        let long = "x".repeat(Text::INLINE + 8);
        let mut column = ColumnData::new(FieldType::Str);
        column.push_str("sf");
        column.push_str(&long);
        let ColumnData::Str { nulls, .. } = &column else {
            unreachable!("a string field builds a string column")
        };
        let fixed = 2 * 4 + nulls.memory_bytes();
        let entries = 2 * 24 + long.len();
        assert_eq!(column.memory_bytes(), 2 * entries + fixed, "being built");
        column.seal();
        let ColumnData::Str { nulls, .. } = &column else {
            unreachable!("a sealed string column stays one")
        };
        let fixed = 2 * 4 + nulls.memory_bytes();
        assert_eq!(column.memory_bytes(), entries + fixed, "sealed");
    }

    /// A cell of every type, each field's own and the others.
    fn cells() -> Vec<Option<Value>> {
        let doc = json::parse(r#"{"a":[1,2]}"#).unwrap();
        vec![
            None,
            Some(Value::Null),
            Some(Value::Bool(true)),
            Some(Value::Bool(false)),
            Some(Value::Int(5)),
            Some(Value::Int(-1)),
            Some(Value::Double(2.0)),
            Some(Value::Double(2.5)),
            Some(Value::Double(f64::NAN)),
            Some(Value::Str("x".into())),
            Some(Value::Str("7".into())),
            Some(Value::Bytes(vec![0xff, 0])),
            Some(Value::Json(Box::new(doc))),
        ]
    }

    const TYPES: [FieldType; 7] = [
        FieldType::Bool,
        FieldType::Int,
        FieldType::Double,
        FieldType::Str,
        FieldType::Bytes,
        FieldType::Json,
        FieldType::Timestamp,
    ];

    #[test]
    fn a_cell_a_field_refuses_reads_null() {
        for ftype in TYPES {
            let mut col = ColumnData::new(ftype);
            let cells = cells();
            cells.iter().for_each(|c| col.push(c.as_ref()));
            col.seal();
            for (doc, cell) in cells.iter().enumerate() {
                let got = col.value_at(doc);
                let want = match (ftype, cell) {
                    (_, None) => Value::Null,
                    (FieldType::Bool, Some(v)) => v.as_bool().map_or(Value::Null, Value::Bool),
                    (FieldType::Int | FieldType::Timestamp, Some(v)) => {
                        v.as_int().map_or(Value::Null, Value::Int)
                    }
                    (FieldType::Double, Some(v)) => {
                        v.as_double().map_or(Value::Null, Value::Double)
                    }
                    (FieldType::Json, Some(v @ Value::Json(_))) => Value::from(v.to_string()),
                    (_, Some(v)) if !v.is_null() && ftype.accepts(v) => v.clone(),
                    _ => Value::Null,
                };
                let same = match (&got, &want) {
                    (Value::Double(a), Value::Double(b)) => a.to_bits() == b.to_bits(),
                    _ => got == want,
                };
                assert!(same, "{ftype:?} {cell:?}: {got:?}, want {want:?}");
            }
        }
    }

    #[test]
    fn push_str_equals_push_of_the_string() {
        for ftype in TYPES {
            let (mut by_value, mut by_str) = (ColumnData::new(ftype), ColumnData::new(ftype));
            for s in ["b", "a", "b", "", "7"] {
                by_value.push(Some(&Value::Str(s.into())));
                by_str.push_str(s);
            }
            by_value.seal();
            by_str.seal();
            let all = |c: &ColumnData| (0..5).map(|d| c.value_at(d)).collect::<Vec<_>>();
            assert_eq!(all(&by_value), all(&by_str), "{ftype:?}");
        }
    }

    #[test]
    fn docs_order_null_first_then_by_value() {
        let sorted = |cells: &[Option<Value>]| {
            let mut col = ColumnData::new(FieldType::Int);
            cells.iter().for_each(|c| col.push(c.as_ref()));
            col.is_sorted()
        };
        let (null, int) = (None, |v: i64| Some(Value::Int(v)));
        assert!(sorted(&[]));
        assert!(sorted(&[
            null.clone(),
            null.clone(),
            int(-5),
            int(-5),
            int(3)
        ]));
        assert!(!sorted(&[int(-5), null.clone(), int(3)]));
        assert!(!sorted(&[null, int(3), int(-5)]));
        // a column being built compares its text, not its ids
        let mut col = ColumnData::new(FieldType::Str);
        ["b", "a"].iter().for_each(|s| col.push_str(s));
        assert_eq!(col.cmp_docs(0, 1), Ordering::Greater);
        assert!(!col.is_sorted());
        col.seal();
        assert_eq!(col.cmp_docs(0, 1), Ordering::Greater);
    }

    #[test]
    fn seal_sorts_the_dictionary_and_keeps_every_cell() {
        let rows: Vec<Row> = ["sf", "la", "sf", "nyc"]
            .iter()
            .map(|c| Row::new().with("c", *c))
            .chain([Row::new()])
            .collect();
        let mut col = ColumnData::new(FieldType::Str);
        rows.iter().for_each(|r| col.push(r.get("c")));
        let before: Vec<Value> = (0..5).map(|d| col.value_at(d)).collect();
        col.seal();
        let ColumnData::Str { dict, intern, .. } = &col else {
            panic!("not a string column");
        };
        assert_eq!(dict, &["la", "nyc", "sf"]);
        assert!(intern.is_none());
        assert_eq!((0..5).map(|d| col.value_at(d)).collect::<Vec<_>>(), before);
        // pushed to again, it is built again, its sealed entries kept
        col.push(Some(&Value::from("ams")));
        col.seal();
        assert_eq!(col.value_at(5), Value::from("ams"));
        assert_eq!(col.value_at(0), Value::from("sf"));
    }
}
