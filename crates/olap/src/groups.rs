//! The groups of an aggregation in their shipping form.
//!
//! What a segment hands to the merge step of scatter-gather-merge, and what
//! the merge hands to finalize: the key cells of every group in one text
//! arena, the accumulators of every group in one flat `[group × slot]`
//! vector, and the groups in key order — NULL first, then text, column by
//! column. A segment emits a group without a heap block of its own; a merge
//! is one pass over two sorted runs; a finalize without ORDER BY walks the
//! groups as they lie; a result row exists only for a group that survived
//! ORDER BY and LIMIT.

use crate::query::{sort_and_cut, Query, SortOrder};
use rtdi_common::{row_names, AggAcc, Row, Value};
use std::cmp::Ordering;
use std::fmt::Write;
use std::sync::Arc;

/// Key cells laid end to end in one text arena. A NULL cell is marked, not
/// spelled, so it equals no text; every cell keeps its own end, so
/// `("ab", "c")` and `("a", "bc")` differ.
#[derive(Debug, Clone, Default)]
pub(crate) struct KeyCells {
    text: String,
    /// Per cell `end << 1 | is_null`, `end` being where its text stops in
    /// `text` (and the next cell's starts).
    cells: Vec<usize>,
}

impl KeyCells {
    /// Append one cell: `None` for NULL, else the text `cell` displays as.
    pub(crate) fn push(&mut self, cell: Option<impl std::fmt::Display>) {
        if let Some(cell) = &cell {
            // writing to a `String` cannot fail
            let _ = write!(self.text, "{cell}");
        }
        self.end_cell(cell.is_none());
    }

    /// [`KeyCells::push`] of text already in hand, past the formatter.
    pub(crate) fn push_str(&mut self, cell: Option<&str>) {
        self.text.push_str(cell.unwrap_or(""));
        self.end_cell(cell.is_none());
    }

    fn end_cell(&mut self, null: bool) {
        self.cells.push(self.text.len() << 1 | usize::from(null));
    }

    /// How many cells there are.
    pub(crate) fn len(&self) -> usize {
        self.cells.len()
    }

    /// Where cell `i` starts in `text` (and cell `i - 1` stops).
    fn start(&self, i: usize) -> usize {
        if i == 0 {
            0
        } else {
            self.cells[i - 1] >> 1
        }
    }

    pub(crate) fn cell(&self, i: usize) -> Option<&str> {
        let packed = self.cells[i];
        (packed & 1 == 0).then(|| &self.text[self.start(i)..packed >> 1])
    }

    /// [`KeyCells::cell`] as bytes, which order as the text does.
    fn bytes(&self, i: usize) -> Option<&[u8]> {
        let packed = self.cells[i];
        (packed & 1 == 0).then(|| &self.text.as_bytes()[self.start(i)..packed >> 1])
    }

    /// Append cells `from..to` of `src` as a block: one copy of their
    /// text, their ends shifted by where it lands.
    fn extend_from(&mut self, src: &KeyCells, from: usize, to: usize) {
        if from == to {
            return;
        }
        let (start, base) = (src.start(from), self.text.len());
        self.text.push_str(&src.text[start..src.start(to)]);
        let shift = |packed: &usize| packed - (start << 1) + (base << 1);
        self.cells.extend(src.cells[from..to].iter().map(shift));
    }
}

/// Per-group accumulators keyed by the group-by cells (in `group_by`
/// order, rendered to text, NULL or absent kept apart from any text), in
/// key order: NULL first, then text, column by column. No two groups share
/// a key, and every constructor keeps the order, so a merge is a merge of
/// sorted runs and a finalize without ORDER BY is a walk.
///
/// A global aggregation has zero key cells and at most one group.
#[derive(Debug, Clone, Default)]
pub struct Groups {
    key_cols: usize,
    slots: usize,
    len: usize,
    keys: KeyCells,
    /// `[group * slots + slot]`
    accs: Vec<AggAcc>,
}

impl Groups {
    /// The one group of a global aggregation.
    pub fn global(accs: Vec<AggAcc>) -> Groups {
        Groups {
            slots: accs.len(),
            len: 1,
            accs,
            ..Groups::default()
        }
    }

    /// Groups whose keys the caller has in key order, each once. `cells`
    /// yields `key_cols` cells a group, group after group; `accs` is laid
    /// out `[group × slot]` and moves in whole.
    pub fn from_sorted<'a>(
        key_cols: usize,
        cells: impl Iterator<Item = Option<&'a str>> + Clone,
        accs: Vec<AggAcc>,
    ) -> Groups {
        debug_assert!(key_cols > 0, "a global aggregation is `Groups::global`");
        // the arena is sized once, from a first pass over the cells
        let (n, bytes) = (cells.clone()).fold((0, 0), |(n, bytes), cell| {
            (n + 1, bytes + cell.map_or(0, str::len))
        });
        let mut keys = KeyCells {
            text: String::with_capacity(bytes),
            cells: Vec::with_capacity(n),
        };
        cells.for_each(|cell| keys.push_str(cell));
        let len = keys.len() / key_cols.max(1);
        debug_assert_eq!(keys.len(), len * key_cols);
        let slots = accs.len().checked_div(len).unwrap_or(0);
        debug_assert_eq!(accs.len(), len * slots);
        let groups = Groups {
            key_cols,
            slots,
            len,
            keys,
            accs,
        };
        debug_assert!(
            (1..len).all(|g| groups.key(g - 1).cmp(groups.key(g)) == Ordering::Less),
            "groups shipped out of key order"
        );
        groups
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every group in key order: its key cells and its accumulators.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Vec<Option<&str>>, &[AggAcc])> {
        (0..self.len).map(|g| (self.key(g).collect(), self.accs_of(g)))
    }

    fn key(&self, g: usize) -> impl Iterator<Item = Option<&str>> + Clone {
        (g * self.key_cols..(g + 1) * self.key_cols).map(|i| self.keys.cell(i))
    }

    fn accs_of(&self, g: usize) -> &[AggAcc] {
        &self.accs[g * self.slots..(g + 1) * self.slots]
    }

    /// How group `g`'s key orders against group `h` of `other`, cell by
    /// cell: NULL first, then text, which orders as its bytes do.
    fn cmp_key(&self, g: usize, other: &Groups, h: usize) -> Ordering {
        let (mine, theirs) = (g * self.key_cols, h * self.key_cols);
        let cell = |c: usize| self.keys.bytes(mine + c).cmp(&other.keys.bytes(theirs + c));
        let mut cells = (0..self.key_cols).map(cell);
        cells.find(|ord| ord.is_ne()).unwrap_or(Ordering::Equal)
    }

    /// Fold `other` in, in one walk over the two runs. A key in both merges
    /// accumulator by accumulator, `other`'s into this one's where it lies,
    /// so a group's partials add up in the order they were merged, whatever
    /// else arrived between them. A key only `other` has is noted with the
    /// place it goes, and only then, if there is one, the run is rebuilt:
    /// this run's groups move between the noted places as blocks.
    pub fn merge(&mut self, other: Groups) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = other;
            return;
        }
        debug_assert_eq!(self.key_cols, other.key_cols, "key width differs");
        debug_assert_eq!(self.slots, other.slots, "accumulators per group differ");
        let (cols, slots) = (self.key_cols, self.slots);
        // (group of `other`, the place in this run it goes)
        let mut new: Vec<(usize, usize)> = Vec::new();
        let (mut a, mut b) = (0, 0);
        while b < other.len {
            match (a < self.len).then(|| self.cmp_key(a, &other, b)) {
                Some(Ordering::Less) => a += 1,
                Some(Ordering::Equal) => {
                    let mine = &mut self.accs[a * slots..(a + 1) * slots];
                    mine.iter_mut()
                        .zip(other.accs_of(b))
                        .for_each(|(x, y)| x.merge(y));
                    (a, b) = (a + 1, b + 1);
                }
                _ => {
                    new.push((b, a));
                    b += 1;
                }
            }
        }
        if new.is_empty() {
            return;
        }
        let Groups {
            len, keys, accs, ..
        } = std::mem::take(self);
        let (their_keys, their_accs) = (other.keys, other.accs);
        let mut out = Groups {
            key_cols: cols,
            slots,
            len: len + new.len(),
            keys: KeyCells {
                text: String::with_capacity(keys.text.len() + their_keys.text.len()),
                cells: Vec::with_capacity((len + new.len()) * cols),
            },
            accs: Vec::with_capacity((len + new.len()) * slots),
        };
        let (mut my_accs, mut their_accs) = (accs.into_iter(), their_accs.into_iter());
        // `from`: this run's next group to move; `skip`: `other`'s next
        let (mut from, mut skip) = (0, 0);
        for (b, at) in new {
            out.keys.extend_from(&keys, from * cols, at * cols);
            out.accs.extend(my_accs.by_ref().take((at - from) * slots));
            out.keys.extend_from(&their_keys, b * cols, (b + 1) * cols);
            // the groups of `other` passed over were folded in above
            their_accs.by_ref().take((b - skip) * slots).for_each(drop);
            out.accs.extend(their_accs.by_ref().take(slots));
            (from, skip) = (at, b + 1);
        }
        out.keys.extend_from(&keys, from * cols, len * cols);
        out.accs.extend(my_accs);
        *self = out;
    }

    /// Finalize into result rows. Without an ORDER BY the groups are taken
    /// as they lie, in key order, up to LIMIT; with one, they are ordered on
    /// their finalized ORDER BY cells, ties by key, and cut to LIMIT before
    /// any row is built. An ORDER BY column that is neither a group column
    /// nor an aggregate's name is NULL in every row and orders nothing.
    pub fn into_rows(mut self, query: &Query) -> Vec<Row> {
        if self.is_empty() && query.group_by.is_empty() {
            // empty input still yields the zero row for global aggregates
            self = Groups::global(query.new_accs());
        }
        enum Cell {
            Key(usize),
            Slot(usize),
        }
        // a row is read by name, first match: group columns come first
        let aggs = &query.aggregations;
        let order: Vec<(Cell, SortOrder)> = query
            .order_by
            .iter()
            .filter_map(|(col, dir)| {
                let key = query.group_by.iter().position(|g| g == col).map(Cell::Key);
                let slot = || aggs.iter().position(|(n, _)| n == col).map(Cell::Slot);
                Some((key.or_else(slot)?, *dir))
            })
            .collect();
        let cols = self.key_cols;
        let by_order_then_key = |&a: &usize, &b: &usize| {
            for (cell, dir) in &order {
                let ord = match *cell {
                    Cell::Key(c) => self
                        .keys
                        .cell(a * cols + c)
                        .cmp(&self.keys.cell(b * cols + c)),
                    Cell::Slot(s) => {
                        let (a, b) = (&self.accs_of(a)[s], &self.accs_of(b)[s]);
                        a.result().total_cmp(&b.result())
                    }
                };
                if ord != Ordering::Equal {
                    return dir.apply(ord);
                }
            }
            // groups lie in key order, and no two share an index
            a.cmp(&b)
        };
        // without an ORDER BY the first LIMIT groups, as they lie
        let mut sorted = Vec::new();
        if !order.is_empty() {
            sorted.extend(0..self.len);
            sort_and_cut(&mut sorted, query.limit, by_order_then_key);
        }
        let kept = match order.is_empty() {
            true => query.limit.map_or(self.len, |n| n.min(self.len)),
            false => sorted.len(),
        };
        let survivor = |k: usize| if order.is_empty() { k } else { sorted[k] };

        // one name list for the result: every row shares it
        let names = row_names(
            (query.group_by.iter().map(String::as_str)).chain(aggs.iter().map(|(n, _)| n.as_str())),
        );
        (0..kept)
            .map(survivor)
            .map(|g| {
                let key = self
                    .key(g)
                    .map(|c| c.map_or(Value::Null, |s| Value::Str(s.into())));
                let mut cells = Vec::with_capacity(names.len());
                cells.extend(key);
                cells.extend(self.accs_of(g).iter().map(AggAcc::result));
                Row::on(Arc::clone(&names), cells)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::sort_and_limit;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use rtdi_common::AggFn;
    use std::collections::BTreeMap;

    impl Groups {
        fn len(&self) -> usize {
            self.len
        }
    }

    type Model = BTreeMap<Vec<Option<String>>, Vec<AggAcc>>;

    /// What the container replaced: rows of the map in its own order, then
    /// a stable sort and a truncate.
    fn model_rows(model: &Model, query: &Query) -> Vec<Row> {
        let mut rows: Vec<Row> = model
            .iter()
            .map(|(key, accs)| {
                let mut row = Row::new();
                for (col, cell) in query.group_by.iter().zip(key) {
                    let cell = cell.clone().map_or(Value::Null, Value::from);
                    row.push(col.as_str(), cell);
                }
                for ((name, _), acc) in query.aggregations.iter().zip(accs) {
                    row.push(name.as_str(), acc.result());
                }
                row
            })
            .collect();
        sort_and_limit(&mut rows, &query.order_by, query.limit);
        rows
    }

    /// Keys that differ only in where a cell ends or in NULL against text
    /// stay apart through a merge, and merge with themselves.
    #[test]
    fn cells_keep_null_and_boundaries_apart() {
        // in key order: NULL first, then text, column by column
        let keys: [&[Option<&str>]; 6] = [
            &[None, Some("")],
            &[None, Some("abc")],
            &[Some("NULL"), Some("")],
            &[Some("a"), Some("bc")],
            &[Some("ab"), Some("c")],
            &[Some("abc"), Some("")],
        ];
        let run = |n: u64| {
            let cells = keys.iter().flat_map(|k| k.iter().copied());
            let accs = (0..keys.len() as u64).map(|i| AggAcc::Count(i * n));
            Groups::from_sorted(2, cells, accs.collect())
        };
        let mut groups = run(1);
        groups.merge(run(10));
        assert_eq!(groups.len(), keys.len());
        for (i, (cells, accs)) in groups.iter().enumerate() {
            let count = AggAcc::Count(i as u64 * 11);
            assert_eq!((cells.as_slice(), accs), (keys[i], &[count][..]));
        }
    }

    #[test]
    fn a_global_aggregate_takes_no_keys() {
        let mut merged = Groups::default();
        for n in [3, 4] {
            merged.merge(Groups::global(vec![AggAcc::Count(n)]));
        }
        assert_eq!(merged.len(), 1);
        assert_eq!(
            merged.keys.cells.capacity() + merged.keys.text.capacity(),
            0
        );
        let q = Query::select_all("t").aggregate("n", AggFn::Count);
        let rows = merged.into_rows(&q);
        assert_eq!(rows, vec![Row::new().with("n", 7i64)]);
        // nothing served still answers the zero row
        assert_eq!(
            Groups::default().into_rows(&q),
            vec![Row::new().with("n", 0i64)]
        );
    }

    /// Seeded partials of drawn keys, shipped in key order, merged in order
    /// and finalized under every ORDER BY / LIMIT shape, against the
    /// `BTreeMap` the container replaced: the same rows in the same order,
    /// float sums to the bit.
    #[test]
    fn merge_and_finalize_equal_the_btreemap_model() {
        let cells = ["", "a", "ab", "abc", "b", "bc", "c", "NULL", "7", "-1.5"];
        let fns = [
            AggFn::Count,
            AggFn::Sum("x".into()),
            AggFn::Avg("x".into()),
            AggFn::Min("x".into()),
            AggFn::Max("x".into()),
            AggFn::DistinctCount("x".into()),
        ];
        let mut rng = StdRng::seed_from_u64(0x6B07);
        let mut most_groups = 0;
        for case in 0..120 {
            let key_cols = rng.gen_range(1..=2usize);
            // the later cases draw from more cells: more distinct keys
            let alphabet = if case < 60 { 4 } else { cells.len() };
            let slots: Vec<AggFn> = (0..rng.gen_range(1..=3))
                .map(|_| fns[rng.gen_range(0..fns.len())].clone())
                .collect();
            let mut query = Query::select_all("t");
            query.group_by = Arc::new((0..key_cols).map(|c| format!("k{c}")).collect());
            for (i, f) in slots.iter().enumerate() {
                query = query.aggregate(format!("a{i}"), f.clone());
            }

            let mut model = Model::new();
            let mut merged = Groups::default();
            for _ in 0..rng.gen_range(1..=6) {
                // one partial: distinct keys, each with accumulators that
                // have seen a few values whose sum depends on their order
                let mut part_model = Model::new();
                for _ in 0..rng.gen_range(0..=40) {
                    let key: Vec<Option<String>> = (0..key_cols)
                        .map(|_| {
                            let i = rng.gen_range(0..=alphabet);
                            cells.get(i).filter(|_| i < alphabet).map(|s| s.to_string())
                        })
                        .collect();
                    let accs = part_model
                        .entry(key)
                        .or_insert_with(|| slots.iter().map(AggFn::new_acc).collect());
                    for acc in accs.iter_mut() {
                        for _ in 0..rng.gen_range(0..3) {
                            let x = [1e16, 1.0, -1e16, 0.1][rng.gen_range(0..4usize)];
                            match acc {
                                AggAcc::Count(_) => acc.add_one(),
                                AggAcc::Distinct(_) => acc.add_hash(rng.gen_range(0..5u64)),
                                _ => acc.add_num(x),
                            }
                        }
                    }
                }
                // shipped in key order: the map's own
                let accs = part_model.values().flat_map(|accs| accs.iter().cloned());
                let flat = part_model
                    .keys()
                    .flat_map(|k| k.iter().map(|c| c.as_deref()));
                let part = Groups::from_sorted(key_cols, flat, accs.collect());
                assert_eq!(part.len(), part_model.len());
                merged.merge(part);
                for (key, accs) in part_model {
                    match model.get_mut(&key) {
                        Some(mine) => mine.iter_mut().zip(&accs).for_each(|(a, b)| a.merge(b)),
                        None => drop(model.insert(key, accs)),
                    }
                }
            }
            assert_eq!(merged.len(), model.len());
            most_groups = most_groups.max(merged.len());

            let order_cols = ["a0", "k0", "k1", "a1", "nowhere"];
            for limit in [
                None,
                Some(0),
                Some(1),
                Some(5),
                Some(model.len()),
                Some(1000),
            ] {
                for dirs in [
                    &[][..],
                    &[SortOrder::Asc],
                    &[SortOrder::Desc, SortOrder::Asc],
                ] {
                    let mut q = query.clone();
                    q.limit = limit;
                    for dir in dirs {
                        q = q.order(order_cols[rng.gen_range(0..order_cols.len())], *dir);
                    }
                    let got = merged.clone().into_rows(&q);
                    assert_eq!(got, model_rows(&model, &q), "case {case}: {q:?}");
                }
            }
        }
        // the largest runs interleave many keys, not a handful
        assert!(
            most_groups > 32,
            "only {most_groups} groups in the largest case"
        );
    }
}
