//! The groups of an aggregation in their shipping form.
//!
//! What a segment hands to the merge step of scatter-gather-merge, and what
//! the merge hands to finalize: the key cells of every group in one text
//! arena, the accumulators of every group in one flat `[group × slot]`
//! vector. A segment emits a group without a heap block of its own; a merge
//! finds a group by one hash probe; a result row exists only for a group
//! that survived ORDER BY and LIMIT.

use crate::query::{sort_and_cut, Query, SortOrder};
use rtdi_common::{AggAcc, Row, Value};
use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::fmt::Write;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::Arc;

/// Key cells laid end to end: one group's key while it is being looked up
/// (a scratch a scan reuses from document to document), every group's keys
/// inside [`Groups`]. A NULL cell is marked, not spelled, so it equals no
/// text; every cell keeps its own end, so `("ab", "c")` and `("a", "bc")`
/// differ.
#[derive(Debug, Clone, Default)]
pub struct KeyCells {
    text: String,
    /// Per cell `end << 1 | is_null`, `end` being where its text stops in
    /// `text` (and the next cell's starts).
    cells: Vec<usize>,
}

impl KeyCells {
    /// Append one cell: `None` for NULL, else the text `cell` displays as.
    pub fn push(&mut self, cell: Option<impl std::fmt::Display>) {
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

    /// Forget every cell, keep the buffers.
    pub fn clear(&mut self) {
        self.text.clear();
        self.cells.clear();
    }

    fn cell(&self, i: usize) -> Option<&str> {
        let packed = self.cells[i];
        let start = if i == 0 { 0 } else { self.cells[i - 1] >> 1 };
        (packed & 1 == 0).then(|| &self.text[start..packed >> 1])
    }

    /// Cells `from..to`: one group's key when the bounds are its own.
    fn span(&self, from: usize, to: usize) -> impl Iterator<Item = Option<&str>> + Clone {
        (from..to).map(|i| self.cell(i))
    }
}

/// The lookup side of [`Groups`]: open addressing over group indices.
/// Built the first time a container is merged into or probed by key, never
/// for one a segment only appends to. The keys are table data, so the
/// hasher is the standard library's keyed one.
#[derive(Debug, Clone)]
struct Probe {
    state: RandomState,
    /// `0` for an empty slot, else the group's index plus one.
    table: Vec<usize>,
}

impl Probe {
    fn over(keys: &KeyCells, key_cols: usize, len: usize) -> Probe {
        let mut probe = Probe {
            state: RandomState::new(),
            table: Vec::new(),
        };
        probe.rebuild(keys, key_cols, len);
        probe
    }

    /// Size the table for `len` groups and as many again, and enter them.
    fn rebuild(&mut self, keys: &KeyCells, key_cols: usize, len: usize) {
        let slots = (len * 4).next_power_of_two().max(16);
        self.table.clear();
        self.table.resize(slots, 0);
        for g in 0..len {
            let hash = self.hash(keys.span(g * key_cols, (g + 1) * key_cols));
            self.enter(hash, g);
        }
    }

    fn hash<'a>(&self, key: impl Iterator<Item = Option<&'a str>>) -> u64 {
        let mut h = self.state.build_hasher();
        // `Option<&str>` hashes its variant, then the text and an end mark
        key.for_each(|cell| cell.hash(&mut h));
        h.finish()
    }

    /// The group among those entered whose key `same` accepts.
    fn find(&self, hash: u64, mut same: impl FnMut(usize) -> bool) -> Option<usize> {
        let mask = self.table.len() - 1;
        let mut at = hash as usize & mask;
        while self.table[at] != 0 {
            let g = self.table[at] - 1;
            if same(g) {
                return Some(g);
            }
            at = (at + 1) & mask;
        }
        None
    }

    /// Enter group `g`, which [`Probe::find`] did not find. The table is
    /// kept at most half full, so a free slot exists.
    fn enter(&mut self, hash: u64, g: usize) {
        let mask = self.table.len() - 1;
        let mut at = hash as usize & mask;
        while self.table[at] != 0 {
            at = (at + 1) & mask;
        }
        self.table[at] = g + 1;
    }
}

/// Per-group accumulators keyed by the group-by cells (in `group_by`
/// order, rendered to text, NULL or absent kept apart from any text). No
/// two groups share a key. Iteration and merge order is arrival order;
/// [`Groups::into_rows`] is where key order is imposed.
///
/// The shape — cells per key, accumulators per group — is that of the
/// first group to arrive, and every later one must match it. A global
/// aggregation has zero key cells, at most one group, and never a probe
/// table.
#[derive(Debug, Clone, Default)]
pub struct Groups {
    key_cols: usize,
    slots: usize,
    len: usize,
    keys: KeyCells,
    /// `[group * slots + slot]`
    accs: Vec<AggAcc>,
    probe: Option<Probe>,
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

    /// Groups the caller knows to be distinct — a dictionary kernel's, one
    /// per dictionary-id combination it met. `cells` yields `key_cols`
    /// cells a group, group after group; `accs` is laid out
    /// `[group × slot]` and moves in whole.
    pub fn from_distinct<'a>(
        key_cols: usize,
        cells: impl Iterator<Item = Option<&'a str>>,
        accs: Vec<AggAcc>,
    ) -> Groups {
        debug_assert!(key_cols > 0, "a global aggregation is `Groups::global`");
        let mut keys = KeyCells::default();
        keys.cells.reserve(cells.size_hint().0);
        cells.for_each(|cell| keys.push_str(cell));
        let len = keys.cells.len() / key_cols.max(1);
        debug_assert_eq!(keys.cells.len(), len * key_cols);
        let slots = accs.len().checked_div(len).unwrap_or(0);
        debug_assert_eq!(accs.len(), len * slots);
        Groups {
            key_cols,
            slots,
            len,
            keys,
            accs,
            probe: None,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every group in arrival order: its key cells and its accumulators.
    pub fn iter(&self) -> impl Iterator<Item = (Vec<Option<&str>>, &[AggAcc])> {
        (0..self.len).map(|g| (self.key(g).collect(), self.accs_of(g)))
    }

    fn key(&self, g: usize) -> impl Iterator<Item = Option<&str>> + Clone {
        self.keys.span(g * self.key_cols, (g + 1) * self.key_cols)
    }

    fn accs_of(&self, g: usize) -> &[AggAcc] {
        &self.accs[g * self.slots..(g + 1) * self.slots]
    }

    /// The accumulators of the group keyed `key`, which starts out with
    /// `init()`'s when it is new.
    pub fn entry<I>(&mut self, key: &KeyCells, init: impl FnOnce() -> I) -> &mut [AggAcc]
    where
        I: IntoIterator<Item = AggAcc>,
    {
        let (g, new) = self.locate(key, 0, key.cells.len());
        if new {
            self.accs.extend(init());
            if g == 0 {
                self.slots = self.accs.len();
            }
            debug_assert_eq!(self.accs.len(), self.len * self.slots);
        }
        &mut self.accs[g * self.slots..(g + 1) * self.slots]
    }

    /// Index of the group whose key is cells `from..from + key_cols` of
    /// `src`, appended (key only: the caller owes its accumulators) when no
    /// group has that key, and whether it was.
    fn locate(&mut self, src: &KeyCells, from: usize, key_cols: usize) -> (usize, bool) {
        if self.len == 0 {
            self.key_cols = key_cols;
        }
        debug_assert_eq!(self.key_cols, key_cols, "key width differs");
        let (keys, len) = (&mut self.keys, self.len);
        if key_cols > 0 {
            let probe = self
                .probe
                .get_or_insert_with(|| Probe::over(keys, key_cols, len));
            let hash = probe.hash(src.span(from, from + key_cols));
            let same =
                |g: usize| (0..key_cols).all(|c| keys.cell(g * key_cols + c) == src.cell(from + c));
            if let Some(g) = probe.find(hash, same) {
                return (g, false);
            }
            if (len + 1) * 2 > probe.table.len() {
                probe.rebuild(keys, key_cols, len);
            }
            probe.enter(hash, len);
            (from..from + key_cols).for_each(|i| keys.push_str(src.cell(i)));
        } else if len == 1 {
            return (0, false);
        }
        self.len += 1;
        (len, true)
    }

    /// Fold `other` in: a group already here merges accumulator by
    /// accumulator (so a group's partials add up in the order they were
    /// merged, whatever else arrived between them), a new one is appended.
    pub fn merge(&mut self, other: Groups) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = other;
            return;
        }
        debug_assert_eq!(self.slots, other.slots, "accumulators per group differ");
        let slots = self.slots;
        let mut theirs = other.accs.into_iter();
        for g in 0..other.len {
            let from = g * other.key_cols;
            let (mine, new) = self.locate(&other.keys, from, other.key_cols);
            let theirs = theirs.by_ref().take(slots);
            if new {
                self.accs.extend(theirs);
            } else {
                let mine = &mut self.accs[mine * slots..(mine + 1) * slots];
                mine.iter_mut().zip(theirs).for_each(|(a, b)| a.merge(&b));
            }
        }
    }

    /// Finalize into result rows. Groups are ordered on their finalized
    /// ORDER BY cells, ties (and everything, without an ORDER BY) by key —
    /// NULL first, then text, column by column — and cut to LIMIT before
    /// any row is built. An ORDER BY column that is neither a group column
    /// nor an aggregate's name is NULL in every row and orders nothing.
    pub fn into_rows(mut self, query: &Query) -> Vec<Row> {
        if self.is_empty() && query.group_by.is_empty() {
            // empty input still yields the zero row for global aggregates
            self = Groups::global(
                query
                    .aggregations
                    .iter()
                    .map(|(_, f)| f.new_acc())
                    .collect(),
            );
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
        let by_order_then_key = |&a: &usize, &b: &usize| {
            for (cell, dir) in &order {
                let ord = match *cell {
                    Cell::Key(c) => self.key(a).nth(c).cmp(&self.key(b).nth(c)),
                    Cell::Slot(s) => {
                        let (a, b) = (&self.accs_of(a)[s], &self.accs_of(b)[s]);
                        a.result().total_cmp(&b.result())
                    }
                };
                if ord != Ordering::Equal {
                    return dir.apply(ord);
                }
            }
            self.key(a).cmp(self.key(b))
        };
        // keys are distinct, so no two groups tie
        let mut survivors: Vec<usize> = (0..self.len).collect();
        sort_and_cut(&mut survivors, query.limit, by_order_then_key);

        // intern output column names once; every result row shares them
        let group_names: Vec<Arc<str>> = query
            .group_by
            .iter()
            .map(|c| Arc::from(c.as_str()))
            .collect();
        let agg_names: Vec<Arc<str>> = aggs.iter().map(|(n, _)| Arc::from(n.as_str())).collect();
        survivors
            .into_iter()
            .map(|g| {
                let mut row = Row::with_capacity(self.key_cols + self.slots);
                for (col, cell) in group_names.iter().zip(self.key(g)) {
                    let cell = cell.map_or(Value::Null, |s| Value::Str(s.to_string()));
                    row.push(Arc::clone(col), cell);
                }
                for (name, acc) in agg_names.iter().zip(self.accs_of(g)) {
                    row.push(Arc::clone(name), acc.result());
                }
                row
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

    type Model = BTreeMap<Vec<Option<String>>, Vec<AggAcc>>;

    fn key_of(cells: &[Option<String>]) -> KeyCells {
        let mut key = KeyCells::default();
        cells.iter().for_each(|c| key.push(c.as_deref()));
        key
    }

    /// What the container replaced: rows of the map in its own order, then
    /// a stable sort and a truncate.
    fn model_rows(model: &Model, query: &Query) -> Vec<Row> {
        let mut rows: Vec<Row> = model
            .iter()
            .map(|(key, accs)| {
                let mut row = Row::new();
                for (col, cell) in query.group_by.iter().zip(key) {
                    let cell = cell.clone().map_or(Value::Null, Value::Str);
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

    #[test]
    fn cells_keep_null_and_boundaries_apart() {
        let keys: [&[Option<&str>]; 6] = [
            &[Some("ab"), Some("c")],
            &[Some("a"), Some("bc")],
            &[Some("abc"), Some("")],
            &[None, Some("abc")],
            &[Some("NULL"), Some("")],
            &[None, Some("")],
        ];
        let mut groups = Groups::default();
        for (i, cells) in keys.iter().enumerate() {
            let mut key = KeyCells::default();
            cells.iter().for_each(|c| key.push(*c));
            let accs = groups.entry(&key, || [AggAcc::Count(i as u64)]);
            assert_eq!(
                accs,
                [AggAcc::Count(i as u64)],
                "{cells:?} met an earlier key"
            );
        }
        assert_eq!(groups.len(), keys.len());
        for (i, (cells, accs)) in groups.iter().enumerate() {
            assert_eq!(
                (cells.as_slice(), accs),
                (keys[i], &[AggAcc::Count(i as u64)][..])
            );
        }
    }

    #[test]
    fn a_global_aggregate_takes_no_keys_and_no_probe() {
        let mut merged = Groups::default();
        for n in [3, 4] {
            merged.merge(Groups::global(vec![AggAcc::Count(n)]));
        }
        assert_eq!(merged.len(), 1);
        assert!(merged.probe.is_none());
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

    /// Seeded partials of drawn keys, merged in order and finalized under
    /// every ORDER BY / LIMIT shape, against the `BTreeMap` the container
    /// replaced: the same rows in the same order, float sums to the bit.
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
            // than the probe table's first two sizes hold
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
                // shipped in an order of its own, by either way in
                let mut order: Vec<&Vec<Option<String>>> = part_model.keys().collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.gen_range(0..=i));
                }
                let part = if rng.gen_bool(0.5) {
                    let accs = order.iter().flat_map(|k| part_model[*k].clone());
                    let flat = order.iter().flat_map(|k| k.iter().map(|c| c.as_deref()));
                    Groups::from_distinct(key_cols, flat, accs.collect())
                } else {
                    let mut part = Groups::default();
                    for k in &order {
                        part.entry(&key_of(k), || part_model[*k].clone());
                    }
                    part
                };
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
        // 16 slots hold 8 groups, 32 hold 16: the table was rebuilt twice
        assert!(
            most_groups > 32,
            "only {most_groups} groups in the largest case"
        );
    }
}
