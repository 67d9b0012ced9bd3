//! Aggregate functions and their checkpointable accumulators.
//!
//! These are the aggregations FlinkSQL compiles `COUNT/SUM/AVG/MIN/MAX/
//! COUNT(DISTINCT ...)` into, and the building blocks of the
//! pre-aggregation pipelines in §5.2/§5.3. Accumulators are plain enums so
//! checkpoints can serialize them without trait-object machinery.

use crate::error::{Error, Result};
use crate::value::{Row, Value};
use crate::wire::{Reader, Writer};
use std::collections::BTreeSet;

/// An aggregate function over a (possibly absent) input column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggFn {
    Count,
    Sum(String),
    Avg(String),
    Min(String),
    Max(String),
    DistinctCount(String),
}

impl AggFn {
    pub fn new_acc(&self) -> AggAcc {
        match self {
            AggFn::Count => AggAcc::Count(0),
            AggFn::Sum(_) => AggAcc::Sum { sum: 0.0, count: 0 },
            AggFn::Avg(_) => AggAcc::Avg { sum: 0.0, count: 0 },
            AggFn::Min(_) => AggAcc::Min(None),
            AggFn::Max(_) => AggAcc::Max(None),
            AggFn::DistinctCount(_) => AggAcc::Distinct(BTreeSet::new()),
        }
    }

    /// Column the function reads, if any.
    pub fn input_column(&self) -> Option<&str> {
        match self {
            AggFn::Count => None,
            AggFn::Sum(c)
            | AggFn::Avg(c)
            | AggFn::Min(c)
            | AggFn::Max(c)
            | AggFn::DistinctCount(c) => Some(c),
        }
    }
}

/// A running accumulator.
#[derive(Debug, Clone, PartialEq)]
pub enum AggAcc {
    Count(u64),
    /// SQL SUM: the count tracks non-null inputs so an empty (or all-NULL)
    /// sum finalizes to NULL rather than 0.
    Sum {
        sum: f64,
        count: u64,
    },
    Avg {
        sum: f64,
        count: u64,
    },
    Min(Option<f64>),
    Max(Option<f64>),
    Distinct(BTreeSet<u64>),
}

impl AggAcc {
    /// Fold one row in: the cell `f` reads, or the row itself for COUNT(*).
    /// A row without the column folds nothing.
    pub fn add(&mut self, f: &AggFn, row: &Row) {
        self.add_cell(f, f.input_column().and_then(|col| row.get(col)));
    }

    /// [`AggAcc::add`] of a row whose input cell (`None`: the row lacks
    /// the column) its caller has found already.
    #[inline]
    pub fn add_cell(&mut self, f: &AggFn, cell: Option<&Value>) {
        debug_assert_eq!(
            std::mem::discriminant(self),
            std::mem::discriminant(&f.new_acc()),
            "accumulator {self:?} mismatched with {f:?}"
        );
        match (f.input_column(), cell) {
            (None, _) => self.add_one(),
            (Some(_), Some(v)) => self.add_value(v),
            (Some(_), None) => {}
        }
    }

    /// Fold one input value in: a count counts it whatever it is, SUM /
    /// AVG / MIN / MAX take it as a number and skip what is not one,
    /// a distinct count takes its [`Value::partition_hash`] and skips NULL.
    pub fn add_value(&mut self, v: &Value) {
        match self {
            AggAcc::Count(n) => *n += 1,
            AggAcc::Distinct(set) => {
                if !v.is_null() {
                    set.insert(v.partition_hash());
                }
            }
            numeric => {
                if let Some(x) = v.as_double() {
                    numeric.add_num(x);
                }
            }
        }
    }

    /// Fast path: fold one numeric value (Sum/Avg/Min/Max) without
    /// constructing a row. Count also accepts this (value ignored).
    #[inline]
    pub fn add_num(&mut self, v: f64) {
        match self {
            AggAcc::Count(n) => *n += 1,
            AggAcc::Sum { sum, count } => {
                *sum += v;
                *count += 1;
            }
            AggAcc::Avg { sum, count } => {
                *sum += v;
                *count += 1;
            }
            AggAcc::Min(m) => *m = Some(m.map_or(v, |cur| cur.min(v))),
            AggAcc::Max(m) => *m = Some(m.map_or(v, |cur| cur.max(v))),
            AggAcc::Distinct(set) => {
                // consistent with Value::Double(v).partition_hash()
                set.insert(Value::hash_of_double(v));
            }
        }
    }

    /// Fast path: count one row (COUNT(*)).
    #[inline]
    pub fn add_one(&mut self) {
        if let AggAcc::Count(n) = self {
            *n += 1;
        } else {
            debug_assert!(false, "add_one on non-count accumulator");
        }
    }

    /// Fast path: fold a pre-hashed value into a distinct set. The hash
    /// must be [`crate::value::Value::partition_hash`] of the original
    /// value so sets merge correctly across segments.
    #[inline]
    pub fn add_hash(&mut self, h: u64) {
        if let AggAcc::Distinct(set) = self {
            set.insert(h);
        } else {
            debug_assert!(false, "add_hash on non-distinct accumulator");
        }
    }

    /// Merge another accumulator of the same shape (used by session-window
    /// merging and by the micro-batch baseline's partial aggregation).
    pub fn merge(&mut self, other: &AggAcc) {
        match (self, other) {
            (AggAcc::Count(a), AggAcc::Count(b)) => *a += b,
            (AggAcc::Sum { sum: s1, count: c1 }, AggAcc::Sum { sum: s2, count: c2 }) => {
                *s1 += s2;
                *c1 += c2;
            }
            (AggAcc::Avg { sum: s1, count: c1 }, AggAcc::Avg { sum: s2, count: c2 }) => {
                *s1 += s2;
                *c1 += c2;
            }
            (AggAcc::Min(a), AggAcc::Min(b)) => {
                if let Some(v) = b {
                    *a = Some(a.map_or(*v, |cur| cur.min(*v)));
                }
            }
            (AggAcc::Max(a), AggAcc::Max(b)) => {
                if let Some(v) = b {
                    *a = Some(a.map_or(*v, |cur| cur.max(*v)));
                }
            }
            (AggAcc::Distinct(a), AggAcc::Distinct(b)) => {
                a.extend(b.iter().copied());
            }
            (a, b) => {
                debug_assert!(false, "cannot merge {a:?} with {b:?}");
            }
        }
    }

    /// Final value.
    pub fn result(&self) -> Value {
        match self {
            AggAcc::Count(n) => Value::Int(*n as i64),
            AggAcc::Sum { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Double(*sum)
                }
            }
            AggAcc::Avg { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Double(sum / *count as f64)
                }
            }
            AggAcc::Min(m) => m.map(Value::Double).unwrap_or(Value::Null),
            AggAcc::Max(m) => m.map(Value::Double).unwrap_or(Value::Null),
            AggAcc::Distinct(set) => Value::Int(set.len() as i64),
        }
    }

    /// Approximate live bytes (distinct sets dominate).
    pub fn memory_bytes(&self) -> usize {
        match self {
            AggAcc::Distinct(set) => 16 + set.len() * 8,
            AggAcc::Avg { .. } | AggAcc::Sum { .. } => 16,
            _ => 8,
        }
    }

    pub fn encode(&self, w: &mut Writer) {
        match self {
            AggAcc::Count(n) => {
                w.u8(0);
                w.u64(*n);
            }
            AggAcc::Sum { sum, count } => {
                w.u8(1);
                w.f64(*sum);
                w.u64(*count);
            }
            AggAcc::Avg { sum, count } => {
                w.u8(2);
                w.f64(*sum);
                w.u64(*count);
            }
            AggAcc::Min(m) => {
                w.u8(3);
                encode_opt(w, *m);
            }
            AggAcc::Max(m) => {
                w.u8(4);
                encode_opt(w, *m);
            }
            AggAcc::Distinct(set) => {
                w.u8(5);
                w.u32(set.len() as u32);
                for v in set {
                    w.u64(*v);
                }
            }
        }
    }

    /// Inverse of [`AggAcc::encode`]; hostile bytes are `Corruption`.
    pub fn decode(r: &mut Reader) -> Result<AggAcc> {
        Ok(match r.u8("accumulator tag")? {
            0 => AggAcc::Count(r.u64("count")?),
            1 => AggAcc::Sum {
                sum: r.f64("sum")?,
                count: r.u64("sum count")?,
            },
            2 => AggAcc::Avg {
                sum: r.f64("avg sum")?,
                count: r.u64("avg count")?,
            },
            3 => AggAcc::Min(decode_opt(r)?),
            4 => AggAcc::Max(decode_opt(r)?),
            5 => {
                let n = r.count(8, "distinct count")?;
                let mut set = BTreeSet::new();
                for _ in 0..n {
                    set.insert(r.u64("distinct hash")?);
                }
                AggAcc::Distinct(set)
            }
            t => return Err(Error::Corruption(format!("bad acc tag {t}"))),
        })
    }
}

fn encode_opt(w: &mut Writer, v: Option<f64>) {
    match v {
        Some(x) => {
            w.u8(1);
            w.f64(x);
        }
        None => w.u8(0),
    }
}

fn decode_opt(r: &mut Reader) -> Result<Option<f64>> {
    Ok(if r.u8("min/max flag")? == 1 {
        Some(r.f64("min/max value")?)
    } else {
        None
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Row> {
        vec![
            Row::new().with("fare", 10.0).with("city", "sf"),
            Row::new().with("fare", 20.0).with("city", "nyc"),
            Row::new().with("fare", 5.0).with("city", "sf"),
            Row::new().with("city", "la"), // missing fare
        ]
    }

    fn run(f: AggFn) -> Value {
        let mut acc = f.new_acc();
        for r in rows() {
            acc.add(&f, &r);
        }
        acc.result()
    }

    #[test]
    fn basic_aggregates() {
        assert_eq!(run(AggFn::Count), Value::Int(4));
        assert_eq!(run(AggFn::Sum("fare".into())), Value::Double(35.0));
        assert_eq!(run(AggFn::Avg("fare".into())), Value::Double(35.0 / 3.0));
        assert_eq!(run(AggFn::Min("fare".into())), Value::Double(5.0));
        assert_eq!(run(AggFn::Max("fare".into())), Value::Double(20.0));
        assert_eq!(run(AggFn::DistinctCount("city".into())), Value::Int(3));
    }

    #[test]
    fn empty_accumulators() {
        assert_eq!(AggFn::Count.new_acc().result(), Value::Int(0));
        // SQL semantics: SUM over the empty set is NULL, not 0
        assert_eq!(AggFn::Sum("x".into()).new_acc().result(), Value::Null);
        assert_eq!(AggFn::Avg("x".into()).new_acc().result(), Value::Null);
        assert_eq!(AggFn::Min("x".into()).new_acc().result(), Value::Null);
    }

    #[test]
    fn sum_of_all_null_inputs_is_null() {
        let f = AggFn::Sum("fare".into());
        let mut acc = f.new_acc();
        acc.add(&f, &Row::new().with("city", "la")); // fare absent
        acc.add(&f, &Row::new().with("fare", Value::Null));
        assert_eq!(acc.result(), Value::Null);
        // merging two empty sums stays NULL; merging a real one does not
        let mut other = f.new_acc();
        acc.merge(&other.clone());
        assert_eq!(acc.result(), Value::Null);
        other.add(&f, &Row::new().with("fare", 0.0));
        acc.merge(&other);
        assert_eq!(acc.result(), Value::Double(0.0));
    }

    #[test]
    fn merge_equals_sequential() {
        let f = AggFn::Avg("fare".into());
        let all = rows();
        let (left, right) = all.split_at(2);
        let mut a = f.new_acc();
        for r in left {
            a.add(&f, r);
        }
        let mut b = f.new_acc();
        for r in right {
            b.add(&f, r);
        }
        a.merge(&b);
        let mut seq = f.new_acc();
        for r in &all {
            seq.add(&f, r);
        }
        assert_eq!(a.result(), seq.result());
    }

    #[test]
    fn distinct_merge_deduplicates() {
        let f = AggFn::DistinctCount("city".into());
        let mut a = f.new_acc();
        a.add(&f, &Row::new().with("city", "sf"));
        let mut b = f.new_acc();
        b.add(&f, &Row::new().with("city", "sf"));
        b.add(&f, &Row::new().with("city", "la"));
        a.merge(&b);
        assert_eq!(a.result(), Value::Int(2));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let accs = vec![
            AggAcc::Count(7),
            AggAcc::Sum { sum: 1.5, count: 3 },
            AggAcc::Avg {
                sum: 10.0,
                count: 4,
            },
            AggAcc::Min(Some(-2.5)),
            AggAcc::Max(None),
            AggAcc::Distinct([1u64, 5, 9].into_iter().collect()),
        ];
        let mut w = Writer::new();
        for a in &accs {
            a.encode(&mut w);
        }
        let buf = w.into_vec();
        let mut r = Reader::new(&buf);
        for a in &accs {
            assert_eq!(&AggAcc::decode(&mut r).unwrap(), a);
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn decode_rejects_every_truncation_and_oversized_distinct_count() {
        let accs = [
            AggAcc::Count(7),
            AggAcc::Sum { sum: 1.5, count: 3 },
            AggAcc::Avg { sum: 9.0, count: 4 },
            AggAcc::Min(Some(-2.5)),
            AggAcc::Max(None),
            AggAcc::Distinct([1u64, 5, 9].into_iter().collect()),
        ];
        for a in &accs {
            let mut w = Writer::new();
            a.encode(&mut w);
            let buf = w.into_vec();
            for cut in 0..buf.len() {
                let got = AggAcc::decode(&mut Reader::new(&buf[..cut]));
                assert!(
                    matches!(got, Err(Error::Corruption(_))),
                    "{a:?} cut {cut}: {got:?}"
                );
            }
        }
        // a Distinct count the remaining bytes cannot hold
        for bad in [
            &[5, 0xff, 0xff, 0xff, 0xff][..],
            &[5, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1],
        ] {
            let got = AggAcc::decode(&mut Reader::new(bad));
            assert!(matches!(got, Err(Error::Corruption(_))), "{bad:?}");
        }
    }
}
