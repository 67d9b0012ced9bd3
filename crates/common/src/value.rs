//! Dynamically-typed values and rows.
//!
//! The stack moves structured events between systems that each have their
//! own storage representation (log records, dataflow elements, columnar
//! segments, SQL result sets). [`Value`] is the common currency; [`Row`] is
//! an ordered bag of named values validated against a
//! [`crate::schema::Schema`].

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

#[inline]
fn fnv_mix(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, b| (h ^ (*b as u64)).wrapping_mul(FNV_PRIME))
}

/// A dynamically typed scalar or semi-structured value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Double(f64),
    Str(String),
    Bytes(Vec<u8>),
    /// Semi-structured nested data (§4.3.3 JSON support).
    Json(Box<JsonValue>),
}

/// Nested JSON value used for semi-structured columns.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<JsonValue>),
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Flatten nested objects into `prefix.key -> scalar` pairs, the
    /// transformation the paper describes Flink jobs performing before
    /// Pinot ingestion.
    pub fn flatten(&self) -> Vec<(String, Value)> {
        let mut out = Vec::new();
        self.flatten_into("", &mut out);
        out
    }

    fn flatten_into(&self, prefix: &str, out: &mut Vec<(String, Value)>) {
        match self {
            JsonValue::Object(map) => {
                for (k, v) in map {
                    let key = if prefix.is_empty() {
                        k.clone()
                    } else {
                        format!("{prefix}.{k}")
                    };
                    v.flatten_into(&key, out);
                }
            }
            JsonValue::Array(items) => {
                for (i, v) in items.iter().enumerate() {
                    let key = format!("{prefix}[{i}]");
                    v.flatten_into(&key, out);
                }
            }
            other => out.push((prefix.to_string(), other.to_value())),
        }
    }

    fn to_value(&self) -> Value {
        match self {
            JsonValue::Null => Value::Null,
            JsonValue::Bool(b) => Value::Bool(*b),
            JsonValue::Number(n) => {
                if n.fract() == 0.0 && n.abs() < i64::MAX as f64 {
                    Value::Int(*n as i64)
                } else {
                    Value::Double(*n)
                }
            }
            JsonValue::String(s) => Value::Str(s.clone()),
            arr @ JsonValue::Array(_) => Value::Json(Box::new(arr.clone())),
            obj @ JsonValue::Object(_) => Value::Json(Box::new(obj.clone())),
        }
    }
}

impl Value {
    /// Interpret the value as an i64 where a lossless conversion exists.
    #[inline]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Bool(b) => Some(*b as i64),
            Value::Double(d) if d.fract() == 0.0 => Some(*d as i64),
            _ => None,
        }
    }

    /// Interpret as f64 (ints widen).
    #[inline]
    pub fn as_double(&self) -> Option<f64> {
        match self {
            Value::Double(d) => Some(*d),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Borrow as &str when the value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    #[inline]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Total ordering across comparable values; used by ORDER BY, sorted
    /// indices and range predicates. Values of incompatible types order by
    /// a fixed type rank so sorting is always total and deterministic.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Double(a), Double(b)) => a.total_cmp(b),
            (Int(a), Double(b)) => (*a as f64).total_cmp(b),
            (Double(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Bytes(a), Bytes(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Double(_) => 2, // ints and doubles compare numerically
            Value::Str(_) => 3,
            Value::Bytes(_) => 4,
            Value::Json(_) => 5,
        }
    }

    /// Stable 64-bit hash used for key partitioning. Deliberately simple
    /// (FNV-1a) so that partition assignment is reproducible across runs
    /// and processes — required for the upsert partition routing in §4.3.1.
    pub fn partition_hash(&self) -> u64 {
        match self {
            Value::Null => FNV_OFFSET,
            Value::Bool(b) => fnv_mix(FNV_OFFSET, &[*b as u8, 1]),
            Value::Int(i) => Value::hash_of_int(*i),
            Value::Double(d) => Value::hash_of_double(*d),
            Value::Str(s) => Value::hash_of_str(s),
            Value::Bytes(b) => fnv_mix(FNV_OFFSET, b),
            Value::Json(j) => fnv_mix(FNV_OFFSET, format!("{j:?}").as_bytes()),
        }
    }

    /// [`Value::partition_hash`] of `Value::Str(s)` without constructing
    /// the value (hot aggregation paths hash dictionary entries directly).
    #[inline]
    pub fn hash_of_str(s: &str) -> u64 {
        fnv_mix(FNV_OFFSET, s.as_bytes())
    }

    /// [`Value::partition_hash`] of `Value::Int(i)` without construction.
    #[inline]
    pub fn hash_of_int(i: i64) -> u64 {
        fnv_mix(FNV_OFFSET, &i.to_le_bytes())
    }

    /// [`Value::partition_hash`] of `Value::Double(d)` without construction.
    #[inline]
    pub fn hash_of_double(d: f64) -> u64 {
        fnv_mix(FNV_OFFSET, &d.to_bits().to_le_bytes())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{d}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bytes(b) => write!(f, "<{} bytes>", b.len()),
            Value::Json(j) => write!(f, "{}", crate::json::to_string(j)),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// A named, ordered collection of values — one structured event or one SQL
/// result row.
///
/// Column names are reference-counted (`Arc<str>`): cloning a row or
/// building many rows with the same shape shares one name allocation
/// instead of copying a `String` per cell, which is what the columnar
/// query path relies on when materializing results.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Row {
    columns: Vec<(Arc<str>, Value)>,
}

impl Row {
    pub fn new() -> Self {
        Row {
            columns: Vec::new(),
        }
    }

    pub fn with_capacity(n: usize) -> Self {
        Row {
            columns: Vec::with_capacity(n),
        }
    }

    /// Builder-style column append.
    pub fn with(mut self, name: impl Into<Arc<str>>, value: impl Into<Value>) -> Self {
        self.columns.push((name.into(), value.into()));
        self
    }

    pub fn push(&mut self, name: impl Into<Arc<str>>, value: impl Into<Value>) {
        self.columns.push((name.into(), value.into()));
    }

    /// Set an existing column or append a new one.
    pub fn set(&mut self, name: &str, value: impl Into<Value>) {
        let value = value.into();
        if let Some(slot) = self.columns.iter_mut().find(|(n, _)| &**n == name) {
            slot.1 = value;
        } else {
            self.columns.push((Arc::from(name), value));
        }
    }

    pub fn get(&self, name: &str) -> Option<&Value> {
        self.columns
            .iter()
            .find(|(n, _)| &**n == name)
            .map(|(_, v)| v)
    }

    /// The cell at a position, for a reader that remembers where a column
    /// sat in the last row of the same shape.
    pub fn at(&self, position: usize) -> Option<(&str, &Value)> {
        self.columns.get(position).map(|(n, v)| (&**n, v))
    }

    /// [`Row::at`] with the cell open to a move or a rewrite in place.
    pub fn at_mut(&mut self, position: usize) -> Option<(&str, &mut Value)> {
        self.columns.get_mut(position).map(|(n, v)| (&**n, v))
    }

    /// Drop every cell from `len` on.
    pub fn truncate(&mut self, len: usize) {
        self.columns.truncate(len);
    }

    /// Position of the first cell named `name`.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|(n, _)| &**n == name)
    }

    pub fn get_int(&self, name: &str) -> Option<i64> {
        self.get(name).and_then(Value::as_int)
    }

    pub fn get_double(&self, name: &str) -> Option<f64> {
        self.get(name).and_then(Value::as_double)
    }

    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.get(name).and_then(Value::as_str)
    }

    pub fn column_names(&self) -> impl Iterator<Item = &str> {
        self.columns.iter().map(|(n, _)| &**n)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.columns.iter().map(|(n, v)| (&**n, v))
    }

    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Project the row down to the named columns, in the given order.
    /// Missing columns become `Value::Null` (semi-structured data may omit
    /// fields).
    pub fn project(&self, names: &[&str]) -> Row {
        let mut out = Row::with_capacity(names.len());
        for n in names {
            out.push(*n, self.get(n).cloned().unwrap_or(Value::Null));
        }
        out
    }

    /// Like [`Row::project`] but reuses already-interned column names, so
    /// projecting many rows onto the same shape performs zero name
    /// allocations.
    pub fn project_shared(&self, names: &[Arc<str>]) -> Row {
        let mut out = Row::with_capacity(names.len());
        for n in names {
            out.push(Arc::clone(n), self.get(n).cloned().unwrap_or(Value::Null));
        }
        out
    }

    /// A copy that shares the column names and has room for `extra` more
    /// cells, so a row about to be extended is allocated once.
    pub fn clone_with_room(&self, extra: usize) -> Row {
        let mut columns = Vec::with_capacity(self.columns.len() + extra);
        columns.extend(self.columns.iter().cloned());
        Row { columns }
    }

    /// Rough in-memory footprint in bytes; used by the engine-memory
    /// experiments (E7) and OLAP footprint accounting (E10).
    pub fn approx_bytes(&self) -> usize {
        self.columns
            .iter()
            .map(|(n, v)| n.len() + value_bytes(v) + 16)
            .sum()
    }
}

fn value_bytes(v: &Value) -> usize {
    match v {
        Value::Null => 1,
        Value::Bool(_) => 1,
        Value::Int(_) => 8,
        Value::Double(_) => 8,
        Value::Str(s) => s.len() + 24,
        Value::Bytes(b) => b.len() + 24,
        Value::Json(j) => crate::json::to_string(j).len() + 32,
    }
}

impl FromIterator<(String, Value)> for Row {
    fn from_iter<T: IntoIterator<Item = (String, Value)>>(iter: T) -> Self {
        Row {
            columns: iter.into_iter().map(|(n, v)| (Arc::from(n), v)).collect(),
        }
    }
}

impl FromIterator<(Arc<str>, Value)> for Row {
    fn from_iter<T: IntoIterator<Item = (Arc<str>, Value)>>(iter: T) -> Self {
        Row {
            columns: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_roundtrip() {
        let row = Row::new()
            .with("city", "san_francisco")
            .with("fare", 12.5)
            .with("trip_count", 3i64)
            .with("surge", true);
        assert_eq!(row.get_str("city"), Some("san_francisco"));
        assert_eq!(row.get_double("fare"), Some(12.5));
        assert_eq!(row.get_int("trip_count"), Some(3));
        assert_eq!(row.get("surge"), Some(&Value::Bool(true)));
        assert_eq!(row.get("missing"), None);
        assert_eq!(row.len(), 4);
    }

    #[test]
    fn row_set_overwrites() {
        let mut row = Row::new().with("a", 1i64);
        row.set("a", 2i64);
        row.set("b", 3i64);
        assert_eq!(row.get_int("a"), Some(2));
        assert_eq!(row.get_int("b"), Some(3));
        assert_eq!(row.len(), 2);
    }

    #[test]
    fn projection_fills_missing_with_null() {
        let row = Row::new().with("a", 1i64).with("b", 2i64);
        let p = row.project(&["b", "zzz"]);
        assert_eq!(p.get_int("b"), Some(2));
        assert!(p.get("zzz").unwrap().is_null());
        let names: Vec<_> = p.column_names().collect();
        assert_eq!(names, vec!["b", "zzz"]);
    }

    #[test]
    fn numeric_cross_type_ordering() {
        assert_eq!(Value::Int(2).total_cmp(&Value::Double(2.5)), Ordering::Less);
        assert_eq!(
            Value::Double(3.0).total_cmp(&Value::Int(3)),
            Ordering::Equal
        );
        assert_eq!(
            Value::Str("b".into()).total_cmp(&Value::Str("a".into())),
            Ordering::Greater
        );
    }

    #[test]
    fn partition_hash_stable_and_spread() {
        let a = Value::Str("driver-42".into());
        assert_eq!(a.partition_hash(), a.partition_hash());
        // different keys should (virtually always) differ
        let b = Value::Str("driver-43".into());
        assert_ne!(a.partition_hash(), b.partition_hash());
        // int and its string form are distinct keys
        assert_ne!(
            Value::Int(7).partition_hash(),
            Value::Str("7".into()).partition_hash()
        );
    }

    #[test]
    fn json_flatten_produces_dotted_scalars() {
        let mut inner = BTreeMap::new();
        inner.insert("a".to_string(), JsonValue::Number(1.0));
        inner.insert("b".to_string(), JsonValue::String("x".into()));
        let mut outer = BTreeMap::new();
        outer.insert("n".to_string(), JsonValue::Object(inner));
        outer.insert(
            "tags".to_string(),
            JsonValue::Array(vec![JsonValue::Bool(true), JsonValue::Null]),
        );
        let flat = JsonValue::Object(outer).flatten();
        let keys: Vec<_> = flat.iter().map(|(k, _)| k.as_str()).collect();
        assert!(keys.contains(&"n.a"));
        assert!(keys.contains(&"n.b"));
        assert!(keys.contains(&"tags[0]"));
        assert!(keys.contains(&"tags[1]"));
        let a = flat.iter().find(|(k, _)| k == "n.a").unwrap();
        assert_eq!(a.1, Value::Int(1));
    }

    #[test]
    fn approx_bytes_monotonic_in_content() {
        let small = Row::new().with("a", 1i64);
        let big = Row::new()
            .with("a", 1i64)
            .with("long_string", "x".repeat(100));
        assert!(big.approx_bytes() > small.approx_bytes());
    }
}
