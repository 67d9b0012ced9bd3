//! Dynamically-typed values and rows.
//!
//! The stack moves structured events between systems that each have their
//! own storage representation (log records, dataflow elements, columnar
//! segments, SQL result sets). [`Value`] is the common currency; [`Row`] is
//! an ordered bag of named values validated against a
//! [`crate::schema::Schema`].
//!
//! A row holds only its cells and a pointer to its shape, a [`RowNames`]
//! list that every row of that shape shares: a generator, a part file, an
//! operator's output or a query result builds its list once. A reader of
//! fixed columns resolves their positions once per list ([`Positions`],
//! a pointer compare per row); [`Row::get`] by name is the slow path.
//!
//! A cell is a [`Value`] of 32 bytes. A string cell is a [`Text`], which
//! holds a string of up to [`Text::INLINE`] bytes in the cell itself, so
//! the short dimension ids the pipelines key and group on cost no
//! allocation and no pointer chase; hashing, ordering, `Debug` and every
//! codec see the same bytes a `String` showed them.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, LazyLock};

pub use crate::text::Text;

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
    Str(Text),
    Bytes(Vec<u8>),
    /// Semi-structured nested data (§4.3.3 JSON support).
    Json(Box<JsonValue>),
}

const _: () = assert!(std::mem::size_of::<Value>() == 32);

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
            JsonValue::String(s) => Value::from(s.as_str()),
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
        Value::Str(v.into())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v.into())
    }
}
impl From<Text> for Value {
    fn from(v: Text) -> Self {
        Value::Str(v)
    }
}

/// The column names of one row shape, in cell order. Every row of one
/// shape holds a clone of the same list, so a row carries its cells and
/// one thin pointer, and a reader compares lists by pointer
/// ([`Arc::ptr_eq`]) to know it has seen the shape before. Build one with
/// [`row_names`].
pub type RowNames = Arc<Vec<Arc<str>>>;

/// The [`RowNames`] list of `names`, in order.
pub fn row_names<N: Into<Arc<str>>>(names: impl IntoIterator<Item = N>) -> RowNames {
    Arc::new(names.into_iter().map(Into::into).collect())
}

/// A named, ordered collection of values — one structured event or one SQL
/// result row.
///
/// A row is its cells plus a shared [`RowNames`] list. A producer or an
/// operator that emits rows of one shape builds the list once and every
/// row on it with [`Row::on`]; a reader of fixed columns resolves their
/// positions once per list with [`Positions`]. The builder methods
/// ([`Row::with`], [`Row::push`], [`Row::set`] of a new name) copy the
/// list first and never change a list another row holds. A row is as
/// small as a `Vec` (a list pointer and a boxed cell slice): a `Record`
/// holding one stays within 80 bytes.
#[derive(Clone)]
pub struct Row {
    names: RowNames,
    cells: Box<[Value]>,
}

impl Default for Row {
    /// A row with no cells, on the one empty list every such row shares:
    /// it allocates nothing.
    fn default() -> Self {
        static EMPTY: LazyLock<RowNames> = LazyLock::new(RowNames::default);
        Row {
            names: Arc::clone(&EMPTY),
            cells: Box::default(),
        }
    }
}

impl Row {
    pub fn new() -> Self {
        Row::default()
    }

    /// A row of `cells` under `names`, one cell per name. A vector with
    /// room to spare is shrunk to its length.
    ///
    /// # Panics
    /// When the counts differ.
    #[inline]
    pub fn on(names: RowNames, cells: Vec<Value>) -> Row {
        assert_eq!(names.len(), cells.len(), "one cell per column name");
        Row {
            names,
            cells: cells.into_boxed_slice(),
        }
    }

    /// Builder-style column append.
    pub fn with(mut self, name: impl Into<Arc<str>>, value: impl Into<Value>) -> Self {
        self.push(name, value);
        self
    }

    /// Append a column. The row moves to a list of its own, one name
    /// longer.
    pub fn push(&mut self, name: impl Into<Arc<str>>, value: impl Into<Value>) {
        let mut names = Vec::with_capacity(self.names.len() + 1);
        names.extend(self.names.iter().cloned());
        names.push(name.into());
        let mut cells = std::mem::take(&mut self.cells).into_vec();
        cells.push(value.into());
        *self = Row::on(Arc::new(names), cells);
    }

    /// Set an existing column or append a new one.
    pub fn set(&mut self, name: &str, value: impl Into<Value>) {
        match self.position(name) {
            Some(at) => self.cells[at] = value.into(),
            None => self.push(name, value),
        }
    }

    pub fn get(&self, name: &str) -> Option<&Value> {
        self.position(name).map(|at| &self.cells[at])
    }

    /// The cell at a position, for a reader that resolved the position on
    /// an earlier row of the same [`RowNames`].
    #[inline]
    pub fn cell(&self, position: usize) -> Option<&Value> {
        self.cells.get(position)
    }

    /// The cell at a position with its name.
    pub fn at(&self, position: usize) -> Option<(&str, &Value)> {
        let cell = self.cells.get(position)?;
        Some((&self.names[position], cell))
    }

    /// [`Row::at`] with the cell open to a move or a rewrite in place.
    pub fn at_mut(&mut self, position: usize) -> Option<(&str, &mut Value)> {
        let cell = self.cells.get_mut(position)?;
        Some((&self.names[position], cell))
    }

    /// Position of the first cell named `name`.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| &**n == name)
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

    /// The list this row's cells stand under.
    #[inline]
    pub fn names(&self) -> &RowNames {
        &self.names
    }

    #[inline]
    pub fn cells(&self) -> &[Value] {
        &self.cells
    }

    pub fn into_cells(self) -> Vec<Value> {
        self.cells.into_vec()
    }

    pub fn column_names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(|n| &**n)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.column_names().zip(&self.cells)
    }

    pub fn len(&self) -> usize {
        self.cells.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Project the row down to the named columns, in the given order.
    /// Missing columns become `Value::Null` (semi-structured data may omit
    /// fields).
    pub fn project(&self, names: &[&str]) -> Row {
        self.project_onto(&row_names(names.iter().copied()))
    }

    /// [`Row::project`] onto a list the caller holds, so projecting many
    /// rows onto one shape shares one list.
    pub fn project_onto(&self, names: &RowNames) -> Row {
        let cells = names
            .iter()
            .map(|n| self.get(n).cloned().unwrap_or(Value::Null))
            .collect();
        Row::on(Arc::clone(names), cells)
    }

    /// Rough in-memory footprint in bytes; used by the engine-memory
    /// experiments (E7) and OLAP footprint accounting (E10). It models a
    /// row that spells out each column name beside its value, as the wire
    /// formats do, not the shared list.
    pub fn approx_bytes(&self) -> usize {
        self.iter()
            .map(|(n, v)| n.len() + value_bytes(v) + 16)
            .sum()
    }
}

/// Two rows are equal when their names and cells are, wherever their
/// lists live.
impl PartialEq for Row {
    fn eq(&self, other: &Row) -> bool {
        self.names == other.names && self.cells == other.cells
    }
}

/// `Row { columns: [(name, value), …] }`: the text row digests taken
/// through `{:?}` are made of.
impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Columns<'a>(&'a Row);
        impl fmt::Debug for Columns<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("Row")
            .field("columns", &Columns(self))
            .finish()
    }
}

/// Where a fixed list of columns sits in rows: resolved by name on the
/// first row of a [`RowNames`] list and reused, after one pointer compare,
/// for every later row on the same list. A reader of fixed columns keeps
/// one and reads its cells with [`Row::cell`].
#[derive(Debug, Clone, Default)]
pub struct Positions {
    /// The list the positions were resolved on, held so its address
    /// cannot be reused by another list while it is compared against.
    list: Option<RowNames>,
    at: Vec<Option<usize>>,
}

impl Positions {
    /// The position of each of `cols` in `row` ([`Row::position`]: the
    /// first match, `None` when absent). A caller passes the same `cols`
    /// on every call.
    #[inline]
    pub fn of(&mut self, row: &Row, cols: &[impl AsRef<str>]) -> &[Option<usize>] {
        if !self
            .list
            .as_ref()
            .is_some_and(|list| Arc::ptr_eq(list, &row.names))
        {
            self.at.clear();
            self.at
                .extend(cols.iter().map(|c| row.position(c.as_ref())));
            self.list = Some(Arc::clone(&row.names));
        }
        &self.at
    }
}

/// [`Row::set`] of one column over a stream of rows: the cell is set where
/// the row has the column and appended where it lacks it, and the output
/// name list is built once per input list.
#[derive(Debug, Clone)]
pub struct SetColumn {
    name: Arc<str>,
    /// The last input list, its output list and the cell's position there.
    last: Option<(RowNames, RowNames, usize)>,
}

impl SetColumn {
    pub fn new(name: impl Into<Arc<str>>) -> Self {
        SetColumn {
            name: name.into(),
            last: None,
        }
    }

    /// A copy of `row` with the column set to `value`.
    pub fn apply(&mut self, row: &Row, value: Value) -> Row {
        let (_, names, at) = match &self.last {
            Some(last) if Arc::ptr_eq(&last.0, &row.names) => last,
            _ => {
                let (names, at) = match row.position(&self.name) {
                    Some(at) => (Arc::clone(&row.names), at),
                    None => {
                        let name = Arc::clone(&self.name);
                        (
                            row_names(row.names.iter().cloned().chain([name])),
                            row.len(),
                        )
                    }
                };
                self.last.insert((Arc::clone(&row.names), names, at))
            }
        };
        let mut cells = Vec::with_capacity(names.len());
        cells.extend_from_slice(&row.cells);
        match cells.get_mut(*at) {
            Some(cell) => *cell = value,
            None => cells.push(value),
        }
        Row::on(Arc::clone(names), cells)
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

impl<N: Into<Arc<str>>> FromIterator<(N, Value)> for Row {
    fn from_iter<T: IntoIterator<Item = (N, Value)>>(iter: T) -> Self {
        let (names, cells): (Vec<Arc<str>>, Vec<Value>) =
            iter.into_iter().map(|(n, v)| (n.into(), v)).unzip();
        Row::on(Arc::new(names), cells)
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
