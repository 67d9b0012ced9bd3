//! On-disk OLAP segment format — Pinot-style immutable segments.
//!
//! §4.3 credits Pinot's small footprint to dictionary encoding and
//! bit-compressed forward indexes; §4.3.4 moves segment archival into a
//! shared object store so any server can recover any segment. This module
//! is the byte-level realization of both: a little-endian binary segment
//! layout in which every column is an independently addressable byte
//! range, so readers deserialize only the columns a query touches and
//! prune whole segments from zone maps without loading any column at all.
//!
//! ```text
//! +--------------------------------------------------------------+
//! | header | column block 0 | ... | column block N-1 | index map |
//! +--------------------------------------------------------------+
//! | footer: index_map_offset u64 | index_map_len u32             |
//! |         crc32 u32 (all preceding bytes) | tail magic "rtsg"  |
//! +--------------------------------------------------------------+
//! ```
//!
//! Per-column encodings (selected per column at write time):
//! - dictionary + fixed-bit-packed ids for strings/JSON (sorted dict);
//! - frame-of-reference + fixed-bit packing for ints/timestamps;
//! - RLE runs for low-cardinality int/double/dict-id columns;
//! - var-byte (length-prefixed) forward index for raw byte columns;
//! - a null bitmap and a zone map (min/max/null-count) for every column.
//!
//! The decoder NEVER panics on corrupt bytes: every read goes through a
//! bounds-checked little-endian `Reader` and every declared length,
//! bit width, run count and dictionary id is validated before use, so
//! truncated or bit-flipped files surface as [`Error::Corruption`].
//! See DESIGN.md ("On-disk segment format") for the full byte diagram.

use bytes::Bytes;
use rtdi_common::{Error, FieldType, Result, Row, Schema, Value};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Head magic: the file starts with the bytes `RTSG`.
pub const MAGIC: u32 = u32::from_le_bytes(*b"RTSG");
/// Tail magic: the file ends with the bytes `rtsg`.
pub const TAIL_MAGIC: u32 = u32::from_le_bytes(*b"rtsg");
/// Format version stamped in the header.
pub const VERSION: u16 = 1;
/// Fixed footer size: index-map offset + len, CRC32, tail magic.
pub const FOOTER_LEN: usize = 8 + 4 + 4 + 4;

/// Encoding tag: fixed-bit packed values (dictionary ids or FOR deltas).
const ENC_PACKED: u8 = 0;
/// Encoding tag: run-length encoded `(run_len, value)` pairs.
const ENC_RLE: u8 = 1;

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected) — table built lazily, no dependencies.
// ---------------------------------------------------------------------

/// Slicing-by-8 tables: `t[0]` is the classic byte table, `t[k][b]` the CRC
/// of byte `b` followed by `k` zero bytes.
fn crc32_tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 == 1 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// CRC32 (IEEE) over `data`, eight bytes per step: every segment file is
/// checked whole on open, so this loop is on the path of every cold read.
pub fn crc32(data: &[u8]) -> u32 {
    let t = crc32_tables();
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ c;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Fixed-bit packing (LSB-first within each byte).
// ---------------------------------------------------------------------

/// Minimum number of bits needed to represent values in `0..=max`.
fn bits_for(max: u64) -> u32 {
    if max == 0 {
        1
    } else {
        64 - max.leading_zeros()
    }
}

/// The low `bits` bits of a word.
fn low_bits(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// Bit-pack a slice of u64 values each fitting in `bits` bits: one
/// little-endian bit stream, flushed a word at a time.
fn bitpack(values: &[u64], bits: u32) -> Vec<u8> {
    let total_bytes = (values.len() * bits as usize).div_ceil(8);
    let mut out = Vec::with_capacity(total_bytes + 8);
    let mask = low_bits(bits);
    let (mut acc, mut filled) = (0u128, 0u32);
    for &v in values {
        acc |= ((v & mask) as u128) << filled;
        filled += bits;
        if filled >= 64 {
            out.extend_from_slice(&(acc as u64).to_le_bytes());
            acc >>= 64;
            filled -= 64;
        }
    }
    out.extend_from_slice(&(acc as u64).to_le_bytes());
    out.truncate(total_bytes);
    out
}

/// Inverse of [`bitpack`]. Bits past the end of `data` read as zero.
fn bitunpack(data: &[u8], bits: u32, count: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(count);
    let mask = low_bits(bits);
    let (mut acc, mut filled) = (0u128, 0u32);
    let mut words = data.chunks(8);
    for _ in 0..count {
        if filled < bits {
            let mut word = [0u8; 8];
            if let Some(w) = words.next() {
                word[..w.len()].copy_from_slice(w);
            }
            acc |= (u64::from_le_bytes(word) as u128) << filled;
            filled += 64;
        }
        out.push(acc as u64 & mask);
        acc >>= bits;
        filled -= bits;
    }
    out
}

// ---------------------------------------------------------------------
// Bounds-checked little-endian reader / writer.
// ---------------------------------------------------------------------

/// Little-endian read cursor over a byte slice. Every read is bounds
/// checked and returns `Err(Corruption)` instead of panicking — this is
/// the only way segment bytes are ever decoded.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::Corruption(format!(
                "truncated {what}: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.bytes(1, what)?[0])
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N]> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.bytes(N, what)?);
        Ok(a)
    }

    fn u16(&mut self, what: &str) -> Result<u16> {
        Ok(u16::from_le_bytes(self.array(what)?))
    }

    fn u32(&mut self, what: &str) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    fn u64(&mut self, what: &str) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    fn i64(&mut self, what: &str) -> Result<i64> {
        Ok(self.u64(what)? as i64)
    }

    fn f64(&mut self, what: &str) -> Result<f64> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Length-prefixed UTF-8 string: `len u32` + bytes.
    fn lpstr(&mut self, what: &str) -> Result<String> {
        let len = self.u32(what)? as usize;
        let raw = self.bytes(len, what)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| Error::Corruption(format!("invalid utf8 in {what}")))
    }
}

/// Little-endian append-only writer (the encode side of [`Reader`]).
struct Writer {
    out: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer {
            out: Vec::with_capacity(1024),
        }
    }

    fn len(&self) -> usize {
        self.out.len()
    }

    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn slice(&mut self, s: &[u8]) {
        self.out.extend_from_slice(s);
    }

    fn lpstr(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.out.extend_from_slice(s.as_bytes());
    }
}

// ---------------------------------------------------------------------
// In-memory column model handed to the encoder / returned by the decoder.
// ---------------------------------------------------------------------

/// Per-column null mask: bit `i` set means row `i` is NULL. Bits are
/// stored LSB-first, `ceil(len/8)` bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NullMask {
    bits: Vec<u8>,
    len: usize,
}

impl NullMask {
    /// All-non-null mask over `len` rows.
    pub fn new(len: usize) -> Self {
        NullMask {
            bits: vec![0u8; len.div_ceil(8)],
            len,
        }
    }

    /// Rebuild a mask from its on-disk bytes.
    pub fn from_bits(bits: Vec<u8>, len: usize) -> Result<Self> {
        if bits.len() != len.div_ceil(8) {
            return Err(Error::Corruption(format!(
                "null bitmap length {} does not cover {len} rows",
                bits.len()
            )));
        }
        Ok(NullMask { bits, len })
    }

    pub fn set_null(&mut self, i: usize) {
        if i < self.len {
            self.bits[i / 8] |= 1 << (i % 8);
        }
    }

    /// Append one row.
    pub fn push(&mut self, null: bool) {
        if self.len.is_multiple_of(8) {
            self.bits.push(0);
        }
        self.len += 1;
        if null {
            self.set_null(self.len - 1);
        }
    }

    pub fn is_null(&self, i: usize) -> bool {
        i < self.len && (self.bits[i / 8] >> (i % 8)) & 1 == 1
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn null_count(&self) -> u64 {
        (0..self.len).filter(|&i| self.is_null(i)).count() as u64
    }

    /// Raw LSB-first bitmap bytes (`ceil(len/8)` of them).
    pub fn bits(&self) -> &[u8] {
        &self.bits
    }
}

/// Decoded column values. The variant is determined by the column's
/// [`FieldType`]: Int/Timestamp -> `Int`, Str/Json -> `Str` (JSON is
/// stored as its serialized text in the dictionary), Bytes -> `Bytes`.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnValues {
    Int(Vec<i64>),
    Double(Vec<f64>),
    Bool(Vec<bool>),
    /// Sorted dictionary + per-row dictionary ids.
    Str {
        dict: Vec<String>,
        ids: Vec<u32>,
    },
    Bytes(Vec<Vec<u8>>),
}

impl ColumnValues {
    pub fn len(&self) -> usize {
        match self {
            ColumnValues::Int(v) => v.len(),
            ColumnValues::Double(v) => v.len(),
            ColumnValues::Bool(v) => v.len(),
            ColumnValues::Str { ids, .. } => ids.len(),
            ColumnValues::Bytes(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One materialized column: values plus its null mask.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    pub values: ColumnValues,
    pub nulls: NullMask,
}

/// A zone-map bound. Ordering semantics match `Value::total_cmp` within
/// one type; cross-type comparisons are never pruned on.
#[derive(Debug, Clone, PartialEq)]
pub enum ZoneValue {
    Int(i64),
    Double(f64),
    Str(String),
    Bool(bool),
}

/// Per-column min/max statistics consulted before any column bytes are
/// read. `min`/`max` are `None` when every row is NULL (or the column
/// type carries no ordered statistics, e.g. raw bytes).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ZoneMap {
    pub min: Option<ZoneValue>,
    pub max: Option<ZoneValue>,
    pub null_count: u64,
}

impl ZoneMap {
    /// Integer min/max bounds, when this column stores ordered integers
    /// (Int/Timestamp). Federation catalogs read per-segment time ranges
    /// through this without touching column bytes.
    pub fn int_bounds(&self) -> Option<(i64, i64)> {
        match (&self.min, &self.max) {
            (Some(ZoneValue::Int(lo)), Some(ZoneValue::Int(hi))) => Some((*lo, *hi)),
            _ => None,
        }
    }
}

/// Index-map entry: where one column's bytes live and its statistics.
#[derive(Debug, Clone)]
pub struct ColumnEntry {
    pub name: String,
    pub field_type: FieldType,
    /// Absolute byte offset of the column block in the file.
    pub offset: u64,
    /// Length of the column block in bytes.
    pub len: u64,
    pub zone: ZoneMap,
}

/// Segment-level header metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentMeta {
    /// Segment name (unique within a table).
    pub name: String,
    /// Owning table / schema name.
    pub table: String,
    /// Column the rows are physically sorted by, if any.
    pub sorted_col: Option<String>,
    /// Row count shared by every column.
    pub nrows: u64,
}

// ---------------------------------------------------------------------
// Type tags.
// ---------------------------------------------------------------------

fn type_tag(t: FieldType) -> u8 {
    match t {
        FieldType::Bool => 0,
        FieldType::Int => 1,
        FieldType::Double => 2,
        FieldType::Str => 3,
        FieldType::Bytes => 4,
        FieldType::Json => 5,
        FieldType::Timestamp => 6,
    }
}

fn tag_type(tag: u8) -> Result<FieldType> {
    Ok(match tag {
        0 => FieldType::Bool,
        1 => FieldType::Int,
        2 => FieldType::Double,
        3 => FieldType::Str,
        4 => FieldType::Bytes,
        5 => FieldType::Json,
        6 => FieldType::Timestamp,
        t => return Err(Error::Corruption(format!("unknown segment type tag {t}"))),
    })
}

// ---------------------------------------------------------------------
// Encoding.
// ---------------------------------------------------------------------

/// Count value-change boundaries (number of RLE runs) in a slice.
fn run_count<T: PartialEq>(vals: &[T]) -> usize {
    let mut runs = 0usize;
    let mut prev: Option<&T> = None;
    for v in vals {
        if prev != Some(v) {
            runs += 1;
            prev = Some(v);
        }
    }
    runs
}

fn rle_runs<T: PartialEq + Copy>(vals: &[T]) -> Vec<(u32, T)> {
    let mut runs: Vec<(u32, T)> = Vec::new();
    for &v in vals {
        match runs.last_mut() {
            Some((len, last)) if *last == v => *len += 1,
            _ => runs.push((1, v)),
        }
    }
    runs
}

fn encode_int_block(w: &mut Writer, vals: &[i64]) {
    let min = vals.iter().copied().min().unwrap_or(0);
    let max = vals.iter().copied().max().unwrap_or(0);
    // widen through i128: (i64::MAX - i64::MIN) overflows i64 but the
    // delta always fits u64
    let range = (max as i128 - min as i128) as u64;
    let width = bits_for(range);
    let packed_cost = 1 + 8 + 1 + 4 + (vals.len() * width as usize).div_ceil(8);
    let nruns = run_count(vals);
    let rle_cost = 1 + 4 + nruns * 12;
    if rle_cost < packed_cost {
        w.u8(ENC_RLE);
        let runs = rle_runs(vals);
        w.u32(runs.len() as u32);
        for (len, v) in runs {
            w.u32(len);
            w.i64(v);
        }
    } else {
        w.u8(ENC_PACKED);
        w.i64(min);
        w.u8(width as u8);
        let rel: Vec<u64> = vals
            .iter()
            .map(|&v| (v as i128 - min as i128) as u64)
            .collect();
        let packed = bitpack(&rel, width);
        w.u32(packed.len() as u32);
        w.slice(&packed);
    }
}

fn encode_double_block(w: &mut Writer, vals: &[f64]) {
    // run detection on the bit pattern so NaN/-0.0 round-trip exactly
    let bits: Vec<u64> = vals.iter().map(|v| v.to_bits()).collect();
    let nruns = run_count(&bits);
    let rle_cost = 1 + 4 + nruns * 12;
    let raw_cost = 1 + vals.len() * 8;
    if rle_cost < raw_cost {
        w.u8(ENC_RLE);
        let runs = rle_runs(&bits);
        w.u32(runs.len() as u32);
        for (len, b) in runs {
            w.u32(len);
            w.u64(b);
        }
    } else {
        w.u8(ENC_PACKED);
        for &b in &bits {
            w.u64(b);
        }
    }
}

fn encode_id_block(w: &mut Writer, ids: &[u32], dict_len: usize) {
    let width = bits_for(dict_len.saturating_sub(1) as u64);
    let packed_cost = 1 + 1 + 4 + (ids.len() * width as usize).div_ceil(8);
    let nruns = run_count(ids);
    let rle_cost = 1 + 4 + nruns * 8;
    if rle_cost < packed_cost {
        w.u8(ENC_RLE);
        let runs = rle_runs(ids);
        w.u32(runs.len() as u32);
        for (len, id) in runs {
            w.u32(len);
            w.u32(id);
        }
    } else {
        w.u8(ENC_PACKED);
        w.u8(width as u8);
        let wide: Vec<u64> = ids.iter().map(|&id| id as u64).collect();
        let packed = bitpack(&wide, width);
        w.u32(packed.len() as u32);
        w.slice(&packed);
    }
}

/// Encode one column block; returns the zone map computed from the data.
fn encode_column_block(w: &mut Writer, col: &Column) -> Result<ZoneMap> {
    let nulls = &col.nulls;
    w.u32(nulls.bits().len() as u32);
    w.slice(nulls.bits());
    let non_null = |i: &usize| !nulls.is_null(*i);
    let mut zone = ZoneMap {
        min: None,
        max: None,
        null_count: nulls.null_count(),
    };
    match &col.values {
        ColumnValues::Bool(vals) => {
            let packed: Vec<u64> = vals.iter().map(|&b| b as u64).collect();
            let bitvec = bitpack(&packed, 1);
            w.u32(bitvec.len() as u32);
            w.slice(&bitvec);
            let live: Vec<bool> = (0..vals.len()).filter(non_null).map(|i| vals[i]).collect();
            if let (Some(&mn), Some(&mx)) = (live.iter().min(), live.iter().max()) {
                zone.min = Some(ZoneValue::Bool(mn));
                zone.max = Some(ZoneValue::Bool(mx));
            }
        }
        ColumnValues::Int(vals) => {
            encode_int_block(w, vals);
            let live = (0..vals.len()).filter(non_null).map(|i| vals[i]);
            if let Some((mn, mx)) = min_max(live) {
                zone.min = Some(ZoneValue::Int(mn));
                zone.max = Some(ZoneValue::Int(mx));
            }
        }
        ColumnValues::Double(vals) => {
            encode_double_block(w, vals);
            // ordered as `Value::total_cmp` orders cells: a NaN above +inf
            // or below -inf by its sign, -0.0 below 0.0
            let live = (0..vals.len()).filter(non_null).map(|i| vals[i]);
            let mn = live.clone().min_by(f64::total_cmp);
            if let (Some(mn), Some(mx)) = (mn, live.max_by(f64::total_cmp)) {
                zone.min = Some(ZoneValue::Double(mn));
                zone.max = Some(ZoneValue::Double(mx));
            }
        }
        ColumnValues::Str { dict, ids } => {
            if ids.len() != col.nulls.len() {
                return Err(Error::Internal("id count != row count".into()));
            }
            for win in dict.windows(2) {
                if win[0] >= win[1] {
                    return Err(Error::Internal("segment dictionary not sorted".into()));
                }
            }
            if let Some(&bad) = ids.iter().find(|&&id| id as usize >= dict.len()) {
                return Err(Error::Internal(format!("dict id {bad} out of range")));
            }
            w.u32(dict.len() as u32);
            for s in dict {
                w.lpstr(s);
            }
            encode_id_block(w, ids, dict.len());
            let live = (0..ids.len())
                .filter(non_null)
                .map(|i| ids[i])
                .collect::<Vec<_>>();
            if let (Some(&mn), Some(&mx)) = (live.iter().min(), live.iter().max()) {
                zone.min = Some(ZoneValue::Str(dict[mn as usize].clone()));
                zone.max = Some(ZoneValue::Str(dict[mx as usize].clone()));
            }
        }
        ColumnValues::Bytes(vals) => {
            for v in vals {
                w.u32(v.len() as u32);
                w.slice(v);
            }
            // raw bytes carry no ordered zone statistics
        }
    }
    Ok(zone)
}

fn min_max<I: Iterator<Item = i64>>(iter: I) -> Option<(i64, i64)> {
    let mut out: Option<(i64, i64)> = None;
    for v in iter {
        out = Some(match out {
            None => (v, v),
            Some((mn, mx)) => (mn.min(v), mx.max(v)),
        });
    }
    out
}

fn write_zone(w: &mut Writer, zone: &ZoneMap) {
    w.u64(zone.null_count);
    match (&zone.min, &zone.max) {
        (Some(mn), Some(mx)) => {
            w.u8(1);
            let kind = |z: &ZoneValue| match z {
                ZoneValue::Int(_) => 0u8,
                ZoneValue::Double(_) => 1,
                ZoneValue::Str(_) => 2,
                ZoneValue::Bool(_) => 3,
            };
            w.u8(kind(mn));
            for z in [mn, mx] {
                match z {
                    ZoneValue::Int(v) => w.i64(*v),
                    ZoneValue::Double(v) => w.f64(*v),
                    ZoneValue::Str(s) => w.lpstr(s),
                    ZoneValue::Bool(b) => w.u8(*b as u8),
                }
            }
        }
        _ => w.u8(0),
    }
}

fn read_zone(r: &mut Reader) -> Result<ZoneMap> {
    let null_count = r.u64("zone null count")?;
    let has = r.u8("zone presence flag")?;
    if has == 0 {
        return Ok(ZoneMap {
            min: None,
            max: None,
            null_count,
        });
    }
    if has != 1 {
        return Err(Error::Corruption(format!("bad zone presence flag {has}")));
    }
    let kind = r.u8("zone kind")?;
    let read_one = |r: &mut Reader| -> Result<ZoneValue> {
        Ok(match kind {
            0 => ZoneValue::Int(r.i64("zone int")?),
            1 => ZoneValue::Double(r.f64("zone double")?),
            2 => ZoneValue::Str(r.lpstr("zone string")?),
            3 => ZoneValue::Bool(r.u8("zone bool")? != 0),
            k => return Err(Error::Corruption(format!("unknown zone kind {k}"))),
        })
    };
    let min = read_one(r)?;
    let max = read_one(r)?;
    Ok(ZoneMap {
        min: Some(min),
        max: Some(max),
        null_count,
    })
}

/// Serialize a segment: header, per-column blocks, length-prefixed index
/// map, CRC32-checked footer. `fields[i]` describes `columns[i]`; every
/// column must have exactly `meta.nrows` rows.
pub fn encode_segment(
    meta: &SegmentMeta,
    fields: &[rtdi_common::Field],
    columns: &[Column],
) -> Result<Bytes> {
    if fields.len() != columns.len() {
        return Err(Error::Internal(format!(
            "{} fields but {} columns",
            fields.len(),
            columns.len()
        )));
    }
    for (f, c) in fields.iter().zip(columns) {
        if c.values.len() as u64 != meta.nrows || c.nulls.len() as u64 != meta.nrows {
            return Err(Error::Internal(format!(
                "column '{}' has {} rows, segment declares {}",
                f.name,
                c.values.len(),
                meta.nrows
            )));
        }
    }
    let mut w = Writer::new();
    w.u32(MAGIC);
    w.u16(VERSION);
    w.u16(0); // flags (reserved)
    w.lpstr(&meta.table);
    w.lpstr(&meta.name);
    w.lpstr(meta.sorted_col.as_deref().unwrap_or(""));
    w.u32(fields.len() as u32);
    w.u64(meta.nrows);

    let mut entries: Vec<ColumnEntry> = Vec::with_capacity(fields.len());
    for (f, c) in fields.iter().zip(columns) {
        let offset = w.len() as u64;
        let zone = encode_column_block(&mut w, c)?;
        entries.push(ColumnEntry {
            name: f.name.clone(),
            field_type: f.field_type,
            offset,
            len: w.len() as u64 - offset,
            zone,
        });
    }

    let index_map_offset = w.len() as u64;
    w.u32(entries.len() as u32);
    for e in &entries {
        w.lpstr(&e.name);
        w.u8(type_tag(e.field_type));
        w.u64(e.offset);
        w.u64(e.len);
        write_zone(&mut w, &e.zone);
    }
    let index_map_len = w.len() as u64 - index_map_offset;

    w.u64(index_map_offset);
    w.u32(index_map_len as u32);
    let crc = crc32(&w.out);
    w.u32(crc);
    w.u32(TAIL_MAGIC);
    Ok(Bytes::from(w.out))
}

// ---------------------------------------------------------------------
// Decoding.
// ---------------------------------------------------------------------

/// An opened segment file: header + index map parsed and CRC verified,
/// column bytes untouched until [`SegmentFile::column`] is called.
pub struct SegmentFile {
    data: Bytes,
    meta: SegmentMeta,
    entries: Vec<ColumnEntry>,
    /// Bytes actually parsed by `open` (header + index map + footer) —
    /// the cost of a header-only, zone-map-pruned read.
    header_bytes: usize,
}

impl SegmentFile {
    /// Validate the footer (magic + CRC32), header and index map. Column
    /// blocks are NOT decoded — each is fetched lazily by [`Self::column`].
    pub fn open(data: Bytes) -> Result<Self> {
        let raw = data.as_slice();
        if raw.len() < 4 + 2 + 2 + FOOTER_LEN {
            return Err(Error::Corruption(format!(
                "segment file too small: {} bytes",
                raw.len()
            )));
        }
        if raw[..4] != MAGIC.to_le_bytes() {
            return Err(Error::Corruption("bad segment magic".into()));
        }
        let foot = &raw[raw.len() - FOOTER_LEN..];
        let mut fr = Reader::new(foot);
        let index_map_offset = fr.u64("footer index-map offset")? as usize;
        let index_map_len = fr.u32("footer index-map length")? as usize;
        let stored_crc = fr.u32("footer crc")?;
        let tail = fr.u32("footer magic")?;
        if tail != TAIL_MAGIC {
            return Err(Error::Corruption("bad segment tail magic".into()));
        }
        let computed = crc32(&raw[..raw.len() - 8]);
        if computed != stored_crc {
            return Err(Error::Corruption(format!(
                "segment crc mismatch: stored {stored_crc:#010x}, computed {computed:#010x}"
            )));
        }
        let body_end = raw.len() - FOOTER_LEN;
        if index_map_offset
            .checked_add(index_map_len)
            .is_none_or(|end| end != body_end)
        {
            return Err(Error::Corruption(format!(
                "index map [{index_map_offset}, +{index_map_len}) does not end at footer"
            )));
        }

        let mut r = Reader::new(&raw[..index_map_offset]);
        let magic = r.u32("magic")?;
        debug_assert_eq!(magic, MAGIC);
        let version = r.u16("version")?;
        if version != VERSION {
            return Err(Error::Corruption(format!(
                "unsupported segment version {version}"
            )));
        }
        let _flags = r.u16("flags")?;
        let table = r.lpstr("table name")?;
        let name = r.lpstr("segment name")?;
        let sorted = r.lpstr("sorted column")?;
        let ncols = r.u32("column count")? as usize;
        let nrows = r.u64("row count")?;
        let header_end = r.pos;

        // every column block starts with its null bitmap, so a declared
        // row count must be coverable by the bytes between header and
        // index map — this bounds all later `with_capacity(nrows)` calls
        let col_bytes = index_map_offset - header_end;
        if ncols > 0 {
            let per_col = 4 + (nrows as usize).div_ceil(8);
            if per_col.checked_mul(ncols).is_none_or(|min| min > col_bytes) {
                return Err(Error::Corruption(format!(
                    "{ncols} columns x {nrows} rows cannot fit in {col_bytes} column bytes"
                )));
            }
        }

        let mut ir = Reader::new(&raw[index_map_offset..body_end]);
        let nentries = ir.u32("index map entry count")? as usize;
        if nentries != ncols {
            return Err(Error::Corruption(format!(
                "index map has {nentries} entries, header declares {ncols} columns"
            )));
        }
        // each entry is at least name(4) + tag(1) + offset(8) + len(8) +
        // zone(9) bytes: bound the preallocation by what could fit
        let mut entries = Vec::with_capacity(nentries.min(ir.remaining() / 30 + 1));
        for _ in 0..nentries {
            let cname = ir.lpstr("column name")?;
            let ftype = tag_type(ir.u8("column type tag")?)?;
            let offset = ir.u64("column offset")?;
            let len = ir.u64("column length")?;
            let zone = read_zone(&mut ir)?;
            let end = offset.checked_add(len);
            if (offset as usize) < header_end || end.is_none_or(|e| e as usize > index_map_offset) {
                return Err(Error::Corruption(format!(
                    "column '{cname}' byte range [{offset}, +{len}) escapes column area"
                )));
            }
            entries.push(ColumnEntry {
                name: cname,
                field_type: ftype,
                offset,
                len,
                zone,
            });
        }
        if ir.remaining() != 0 {
            return Err(Error::Corruption(format!(
                "{} trailing bytes after index map entries",
                ir.remaining()
            )));
        }

        Ok(SegmentFile {
            data,
            meta: SegmentMeta {
                name,
                table,
                sorted_col: if sorted.is_empty() {
                    None
                } else {
                    Some(sorted)
                },
                nrows,
            },
            entries,
            header_bytes: header_end + index_map_len + FOOTER_LEN,
        })
    }

    pub fn meta(&self) -> &SegmentMeta {
        &self.meta
    }

    pub fn nrows(&self) -> usize {
        self.meta.nrows as usize
    }

    pub fn entries(&self) -> &[ColumnEntry] {
        &self.entries
    }

    pub fn entry(&self, name: &str) -> Option<&ColumnEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Bytes touched by [`Self::open`]: header + index map + footer. A
    /// zone-map-pruned segment reads only this much.
    pub fn header_bytes(&self) -> usize {
        self.header_bytes
    }

    /// Total file size in bytes.
    pub fn file_bytes(&self) -> usize {
        self.data.len()
    }

    /// Schema reconstructed from the index map (field order preserved).
    pub fn schema(&self) -> Schema {
        Schema::new(
            self.meta.table.clone(),
            self.entries
                .iter()
                .map(|e| rtdi_common::Field::new(e.name.clone(), e.field_type))
                .collect(),
        )
    }

    /// Decode a single column by name without touching any other column.
    pub fn column(&self, name: &str) -> Result<Column> {
        let idx = self
            .entries
            .iter()
            .position(|e| e.name == name)
            .ok_or_else(|| Error::NotFound(format!("segment column '{name}'")))?;
        self.column_at(idx)
    }

    /// Decode the column at index-map position `idx`.
    pub fn column_at(&self, idx: usize) -> Result<Column> {
        let entry = self
            .entries
            .get(idx)
            .ok_or_else(|| Error::NotFound(format!("segment column #{idx}")))?;
        let start = entry.offset as usize;
        let block = &self.data.as_slice()[start..start + entry.len as usize];
        decode_column_block(block, entry.field_type, self.nrows()).map_err(|e| match e {
            Error::Corruption(msg) => Error::Corruption(format!("column '{}': {msg}", entry.name)),
            other => other,
        })
    }

    /// Materialize every column back into rows (schema order).
    pub fn read_rows(&self) -> Result<(Schema, Vec<Row>)> {
        Ok((self.schema(), self.read_rows_where(None, None)?))
    }

    /// The one row materializer: the columns named in `select` (every
    /// column when `None`; a name the file lacks is left out) of the rows
    /// `docs`, in that order (every row when `None`). Only the selected
    /// columns are decoded, and a cell becomes a [`Value`] only for a row
    /// that is kept.
    pub fn read_rows_where(
        &self,
        select: Option<&[String]>,
        docs: Option<&[u32]>,
    ) -> Result<Vec<Row>> {
        let picked: Vec<usize> = match select {
            None => (0..self.entries.len()).collect(),
            Some(names) => names
                .iter()
                .filter_map(|n| self.entries.iter().position(|e| e.name == *n))
                .collect(),
        };
        let mut columns = Vec::with_capacity(picked.len());
        for &i in &picked {
            let e = &self.entries[i];
            columns.push((
                std::sync::Arc::<str>::from(e.name.as_str()),
                e.field_type,
                self.column_at(i)?,
            ));
        }
        let nrows = self.nrows();
        let build = |doc: usize| -> Result<Row> {
            if doc >= nrows {
                return Err(Error::Internal(format!(
                    "row {doc} requested of a {nrows}-row segment"
                )));
            }
            let mut row = Row::with_capacity(columns.len());
            for (name, ftype, col) in &columns {
                row.push(name.clone(), cell_value(col, *ftype, doc)?);
            }
            Ok(row)
        };
        match docs {
            None => (0..nrows).map(build).collect(),
            Some(docs) => docs.iter().map(|&d| build(d as usize)).collect(),
        }
    }
}

fn decode_int_block(r: &mut Reader, nrows: usize) -> Result<Vec<i64>> {
    match r.u8("int encoding tag")? {
        ENC_PACKED => {
            let base = r.i64("int base")?;
            let width = r.u8("int bit width")? as u32;
            if width > 64 {
                return Err(Error::Corruption(format!("int bit width {width} > 64")));
            }
            let plen = r.u32("int packed length")? as usize;
            if plen != (nrows * width as usize).div_ceil(8) {
                return Err(Error::Corruption(format!(
                    "int packed length {plen} != expected for {nrows} rows x {width} bits"
                )));
            }
            let packed = r.bytes(plen, "int packed data")?;
            Ok(bitunpack(packed, width, nrows)
                .into_iter()
                .map(|v| base.wrapping_add(v as i64))
                .collect())
        }
        ENC_RLE => decode_rle(r, nrows, "int", |r| r.i64("int run value")),
        t => Err(Error::Corruption(format!("unknown int encoding tag {t}"))),
    }
}

/// Decode `(run_len u32, value)` pairs whose lengths must sum to `nrows`.
fn decode_rle<T: Copy>(
    r: &mut Reader,
    nrows: usize,
    what: &str,
    mut read_val: impl FnMut(&mut Reader) -> Result<T>,
) -> Result<Vec<T>> {
    let nruns = r.u32("run count")? as usize;
    // each run occupies >= 5 bytes (len u32 + >= 1-byte value)
    if nruns > r.remaining() / 5 + 1 {
        return Err(Error::Corruption(format!(
            "{what} run count {nruns} exceeds remaining bytes"
        )));
    }
    let mut out = Vec::with_capacity(nrows.min(1 << 20));
    for _ in 0..nruns {
        let len = r.u32("run length")? as usize;
        let v = read_val(r)?;
        if out.len() + len > nrows {
            return Err(Error::Corruption(format!(
                "{what} run lengths exceed {nrows} rows"
            )));
        }
        out.extend(std::iter::repeat_n(v, len));
    }
    if out.len() != nrows {
        return Err(Error::Corruption(format!(
            "{what} runs cover {} of {nrows} rows",
            out.len()
        )));
    }
    Ok(out)
}

fn decode_column_block(block: &[u8], ftype: FieldType, nrows: usize) -> Result<Column> {
    let mut r = Reader::new(block);
    let bm_len = r.u32("null bitmap length")? as usize;
    let bm = r.bytes(bm_len, "null bitmap")?.to_vec();
    let nulls = NullMask::from_bits(bm, nrows)?;
    let values = match ftype {
        FieldType::Bool => {
            let plen = r.u32("bool packed length")? as usize;
            if plen != nrows.div_ceil(8) {
                return Err(Error::Corruption(format!(
                    "bool packed length {plen} != expected for {nrows} rows"
                )));
            }
            let packed = r.bytes(plen, "bool packed data")?;
            ColumnValues::Bool(
                bitunpack(packed, 1, nrows)
                    .into_iter()
                    .map(|v| v == 1)
                    .collect(),
            )
        }
        FieldType::Int | FieldType::Timestamp => {
            ColumnValues::Int(decode_int_block(&mut r, nrows)?)
        }
        FieldType::Double => match r.u8("double encoding tag")? {
            ENC_PACKED => {
                let raw = r.bytes(nrows * 8, "double data")?;
                ColumnValues::Double(
                    raw.chunks_exact(8)
                        .map(|c| {
                            let mut bits = [0u8; 8];
                            bits.copy_from_slice(c);
                            f64::from_bits(u64::from_le_bytes(bits))
                        })
                        .collect(),
                )
            }
            ENC_RLE => ColumnValues::Double(
                decode_rle(&mut r, nrows, "double", |r| r.u64("double run value"))?
                    .into_iter()
                    .map(f64::from_bits)
                    .collect(),
            ),
            t => {
                return Err(Error::Corruption(format!(
                    "unknown double encoding tag {t}"
                )))
            }
        },
        FieldType::Str | FieldType::Json => {
            let dict_len = r.u32("dictionary length")? as usize;
            // every dictionary entry needs at least its 4-byte length
            if dict_len > r.remaining() / 4 {
                return Err(Error::Corruption(format!(
                    "dictionary length {dict_len} exceeds remaining bytes"
                )));
            }
            let mut dict = Vec::with_capacity(dict_len);
            for _ in 0..dict_len {
                let s = r.lpstr("dictionary entry")?;
                if let Some(prev) = dict.last() {
                    if *prev >= s {
                        return Err(Error::Corruption("dictionary not sorted".into()));
                    }
                }
                dict.push(s);
            }
            let ids: Vec<u32> = match r.u8("id encoding tag")? {
                ENC_PACKED => {
                    let width = r.u8("id bit width")? as u32;
                    if width > 32 {
                        return Err(Error::Corruption(format!("id bit width {width} > 32")));
                    }
                    let plen = r.u32("id packed length")? as usize;
                    if plen != (nrows * width as usize).div_ceil(8) {
                        return Err(Error::Corruption(format!(
                            "id packed length {plen} != expected for {nrows} rows x {width} bits"
                        )));
                    }
                    let packed = r.bytes(plen, "id packed data")?;
                    bitunpack(packed, width, nrows)
                        .into_iter()
                        .map(|v| v as u32)
                        .collect()
                }
                ENC_RLE => decode_rle(&mut r, nrows, "id", |r| r.u32("id run value"))?,
                t => return Err(Error::Corruption(format!("unknown id encoding tag {t}"))),
            };
            if nrows > 0 {
                if dict.is_empty() {
                    return Err(Error::Corruption("empty dictionary with rows".into()));
                }
                if let Some(&bad) = ids.iter().find(|&&id| id as usize >= dict.len()) {
                    return Err(Error::Corruption(format!(
                        "dictionary id {bad} out of range (dict has {})",
                        dict.len()
                    )));
                }
            }
            ColumnValues::Str { dict, ids }
        }
        FieldType::Bytes => {
            let mut vals = Vec::with_capacity(nrows.min(1 << 20));
            for _ in 0..nrows {
                let len = r.u32("bytes value length")? as usize;
                vals.push(r.bytes(len, "bytes value")?.to_vec());
            }
            ColumnValues::Bytes(vals)
        }
    };
    if r.remaining() != 0 {
        return Err(Error::Corruption(format!(
            "{} trailing bytes after column block",
            r.remaining()
        )));
    }
    Ok(Column { values, nulls })
}

/// One cell of a decoded column as a [`Value`] (NULL applied, JSON parsed
/// back from its dictionary text).
fn cell_value(col: &Column, ftype: FieldType, i: usize) -> Result<Value> {
    if col.nulls.is_null(i) {
        return Ok(Value::Null);
    }
    Ok(match &col.values {
        ColumnValues::Int(vals) => Value::Int(vals[i]),
        ColumnValues::Double(vals) => Value::Double(vals[i]),
        ColumnValues::Bool(vals) => Value::Bool(vals[i]),
        ColumnValues::Str { dict, ids } => {
            let s = &dict[ids[i] as usize];
            if ftype == FieldType::Json {
                Value::Json(Box::new(rtdi_common::json::parse(s).map_err(|_| {
                    Error::Corruption(format!("invalid json in dictionary: {s}"))
                })?))
            } else {
                Value::Str(s.clone())
            }
        }
        ColumnValues::Bytes(vals) => Value::Bytes(vals[i].clone()),
    })
}

// ---------------------------------------------------------------------
// Row-batch convenience encoder (warehouse part files, compaction).
// ---------------------------------------------------------------------

/// Builds one schema field's [`Column`] a cell at a time. A cell is
/// coerced to the field's type; a value that cannot be (a string in an
/// integer field) is stored as the type's zero, not as NULL. Strings are
/// interned as they arrive and only the distinct values are sorted, once,
/// in [`ColumnBuilder::finish`].
pub(crate) struct ColumnBuilder {
    values: ColumnValues,
    nulls: NullMask,
    /// Dictionary id of every distinct string, in arrival order.
    intern: HashMap<String, u32>,
}

/// Dictionary id of a cell that carries no string while the column is
/// built; it becomes id 0 of the sorted dictionary.
const NO_TEXT: u32 = u32::MAX;

impl ColumnBuilder {
    pub(crate) fn new(field_type: FieldType) -> Self {
        let values = match field_type {
            FieldType::Bool => ColumnValues::Bool(Vec::new()),
            FieldType::Int | FieldType::Timestamp => ColumnValues::Int(Vec::new()),
            FieldType::Double => ColumnValues::Double(Vec::new()),
            FieldType::Str | FieldType::Json => ColumnValues::Str {
                dict: Vec::new(),
                ids: Vec::new(),
            },
            FieldType::Bytes => ColumnValues::Bytes(Vec::new()),
        };
        ColumnBuilder {
            values,
            nulls: NullMask::new(0),
            intern: HashMap::new(),
        }
    }

    /// Rows appended so far.
    pub(crate) fn len(&self) -> usize {
        self.nulls.len()
    }

    /// Append one cell; an absent value is NULL.
    pub(crate) fn push(&mut self, v: Option<&Value>) {
        if let Some(Value::Str(s)) = v {
            return self.push_str(s);
        }
        self.nulls.push(matches!(v, None | Some(Value::Null)));
        match &mut self.values {
            ColumnValues::Bool(vals) => vals.push(matches!(v, Some(Value::Bool(true)))),
            ColumnValues::Int(vals) => vals.push(v.and_then(Value::as_int).unwrap_or(0)),
            ColumnValues::Double(vals) => vals.push(v.and_then(Value::as_double).unwrap_or(0.0)),
            ColumnValues::Str { dict, ids } => ids.push(match v {
                Some(Value::Json(j)) => {
                    intern_id(dict, &mut self.intern, &rtdi_common::json::to_string(j))
                }
                _ => NO_TEXT,
            }),
            ColumnValues::Bytes(vals) => vals.push(match v {
                Some(Value::Bytes(b)) => b.clone(),
                _ => Vec::new(),
            }),
        }
    }

    /// Append a string cell without building a [`Value`] around it: what
    /// compaction hands over straight from a raw log's bytes.
    pub(crate) fn push_str(&mut self, s: &str) {
        self.nulls.push(false);
        match &mut self.values {
            ColumnValues::Str { dict, ids } => ids.push(intern_id(dict, &mut self.intern, s)),
            values => push_zero(values),
        }
    }

    /// [`Self::push`] of an integer cell without the [`Value`]: a double
    /// field widens it, as [`Value::as_double`] does.
    pub(crate) fn push_int(&mut self, i: i64) {
        self.nulls.push(false);
        match &mut self.values {
            ColumnValues::Int(vals) => vals.push(i),
            ColumnValues::Double(vals) => vals.push(i as f64),
            values => push_zero(values),
        }
    }

    /// [`Self::push`] of a double cell without the [`Value`]: an integer
    /// field keeps it only when it is integral, as [`Value::as_int`] does.
    pub(crate) fn push_double(&mut self, d: f64) {
        self.nulls.push(false);
        match &mut self.values {
            ColumnValues::Int(vals) => vals.push(if d.fract() == 0.0 { d as i64 } else { 0 }),
            ColumnValues::Double(vals) => vals.push(d),
            values => push_zero(values),
        }
    }

    /// The finished column: the dictionary sorted, the ids rewritten
    /// through the permutation.
    pub(crate) fn finish(mut self) -> Column {
        if let ColumnValues::Str { dict, ids } = &mut self.values {
            let mut order: Vec<u32> = (0..dict.len() as u32).collect();
            order.sort_unstable_by(|&a, &b| dict[a as usize].cmp(&dict[b as usize]));
            let mut new_id = vec![0u32; dict.len()];
            let mut sorted = Vec::with_capacity(dict.len().max(1));
            for (new, &old) in order.iter().enumerate() {
                new_id[old as usize] = new as u32;
                sorted.push(std::mem::take(&mut dict[old as usize]));
            }
            if sorted.is_empty() && !ids.is_empty() {
                // no string at all: one placeholder keeps ids in range
                sorted.push(String::new());
            }
            *dict = sorted;
            for id in ids.iter_mut() {
                *id = if *id == NO_TEXT {
                    0
                } else {
                    new_id[*id as usize]
                };
            }
        }
        Column {
            values: self.values,
            nulls: self.nulls,
        }
    }
}

/// The zero of a column's type: the cell a value it cannot hold becomes.
fn push_zero(values: &mut ColumnValues) {
    match values {
        ColumnValues::Bool(vals) => vals.push(false),
        ColumnValues::Int(vals) => vals.push(0),
        ColumnValues::Double(vals) => vals.push(0.0),
        ColumnValues::Str { ids, .. } => ids.push(NO_TEXT),
        ColumnValues::Bytes(vals) => vals.push(Vec::new()),
    }
}

/// The dictionary id of `s`, entered at the end of `dict` when it is new.
fn intern_id(dict: &mut Vec<String>, intern: &mut HashMap<String, u32>, s: &str) -> u32 {
    if let Some(&id) = intern.get(s) {
        return id;
    }
    let id = dict.len() as u32;
    dict.push(s.to_string());
    intern.insert(s.to_string(), id);
    id
}

/// Build the segfile [`Column`] for one schema field from a row batch.
pub fn column_from_rows(field: &rtdi_common::Field, rows: &[Row]) -> Column {
    let mut col = ColumnBuilder::new(field.field_type);
    for row in rows {
        col.push(row.get(&field.name));
    }
    col.finish()
}

/// Encode a row batch under a schema as a segment file — what the
/// warehouse writers (Hive part files, compaction) emit.
pub fn encode_rows_segment(schema: &Schema, name: &str, rows: &[Row]) -> Result<Bytes> {
    let columns: Vec<Column> = schema
        .fields
        .iter()
        .map(|f| column_from_rows(f, rows))
        .collect();
    let meta = SegmentMeta {
        name: name.to_string(),
        table: schema.name.clone(),
        sorted_col: None,
        nrows: rows.len() as u64,
    };
    encode_segment(&meta, &schema.fields, &columns)
}

/// Decode a full segment file back into `(schema, rows)` — the eager
/// counterpart of [`SegmentFile::open`] + [`SegmentFile::read_rows`].
pub fn decode_rows_segment(data: &Bytes) -> Result<(Schema, Vec<Row>)> {
    SegmentFile::open(data.clone())?.read_rows()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdi_common::Field;

    fn sample_schema() -> Schema {
        Schema::new(
            "orders",
            vec![
                Field::new("id", FieldType::Int),
                Field::new("restaurant", FieldType::Str),
                Field::new("total", FieldType::Double),
                Field::new("delivered", FieldType::Bool),
                Field::new("ts", FieldType::Timestamp),
                Field::new("blob", FieldType::Bytes),
            ],
        )
    }

    fn sample_rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                Row::new()
                    .with("id", i as i64)
                    .with("restaurant", format!("rest-{}", i % 7))
                    .with("total", i as f64 * 1.5)
                    .with("delivered", i % 2 == 0)
                    .with("ts", 1_600_000_000_000i64 + i as i64)
                    .with("blob", Value::Bytes(vec![i as u8; i % 5]))
            })
            .collect()
    }

    #[test]
    fn roundtrip_preserves_rows() {
        let schema = sample_schema();
        let rows = sample_rows(100);
        let data = encode_rows_segment(&schema, "s0", &rows).unwrap();
        let file = SegmentFile::open(data).unwrap();
        assert_eq!(file.meta().name, "s0");
        assert_eq!(file.meta().table, "orders");
        assert_eq!(file.nrows(), 100);
        let (schema2, rows2) = file.read_rows().unwrap();
        assert_eq!(schema2.fields.len(), schema.fields.len());
        for (a, b) in rows.iter().zip(&rows2) {
            for f in &schema.fields {
                assert_eq!(a.get(&f.name), b.get(&f.name), "column {}", f.name);
            }
        }
    }

    #[test]
    fn lazy_column_load_reads_one_column() {
        let schema = sample_schema();
        let rows = sample_rows(64);
        let data = encode_rows_segment(&schema, "s", &rows).unwrap();
        let file = SegmentFile::open(data).unwrap();
        let col = file.column("id").unwrap();
        match &col.values {
            ColumnValues::Int(vals) => {
                assert_eq!(vals.len(), 64);
                assert_eq!(vals[10], 10);
            }
            other => panic!("wrong column type: {other:?}"),
        }
        assert!(matches!(file.column("nope"), Err(Error::NotFound(_))));
    }

    #[test]
    fn zone_maps_record_min_max_and_nulls() {
        let schema = Schema::of("t", &[("n", FieldType::Int), ("city", FieldType::Str)]);
        let rows = vec![
            Row::new().with("n", 5i64).with("city", "sf"),
            Row::new().with("n", -3i64),
            Row::new().with("n", 12i64).with("city", "la"),
        ];
        let data = encode_rows_segment(&schema, "s", &rows).unwrap();
        let file = SegmentFile::open(data).unwrap();
        let n = file.entry("n").unwrap();
        assert_eq!(n.zone.min, Some(ZoneValue::Int(-3)));
        assert_eq!(n.zone.max, Some(ZoneValue::Int(12)));
        assert_eq!(n.zone.null_count, 0);
        let city = file.entry("city").unwrap();
        assert_eq!(city.zone.min, Some(ZoneValue::Str("la".into())));
        assert_eq!(city.zone.max, Some(ZoneValue::Str("sf".into())));
        assert_eq!(city.zone.null_count, 1);
    }

    #[test]
    fn rle_kicks_in_for_low_cardinality() {
        let schema = Schema::of("t", &[("k", FieldType::Int)]);
        let constant: Vec<Row> = (0..10_000).map(|_| Row::new().with("k", 7i64)).collect();
        let data = encode_rows_segment(&schema, "s", &constant).unwrap();
        // 10k constant ints collapse to one run; the remaining bulk is the
        // 1250-byte null bitmap (10k bits), far below 8 bytes per value
        assert!(data.len() < 1400, "RLE ineffective: {} bytes", data.len());
        let (_, rows) = decode_rows_segment(&data).unwrap();
        assert_eq!(rows.len(), 10_000);
        assert!(rows.iter().all(|r| r.get_int("k") == Some(7)));
    }

    #[test]
    fn extreme_int_range_roundtrips() {
        // i64::MAX - i64::MIN overflows i64: the i128 widening must hold
        let schema = Schema::of("t", &[("n", FieldType::Int)]);
        let rows = vec![
            Row::new().with("n", i64::MIN),
            Row::new().with("n", i64::MAX),
            Row::new().with("n", 0i64),
        ];
        let data = encode_rows_segment(&schema, "s", &rows).unwrap();
        let (_, rows2) = decode_rows_segment(&data).unwrap();
        assert_eq!(rows2[0].get_int("n"), Some(i64::MIN));
        assert_eq!(rows2[1].get_int("n"), Some(i64::MAX));
        assert_eq!(rows2[2].get_int("n"), Some(0));
    }

    #[test]
    fn corrupt_bytes_error_cleanly() {
        let schema = sample_schema();
        let rows = sample_rows(20);
        let data = encode_rows_segment(&schema, "s", &rows).unwrap();
        // any single-byte flip must be caught (CRC covers the whole body)
        for pos in [0usize, 4, data.len() / 2, data.len() - 1] {
            let mut bad = data.to_vec();
            bad[pos] ^= 0x40;
            assert!(
                matches!(
                    SegmentFile::open(Bytes::from(bad)).and_then(|f| f.read_rows()),
                    Err(Error::Corruption(_))
                ),
                "flip at {pos} not caught"
            );
        }
        // every truncation point must error, never panic
        for cut in 0..data.len() {
            let t = data.slice(0..cut);
            assert!(
                SegmentFile::open(t).is_err(),
                "truncation at {cut} accepted"
            );
        }
    }

    #[test]
    fn corrupt_header_cannot_force_huge_alloc() {
        // craft a tiny file declaring u64::MAX rows with a valid CRC: the
        // row-count-vs-size check must reject it before any allocation
        let schema = Schema::of("t", &[("n", FieldType::Int)]);
        let data = encode_rows_segment(&schema, "s", &[Row::new().with("n", 1i64)]).unwrap();
        let mut raw = data.to_vec();
        // nrows u64 lives right after magic+version+flags+3 lpstrs+ncols
        let nrows_off = 4 + 2 + 2 + (4 + 1) + (4 + 1) + 4 + 4;
        raw[nrows_off..nrows_off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let len = raw.len();
        let crc = crc32(&raw[..len - 8]);
        raw[len - 8..len - 4].copy_from_slice(&crc.to_le_bytes());
        match SegmentFile::open(Bytes::from(raw)) {
            Err(Error::Corruption(msg)) => assert!(msg.contains("cannot fit"), "{msg}"),
            Err(other) => panic!("wrong error for huge row count: {other}"),
            Ok(_) => panic!("huge row count accepted"),
        }
    }

    #[test]
    fn empty_segment_roundtrips() {
        let schema = sample_schema();
        let data = encode_rows_segment(&schema, "s", &[]).unwrap();
        let file = SegmentFile::open(data).unwrap();
        assert_eq!(file.nrows(), 0);
        let (s2, rows) = file.read_rows().unwrap();
        assert_eq!(s2.fields.len(), schema.fields.len());
        assert!(rows.is_empty());
    }

    #[test]
    fn all_null_string_column_roundtrips() {
        let schema = Schema::of("t", &[("city", FieldType::Str)]);
        let rows = vec![Row::new(), Row::new()];
        let data = encode_rows_segment(&schema, "s", &rows).unwrap();
        let file = SegmentFile::open(data).unwrap();
        assert_eq!(file.entry("city").unwrap().zone.null_count, 2);
        assert_eq!(file.entry("city").unwrap().zone.min, None);
        let (_, rows2) = file.read_rows().unwrap();
        assert!(rows2.iter().all(|r| r.get("city") == Some(&Value::Null)));
    }

    #[test]
    fn open_rejects_foreign_and_short_magic_with_corruption() {
        let schema = Schema::of("t", &[("n", FieldType::Int)]);
        let rows = vec![Row::new().with("n", 1i64)];
        let seg = encode_rows_segment(&schema, "s", &rows).unwrap();
        assert!(SegmentFile::open(seg.clone()).is_ok());
        // same length, foreign head magic: refused before the CRC is read
        let mut foreign = seg.to_vec();
        foreign[..4].copy_from_slice(b"RTC1");
        match SegmentFile::open(foreign.into()) {
            Err(Error::Corruption(msg)) => assert!(msg.contains("magic"), "{msg}"),
            other => panic!("foreign magic not rejected: {:?}", other.map(|_| ())),
        }
        for short in [&b""[..], b"RT", b"RTSG"] {
            assert!(matches!(
                SegmentFile::open(Bytes::copy_from_slice(short)),
                Err(Error::Corruption(_))
            ));
        }
    }

    #[test]
    fn bitpack_roundtrip_various_widths() {
        for bits in [1u32, 3, 7, 13, 31, 64] {
            let max = if bits == 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            };
            let vals: Vec<u64> = (0..100).map(|i| (i * 2654435761u64) % max.max(1)).collect();
            let packed = bitpack(&vals, bits);
            let un = bitunpack(&packed, bits, vals.len());
            assert_eq!(vals, un, "width {bits}");
        }
    }

    /// The bit-at-a-time packer the word-at-a-time one replaced: the
    /// reference for identical bytes.
    fn bitpack_reference(values: &[u64], bits: u32) -> Vec<u8> {
        let mut out = vec![0u8; (values.len() * bits as usize).div_ceil(8)];
        let mut bitpos = 0usize;
        for &v in values {
            for b in 0..bits {
                if (v >> b) & 1 == 1 {
                    out[bitpos / 8] |= 1 << (bitpos % 8);
                }
                bitpos += 1;
            }
        }
        out
    }

    fn bitunpack_reference(data: &[u8], bits: u32, count: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(count);
        let mut bitpos = 0usize;
        for _ in 0..count {
            let mut v = 0u64;
            for b in 0..bits {
                if bitpos / 8 < data.len() && (data[bitpos / 8] >> (bitpos % 8)) & 1 == 1 {
                    v |= 1 << b;
                }
                bitpos += 1;
            }
            out.push(v);
        }
        out
    }

    fn crc32_reference(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 == 1 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    /// SplitMix64, seeded: the buffers repeat run to run.
    fn draws(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn word_kernels_match_the_bitwise_reference_at_every_width() {
        let mut next = draws(0x5E6F11E);
        for bits in 1..=64u32 {
            // lengths around the word and byte boundaries, none special-cased
            for len in [0usize, 1, 2, 3, 7, 8, 9, 13, 63, 64, 65, 100, 257] {
                let vals: Vec<u64> = (0..len).map(|_| next() & low_bits(bits)).collect();
                let packed = bitpack(&vals, bits);
                assert_eq!(
                    packed,
                    bitpack_reference(&vals, bits),
                    "{bits} bits x {len}"
                );
                assert_eq!(bitunpack(&packed, bits, len), vals, "{bits} bits x {len}");
                // a short buffer reads zeros past its end, as before
                let cut = &packed[..packed.len() / 2];
                assert_eq!(
                    bitunpack(cut, bits, len),
                    bitunpack_reference(cut, bits, len),
                    "{bits} bits x {len}, truncated"
                );
            }
        }
    }

    #[test]
    fn crc32_matches_the_bitwise_reference_at_every_length() {
        let mut next = draws(0xC2C32);
        let data: Vec<u8> = (0..1031).map(|_| next() as u8).collect();
        for len in (0..=67).chain([127, 128, 129, 1024, 1031]) {
            // every alignment of the eight-byte steps against the slice
            for start in 0..3.min(data.len() - len + 1) {
                let slice = &data[start..start + len];
                assert_eq!(crc32(slice), crc32_reference(slice), "len {len} at {start}");
            }
        }
    }

    /// The dictionary build `ColumnBuilder` replaced (clone every string,
    /// sort, dedup, binary-search per row): the reference for identical
    /// columns.
    fn string_column_reference(rows: &[Row], name: &str) -> Column {
        let mut nulls = NullMask::new(rows.len());
        for (i, row) in rows.iter().enumerate() {
            if matches!(row.get(name), None | Some(Value::Null)) {
                nulls.set_null(i);
            }
        }
        let texts: Vec<Option<String>> = rows
            .iter()
            .map(|r| match r.get(name) {
                Some(Value::Str(s)) => Some(s.clone()),
                Some(Value::Json(j)) => Some(rtdi_common::json::to_string(j)),
                _ => None,
            })
            .collect();
        let mut dict: Vec<String> = texts.iter().flatten().cloned().collect();
        dict.sort_unstable();
        dict.dedup();
        if dict.is_empty() && !rows.is_empty() {
            dict.push(String::new());
        }
        let ids = texts
            .iter()
            .map(|t| {
                t.as_ref()
                    .map_or(0, |s| dict.binary_search(s).unwrap() as u32)
            })
            .collect();
        Column {
            values: ColumnValues::Str { dict, ids },
            nulls,
        }
    }

    #[test]
    fn interned_dictionary_equals_the_sorted_dedup_reference() {
        let mut next = draws(0xD1C7);
        let field = Field::new("s", FieldType::Str);
        for len in [0usize, 1, 5, 200] {
            for cardinality in [1u64, 3, 50] {
                let rows: Vec<Row> = (0..len)
                    .map(|_| match next() % 8 {
                        0 => Row::new(),
                        1 => Row::new().with("s", Value::Null),
                        // a value of another type: stored as id 0, not NULL
                        2 => Row::new().with("s", 7i64),
                        3 => Row::new().with(
                            "s",
                            Value::Json(Box::new(rtdi_common::json::parse("[1,2]").unwrap())),
                        ),
                        _ => Row::new().with("s", format!("v{:03}", next() % cardinality)),
                    })
                    .collect();
                assert_eq!(
                    column_from_rows(&field, &rows),
                    string_column_reference(&rows, "s"),
                    "{len} rows, {cardinality} values"
                );
            }
        }
    }

    #[test]
    fn read_rows_where_builds_only_what_is_asked() {
        let schema = sample_schema();
        let rows = sample_rows(40);
        let file = SegmentFile::open(encode_rows_segment(&schema, "s", &rows).unwrap()).unwrap();
        let select = ["total".to_string(), "ghost".to_string(), "id".to_string()];
        let got = file
            .read_rows_where(Some(&select), Some(&[39, 3, 3]))
            .unwrap();
        // the order asked for, the file's missing column left out
        let want: Vec<Row> = [39usize, 3, 3]
            .iter()
            .map(|&i| {
                Row::new()
                    .with("total", i as f64 * 1.5)
                    .with("id", i as i64)
            })
            .collect();
        assert_eq!(got, want);
        // no columns at all still yields one row per document
        assert_eq!(
            file.read_rows_where(Some(&[]), None).unwrap(),
            vec![Row::new(); 40]
        );
        assert!(matches!(
            file.read_rows_where(None, Some(&[40])),
            Err(Error::Internal(_))
        ));
    }

    #[test]
    fn bits_for_boundaries() {
        assert_eq!(bits_for(0), 1);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(255), 8);
        assert_eq!(bits_for(256), 9);
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC32 of "123456789" is the classic check value
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn header_bytes_much_smaller_than_file() {
        let schema = sample_schema();
        let rows = sample_rows(2000);
        let data = encode_rows_segment(&schema, "s", &rows).unwrap();
        let file = SegmentFile::open(data).unwrap();
        assert!(
            file.header_bytes() * 10 < file.file_bytes(),
            "header {} vs file {}",
            file.header_bytes(),
            file.file_bytes()
        );
    }

    #[test]
    fn json_column_roundtrips() {
        let schema = Schema::of("t", &[("payload", FieldType::Json)]);
        let j = rtdi_common::json::parse(r#"{"a":{"b":[1,2]}}"#).unwrap();
        let rows = vec![Row::new().with("payload", Value::Json(Box::new(j.clone())))];
        let data = encode_rows_segment(&schema, "s", &rows).unwrap();
        let (_, rows2) = decode_rows_segment(&data).unwrap();
        assert_eq!(rows2[0].get("payload"), Some(&Value::Json(Box::new(j))));
    }
}
