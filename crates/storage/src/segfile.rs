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

use crate::bitmap::Bitmap;
use crate::column::{int_blocks, ColumnData};
use bytes::Bytes;
use rtdi_common::{Error, FieldType, Result, Row, Schema, Value};
use std::sync::{Arc, OnceLock};

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
    /// Column the rows are physically sorted by, if any: NULL first, then
    /// [`ColumnData::cmp_docs`] order. Readers binary-search it, so the
    /// decoder refuses the column when its rows break the claim.
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

/// Write `vals` as `(run_len u32, value)` pairs, one per run, straight
/// from the slice: a sorted column's runs are many.
fn write_runs<T: PartialEq + Copy>(
    w: &mut Writer,
    vals: &[T],
    mut value: impl FnMut(&mut Writer, T),
) {
    for run in vals.chunk_by(|a, b| a == b) {
        w.u32(run.len() as u32);
        value(w, run[0]);
    }
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
        w.u32(nruns as u32);
        write_runs(w, vals, Writer::i64);
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
        w.u32(nruns as u32);
        write_runs(w, &bits, Writer::u64);
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
        w.u32(nruns as u32);
        write_runs(w, ids, Writer::u32);
    } else {
        w.u8(ENC_PACKED);
        w.u8(width as u8);
        let wide: Vec<u64> = ids.iter().map(|&id| id as u64).collect();
        let packed = bitpack(&wide, width);
        w.u32(packed.len() as u32);
        w.slice(&packed);
    }
}

/// Encode one sealed column's block; returns the zone map computed from
/// the data.
fn encode_column_block(w: &mut Writer, col: &ColumnData) -> Result<ZoneMap> {
    let nulls = col.nulls();
    let nrows = nulls.len();
    let null_bytes = nulls.to_bytes();
    w.u32(null_bytes.len() as u32);
    w.slice(&null_bytes);
    let live = |d: &usize| !nulls.get(*d);
    let mut zone = ZoneMap {
        min: None,
        max: None,
        null_count: nulls.count() as u64,
    };
    match col {
        ColumnData::Bool { values, .. } => {
            let bits = values.to_bytes();
            w.u32(bits.len() as u32);
            w.slice(&bits);
            let live = (0..nrows).filter(live).map(|d| values.get(d));
            if let (Some(mn), Some(mx)) = (live.clone().min(), live.max()) {
                zone.min = Some(ZoneValue::Bool(mn));
                zone.max = Some(ZoneValue::Bool(mx));
            }
        }
        ColumnData::Int { values, .. } => {
            encode_int_block(w, values);
            if let Some((mn, mx)) = col.int_range() {
                zone.min = Some(ZoneValue::Int(mn));
                zone.max = Some(ZoneValue::Int(mx));
            }
        }
        ColumnData::Double { values, .. } => {
            encode_double_block(w, values);
            // ordered as `Value::total_cmp` orders cells: a NaN above +inf
            // or below -inf by its sign, -0.0 below 0.0
            let live = (0..nrows).filter(live).map(|d| values[d]);
            let mn = live.clone().min_by(f64::total_cmp);
            if let (Some(mn), Some(mx)) = (mn, live.max_by(f64::total_cmp)) {
                zone.min = Some(ZoneValue::Double(mn));
                zone.max = Some(ZoneValue::Double(mx));
            }
        }
        ColumnData::Str { dict, ids, .. } => {
            if dict.windows(2).any(|win| win[0] >= win[1]) {
                return Err(Error::Internal("segment dictionary not sorted".into()));
            }
            // the format requires a dictionary whenever rows exist: an
            // all-NULL column writes one placeholder entry
            let placeholder = [String::new()];
            let dict = if dict.is_empty() && nrows > 0 {
                &placeholder[..]
            } else {
                &dict[..]
            };
            if let Some(&bad) = ids.iter().find(|&&id| id as usize >= dict.len()) {
                return Err(Error::Internal(format!("dict id {bad} out of range")));
            }
            w.u32(dict.len() as u32);
            for s in dict {
                w.lpstr(s);
            }
            encode_id_block(w, ids, dict.len());
            let live = (0..nrows).filter(live).map(|d| ids[d]);
            if let (Some(mn), Some(mx)) = (live.clone().min(), live.max()) {
                zone.min = Some(ZoneValue::Str(dict[mn as usize].clone()));
                zone.max = Some(ZoneValue::Str(dict[mx as usize].clone()));
            }
        }
        ColumnData::Bytes { values, .. } => {
            for v in values {
                w.u32(v.len() as u32);
                w.slice(v);
            }
            // raw bytes carry no ordered zone statistics
        }
    }
    Ok(zone)
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
/// map, CRC32-checked footer. `fields[i]` describes `columns[i]`, a sealed
/// column of its type; every column must have exactly `meta.nrows` rows.
pub fn encode_segment(
    meta: &SegmentMeta,
    fields: &[rtdi_common::Field],
    columns: &[impl std::borrow::Borrow<ColumnData>],
) -> Result<Bytes> {
    if fields.len() != columns.len() {
        return Err(Error::Internal(format!(
            "{} fields but {} columns",
            fields.len(),
            columns.len()
        )));
    }
    for (f, c) in fields.iter().zip(columns) {
        let c = c.borrow();
        let kind = std::mem::discriminant(&ColumnData::new(f.field_type));
        let rows = [c.len(), c.nulls().len()];
        if kind != std::mem::discriminant(c) || rows.iter().any(|&n| n as u64 != meta.nrows) {
            return Err(Error::Internal(format!(
                "column '{}' is not a {:?} column of {} rows",
                f.name, f.field_type, meta.nrows
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
        let zone = encode_column_block(&mut w, c.borrow())?;
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
    /// Decoded columns, parallel to `entries`: each decodes at most once,
    /// and every reader of the file shares it.
    columns: Vec<OnceLock<Arc<ColumnData>>>,
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
            columns: entries.iter().map(|_| OnceLock::new()).collect(),
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

    /// How many columns have been decoded so far.
    pub fn columns_loaded(&self) -> usize {
        self.columns.iter().filter(|c| c.get().is_some()).count()
    }

    /// File bytes touched so far: the header plus every decoded column's
    /// block.
    pub fn bytes_loaded(&self) -> usize {
        let decoded = self.entries.iter().zip(&self.columns);
        let blocks = decoded.filter(|(_, c)| c.get().is_some());
        self.header_bytes + blocks.map(|(e, _)| e.len as usize).sum::<usize>()
    }

    /// A single column by name, decoded on first use without touching any
    /// other column.
    pub fn column(&self, name: &str) -> Result<Arc<ColumnData>> {
        let idx = self
            .entries
            .iter()
            .position(|e| e.name == name)
            .ok_or_else(|| Error::NotFound(format!("segment column '{name}'")))?;
        self.column_at(idx)
    }

    /// The column at index-map position `idx`, decoded on first use. The
    /// column the file claims to be sorted by is checked then, once: rows
    /// out of that order are [`Error::Corruption`].
    pub fn column_at(&self, idx: usize) -> Result<Arc<ColumnData>> {
        let (entry, slot) = self
            .entries
            .iter()
            .zip(&self.columns)
            .nth(idx)
            .ok_or_else(|| Error::NotFound(format!("segment column #{idx}")))?;
        if let Some(col) = slot.get() {
            return Ok(Arc::clone(col));
        }
        let start = entry.offset as usize;
        let block = &self.data.as_slice()[start..start + entry.len as usize];
        let claimed = self.meta.sorted_col.as_deref() == Some(entry.name.as_str());
        let col = decode_column_block(block, entry.field_type, self.nrows())
            .and_then(|col| {
                if claimed && !col.is_sorted() {
                    return Err(Error::Corruption(
                        "rows are not in the order the file claims".into(),
                    ));
                }
                Ok(col)
            })
            .map_err(|e| match e {
                Error::Corruption(msg) => {
                    Error::Corruption(format!("column '{}': {msg}", entry.name))
                }
                other => other,
            })?;
        Ok(Arc::clone(slot.get_or_init(|| Arc::new(col))))
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
                Arc::<str>::from(e.name.as_str()),
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

/// Decode one column block straight into its sealed [`ColumnData`]: the
/// NULL and Bool bits become bitmap words, an Int column's blocks are
/// built from the values decoded.
fn decode_column_block(block: &[u8], ftype: FieldType, nrows: usize) -> Result<ColumnData> {
    let mut r = Reader::new(block);
    let bm_len = r.u32("null bitmap length")? as usize;
    let bm = r.bytes(bm_len, "null bitmap")?;
    if bm_len != nrows.div_ceil(8) {
        return Err(Error::Corruption(format!(
            "null bitmap length {bm_len} does not cover {nrows} rows"
        )));
    }
    let nulls = Bitmap::from_bytes(bm, nrows);
    let col = match ftype {
        FieldType::Bool => {
            let plen = r.u32("bool packed length")? as usize;
            if plen != nrows.div_ceil(8) {
                return Err(Error::Corruption(format!(
                    "bool packed length {plen} != expected for {nrows} rows"
                )));
            }
            let values = Bitmap::from_bytes(r.bytes(plen, "bool packed data")?, nrows);
            ColumnData::Bool { values, nulls }
        }
        FieldType::Int | FieldType::Timestamp => {
            let values = decode_int_block(&mut r, nrows)?;
            ColumnData::Int {
                blocks: int_blocks(&values, &nulls),
                values,
                nulls,
            }
        }
        FieldType::Double => {
            let values = match r.u8("double encoding tag")? {
                ENC_PACKED => {
                    let raw = r.bytes(nrows * 8, "double data")?;
                    raw.chunks_exact(8)
                        .map(|c| {
                            let mut bits = [0u8; 8];
                            bits.copy_from_slice(c);
                            f64::from_bits(u64::from_le_bytes(bits))
                        })
                        .collect()
                }
                ENC_RLE => decode_rle(&mut r, nrows, "double", |r| r.u64("double run value"))?
                    .into_iter()
                    .map(f64::from_bits)
                    .collect(),
                t => {
                    return Err(Error::Corruption(format!(
                        "unknown double encoding tag {t}"
                    )))
                }
            };
            ColumnData::Double { values, nulls }
        }
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
            ColumnData::Str {
                dict,
                ids,
                nulls,
                intern: None,
                json: ftype == FieldType::Json,
            }
        }
        FieldType::Bytes => {
            let mut values = Vec::with_capacity(nrows.min(1 << 20));
            for _ in 0..nrows {
                let len = r.u32("bytes value length")? as usize;
                values.push(r.bytes(len, "bytes value")?.to_vec());
            }
            ColumnData::Bytes { values, nulls }
        }
    };
    if r.remaining() != 0 {
        return Err(Error::Corruption(format!(
            "{} trailing bytes after column block",
            r.remaining()
        )));
    }
    Ok(col)
}

/// One cell of a decoded column as a [`Value`] of its field's type: a
/// JSON cell parsed back from its dictionary text.
fn cell_value(col: &ColumnData, ftype: FieldType, doc: usize) -> Result<Value> {
    Ok(match col.value_at(doc) {
        Value::Str(s) if ftype == FieldType::Json => {
            Value::Json(Box::new(rtdi_common::json::parse(&s).map_err(|_| {
                Error::Corruption(format!("invalid json in dictionary: {s}"))
            })?))
        }
        cell => cell,
    })
}

// ---------------------------------------------------------------------
// Row-batch convenience encoder (warehouse part files).
// ---------------------------------------------------------------------

/// Encode a row batch under a schema as a segment file — what the
/// warehouse's direct writer emits: each field's column built by one
/// [`ColumnData::push`] per row and one [`ColumnData::seal`].
pub fn encode_rows_segment(schema: &Schema, name: &str, rows: &[Row]) -> Result<Bytes> {
    let column = |f: &rtdi_common::Field| {
        let mut col = ColumnData::new(f.field_type);
        rows.iter().for_each(|row| col.push(row.get(&f.name)));
        col.seal();
        col
    };
    let columns: Vec<ColumnData> = schema.fields.iter().map(column).collect();
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
        match col.as_ref() {
            ColumnData::Int { values, .. } => {
                assert_eq!(values.len(), 64);
                assert_eq!(values[10], 10);
            }
            other => panic!("wrong column type: {other:?}"),
        }
        assert_eq!(
            (file.columns_loaded(), file.bytes_loaded()),
            (1, {
                file.header_bytes() + file.entry("id").unwrap().len as usize
            })
        );
        // a second reader shares the decoded column
        assert!(Arc::ptr_eq(&col, &file.column("id").unwrap()));
        assert_eq!(file.columns_loaded(), 1);
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

    /// The dictionary build interning replaced (clone every string, sort,
    /// dedup, binary-search per row): the reference for identical
    /// dictionaries and ids. A cell a Str field refuses is NULL.
    fn string_column_reference(rows: &[Row], name: &str) -> (Vec<String>, Vec<u32>, Vec<bool>) {
        let texts: Vec<Option<String>> = rows
            .iter()
            .map(|r| match r.get(name) {
                Some(Value::Str(s)) => Some(s.clone()),
                _ => None,
            })
            .collect();
        let mut dict: Vec<String> = texts.iter().flatten().cloned().collect();
        dict.sort_unstable();
        dict.dedup();
        let ids = texts
            .iter()
            .map(|t| {
                t.as_ref()
                    .map_or(0, |s| dict.binary_search(s).unwrap() as u32)
            })
            .collect();
        (dict, ids, texts.iter().map(Option::is_none).collect())
    }

    #[test]
    fn interned_dictionary_equals_the_sorted_dedup_reference() {
        let mut next = draws(0xD1C7);
        for len in [0usize, 1, 5, 200] {
            for cardinality in [1u64, 3, 50] {
                let rows: Vec<Row> = (0..len)
                    .map(|_| match next() % 8 {
                        0 => Row::new(),
                        1 => Row::new().with("s", Value::Null),
                        // a value of another type: NULL
                        2 => Row::new().with("s", 7i64),
                        3 => Row::new().with(
                            "s",
                            Value::Json(Box::new(rtdi_common::json::parse("[1,2]").unwrap())),
                        ),
                        _ => Row::new().with("s", format!("v{:03}", next() % cardinality)),
                    })
                    .collect();
                let mut col = ColumnData::new(FieldType::Str);
                rows.iter().for_each(|r| col.push(r.get("s")));
                col.seal();
                let ColumnData::Str {
                    dict, ids, nulls, ..
                } = &col
                else {
                    panic!("not a string column");
                };
                let nulls = (0..len).map(|d| nulls.get(d)).collect();
                assert_eq!(
                    (dict.clone(), ids.clone(), nulls),
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
