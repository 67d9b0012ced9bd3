//! The big-endian codec: one [`Writer`] that encodes and one bounds-checked
//! [`Reader`] over borrowed bytes that decodes.
//!
//! Every persisted big-endian layout — raw logs, audit blocks,
//! accumulators, operator snapshots, key-group frames, checkpoint objects —
//! is written through a [`Writer`] and walked back with a [`Reader`], which
//! reports [`Error::Corruption`] where an unchecked read would panic. A
//! field read is a borrowed slice of the input, so reading one copies
//! nothing and touches no reference count; a decoder that hands a block on
//! as owned [`Bytes`] takes it with [`Reader::owned_block`], a slice of the
//! source buffer. `what` names the field for the message.
//!
//! Every primitive is `#[inline]`: each crate compiles on its own and the
//! release profile has no LTO, so a non-generic function without it is an
//! out-of-line call from every other crate — a call per field.

use crate::error::{Error, Result};
use bytes::Bytes;

/// An append-only big-endian byte layout.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer that allocates once for an encoding of `n` bytes.
    #[inline]
    pub fn with_capacity(n: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(n),
        }
    }

    /// Bytes written so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_be_bytes());
    }

    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_be_bytes());
    }

    #[inline]
    pub fn i64(&mut self, v: i64) {
        self.bytes(&v.to_be_bytes());
    }

    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_be_bytes());
    }

    /// Raw bytes, no length prefix.
    #[inline]
    fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// A `u32` length prefix followed by the bytes: what [`Reader::block`]
    /// reads.
    #[inline]
    pub fn block(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.bytes(b);
    }

    /// A length-prefixed UTF-8 string: what [`Reader::str`] reads.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.block(s.as_bytes());
    }

    /// A block whose bytes `f` writes: a `u32` placeholder, then `f`'s
    /// output, then the placeholder patched to its length. The same bytes
    /// as [`Self::block`] over a buffer of its own, without the buffer.
    #[inline]
    pub fn block_with(&mut self, f: impl FnOnce(&mut Writer)) {
        let at = self.len();
        self.u32(0);
        f(self);
        let len = (self.len() - at - 4) as u32;
        self.buf[at..at + 4].copy_from_slice(&len.to_be_bytes());
    }

    /// The bytes written, as a plain vector.
    #[inline]
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written, without a copy.
    #[inline]
    pub fn into_bytes(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

/// A cursor over a big-endian byte layout.
pub struct Reader<'a> {
    data: &'a [u8],
    at: usize,
}

/// Why a read failed.
enum Bad {
    Truncated,
    Utf8,
    Count(usize),
}

/// The error of a read that failed: built out of line, so an inlined read
/// carries no formatting.
#[cold]
#[inline(never)]
fn corrupt(bad: Bad, what: &str) -> Error {
    Error::Corruption(match bad {
        Bad::Truncated => format!("truncated {what}"),
        Bad::Utf8 => format!("invalid utf8 in {what}"),
        Bad::Count(n) => format!("{what} {n} exceeds remaining bytes"),
    })
}

impl<'a> Reader<'a> {
    #[inline]
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, at: 0 }
    }

    #[inline]
    pub fn remaining(&self) -> usize {
        self.data.len() - self.at
    }

    #[inline]
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(corrupt(Bad::Truncated, what));
        }
        let field = &self.data[self.at..self.at + n];
        self.at += n;
        Ok(field)
    }

    #[inline]
    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N]> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N, what)?);
        Ok(out)
    }

    #[inline]
    pub fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    #[inline]
    pub fn u32(&mut self, what: &str) -> Result<u32> {
        self.array(what).map(u32::from_be_bytes)
    }

    #[inline]
    pub fn u64(&mut self, what: &str) -> Result<u64> {
        self.array(what).map(u64::from_be_bytes)
    }

    #[inline]
    pub fn i64(&mut self, what: &str) -> Result<i64> {
        self.array(what).map(i64::from_be_bytes)
    }

    #[inline]
    pub fn f64(&mut self, what: &str) -> Result<f64> {
        self.array(what).map(f64::from_be_bytes)
    }

    /// A `u32` length prefix followed by that many bytes.
    #[inline]
    pub fn block(&mut self, what: &str) -> Result<&'a [u8]> {
        let len = self.u32(what)? as usize;
        self.take(len, what)
    }

    /// [`Self::block`] handed on as owned bytes: the same range of `src`,
    /// which must be the buffer this reader reads.
    #[inline]
    pub fn owned_block(&mut self, src: &Bytes, what: &str) -> Result<Bytes> {
        debug_assert!(std::ptr::eq(&src[..], self.data));
        let len = self.block(what)?.len();
        Ok(src.slice(self.at - len..self.at))
    }

    /// A length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self, what: &str) -> Result<&'a str> {
        std::str::from_utf8(self.block(what)?).map_err(|_| corrupt(Bad::Utf8, what))
    }

    /// A `u32` element count, rejected when `count * min_each` bytes cannot
    /// be left in the buffer: a corrupt count must fail here, before it
    /// sizes a loop or a `Vec`.
    #[inline]
    pub fn count(&mut self, min_each: usize, what: &str) -> Result<usize> {
        let n = self.u32(what)? as usize;
        if n > self.remaining() / min_each {
            return Err(corrupt(Bad::Count(n), what));
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One of each `Writer` primitive, a block nested in a block among
    /// them, read back in order.
    fn every_primitive() -> Writer {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(9);
        w.u64(u64::MAX - 1);
        w.i64(-3);
        w.f64(-0.5);
        w.str("ok");
        w.block(b"\x00\xff");
        w.block_with(|w| {
            w.i64(i64::MIN);
            w.block_with(|w| w.str("inner"));
            w.block_with(|_| {});
        });
        w.bytes(b"tail");
        w
    }

    fn read_every_primitive(r: &mut Reader) -> Result<()> {
        assert_eq!(r.u8("a")?, 7);
        assert_eq!(r.u32("b")?, 9);
        assert_eq!(r.u64("c")?, u64::MAX - 1);
        assert_eq!(r.i64("d")?, -3);
        assert_eq!(r.f64("e")?.to_bits(), (-0.5f64).to_bits());
        assert_eq!(r.str("f")?, "ok");
        assert_eq!(r.block("g")?, b"\x00\xff");
        let outer = r.block("h")?;
        let mut inner = Reader::new(outer);
        assert_eq!(inner.i64("h.0")?, i64::MIN);
        assert_eq!(Reader::new(inner.block("h.1")?).str("h.1.0")?, "inner");
        assert!(inner.block("h.2")?.is_empty());
        assert_eq!(inner.remaining(), 0);
        assert_eq!(r.array::<4>("i")?, *b"tail");
        Ok(())
    }

    #[test]
    fn every_written_primitive_reads_back() {
        let w = every_primitive();
        let len = w.len();
        let raw = w.into_bytes();
        assert_eq!(raw.len(), len);
        let mut r = Reader::new(&raw);
        read_every_primitive(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        // a nested block is the bytes a block over its own buffer holds
        let mut own = Writer::new();
        own.str("inner");
        let mut nested = Writer::new();
        nested.block_with(|w| w.str("inner"));
        let mut flat = Writer::new();
        flat.block(&own.into_vec());
        assert_eq!(nested.into_vec(), flat.into_vec());
    }

    #[test]
    fn every_cut_of_a_written_buffer_is_corruption() {
        let raw = every_primitive().into_vec();
        for cut in 0..raw.len() {
            let got = read_every_primitive(&mut Reader::new(&raw[..cut]));
            assert!(matches!(got, Err(Error::Corruption(_))), "cut {cut}");
        }
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_left() {
        let mut w = Writer::new();
        w.u32(3);
        w.bytes(&[0; 24]);
        let mut raw = w.into_vec();
        assert_eq!(Reader::new(&raw).count(8, "n"), Ok(3));
        raw.truncate(4 + 23);
        assert!(Reader::new(&raw).count(8, "n").is_err());
        let bad = [0xff, 0xff, 0xff, 0xff, 1, 2];
        assert!(Reader::new(&bad).count(1, "n").is_err());
        // a length prefix past the end, and one that fits but is not UTF-8
        assert!(Reader::new(&bad).block("b").is_err());
        let mut w = Writer::new();
        w.block(&[0xff, 0xfe]);
        assert!(matches!(
            Reader::new(&w.into_vec()).str("s"),
            Err(Error::Corruption(_))
        ));
    }

    #[test]
    fn an_owned_block_is_the_same_range_of_its_source() {
        let mut w = Writer::new();
        w.str("hi");
        w.block(b"");
        let src = w.into_bytes();
        let mut r = Reader::new(&src);
        assert_eq!(&r.owned_block(&src, "a").unwrap()[..], b"hi");
        assert!(r.owned_block(&src, "b").unwrap().is_empty());
        assert!(r.owned_block(&src, "c").is_err());
    }
}
