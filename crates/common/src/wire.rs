//! Bounds-checked big-endian reads over borrowed bytes.
//!
//! Every decoder of a persisted big-endian layout — raw logs, audit
//! blocks, accumulators, operator snapshots, key-group frames, checkpoint
//! objects — walks its input with one [`Reader`], which reports
//! [`Error::Corruption`] where a `Buf` read would panic. A field is a
//! borrowed slice of the input, so reading one copies nothing and touches
//! no reference count; a decoder that hands a block on as owned [`Bytes`]
//! takes it with [`Reader::owned_block`], a slice of the source buffer.
//! `what` names the field for the message.

use crate::error::{Error, Result};
use bytes::Bytes;

/// A cursor over a big-endian byte layout.
pub struct Reader<'a> {
    data: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, at: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.data.len() - self.at
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(Error::Corruption(format!("truncated {what}")));
        }
        let field = &self.data[self.at..self.at + n];
        self.at += n;
        Ok(field)
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N]> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N, what)?);
        Ok(out)
    }

    pub fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    pub fn u32(&mut self, what: &str) -> Result<u32> {
        self.array(what).map(u32::from_be_bytes)
    }

    pub fn u64(&mut self, what: &str) -> Result<u64> {
        self.array(what).map(u64::from_be_bytes)
    }

    pub fn i64(&mut self, what: &str) -> Result<i64> {
        self.array(what).map(i64::from_be_bytes)
    }

    pub fn f64(&mut self, what: &str) -> Result<f64> {
        self.array(what).map(f64::from_be_bytes)
    }

    /// A `u32` length prefix followed by that many bytes.
    pub fn block(&mut self, what: &str) -> Result<&'a [u8]> {
        let len = self.u32(what)? as usize;
        self.take(len, what)
    }

    /// [`Self::block`] handed on as owned bytes: the same range of `src`,
    /// which must be the buffer this reader reads.
    pub fn owned_block(&mut self, src: &Bytes, what: &str) -> Result<Bytes> {
        debug_assert!(std::ptr::eq(&src[..], self.data));
        let len = self.block(what)?.len();
        Ok(src.slice(self.at - len..self.at))
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &str) -> Result<&'a str> {
        std::str::from_utf8(self.block(what)?)
            .map_err(|_| Error::Corruption(format!("invalid utf8 in {what}")))
    }

    /// A `u32` element count, rejected when `count * min_each` bytes cannot
    /// be left in the buffer: a corrupt count must fail here, before it
    /// sizes a loop or a `Vec`.
    pub fn count(&mut self, min_each: usize, what: &str) -> Result<usize> {
        let n = self.u32(what)? as usize;
        if n > self.remaining() / min_each {
            return Err(Error::Corruption(format!(
                "{what} {n} exceeds remaining bytes"
            )));
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BufMut;

    #[test]
    fn reads_advance_and_underflow_is_corruption() {
        let mut raw = Vec::new();
        raw.put_u8(7);
        raw.put_u32(9);
        raw.put_i64(-3);
        raw.put_u32(2);
        raw.extend_from_slice(b"ok");
        raw.put_f64(-0.5);
        let mut r = Reader::new(&raw);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u32("b").unwrap(), 9);
        assert_eq!(r.i64("c").unwrap(), -3);
        assert_eq!(r.str("d").unwrap(), "ok");
        assert_eq!(r.remaining(), 8);
        assert_eq!(r.f64("e").unwrap(), -0.5);
        assert_eq!(r.remaining(), 0);
        for cut in 0..raw.len() {
            let mut r = Reader::new(&raw[..cut]);
            let got = r
                .u8("a")
                .and_then(|_| r.u32("b"))
                .and_then(|_| r.i64("c"))
                .and_then(|_| r.str("d"))
                .and_then(|_| r.f64("e"));
            assert!(matches!(got, Err(Error::Corruption(_))), "cut {cut}");
        }
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_left() {
        let mut raw = Vec::new();
        raw.put_u32(3);
        raw.extend_from_slice(&[0; 24]);
        assert_eq!(Reader::new(&raw).count(8, "n"), Ok(3));
        raw.truncate(4 + 23);
        assert!(Reader::new(&raw).count(8, "n").is_err());
        let bad = [0xff, 0xff, 0xff, 0xff, 1, 2];
        assert!(Reader::new(&bad).count(1, "n").is_err());
        // a length prefix past the end, and one that fits but is not UTF-8
        assert!(Reader::new(&bad).block("b").is_err());
        let bad = [0, 0, 0, 2, 0xff, 0xfe];
        assert!(matches!(
            Reader::new(&bad).str("s"),
            Err(Error::Corruption(_))
        ));
    }

    #[test]
    fn an_owned_block_is_the_same_range_of_its_source() {
        let src = Bytes::from(vec![0, 0, 0, 2, b'h', b'i', 0, 0, 0, 0]);
        let mut r = Reader::new(&src);
        assert_eq!(&r.owned_block(&src, "a").unwrap()[..], b"hi");
        assert!(r.owned_block(&src, "b").unwrap().is_empty());
        assert!(r.owned_block(&src, "c").is_err());
    }
}
