//! Minimal offline stand-in for the `bytes` crate.
//!
//! Implements the slice of the API this workspace uses: cheaply-cloneable
//! immutable [`Bytes`] views over shared buffers, a growable [`BytesMut`],
//! and big-endian [`Buf`]/[`BufMut`] codec methods. Like the real crate,
//! reads past the end of a buffer panic; callers bound their reads with
//! [`Buf::remaining`].

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Immutable, cheaply-cloneable byte buffer. Reading via [`Buf`] advances
/// the view in place; [`Bytes::split_to`] splits off a prefix that shares
/// the underlying allocation.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Split off the first `n` bytes, leaving the remainder in `self`.
    pub fn split_to(&mut self, n: usize) -> Bytes {
        assert!(
            n <= self.len(),
            "split_to out of bounds: {n} > {}",
            self.len()
        );
        let head = Bytes {
            data: self.data.clone(),
            start: self.start,
            end: self.start + n,
        };
        self.start += n;
        head
    }

    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(range.start <= range.end && range.end <= self.len());
        Bytes {
            data: self.data.clone(),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    fn take(&mut self, n: usize) -> &[u8] {
        assert!(
            n <= self.len(),
            "buffer underflow: need {n}, have {}",
            self.len()
        );
        let s = &self.data[self.start..self.start + n];
        self.start += n;
        s
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        let end = data.len();
        Bytes {
            data: Arc::new(data),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            write!(f, "\\x{b:02x}")?;
        }
        write!(f, "\"")
    }
}

/// Growable byte buffer; freeze into [`Bytes`] when done writing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }

    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.data.extend_from_slice(s);
    }

    pub fn clear(&mut self) {
        self.data.clear();
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

/// Big-endian read cursor.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn copy_to_bytes(&mut self, n: usize) -> Bytes;

    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    fn get_u8(&mut self) -> u8 {
        self.copy_to_bytes(1).as_slice()[0]
    }

    fn get_u32(&mut self) -> u32 {
        u32::from_be_bytes(self.copy_to_bytes(4).as_slice().try_into().unwrap())
    }

    fn get_u64(&mut self) -> u64 {
        u64::from_be_bytes(self.copy_to_bytes(8).as_slice().try_into().unwrap())
    }

    fn get_i64(&mut self) -> i64 {
        i64::from_be_bytes(self.copy_to_bytes(8).as_slice().try_into().unwrap())
    }

    fn get_f64(&mut self) -> f64 {
        f64::from_be_bytes(self.copy_to_bytes(8).as_slice().try_into().unwrap())
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn copy_to_bytes(&mut self, n: usize) -> Bytes {
        Bytes::from(self.take(n).to_vec())
    }

    fn get_u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    fn get_u32(&mut self) -> u32 {
        u32::from_be_bytes(self.take(4).try_into().unwrap())
    }

    fn get_u64(&mut self) -> u64 {
        u64::from_be_bytes(self.take(8).try_into().unwrap())
    }

    fn get_i64(&mut self) -> i64 {
        i64::from_be_bytes(self.take(8).try_into().unwrap())
    }

    fn get_f64(&mut self) -> f64 {
        f64::from_be_bytes(self.take(8).try_into().unwrap())
    }
}

/// Big-endian writer.
pub trait BufMut {
    fn put_slice(&mut self, s: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }

    fn put_i64(&mut self, v: i64) {
        self.put_slice(&v.to_be_bytes());
    }

    fn put_f64(&mut self, v: f64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, s: &[u8]) {
        self.data.extend_from_slice(s);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_widths() {
        let mut w = BytesMut::with_capacity(64);
        w.put_u8(7);
        w.put_u32(42);
        w.put_u64(1 << 40);
        w.put_i64(-5);
        w.put_f64(2.5);
        w.put_slice(b"tail");
        let mut r = w.freeze();
        assert_eq!(r.remaining(), 1 + 4 + 8 + 8 + 8 + 4);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u32(), 42);
        assert_eq!(r.get_u64(), 1 << 40);
        assert_eq!(r.get_i64(), -5);
        assert_eq!(r.get_f64(), 2.5);
        assert_eq!(r.split_to(4).to_vec(), b"tail");
        assert!(!r.has_remaining());
    }

    #[test]
    fn split_shares_and_advances() {
        let mut b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let head = b.split_to(2);
        assert_eq!(head.to_vec(), vec![1, 2]);
        assert_eq!(b.to_vec(), vec![3, 4, 5]);
        assert_eq!(b.slice(1..3).to_vec(), vec![4, 5]);
        assert_eq!(Bytes::from_static(b"ab"), Bytes::from(vec![b'a', b'b']));
    }

    #[test]
    #[should_panic(expected = "buffer underflow")]
    fn read_past_end_panics() {
        let mut b = Bytes::from(vec![1u8]);
        let _ = b.get_u32();
    }
}
