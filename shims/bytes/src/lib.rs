//! Minimal offline stand-in for the `bytes` crate.
//!
//! Implements the slice of the API this workspace uses: cheaply-cloneable
//! immutable [`Bytes`] views over shared buffers. Big-endian layouts are
//! written and read by `rtdi_common::wire`, not here.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Immutable, cheaply-cloneable byte buffer; [`Bytes::slice`] is a view
/// that shares the underlying allocation.
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

    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(range.start <= range.end && range.end <= self.len());
        Bytes {
            data: self.data.clone(),
            start: self.start + range.start,
            end: self.start + range.end,
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_share_and_compare_by_content() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let tail = b.slice(2..5);
        assert_eq!(tail.to_vec(), vec![3, 4, 5]);
        assert_eq!(tail.slice(1..3).to_vec(), vec![4, 5]);
        assert!(tail.slice(3..3).is_empty());
        assert_eq!(Bytes::from_static(b"ab"), Bytes::from(vec![b'a', b'b']));
    }
}
