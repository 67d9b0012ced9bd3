//! Bounds-checked big-endian reads over [`Bytes`].
//!
//! The `Buf` trait panics on underflow, so every decoder of a persisted
//! big-endian layout — raw logs, operator snapshots, key-group frames,
//! checkpoint objects — reads through these and reports
//! [`Error::Corruption`] instead. `what` names the field for the message.

use crate::error::{Error, Result};
use bytes::{Buf, Bytes};

pub fn get_u8_checked(buf: &mut Bytes, what: &str) -> Result<u8> {
    if buf.remaining() < 1 {
        return Err(Error::Corruption(format!("truncated {what}")));
    }
    Ok(buf.get_u8())
}

pub fn get_u32_checked(buf: &mut Bytes, what: &str) -> Result<u32> {
    if buf.remaining() < 4 {
        return Err(Error::Corruption(format!("truncated {what}")));
    }
    Ok(buf.get_u32())
}

pub fn get_u64_checked(buf: &mut Bytes, what: &str) -> Result<u64> {
    if buf.remaining() < 8 {
        return Err(Error::Corruption(format!("truncated {what}")));
    }
    Ok(buf.get_u64())
}

pub fn get_i64_checked(buf: &mut Bytes, what: &str) -> Result<i64> {
    if buf.remaining() < 8 {
        return Err(Error::Corruption(format!("truncated {what}")));
    }
    Ok(buf.get_i64())
}

pub fn get_f64_checked(buf: &mut Bytes, what: &str) -> Result<f64> {
    if buf.remaining() < 8 {
        return Err(Error::Corruption(format!("truncated {what}")));
    }
    Ok(buf.get_f64())
}

pub fn split_checked(buf: &mut Bytes, n: usize, what: &str) -> Result<Bytes> {
    if buf.remaining() < n {
        return Err(Error::Corruption(format!("truncated {what}")));
    }
    Ok(buf.split_to(n))
}

/// A `u32` length prefix followed by that many bytes.
pub fn get_block_checked(buf: &mut Bytes, what: &str) -> Result<Bytes> {
    let len = get_u32_checked(buf, what)? as usize;
    split_checked(buf, len, what)
}

/// A length-prefixed UTF-8 string.
pub fn get_str_checked(buf: &mut Bytes, what: &str) -> Result<String> {
    String::from_utf8(get_block_checked(buf, what)?.to_vec())
        .map_err(|_| Error::Corruption(format!("invalid utf8 in {what}")))
}

/// A `u32` element count, rejected when `count * min_each` bytes cannot be
/// left in the buffer: a corrupt count must fail here, before it sizes a
/// loop or a `Vec`.
pub fn get_count_checked(buf: &mut Bytes, min_each: usize, what: &str) -> Result<usize> {
    let n = get_u32_checked(buf, what)? as usize;
    if n > buf.remaining() / min_each {
        return Err(Error::Corruption(format!(
            "{what} {n} exceeds remaining bytes"
        )));
    }
    Ok(n)
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
        let full = Bytes::from(raw);
        let mut buf = full.clone();
        assert_eq!(get_u8_checked(&mut buf, "a").unwrap(), 7);
        assert_eq!(get_u32_checked(&mut buf, "b").unwrap(), 9);
        assert_eq!(get_i64_checked(&mut buf, "c").unwrap(), -3);
        assert_eq!(get_str_checked(&mut buf, "d").unwrap(), "ok");
        assert!(buf.is_empty());
        for cut in 0..full.len() {
            let mut buf = full.slice(0..cut);
            let r = get_u8_checked(&mut buf, "a")
                .and_then(|_| get_u32_checked(&mut buf, "b"))
                .and_then(|_| get_i64_checked(&mut buf, "c"))
                .and_then(|_| get_str_checked(&mut buf, "d"));
            assert!(matches!(r, Err(Error::Corruption(_))), "cut {cut}");
        }
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_left() {
        let mut raw = Vec::new();
        raw.put_u32(3);
        raw.extend_from_slice(&[0; 24]);
        assert_eq!(
            get_count_checked(&mut Bytes::from(raw.clone()), 8, "n"),
            Ok(3)
        );
        raw.truncate(4 + 23);
        assert!(get_count_checked(&mut Bytes::from(raw), 8, "n").is_err());
        let mut bad = Bytes::from_static(&[0xff, 0xff, 0xff, 0xff, 1, 2]);
        assert!(get_count_checked(&mut bad, 1, "n").is_err());
        let mut bad = Bytes::from_static(&[0, 0, 0, 2, 0xff]);
        assert!(matches!(
            get_str_checked(&mut bad, "s"),
            Err(Error::Corruption(_))
        ));
    }
}
