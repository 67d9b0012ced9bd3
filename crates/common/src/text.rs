//! [`Text`]: the string of a [`crate::Value::Str`] cell and of a string
//! column's dictionary entry.
//!
//! A text of up to [`Text::INLINE`] bytes lives in the value itself; a
//! longer one is a `Box<str>`. The dimension ids the pipelines key, group
//! and filter on (a city, a hexagon, a trip id) are short, so a
//! string cell built, cloned, interned or dropped on a per-record path
//! touches no allocator and its text sits beside the cell. The limit is
//! what the layout leaves: the heap form is a 16-byte `Box<str>`, the
//! value is 24 bytes as a `String` was, and the inline form spends one of
//! them on the variant tag and one on the length.
//!
//! A `Text` is a `str` to everything that looks at it: [`Hash`], [`Ord`],
//! [`PartialEq`], [`fmt::Debug`] and [`fmt::Display`] are those of its
//! `str`, so a `HashMap<Text, _>` answers `get(&str)`, a sort orders as
//! `String`s did and a digest taken through `{:?}` reads the same bytes.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// A string of up to [`Text::INLINE`] bytes held inline, or a longer one
/// on the heap. Which form a text takes depends on its length alone, so
/// two equal texts have the same form.
#[derive(Clone)]
pub struct Text(Repr);

#[derive(Clone)]
enum Repr {
    /// `bytes[..len]` is a whole `str`; the rest is zero.
    Inline { len: u8, bytes: [u8; Text::INLINE] },
    /// A text longer than [`Text::INLINE`] bytes.
    Heap(Box<str>),
}

const _: () = assert!(std::mem::size_of::<Text>() == 24);

impl Text {
    /// The longest text held inline, in bytes.
    pub const INLINE: usize = 22;

    /// The empty text.
    pub const fn new() -> Text {
        Text(Repr::Inline {
            len: 0,
            bytes: [0; Text::INLINE],
        })
    }

    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => {
                let bytes = &bytes[..usize::from(*len)];
                debug_assert!(std::str::from_utf8(bytes).is_ok());
                // SAFETY: an inline text is built only by `Text::new` (no
                // bytes) and `Text::inline`, which copies the whole of a
                // `&str` into `bytes[..len]`. The fields are private to
                // this module and nothing writes them after construction,
                // so the slice is that `str`'s bytes: valid UTF-8.
                unsafe { std::str::from_utf8_unchecked(bytes) }
            }
            Repr::Heap(s) => s,
        }
    }

    /// Whether the text lives in the value, not on the heap.
    #[inline]
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }

    /// `s` inline, when it fits.
    #[inline]
    fn inline(s: &str) -> Option<Text> {
        let len = u8::try_from(s.len())
            .ok()
            .filter(|&n| usize::from(n) <= Text::INLINE)?;
        let mut bytes = [0; Text::INLINE];
        bytes[..s.len()].copy_from_slice(s.as_bytes());
        Some(Text(Repr::Inline { len, bytes }))
    }
}

impl Default for Text {
    fn default() -> Text {
        Text::new()
    }
}

impl Deref for Text {
    type Target = str;

    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Text {
    #[inline]
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Text {
    #[inline]
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Text {
    #[inline]
    fn from(s: &str) -> Text {
        Text::inline(s).unwrap_or_else(|| Text(Repr::Heap(s.into())))
    }
}

/// A long `String` keeps its heap text: `into_boxed_str` reallocates
/// only when it has spare capacity.
impl From<String> for Text {
    #[inline]
    fn from(s: String) -> Text {
        Text::inline(&s).unwrap_or_else(|| Text(Repr::Heap(s.into_boxed_str())))
    }
}

impl PartialEq for Text {
    #[inline]
    fn eq(&self, other: &Text) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Text {}

/// As `String` compares with one, so a dictionary compares with a list
/// of literals.
impl PartialEq<&str> for Text {
    #[inline]
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialOrd for Text {
    #[inline]
    fn partial_cmp(&self, other: &Text) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Text {
    #[inline]
    fn cmp(&self, other: &Text) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

/// That of the `str`, so a map keyed by `Text` is probed with a `&str`.
impl Hash for Text {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn the_form_follows_the_length() {
        for n in [0, 1, 11, 21, 22] {
            let s = "x".repeat(n);
            for t in [Text::from(s.as_str()), Text::from(s.clone())] {
                assert!(t.is_inline(), "{n} bytes");
                assert_eq!(t.as_str(), s);
            }
        }
        for n in [23, 24, 64, 1000] {
            let s = "y".repeat(n);
            assert!(!Text::from(s.as_str()).is_inline(), "{n} bytes");
            assert_eq!(Text::from(s.clone()).to_string(), s);
        }
        // a multi-byte char that would end past the limit goes to the heap
        let straddle = format!("{}é", "a".repeat(21));
        assert_eq!(straddle.len(), 23);
        assert!(!Text::from(straddle.as_str()).is_inline());
        assert_eq!(Text::from(straddle.as_str()).as_str(), straddle);
    }

    #[test]
    fn a_text_is_its_str_to_maps_and_formatters() {
        let mut ids: HashMap<Text, u32> = HashMap::new();
        ids.insert("city-007".into(), 7);
        ids.insert("a text longer than twenty-two bytes".into(), 9);
        assert_eq!(ids.get("city-007"), Some(&7));
        assert_eq!(ids.get("a text longer than twenty-two bytes"), Some(&9));
        let t = Text::from("tab\there \"q\"");
        assert_eq!(format!("{t:?}"), format!("{:?}", "tab\there \"q\""));
        assert_eq!(format!("[{:>6}]", Text::from("ab")), "[    ab]");
        let (short, long) = (Text::from("b"), Text::from("abcdefghijklmnopqrstuvwxyz"));
        assert!(short > long, "ordered as str, not by form or length");
        assert_eq!(Text::default().as_str(), "");
    }
}
