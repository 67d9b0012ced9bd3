//! Dense bitset over document ids.
//!
//! A decoded column's NULL mask and Bool values are one of these (see
//! [`crate::column`]), and so is the workhorse of OLAP index evaluation:
//! inverted-index posting lists, range buckets, upsert valid-doc sets and
//! filter intersection all operate on them. A simple `Vec<u64>` block
//! representation is plenty for segment-sized doc counts (Pinot uses
//! roaring bitmaps for the same role). The per-bit and per-word methods
//! are `#[inline]`: the OLAP kernels call them per document from another
//! crate.

/// A fixed-capacity dense bitmap.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bitmap {
    blocks: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// All-zeros bitmap for `len` documents.
    pub fn new(len: usize) -> Self {
        Bitmap {
            blocks: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// All-ones bitmap for `len` documents.
    pub fn full(len: usize) -> Self {
        let mut bm = Bitmap {
            blocks: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        bm.clear_tail();
        bm
    }

    fn clear_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.blocks.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.blocks[i / 64] |= 1 << (i % 64);
    }

    #[inline]
    pub fn unset(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.blocks[i / 64] &= !(1 << (i % 64));
    }

    #[inline]
    pub fn get(&self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        self.blocks[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of set bits.
    #[inline]
    pub fn count(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Is any bit set? Stops at the first set word.
    #[inline]
    pub fn any(&self) -> bool {
        self.blocks.iter().any(|&b| b != 0)
    }

    /// In-place intersection.
    #[inline]
    pub fn and_with(&mut self, other: &Bitmap) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= b;
        }
    }

    /// In-place union.
    #[inline]
    pub fn or_with(&mut self, other: &Bitmap) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a |= b;
        }
    }

    /// In-place difference: clear every bit that is set in `other`.
    #[inline]
    pub fn and_not(&mut self, other: &Bitmap) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= !b;
        }
    }

    /// Visit every maximal run of consecutive set bits as `(start, end)`
    /// half-open doc-id ranges. Batch kernels iterate runs instead of
    /// individual bits so dense selections cost one callback per run, not
    /// one branch per document.
    pub fn for_each_run(&self, mut f: impl FnMut(usize, usize)) {
        let mut run_start: Option<usize> = None;
        for (bi, &block) in self.blocks.iter().enumerate() {
            if block == u64::MAX {
                if run_start.is_none() {
                    run_start = Some(bi * 64);
                }
                continue;
            }
            let base = bi * 64;
            let mut pos = 0usize;
            while pos < 64 {
                let chunk = block >> pos;
                if let Some(start) = run_start {
                    // inside a run: find the next zero bit
                    let zeros = (!chunk).trailing_zeros() as usize;
                    if zeros + pos >= 64 {
                        break; // run continues into the next block
                    }
                    pos += zeros;
                    run_start = None;
                    f(start, base + pos);
                } else {
                    if chunk == 0 {
                        break;
                    }
                    pos += chunk.trailing_zeros() as usize;
                    run_start = Some(base + pos);
                }
            }
        }
        if let Some(start) = run_start {
            f(start, self.len);
        }
    }

    /// Append the ids of all set bits to `out` (ascending). The caller
    /// reuses `out` across segments to avoid reallocating per scan.
    pub fn collect_into(&self, out: &mut Vec<u32>) {
        out.reserve(self.count());
        for (bi, &block) in self.blocks.iter().enumerate() {
            let mut word = block;
            let base = (bi * 64) as u32;
            while word != 0 {
                out.push(base + word.trailing_zeros());
                word &= word - 1;
            }
        }
    }

    /// In-place complement.
    pub fn not_inplace(&mut self) {
        for b in &mut self.blocks {
            *b = !*b;
        }
        self.clear_tail();
    }

    /// Grow capacity to `len` (new bits zero).
    pub fn resize(&mut self, len: usize) {
        self.len = len;
        self.blocks.resize(len.div_ceil(64), 0);
        self.clear_tail();
    }

    /// Append one bit (consuming segments grow their bitmaps per row).
    #[inline]
    pub fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(64) {
            self.blocks.push(0);
        }
        self.len += 1;
        if bit {
            self.set(self.len - 1);
        }
    }

    /// Set the bit of every doc in `[from, to)` that `test` accepts and
    /// `except` does not hold. Bits are gathered into whole words, so a
    /// scan kernel pays one store per 64 docs instead of one per match.
    /// `test` runs on excepted docs too (the mask is applied per word), so
    /// it must be defined for every doc in the range.
    pub fn set_where(
        &mut self,
        from: usize,
        to: usize,
        except: &Bitmap,
        test: impl Fn(usize) -> bool,
    ) {
        debug_assert!(to <= self.len && self.len == except.len);
        let mut doc = from;
        while doc < to {
            let end = (doc / 64 * 64 + 64).min(to);
            let mut word = 0u64;
            for d in doc..end {
                word |= (test(d) as u64) << (d % 64);
            }
            self.blocks[doc / 64] |= word & !except.blocks[doc / 64];
            doc = end;
        }
    }

    /// Iterate over set bit positions.
    pub fn iter(&self) -> BitmapIter<'_> {
        BitmapIter {
            bitmap: self,
            block_idx: 0,
            current: self.blocks.first().copied().unwrap_or(0),
        }
    }

    /// Set bits in `[from, to)`, a whole word at a time.
    #[inline]
    pub fn set_range(&mut self, from: usize, to: usize) {
        self.fill(from, to, |_| u64::MAX);
    }

    /// Set the bits in `[from, to)` that `except` does not hold, a whole
    /// word at a time.
    #[inline]
    pub fn set_range_except(&mut self, from: usize, to: usize, except: &Bitmap) {
        debug_assert_eq!(self.len, except.len);
        self.fill(from, to, |w| !except.blocks[w]);
    }

    /// OR `word(w)` into every word `w` of `[from, to)`, masked to the
    /// range at its two ends.
    fn fill(&mut self, from: usize, to: usize, word: impl Fn(usize) -> u64) {
        let to = to.min(self.len);
        if from >= to {
            return;
        }
        let (first, last) = (from / 64, (to - 1) / 64);
        for w in first..=last {
            let mut mask = word(w);
            if w == first {
                mask &= u64::MAX << (from % 64);
            }
            if w == last {
                mask &= u64::MAX >> (63 - (to - 1) % 64);
            }
            self.blocks[w] |= mask;
        }
    }

    #[inline]
    pub fn memory_bytes(&self) -> usize {
        self.blocks.len() * 8 + 16
    }

    /// Serialize to LSB-first bytes (`ceil(len/8)` of them) — the on-disk
    /// null-bitmap layout of `rtdi_storage::segfile`. Little-endian block
    /// bytes give exactly that bit order, so this is a flat copy.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out: Vec<u8> = self.blocks.iter().flat_map(|b| b.to_le_bytes()).collect();
        out.truncate(self.len.div_ceil(8));
        out
    }

    /// Rebuild from LSB-first bytes produced by [`Bitmap::to_bytes`] (or a
    /// segment file's null bitmap). Bytes beyond `len` bits are ignored;
    /// missing bytes read as zero.
    pub fn from_bytes(bytes: &[u8], len: usize) -> Bitmap {
        let bytes = &bytes[..bytes.len().min(len.div_ceil(8))];
        let mut blocks: Vec<u64> = bytes
            .chunks(8)
            .map(|chunk| {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                u64::from_le_bytes(word)
            })
            .collect();
        blocks.resize(len.div_ceil(64), 0);
        let mut bm = Bitmap { blocks, len };
        bm.clear_tail();
        bm
    }
}

pub struct BitmapIter<'a> {
    bitmap: &'a Bitmap,
    block_idx: usize,
    current: u64,
}

impl Iterator for BitmapIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.block_idx * 64 + bit);
            }
            self.block_idx += 1;
            if self.block_idx >= self.bitmap.blocks.len() {
                return None;
            }
            self.current = self.bitmap.blocks[self.block_idx];
        }
    }
}

impl FromIterator<usize> for Bitmap {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let len = items.iter().max().map(|m| m + 1).unwrap_or(0);
        let mut bm = Bitmap::new(len);
        for i in items {
            bm.set(i);
        }
        bm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_count() {
        let mut bm = Bitmap::new(130);
        bm.set(0);
        bm.set(64);
        bm.set(129);
        assert!(bm.get(0) && bm.get(64) && bm.get(129));
        assert!(!bm.get(1) && !bm.get(128));
        assert!(!bm.get(10_000)); // out of range is false, not panic
        assert_eq!(bm.count(), 3);
        bm.unset(64);
        assert_eq!(bm.count(), 2);
    }

    #[test]
    fn full_and_not_respect_length() {
        let mut bm = Bitmap::full(70);
        assert_eq!(bm.count(), 70);
        bm.not_inplace();
        assert_eq!(bm.count(), 0);
        bm.not_inplace();
        assert_eq!(bm.count(), 70);
    }

    #[test]
    fn boolean_algebra() {
        let mut a = Bitmap::new(100);
        let mut b = Bitmap::new(100);
        a.set_range(0, 50);
        b.set_range(25, 75);
        let mut and = a.clone();
        and.and_with(&b);
        assert_eq!(and.count(), 25);
        let mut or = a.clone();
        or.or_with(&b);
        assert_eq!(or.count(), 75);
    }

    #[test]
    fn iterator_yields_sorted_positions() {
        let bm: Bitmap = [5usize, 0, 99, 64, 63].into_iter().collect();
        let out: Vec<usize> = bm.iter().collect();
        assert_eq!(out, vec![0, 5, 63, 64, 99]);
        let empty = Bitmap::new(0);
        assert_eq!(empty.iter().count(), 0);
    }

    #[test]
    fn and_not_clears_other_bits() {
        let mut a = Bitmap::new(100);
        let mut b = Bitmap::new(100);
        a.set_range(0, 50);
        b.set_range(25, 75);
        a.and_not(&b);
        assert_eq!(a.count(), 25);
        assert!(a.get(24) && !a.get(25));
    }

    #[test]
    fn runs_cover_exactly_the_set_bits() {
        // exercise: run at start, isolated bit, block-spanning run, run to end
        let mut bm = Bitmap::new(300);
        bm.set_range(0, 3);
        bm.set(10);
        bm.set_range(60, 130); // spans two block boundaries
        bm.set_range(290, 300); // runs to the end
        let mut runs = Vec::new();
        bm.for_each_run(|s, e| runs.push((s, e)));
        assert_eq!(runs, vec![(0, 3), (10, 11), (60, 130), (290, 300)]);
        // reconstructed bits match the iterator
        let from_runs: Vec<usize> = runs.iter().flat_map(|&(s, e)| s..e).collect();
        assert_eq!(from_runs, bm.iter().collect::<Vec<_>>());
        // full bitmap is one run; empty bitmap none
        let mut one = Vec::new();
        Bitmap::full(128).for_each_run(|s, e| one.push((s, e)));
        assert_eq!(one, vec![(0, 128)]);
        Bitmap::new(128).for_each_run(|_, _| panic!("no runs expected"));
    }

    #[test]
    fn collect_into_matches_iterator() {
        let bm: Bitmap = [5usize, 0, 99, 64, 63].into_iter().collect();
        let mut out = vec![42u32]; // appends, does not clear
        bm.collect_into(&mut out);
        assert_eq!(out, vec![42, 0, 5, 63, 64, 99]);
    }

    #[test]
    fn byte_roundtrip_preserves_bits() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 130, 300] {
            let mut bm = Bitmap::new(len);
            for i in (0..len).step_by(3) {
                bm.set(i);
            }
            let bytes = bm.to_bytes();
            assert_eq!(bytes.len(), len.div_ceil(8));
            assert_eq!(Bitmap::from_bytes(&bytes, len), bm);
        }
        // trailing garbage bits beyond len are masked off
        let bm = Bitmap::from_bytes(&[0xFF], 3);
        assert_eq!(bm.count(), 3);
        assert!(!bm.get(3));
        // short input reads as zeros
        let bm = Bitmap::from_bytes(&[0x01], 100);
        assert_eq!(bm.count(), 1);
    }

    #[test]
    fn push_grows_bit_by_bit() {
        let mut bm = Bitmap::new(0);
        for i in 0..200 {
            bm.push(i % 3 == 0);
        }
        assert_eq!(bm.len(), 200);
        let expected: Bitmap = (0..200).filter(|i| i % 3 == 0).collect();
        assert_eq!(
            bm.iter().collect::<Vec<_>>(),
            expected.iter().collect::<Vec<_>>()
        );
        // pushed bitmaps combine with sized ones of the same length
        bm.and_with(&Bitmap::full(200));
        assert_eq!(bm.count(), 67);
    }

    #[test]
    fn set_where_fills_words_and_skips_excepted_docs() {
        let mut except = Bitmap::new(300);
        except.set(64);
        except.set(130);
        // ranges inside one word, across words, word-aligned and to the end
        for (from, to) in [(3, 9), (60, 70), (64, 128), (0, 300), (129, 300), (5, 5)] {
            let mut bm = Bitmap::new(300);
            bm.set(1); // bits outside the range survive
            bm.set_where(from, to, &except, |d| d % 2 == 0);
            let got: Vec<usize> = bm.iter().collect();
            let mut want: Vec<usize> = (from..to)
                .filter(|d| d % 2 == 0 && !except.get(*d))
                .collect();
            want.push(1);
            want.sort_unstable();
            want.dedup();
            assert_eq!(got, want, "range {from}..{to}");
        }
    }

    #[test]
    fn set_range_fills_words_like_bit_by_bit() {
        for len in [0usize, 1, 63, 64, 65, 200] {
            for from in [0usize, 1, 5, 63, 64, 65, 127, 128, 199] {
                for to in [0usize, 1, 2, 63, 64, 65, 128, 129, 200, 300] {
                    let mut words = Bitmap::new(len);
                    if len > 0 {
                        words.set(len / 2); // bits outside the range survive
                    }
                    let (mut bits, mut masked, mut unmasked) =
                        (words.clone(), words.clone(), words.clone());
                    words.set_range(from, to);
                    (from..to.min(len)).for_each(|i| bits.set(i));
                    assert_eq!(words, bits, "len {len} range {from}..{to}");
                    assert_eq!(words.any(), words.count() > 0);
                    // and the same range but every third bit
                    let mut thirds = Bitmap::new(len);
                    (0..len).step_by(3).for_each(|i| thirds.set(i));
                    masked.set_range_except(from, to, &thirds);
                    let kept = (from..to.min(len)).filter(|i| i % 3 != 0);
                    kept.for_each(|i| unmasked.set(i));
                    assert_eq!(masked, unmasked, "len {len} range {from}..{to} but thirds");
                }
            }
        }
    }

    #[test]
    fn resize_preserves_bits() {
        let mut bm = Bitmap::new(10);
        bm.set(3);
        bm.resize(1000);
        assert!(bm.get(3));
        assert_eq!(bm.count(), 1);
        bm.set(999);
        assert_eq!(bm.count(), 2);
    }
}
