//! Packed request bitmasks: `I_j(t)` for a whole slot as one `u64` word per
//! 64 users, the representation the masked-normalize kernel consumes.

/// A packed bitmask over `len` users: bit `j` of word `j / 64` is user `j`'s
/// request indicator for the slot. Bits at positions `>= len` are always
/// zero (maintained as an invariant so population counts never see garbage
/// in the tail word).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RequestMask {
    words: Vec<u64>,
    len: usize,
}

/// Number of `u64` words needed to cover `len` bits.
#[inline]
pub(crate) fn words_for(len: usize) -> usize {
    len.div_ceil(64)
}

impl RequestMask {
    /// An all-zero mask over `len` users.
    pub fn new(len: usize) -> RequestMask {
        RequestMask {
            words: vec![0; words_for(len)],
            len,
        }
    }

    /// Number of users covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mask covers zero users.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Clears every bit.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Resizes to cover `len` users, clearing every bit. Never shrinks the
    /// backing allocation, so a scratch mask reused across slots settles at
    /// its high-water mark and stops allocating.
    pub fn reset(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(words_for(len), 0);
        self.len = len;
    }

    /// Sets bit `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[inline]
    pub fn set(&mut self, j: usize) {
        assert!(j < self.len, "mask index out of range");
        self.words[j >> 6] |= 1u64 << (j & 63);
    }

    /// Clears bit `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[inline]
    pub fn unset(&mut self, j: usize) {
        assert!(j < self.len, "mask index out of range");
        self.words[j >> 6] &= !(1u64 << (j & 63));
    }

    /// Whether bit `j` is set.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[inline]
    pub fn get(&self, j: usize) -> bool {
        assert!(j < self.len, "mask index out of range");
        (self.words[j >> 6] >> (j & 63)) & 1 == 1
    }

    /// The packed words (tail bits beyond `len` are zero).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Rebuilds the mask from a dense indicator slice (resizing to match).
    pub fn fill_from_bools(&mut self, requesting: &[bool]) {
        self.reset(requesting.len());
        for (j, &r) in requesting.iter().enumerate() {
            if r {
                self.words[j >> 6] |= 1u64 << (j & 63);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut m = RequestMask::new(130);
        assert_eq!(m.words().len(), 3);
        for j in [0usize, 1, 63, 64, 65, 127, 128, 129] {
            assert!(!m.get(j));
            m.set(j);
            assert!(m.get(j));
        }
        assert_eq!(m.count_ones(), 8);
        m.unset(64);
        assert!(!m.get(64));
        assert_eq!(m.count_ones(), 7);
    }

    #[test]
    fn fill_from_bools_matches() {
        let bools: Vec<bool> = (0..100).map(|i| i % 3 == 0).collect();
        let mut m = RequestMask::new(1);
        m.fill_from_bools(&bools);
        assert_eq!(m.len(), 100);
        for (j, &b) in bools.iter().enumerate() {
            assert_eq!(m.get(j), b, "bit {j}");
        }
        assert_eq!(m.count_ones(), bools.iter().filter(|&&b| b).count());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_set_panics() {
        RequestMask::new(10).set(10);
    }
}
