//! Mapping between byte addresses and ECC datawords.
//!
//! The paper reverse engineers (§5.1.2) that all three manufacturers map
//! each contiguous 32-byte region to **two 16-byte ECC words interleaved at
//! byte granularity**. [`WordLayout::InterleavedPairs`] implements that
//! scheme for any word size; [`WordLayout::Contiguous`] is the naive
//! alternative, kept so the layout-probing experiment has something to
//! distinguish against.

/// Address ↔ dataword mapping of a chip.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WordLayout {
    /// Every `2·word_bytes` region holds two words; byte `j` of the region
    /// belongs to word `j % 2`, at offset `j / 2` (the measured LPDDR4
    /// layout with `word_bytes = 16`).
    InterleavedPairs {
        /// Bytes per ECC dataword.
        word_bytes: usize,
    },
    /// Words are laid out back to back.
    Contiguous {
        /// Bytes per ECC dataword.
        word_bytes: usize,
    },
}

impl WordLayout {
    /// Bytes per dataword.
    pub fn word_bytes(&self) -> usize {
        match *self {
            WordLayout::InterleavedPairs { word_bytes } | WordLayout::Contiguous { word_bytes } => {
                word_bytes
            }
        }
    }

    /// Maps a byte address to `(word_index, byte_within_word)`.
    pub fn locate(&self, addr: usize) -> (usize, usize) {
        let w = self.word_bytes();
        match *self {
            WordLayout::InterleavedPairs { .. } => {
                let region = addr / (2 * w);
                let offset = addr % (2 * w);
                (2 * region + offset % 2, offset / 2)
            }
            WordLayout::Contiguous { .. } => (addr / w, addr % w),
        }
    }

    /// Inverse of [`WordLayout::locate`].
    ///
    /// # Panics
    ///
    /// Panics if `byte >= word_bytes()`.
    pub fn addr_of(&self, word_index: usize, byte: usize) -> usize {
        let w = self.word_bytes();
        assert!(byte < w, "byte offset {byte} out of word range");
        match *self {
            WordLayout::InterleavedPairs { .. } => {
                let region = word_index / 2;
                region * 2 * w + byte * 2 + word_index % 2
            }
            WordLayout::Contiguous { .. } => word_index * w + byte,
        }
    }

    /// The byte addresses of a word's bytes `0..word_bytes()`, in order:
    /// `addr_of(word_index, byte)` for each byte.
    pub fn word_addrs(&self, word_index: usize) -> impl Iterator<Item = usize> {
        let w = self.word_bytes();
        let (base, stride) = match *self {
            WordLayout::InterleavedPairs { .. } => (word_index / 2 * 2 * w + word_index % 2, 2),
            WordLayout::Contiguous { .. } => (word_index * w, 1),
        };
        (0..w).map(move |byte| base + byte * stride)
    }

    /// The words holding at least one byte of `addr..addr + len`, in
    /// increasing order, each once.
    pub fn words_spanning(&self, addr: usize, len: usize) -> impl Iterator<Item = usize> {
        let layout = *self;
        let end = addr + len;
        // Candidates: every word of the regions (or words) the range meets.
        // Under `InterleavedPairs` a boundary region's other word may hold
        // none of the range's bytes.
        let words = match (len, layout) {
            (0, _) => 0..0,
            (_, WordLayout::InterleavedPairs { word_bytes }) => {
                let region = 2 * word_bytes;
                2 * (addr / region)..2 * ((end - 1) / region) + 2
            }
            (_, WordLayout::Contiguous { word_bytes }) => {
                addr / word_bytes..(end - 1) / word_bytes + 1
            }
        };
        words.filter(move |&word| layout.word_addrs(word).any(|a| (addr..end).contains(&a)))
    }

    /// The dataword bit index of an addressed bit: `(addr, bit_in_byte)` →
    /// `(word_index, bit_within_word)`.
    pub fn locate_bit(&self, addr: usize, bit_in_byte: usize) -> (usize, usize) {
        let (word, byte) = self.locate(addr);
        (word, byte * 8 + bit_in_byte)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaved_matches_paper_description() {
        // 32-byte region, two 16-byte words, byte-granular interleave.
        let l = WordLayout::InterleavedPairs { word_bytes: 16 };
        assert_eq!(l.locate(0), (0, 0));
        assert_eq!(l.locate(1), (1, 0));
        assert_eq!(l.locate(2), (0, 1));
        assert_eq!(l.locate(3), (1, 1));
        assert_eq!(l.locate(30), (0, 15));
        assert_eq!(l.locate(31), (1, 15));
        assert_eq!(l.locate(32), (2, 0));
    }

    #[test]
    fn contiguous_is_straightforward() {
        let l = WordLayout::Contiguous { word_bytes: 16 };
        assert_eq!(l.locate(0), (0, 0));
        assert_eq!(l.locate(15), (0, 15));
        assert_eq!(l.locate(16), (1, 0));
    }

    #[test]
    fn locate_addr_roundtrip() {
        for layout in [
            WordLayout::InterleavedPairs { word_bytes: 16 },
            WordLayout::Contiguous { word_bytes: 16 },
            WordLayout::InterleavedPairs { word_bytes: 4 },
        ] {
            for addr in 0..256 {
                let (word, byte) = layout.locate(addr);
                assert_eq!(layout.addr_of(word, byte), addr, "{layout:?} addr {addr}");
            }
        }
    }

    #[test]
    fn every_word_gets_full_byte_set() {
        let l = WordLayout::InterleavedPairs { word_bytes: 16 };
        let mut seen = vec![vec![false; 16]; 2];
        for addr in 0..32 {
            let (word, byte) = l.locate(addr);
            assert!(!seen[word][byte]);
            seen[word][byte] = true;
        }
        assert!(seen.iter().flatten().all(|&b| b));
    }

    #[test]
    fn word_addrs_match_addr_of() {
        for layout in [
            WordLayout::InterleavedPairs { word_bytes: 16 },
            WordLayout::Contiguous { word_bytes: 16 },
            WordLayout::InterleavedPairs { word_bytes: 3 },
            WordLayout::Contiguous { word_bytes: 5 },
        ] {
            for word in 0..9 {
                let expected: Vec<usize> = (0..layout.word_bytes())
                    .map(|byte| layout.addr_of(word, byte))
                    .collect();
                assert_eq!(layout.word_addrs(word).collect::<Vec<_>>(), expected);
            }
        }
    }

    #[test]
    fn words_spanning_matches_brute_force_locate() {
        for layout in [
            WordLayout::InterleavedPairs { word_bytes: 4 },
            WordLayout::Contiguous { word_bytes: 4 },
            WordLayout::InterleavedPairs { word_bytes: 3 },
            WordLayout::Contiguous { word_bytes: 5 },
        ] {
            for addr in [0, 1, 3, 5, 7, 8, 13] {
                for len in [0, 1, 2, 3, 5, 7, 9, 17, 31] {
                    let mut expected: Vec<usize> =
                        (addr..addr + len).map(|a| layout.locate(a).0).collect();
                    expected.sort_unstable();
                    expected.dedup();
                    assert_eq!(
                        layout.words_spanning(addr, len).collect::<Vec<_>>(),
                        expected,
                        "{layout:?} addr {addr} len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn locate_bit_expands_bytes() {
        let l = WordLayout::InterleavedPairs { word_bytes: 16 };
        assert_eq!(l.locate_bit(2, 3), (0, 11)); // byte 1 of word 0, bit 3
        assert_eq!(l.locate_bit(1, 0), (1, 0));
    }
}
