//! Fixed-length packed bit vectors.

use std::fmt;
use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, BitXorAssign};

const WORD_BITS: usize = 64;

/// A fixed-length vector over GF(2), packed into `u64` words.
///
/// Bit `i` of the vector is bit `i % 64` of word `i / 64`. The length is
/// immutable after construction; all binary operators panic on length
/// mismatch, which turns dimension bugs into loud failures instead of
/// silently wrong linear algebra.
///
/// # Examples
///
/// ```
/// use beer_gf2::BitVec;
///
/// let mut v = BitVec::zeros(7);
/// v.set(2, true);
/// v.set(5, true);
/// assert_eq!(v.weight(), 2);
/// assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![2, 5]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    len: usize,
    words: Vec<u64>,
}

impl BitVec {
    /// Creates an all-zero vector of length `len`.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            len,
            words: vec![0; len.div_ceil(WORD_BITS)],
        }
    }

    /// Creates an all-ones vector of length `len`.
    pub fn ones(len: usize) -> Self {
        let mut v = BitVec {
            len,
            words: vec![u64::MAX; len.div_ceil(WORD_BITS)],
        };
        v.mask_tail();
        v
    }

    /// Creates a vector from a slice of booleans, `bits[i]` becoming bit `i`.
    pub fn from_bits(bits: &[bool]) -> Self {
        let mut v = BitVec::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                v.set(i, true);
            }
        }
        v
    }

    /// Creates a length-`len` vector whose set bits are exactly `ones`.
    ///
    /// # Panics
    ///
    /// Panics if any index in `ones` is `>= len`.
    pub fn from_indices(len: usize, ones: &[usize]) -> Self {
        let mut v = BitVec::zeros(len);
        for &i in ones {
            v.set(i, true);
        }
        v
    }

    /// Creates a length-`len` vector from the low bits of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `len > 64`.
    pub fn from_u64(len: usize, value: u64) -> Self {
        assert!(len <= 64, "from_u64 supports at most 64 bits");
        let mut v = BitVec::zeros(len);
        if len > 0 {
            v.words[0] = if len == 64 {
                value
            } else {
                value & ((1u64 << len) - 1)
            };
        }
        v
    }

    /// Creates a length-`len` vector from packed limbs: bit `i` is bit
    /// `i % 64` of `limbs[i / 64]`. Bits at and past `len` are cleared.
    ///
    /// # Panics
    ///
    /// Panics if `limbs.len()` is not `len.div_ceil(64)`.
    pub fn from_limbs(len: usize, limbs: &[u64]) -> Self {
        assert_eq!(
            limbs.len(),
            len.div_ceil(WORD_BITS),
            "limb count does not match length {len}"
        );
        let mut v = BitVec {
            len,
            words: limbs.to_vec(),
        };
        v.mask_tail();
        v
    }

    /// Creates a unit vector: length `len`, single one at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn unit(len: usize, index: usize) -> Self {
        let mut v = BitVec::zeros(len);
        v.set(index, true);
        v
    }

    /// Number of bits in the vector.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the vector has length zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed limbs (see [`BitVec::from_limbs`]); bits past `len()`
    /// are zero.
    pub fn limbs(&self) -> &[u64] {
        &self.words
    }

    /// Value of bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[inline]
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        (self.words[index / WORD_BITS] >> (index % WORD_BITS)) & 1 == 1
    }

    /// Sets bit `index` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[inline]
    pub fn set(&mut self, index: usize, value: bool) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        let w = &mut self.words[index / WORD_BITS];
        let mask = 1u64 << (index % WORD_BITS);
        if value {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Flips bit `index` in place.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[inline]
    pub fn flip(&mut self, index: usize) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        self.words[index / WORD_BITS] ^= 1u64 << (index % WORD_BITS);
    }

    /// Number of set bits (Hamming weight).
    pub fn weight(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if no bit is set.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Parity of the vector: XOR of all bits.
    pub fn parity(&self) -> bool {
        self.words.iter().fold(0u64, |acc, w| acc ^ w).count_ones() % 2 == 1
    }

    /// Dot product over GF(2): parity of the AND of the two vectors.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn dot(&self, other: &BitVec) -> bool {
        assert_eq!(self.len, other.len, "dot of different lengths");
        self.words
            .iter()
            .zip(&other.words)
            .fold(0u64, |acc, (a, b)| acc ^ (a & b))
            .count_ones()
            % 2
            == 1
    }

    /// Iterator over the indices of set bits, in increasing order.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            vec: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Iterator over all bits as booleans.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Returns `true` if every set bit of `self` is also set in `other`
    /// (support containment: `supp(self) ⊆ supp(other)`).
    ///
    /// This is the primitive behind the paper's miscorrection predicate
    /// (§4.2.3): a syndrome is reachable iff its support is contained in the
    /// CHARGED parity-bit support.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn is_subset_of(&self, other: &BitVec) -> bool {
        assert_eq!(self.len, other.len, "subset test of different lengths");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Returns `true` if `self` and `other` share a set bit.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn intersects(&self, other: &BitVec) -> bool {
        assert_eq!(self.len, other.len, "intersection of different lengths");
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Leading (lowest-index) set bit, if any.
    pub fn first_one(&self) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(wi * WORD_BITS + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Interprets the vector as a little-endian integer (bit 0 = LSB).
    ///
    /// # Panics
    ///
    /// Panics if `len() > 64`.
    pub fn to_u64(&self) -> u64 {
        assert!(self.len <= 64, "to_u64 requires at most 64 bits");
        self.words.first().copied().unwrap_or(0)
    }

    /// Concatenates `self` followed by `other` into a new vector.
    pub fn concat(&self, other: &BitVec) -> BitVec {
        let mut out = BitVec::zeros(self.len + other.len);
        out.words[..self.words.len()].copy_from_slice(&self.words);
        // Shift `other`'s limbs up by `self.len`; bits shifted past the
        // last limb are tail bits, which are zero.
        let (q, r) = (self.len / WORD_BITS, self.len % WORD_BITS);
        for (i, &w) in other.words.iter().enumerate() {
            out.words[q + i] |= w << r;
            if r != 0 {
                if let Some(next) = out.words.get_mut(q + i + 1) {
                    *next |= w >> (WORD_BITS - r);
                }
            }
        }
        out
    }

    /// Returns the sub-vector of bits `range.start..range.end`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or reversed.
    pub fn slice(&self, range: std::ops::Range<usize>) -> BitVec {
        assert!(range.start <= range.end && range.end <= self.len);
        let mut out = BitVec::zeros(range.end - range.start);
        let (q, r) = (range.start / WORD_BITS, range.start % WORD_BITS);
        for (i, slot) in out.words.iter_mut().enumerate() {
            let high = match self.words.get(q + i + 1) {
                Some(&w) if r != 0 => w << (WORD_BITS - r),
                _ => 0,
            };
            *slot = self.words[q + i] >> r | high;
        }
        out.mask_tail();
        out
    }

    /// Compares two equal-length vectors lexicographically with bit 0 most
    /// significant (the order used for the canonical row sort of `P`).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn lex_cmp(&self, other: &BitVec) -> std::cmp::Ordering {
        assert_eq!(self.len, other.len, "lex_cmp of different lengths");
        for i in 0..self.len {
            match (self.get(i), other.get(i)) {
                (false, true) => return std::cmp::Ordering::Less,
                (true, false) => return std::cmp::Ordering::Greater,
                _ => {}
            }
        }
        std::cmp::Ordering::Equal
    }

    /// Clears any stray bits beyond `len` in the last storage word.
    fn mask_tail(&mut self) {
        let rem = self.len % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

/// Iterator over set-bit indices of a [`BitVec`]. Created by
/// [`BitVec::iter_ones`].
pub struct IterOnes<'a> {
    vec: &'a BitVec,
    word_idx: usize,
    current: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * WORD_BITS + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.vec.words.len() {
                return None;
            }
            self.current = self.vec.words[self.word_idx];
        }
    }
}

macro_rules! impl_bitop {
    ($trait:ident, $method:ident, $assign_trait:ident, $assign_method:ident, $op:tt) => {
        impl $assign_trait<&BitVec> for BitVec {
            fn $assign_method(&mut self, rhs: &BitVec) {
                assert_eq!(self.len, rhs.len, "bit op on different lengths");
                for (a, b) in self.words.iter_mut().zip(&rhs.words) {
                    *a $op b;
                }
            }
        }

        impl $trait<&BitVec> for &BitVec {
            type Output = BitVec;
            fn $method(self, rhs: &BitVec) -> BitVec {
                let mut out = self.clone();
                $assign_trait::$assign_method(&mut out, rhs);
                out
            }
        }
    };
}

impl_bitop!(BitXor, bitxor, BitXorAssign, bitxor_assign, ^=);
impl_bitop!(BitAnd, bitand, BitAndAssign, bitand_assign, &=);
impl_bitop!(BitOr, bitor, BitOrAssign, bitor_assign, |=);

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[{}]", self)
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            write!(f, "{}", if self.get(i) { '1' } else { '0' })?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let bits: Vec<bool> = iter.into_iter().collect();
        BitVec::from_bits(&bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = BitVec::zeros(70);
        assert_eq!(z.len(), 70);
        assert!(z.is_zero());
        assert_eq!(z.weight(), 0);

        let o = BitVec::ones(70);
        assert_eq!(o.weight(), 70);
        assert!(!o.is_zero());
    }

    #[test]
    fn ones_masks_tail_bits() {
        let o = BitVec::ones(65);
        // The second storage word must only contain one live bit.
        assert_eq!(o.weight(), 65);
        assert!(o.get(64));
    }

    #[test]
    fn set_get_flip_roundtrip() {
        let mut v = BitVec::zeros(130);
        v.set(0, true);
        v.set(64, true);
        v.set(129, true);
        assert!(v.get(0) && v.get(64) && v.get(129));
        assert!(!v.get(1) && !v.get(63) && !v.get(128));
        v.flip(64);
        assert!(!v.get(64));
        assert_eq!(v.weight(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::zeros(8).get(8);
    }

    #[test]
    fn from_indices_and_iter_ones() {
        let v = BitVec::from_indices(200, &[3, 64, 199]);
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![3, 64, 199]);
    }

    #[test]
    fn from_u64_truncates() {
        let v = BitVec::from_u64(4, 0b1_0110);
        assert_eq!(v.to_u64(), 0b0110);
        let w = BitVec::from_u64(64, u64::MAX);
        assert_eq!(w.weight(), 64);
    }

    #[test]
    fn limbs_roundtrip_and_mask_the_tail() {
        for len in [71usize, 64, 137] {
            let limbs: Vec<u64> = (0..len.div_ceil(64) as u64)
                .map(|i| 0xA5A5_5A5A_F00F_0FF0u64.rotate_left(i as u32 * 7) | 1 << 63)
                .collect();
            let v = BitVec::from_limbs(len, &limbs);
            assert_eq!(v.len(), len);
            for i in 0..len {
                assert_eq!(
                    v.get(i),
                    limbs[i / 64] >> (i % 64) & 1 == 1,
                    "len {len} bit {i}"
                );
            }
            // Bit 63 of every limb is set, so a partial last limb has a
            // tail to clear.
            if len % 64 != 0 {
                assert_eq!(v.limbs()[len / 64] >> (len % 64), 0, "len {len} tail");
            }
            assert_eq!(BitVec::from_limbs(len, v.limbs()), v);
        }
    }

    #[test]
    #[should_panic(expected = "limb count")]
    fn from_limbs_rejects_wrong_limb_count() {
        BitVec::from_limbs(65, &[0]);
    }

    #[test]
    fn unit_vector() {
        let v = BitVec::unit(9, 5);
        assert_eq!(v.weight(), 1);
        assert!(v.get(5));
        assert_eq!(v.first_one(), Some(5));
    }

    #[test]
    fn xor_and_or() {
        let a = BitVec::from_indices(10, &[1, 3, 5]);
        let b = BitVec::from_indices(10, &[3, 4, 5]);
        assert_eq!((&a ^ &b).iter_ones().collect::<Vec<_>>(), vec![1, 4]);
        assert_eq!((&a & &b).iter_ones().collect::<Vec<_>>(), vec![3, 5]);
        assert_eq!((&a | &b).iter_ones().collect::<Vec<_>>(), vec![1, 3, 4, 5]);
    }

    #[test]
    fn parity_and_dot() {
        let a = BitVec::from_indices(6, &[0, 2, 4]);
        assert!(a.parity());
        let b = BitVec::from_indices(6, &[2, 4]);
        assert!(!b.parity());
        // a·b = |{2,4}| mod 2 = 0
        assert!(!a.dot(&b));
        let c = BitVec::from_indices(6, &[0]);
        assert!(a.dot(&c));
    }

    #[test]
    fn subset_test() {
        let small = BitVec::from_indices(8, &[1, 6]);
        let big = BitVec::from_indices(8, &[1, 3, 6]);
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
        assert!(BitVec::zeros(8).is_subset_of(&small));
        assert!(small.intersects(&big));
        assert!(!BitVec::zeros(8).intersects(&big));
    }

    #[test]
    fn concat_and_slice() {
        let a = BitVec::from_indices(3, &[0]);
        let b = BitVec::from_indices(4, &[3]);
        let c = a.concat(&b);
        assert_eq!(c.len(), 7);
        assert_eq!(c.iter_ones().collect::<Vec<_>>(), vec![0, 6]);
        assert_eq!(c.slice(3..7), b);
        assert_eq!(c.slice(0..3), a);
    }

    #[test]
    fn concat_and_slice_match_bitwise_at_every_offset() {
        let v = BitVec::from_indices(150, &[0, 1, 5, 63, 64, 70, 127, 128, 140, 149]);
        for start in 0..=150 {
            for end in [start, (start + 1).min(150), (start + 64).min(150), 150] {
                let s = v.slice(start..end);
                let bits: Vec<bool> = (start..end).map(|i| v.get(i)).collect();
                assert_eq!(s, BitVec::from_bits(&bits), "slice {start}..{end}");
                let c = s.concat(&v);
                let joined: Vec<bool> = bits.iter().copied().chain(v.iter()).collect();
                assert_eq!(c, BitVec::from_bits(&joined), "concat at {}", s.len());
            }
        }
    }

    #[test]
    fn lex_ordering_bit0_most_significant() {
        let a = BitVec::from_bits(&[false, true, true]);
        let b = BitVec::from_bits(&[true, false, false]);
        assert_eq!(a.lex_cmp(&b), std::cmp::Ordering::Less);
        assert_eq!(b.lex_cmp(&a), std::cmp::Ordering::Greater);
        assert_eq!(a.lex_cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn display_formats_all_bits() {
        let v = BitVec::from_bits(&[true, false, true]);
        assert_eq!(v.to_string(), "101");
        assert_eq!(format!("{v:?}"), "BitVec[101]");
    }

    #[test]
    fn collect_from_bool_iter() {
        let v: BitVec = [true, false, true, true].into_iter().collect();
        assert_eq!(v.len(), 4);
        assert_eq!(v.weight(), 3);
    }
}
