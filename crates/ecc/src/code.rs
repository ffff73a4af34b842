//! The systematic linear block code type.

use beer_gf2::{BitMatrix, BitVec, SynMask};
use std::fmt;

/// Why a parity sub-matrix cannot form a valid SEC code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodeError {
    /// The code must have at least one data bit.
    NoDataBits,
    /// The code must have at least one parity bit.
    NoParityBits,
    /// More than 64 parity bits are not supported (syndromes are kept in a
    /// single machine word).
    TooManyParityBits(usize),
    /// A data column has weight < 2, so it collides with the zero syndrome
    /// or a parity (identity) column and single-error correction breaks.
    ColumnWeightTooLow { column: usize },
    /// Two data columns are equal, so their single-bit errors cannot be
    /// distinguished.
    DuplicateColumns { first: usize, second: usize },
}

impl fmt::Display for CodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeError::NoDataBits => write!(f, "code has no data bits"),
            CodeError::NoParityBits => write!(f, "code has no parity bits"),
            CodeError::TooManyParityBits(p) => {
                write!(f, "{p} parity bits exceed the supported maximum of 64")
            }
            CodeError::ColumnWeightTooLow { column } => write!(
                f,
                "data column {column} has weight < 2 and collides with a parity column"
            ),
            CodeError::DuplicateColumns { first, second } => {
                write!(f, "data columns {first} and {second} are identical")
            }
        }
    }
}

impl std::error::Error for CodeError {}

/// What the decoder did to produce its output.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Correction {
    /// Zero syndrome: nothing flipped.
    None,
    /// The syndrome matched data column `bit`; that data bit was flipped.
    Data {
        /// Dataword bit index that was flipped.
        bit: usize,
    },
    /// The syndrome matched parity column `bit`; the flip is invisible in
    /// the dataword.
    Parity {
        /// Parity bit index (0-based within the parity section).
        bit: usize,
    },
    /// The syndrome matched no column (possible only for shortened codes):
    /// the error is detected but nothing is flipped.
    Unmatched,
}

/// Output of [`LinearCode::decode`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DecodeResult {
    /// The post-correction dataword — what the DRAM bus would return.
    pub data: BitVec,
    /// The raw error syndrome `H·c'` (hidden inside a real chip; exposed
    /// here for analysis and tests).
    pub syndrome: SynMask,
    /// The correction the decoder applied.
    pub correction: Correction,
}

/// A systematic linear block code in standard form `H = [P | I]`.
///
/// Codeword layout: bits `0..k` are the dataword, bits `k..n` the parity
/// bits (the paper shows the ordering is unobservable, so this fixes one
/// representative of the equivalence class — §4.2.1).
///
/// The code is validated at construction to be single-error-correcting:
/// every column of `H` is nonzero and distinct, which for the data columns
/// of `P` means pairwise-distinct with weight ≥ 2.
///
/// # Examples
///
/// ```
/// use beer_ecc::LinearCode;
/// use beer_gf2::BitMatrix;
///
/// // P of the paper's (7,4) code (Equation 1).
/// let p = BitMatrix::from_bools(&[
///     &[true, true, true, false],
///     &[true, true, false, true],
///     &[true, false, true, true],
/// ]);
/// let code = LinearCode::from_parity_submatrix(p)?;
/// assert_eq!((code.n(), code.k()), (7, 4));
/// # Ok::<(), beer_ecc::CodeError>(())
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct LinearCode {
    parity: BitMatrix,
    /// Cached columns of `P` as syndrome masks (bit r = row r).
    data_columns: Vec<SynMask>,
}

impl LinearCode {
    /// Builds a code from its `(n-k) × k` parity sub-matrix `P`.
    ///
    /// # Errors
    ///
    /// Returns a [`CodeError`] if `P` does not describe a valid SEC code
    /// (see the variants for the specific conditions).
    pub fn from_parity_submatrix(parity: BitMatrix) -> Result<Self, CodeError> {
        let p = parity.rows();
        let k = parity.cols();
        if k == 0 {
            return Err(CodeError::NoDataBits);
        }
        if p == 0 {
            return Err(CodeError::NoParityBits);
        }
        if p > 64 {
            return Err(CodeError::TooManyParityBits(p));
        }
        let data_columns: Vec<SynMask> = (0..k)
            .map(|c| SynMask::from_bitvec(&parity.col(c)))
            .collect();
        for (c, col) in data_columns.iter().enumerate() {
            if col.weight() < 2 {
                return Err(CodeError::ColumnWeightTooLow { column: c });
            }
        }
        for i in 0..k {
            for j in (i + 1)..k {
                if data_columns[i] == data_columns[j] {
                    return Err(CodeError::DuplicateColumns {
                        first: i,
                        second: j,
                    });
                }
            }
        }
        Ok(LinearCode {
            parity,
            data_columns,
        })
    }

    /// Builds a code from the `P` columns given as syndrome masks.
    ///
    /// # Errors
    ///
    /// Same as [`LinearCode::from_parity_submatrix`].
    pub fn from_column_masks(parity_bits: usize, cols: &[SynMask]) -> Result<Self, CodeError> {
        let col_vecs: Vec<BitVec> = cols
            .iter()
            .map(|m| BitVec::from_u64(parity_bits, m.bits()))
            .collect();
        LinearCode::from_parity_submatrix(BitMatrix::from_cols(&col_vecs))
    }

    /// Codeword length `n`.
    pub fn n(&self) -> usize {
        self.parity.cols() + self.parity.rows()
    }

    /// Dataword length `k`.
    pub fn k(&self) -> usize {
        self.parity.cols()
    }

    /// Number of parity-check bits `n - k`.
    pub fn parity_bits(&self) -> usize {
        self.parity.rows()
    }

    /// The parity sub-matrix `P`.
    pub fn parity_submatrix(&self) -> &BitMatrix {
        &self.parity
    }

    /// The full parity-check matrix `H = [P | I]`.
    pub fn parity_check_matrix(&self) -> BitMatrix {
        self.parity.hstack(&BitMatrix::identity(self.parity.rows()))
    }

    /// The generator matrix `G` with codewords as `G · d`, i.e. the
    /// `n × k` matrix `[I ; P]`.
    pub fn generator_matrix(&self) -> BitMatrix {
        BitMatrix::identity(self.k()).vstack(&self.parity)
    }

    /// Column `c` of `P` as a syndrome mask.
    ///
    /// # Panics
    ///
    /// Panics if `c >= k()`.
    #[inline]
    pub fn data_column(&self, c: usize) -> SynMask {
        self.data_columns[c]
    }

    /// Column of the full `H` for codeword position `pos` (data or parity).
    ///
    /// # Panics
    ///
    /// Panics if `pos >= n()`.
    pub fn column(&self, pos: usize) -> SynMask {
        assert!(pos < self.n(), "codeword position {pos} out of range");
        if pos < self.k() {
            self.data_columns[pos]
        } else {
            SynMask::new(1u64 << (pos - self.k()), self.parity_bits())
        }
    }

    /// Finds the codeword position whose `H` column equals `syndrome`,
    /// if any.
    pub fn position_of_syndrome(&self, syndrome: SynMask) -> Option<usize> {
        if syndrome.is_zero() {
            return None;
        }
        if syndrome.weight() == 1 {
            return Some(self.k() + syndrome.bits().trailing_zeros() as usize);
        }
        self.data_columns.iter().position(|&c| c == syndrome)
    }

    /// Encodes a dataword into a codeword (`Fencode` of Figure 2).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != k()`.
    pub fn encode(&self, data: &BitVec) -> BitVec {
        assert_eq!(data.len(), self.k(), "dataword length mismatch");
        let parity = self.parity.mul_vec(data);
        data.concat(&parity)
    }

    /// Computes the parity section for a dataword without building the full
    /// codeword.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != k()`.
    pub fn parity_of(&self, data: &BitVec) -> BitVec {
        assert_eq!(data.len(), self.k(), "dataword length mismatch");
        self.parity.mul_vec(data)
    }

    /// Fast parity computation for the charged-set representation: the
    /// parity mask of a dataword whose set bits are exactly `ones`.
    pub fn parity_mask_of_ones(&self, ones: &[usize]) -> SynMask {
        let mut m = SynMask::zero(self.parity_bits());
        for &c in ones {
            m ^= self.data_columns[c];
        }
        m
    }

    /// Computes the error syndrome `H · c'` of a (possibly erroneous)
    /// codeword.
    ///
    /// # Panics
    ///
    /// Panics if `codeword.len() != n()`.
    pub fn syndrome(&self, codeword: &BitVec) -> SynMask {
        assert_eq!(codeword.len(), self.n(), "codeword length mismatch");
        let mut s = SynMask::zero(self.parity_bits());
        for pos in codeword.iter_ones() {
            s ^= self.column(pos);
        }
        s
    }

    /// Decodes a received codeword (`Fdecode` of Figure 2): syndrome
    /// decoding with single-bit correction, exactly the externally-visible
    /// behaviour of on-die ECC (§3.3). The decoder is unaware of the true
    /// error count; uncorrectable patterns silently produce partial
    /// corrections or miscorrections.
    ///
    /// # Panics
    ///
    /// Panics if `codeword.len() != n()`.
    pub fn decode(&self, codeword: &BitVec) -> DecodeResult {
        let s = self.syndrome(codeword);
        let mut data = codeword.slice(0..self.k());
        if s.is_zero() {
            return DecodeResult {
                data,
                syndrome: s,
                correction: Correction::None,
            };
        }
        match self.position_of_syndrome(s) {
            Some(pos) if pos < self.k() => {
                data.flip(pos);
                DecodeResult {
                    data,
                    syndrome: s,
                    correction: Correction::Data { bit: pos },
                }
            }
            Some(pos) => DecodeResult {
                data,
                syndrome: s,
                correction: Correction::Parity {
                    bit: pos - self.k(),
                },
            },
            None => DecodeResult {
                data,
                syndrome: s,
                correction: Correction::Unmatched,
            },
        }
    }

    /// Reconstructs the full pre-correction codeword from an observed
    /// miscorrection — the core of BEEP (§7.1.3, Equation 4).
    ///
    /// `post_correction_data` is the dataword read from the chip and
    /// `miscorrected_bit` the data bit known to have been flipped by the
    /// decoder (it revealed syndrome `H_j`). The `n-k` unknown parity bits
    /// follow uniquely from `c'_par = s ⊕ P · c'_dat`.
    ///
    /// # Panics
    ///
    /// Panics if lengths mismatch or `miscorrected_bit >= k()`.
    pub fn reconstruct_precorrection_codeword(
        &self,
        post_correction_data: &BitVec,
        miscorrected_bit: usize,
    ) -> BitVec {
        assert_eq!(post_correction_data.len(), self.k());
        assert!(miscorrected_bit < self.k());
        let syndrome = self.data_columns[miscorrected_bit];
        // Undo the decoder's flip to recover the received data bits.
        let mut received_data = post_correction_data.clone();
        received_data.flip(miscorrected_bit);
        let parity = SynMask::from_bitvec(&self.parity.mul_vec(&received_data)) ^ syndrome;
        received_data.concat(&parity.to_bitvec())
    }

    /// Returns `true` if `codeword` is a valid codeword (zero syndrome).
    pub fn is_codeword(&self, codeword: &BitVec) -> bool {
        self.syndrome(codeword).is_zero()
    }

    /// Returns `true` if the code is full-length: every nonzero syndrome
    /// appears as a column of `H` (2ᵖ − 1 columns). Shortened codes
    /// (paper §4.2.4) have fewer data columns.
    pub fn is_full_length(&self) -> bool {
        let p = self.parity_bits();
        p < 64 && self.n() as u64 == (1u64 << p) - 1
    }
}

impl fmt::Debug for LinearCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LinearCode(n={}, k={}, P=\n{})",
            self.n(),
            self.k(),
            self.parity
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamming;

    #[test]
    fn eq1_dimensions_and_matrices() {
        let code = hamming::eq1_code();
        assert_eq!(code.n(), 7);
        assert_eq!(code.k(), 4);
        assert_eq!(code.parity_bits(), 3);
        assert!(code.is_full_length());
        assert!(code.parity_check_matrix().is_standard_form());
        // H · G = 0 (every codeword is in the null space of H).
        let h = code.parity_check_matrix();
        let g = code.generator_matrix();
        let hg = h.mul(&g);
        assert_eq!(hg, beer_gf2::BitMatrix::zeros(3, 4));
    }

    #[test]
    fn encode_matches_paper_example() {
        // Eq. 1: dataword 1000 → parity 111 (first column of P).
        let code = hamming::eq1_code();
        let d = BitVec::from_bits(&[true, false, false, false]);
        let c = code.encode(&d);
        assert_eq!(c.to_string(), "1000111");
    }

    #[test]
    fn zero_dataword_is_zero_codeword() {
        let code = hamming::eq1_code();
        let c = code.encode(&BitVec::zeros(4));
        assert!(c.is_zero());
        assert!(code.is_codeword(&c));
    }

    #[test]
    fn single_errors_are_corrected_everywhere() {
        let code = hamming::eq1_code();
        for data_val in 0..16u64 {
            let d = BitVec::from_u64(4, data_val);
            let c = code.encode(&d);
            for pos in 0..7 {
                let mut cw = c.clone();
                cw.flip(pos);
                let r = code.decode(&cw);
                assert_eq!(r.data, d, "failed for data {data_val:#x} err at {pos}");
                if pos < 4 {
                    assert_eq!(r.correction, Correction::Data { bit: pos });
                } else {
                    assert_eq!(r.correction, Correction::Parity { bit: pos - 4 });
                }
            }
        }
    }

    #[test]
    fn syndrome_extracts_column_of_injected_error() {
        // Paper Equation 2: error at position 2 exposes column 2 of H.
        let code = hamming::eq1_code();
        let c = code.encode(&BitVec::from_u64(4, 0b1011));
        let mut cw = c.clone();
        cw.flip(2);
        assert_eq!(code.syndrome(&cw), code.column(2));
    }

    #[test]
    fn double_error_outcomes_are_uncorrectable() {
        let code = hamming::eq1_code();
        let d = BitVec::from_u64(4, 0b0101);
        let c = code.encode(&d);
        let mut cw = c.clone();
        cw.flip(0);
        cw.flip(5);
        let r = code.decode(&cw);
        // A full-length SEC code always "corrects" something on a nonzero
        // syndrome; with two errors the output must be wrong.
        assert_ne!(r.data, d);
        assert_ne!(r.correction, Correction::None);
    }

    #[test]
    fn reconstruct_precorrection_codeword_inverts_miscorrection() {
        let code = hamming::eq1_code();
        let d = BitVec::from_u64(4, 0b0100); // data bit 2 set
        let c = code.encode(&d);
        // Find an uncorrectable double error that miscorrects a data bit.
        for e1 in 0..7 {
            for e2 in (e1 + 1)..7 {
                let mut cw = c.clone();
                cw.flip(e1);
                cw.flip(e2);
                let r = code.decode(&cw);
                if let Correction::Data { bit } = r.correction {
                    if bit != e1 && bit != e2 {
                        // A genuine miscorrection: reconstruct c'.
                        let recon = code.reconstruct_precorrection_codeword(&r.data, bit);
                        assert_eq!(recon, cw, "reconstruction mismatch for ({e1},{e2})");
                        return;
                    }
                }
            }
        }
        panic!("no miscorrection found for the (7,4) code — unexpected");
    }

    #[test]
    fn rejects_low_weight_columns() {
        let p = BitMatrix::from_bools(&[&[true, true], &[false, true], &[false, true]]);
        match LinearCode::from_parity_submatrix(p) {
            Err(CodeError::ColumnWeightTooLow { column: 0 }) => {}
            other => panic!("expected ColumnWeightTooLow, got {other:?}"),
        }
    }

    #[test]
    fn rejects_duplicate_columns() {
        let p = BitMatrix::from_bools(&[&[true, true], &[true, true], &[false, false]]);
        match LinearCode::from_parity_submatrix(p) {
            Err(CodeError::DuplicateColumns {
                first: 0,
                second: 1,
            }) => {}
            other => panic!("expected DuplicateColumns, got {other:?}"),
        }
    }

    #[test]
    fn rejects_degenerate_shapes() {
        assert_eq!(
            LinearCode::from_parity_submatrix(BitMatrix::zeros(3, 0)),
            Err(CodeError::NoDataBits)
        );
        assert_eq!(
            LinearCode::from_parity_submatrix(BitMatrix::zeros(0, 3)),
            Err(CodeError::NoParityBits)
        );
    }

    #[test]
    fn column_accessor_covers_parity_positions() {
        let code = hamming::eq1_code();
        for i in 0..3 {
            let col = code.column(4 + i);
            assert_eq!(col.weight(), 1);
            assert!(col.get(i));
        }
    }

    #[test]
    fn parity_mask_of_ones_matches_encode() {
        let code = hamming::eq1_code();
        let d = BitVec::from_u64(4, 0b1010);
        let ones: Vec<usize> = d.iter_ones().collect();
        let mask = code.parity_mask_of_ones(&ones);
        let parity = code.parity_of(&d);
        assert_eq!(mask.to_bitvec(), parity);
    }

    #[test]
    fn error_display_is_informative() {
        let err = CodeError::DuplicateColumns {
            first: 1,
            second: 3,
        };
        assert!(err.to_string().contains("1"));
        assert!(err.to_string().contains("3"));
    }
}
