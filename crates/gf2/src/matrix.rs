//! Dense bit matrices over GF(2), stored row-major as [`BitVec`] rows.

use crate::BitVec;
use std::fmt;

/// A dense `rows × cols` matrix over GF(2).
///
/// Rows are packed [`BitVec`]s, so row operations (the workhorse of
/// Gaussian elimination and of `vec * M` products) are word-parallel.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitMatrix {
    rows: Vec<BitVec>,
    cols: usize,
}

impl BitMatrix {
    /// An all-zero `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        BitMatrix {
            rows: (0..rows).map(|_| BitVec::zeros(cols)).collect(),
            cols,
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, true);
        }
        m
    }

    /// Builds a matrix from row slices of booleans.
    ///
    /// # Panics
    /// Panics if rows have differing lengths.
    pub fn from_rows(rows: &[&[bool]]) -> Self {
        let cols = rows.first().map_or(0, |r| r.len());
        let rows: Vec<BitVec> = rows
            .iter()
            .map(|r| {
                assert_eq!(r.len(), cols, "from_rows: ragged rows");
                BitVec::from_bools(r)
            })
            .collect();
        BitMatrix { rows, cols }
    }

    /// Builds a matrix from owned [`BitVec`] rows.
    ///
    /// # Panics
    /// Panics if rows have differing lengths.
    pub fn from_bitvec_rows(rows: Vec<BitVec>) -> Self {
        let cols = rows.first().map_or(0, |r| r.len());
        for r in &rows {
            assert_eq!(r.len(), cols, "from_bitvec_rows: ragged rows");
        }
        BitMatrix { rows, cols }
    }

    /// Parses a multi-line string of `0`/`1` rows, e.g. `"101\n010"`.
    /// Within a row, spaces and `_`/`|` separators are ignored.
    pub fn from_str_rows(s: &str) -> Option<Self> {
        let mut rows = Vec::new();
        for line in s.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let cleaned: String = line.chars().filter(|c| *c == '0' || *c == '1').collect();
            if line.chars().any(|c| !"01 |_\t".contains(c)) {
                return None;
            }
            rows.push(BitVec::from_bitstring(&cleaned)?);
        }
        let cols = rows.first().map_or(0, |r| r.len());
        if rows.iter().any(|r| r.len() != cols) {
            return None;
        }
        Some(BitMatrix { rows, cols })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reads entry `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> bool {
        self.rows[r].get(c)
    }

    /// Writes entry `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: bool) {
        self.rows[r].set(c, value);
    }

    /// Borrow of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &BitVec {
        &self.rows[r]
    }

    /// Column `c` as an owned vector.
    pub fn col(&self, c: usize) -> BitVec {
        let mut v = BitVec::zeros(self.rows());
        for (i, row) in self.rows.iter().enumerate() {
            v.set(i, row.get(c));
        }
        v
    }

    /// Total number of set bits.
    pub fn count_ones(&self) -> usize {
        self.rows.iter().map(BitVec::count_ones).sum()
    }

    /// `v * M` where `v` is a row vector of length `rows()`.
    /// Returns a row vector of length `cols()`.
    ///
    /// Computed as the XOR of the rows selected by set bits of `v`,
    /// which is word-parallel (no per-column loop).
    pub fn vec_mul(&self, v: &BitVec) -> BitVec {
        assert_eq!(v.len(), self.rows(), "vec_mul: dimension mismatch");
        let mut acc = BitVec::zeros(self.cols);
        for i in v.iter_ones() {
            acc ^= &self.rows[i];
        }
        acc
    }

    /// `M * v^T` where `v` is a column vector of length `cols()`.
    /// Returns a column vector of length `rows()`.
    pub fn mul_vec(&self, v: &BitVec) -> BitVec {
        assert_eq!(v.len(), self.cols, "mul_vec: dimension mismatch");
        let mut out = BitVec::zeros(self.rows());
        for (i, row) in self.rows.iter().enumerate() {
            out.set(i, row.dot(v));
        }
        out
    }

    /// Matrix product `self * other`.
    pub fn mat_mul(&self, other: &BitMatrix) -> BitMatrix {
        assert_eq!(self.cols, other.rows(), "mat_mul: dimension mismatch");
        let rows = self
            .rows
            .iter()
            .map(|r| other.transpose_mul_row(r))
            .collect();
        BitMatrix {
            rows,
            cols: other.cols,
        }
    }

    fn transpose_mul_row(&self, r: &BitVec) -> BitVec {
        // row r (len = self.rows) times self -> len self.cols
        let mut acc = BitVec::zeros(self.cols);
        for i in r.iter_ones() {
            acc ^= &self.rows[i];
        }
        acc
    }

    /// The transpose.
    pub fn transpose(&self) -> BitMatrix {
        let mut t = BitMatrix::zeros(self.cols, self.rows());
        for (r, row) in self.rows.iter().enumerate() {
            for c in row.iter_ones() {
                t.set(c, r, true);
            }
        }
        t
    }

    /// Horizontal concatenation `[self | other]`.
    ///
    /// # Panics
    /// Panics if row counts differ.
    pub fn hstack(&self, other: &BitMatrix) -> BitMatrix {
        assert_eq!(self.rows(), other.rows(), "hstack: row count mismatch");
        let rows = self
            .rows
            .iter()
            .zip(&other.rows)
            .map(|(a, b)| a.concat(b))
            .collect();
        BitMatrix {
            rows,
            cols: self.cols + other.cols,
        }
    }

    /// Vertical concatenation (self on top).
    ///
    /// # Panics
    /// Panics if column counts differ.
    pub fn vstack(&self, other: &BitMatrix) -> BitMatrix {
        assert_eq!(self.cols, other.cols, "vstack: column count mismatch");
        let mut rows = self.rows.clone();
        rows.extend(other.rows.iter().cloned());
        BitMatrix {
            rows,
            cols: self.cols,
        }
    }

    /// The sub-matrix of columns `range`.
    pub fn col_slice(&self, range: std::ops::Range<usize>) -> BitMatrix {
        let rows = self.rows.iter().map(|r| r.slice(range.clone())).collect();
        BitMatrix {
            rows,
            cols: range.len(),
        }
    }

    /// Rank over GF(2), by Gaussian elimination on a copy.
    pub fn rank(&self) -> usize {
        let (reduced, _) = self.row_echelon();
        reduced.rows.iter().filter(|r| !r.is_zero()).count()
    }

    /// Reduced row-echelon form and the list of pivot columns.
    pub fn row_echelon(&self) -> (BitMatrix, Vec<usize>) {
        let mut m = self.clone();
        let mut pivots = Vec::new();
        let mut r = 0;
        for c in 0..m.cols {
            if r >= m.rows() {
                break;
            }
            // find a pivot row at or below r with a 1 in column c
            let Some(p) = (r..m.rows()).find(|&i| m.get(i, c)) else {
                continue;
            };
            m.rows.swap(r, p);
            // clear column c from every other row (full RREF)
            let pivot_row = m.rows[r].clone();
            for (i, row) in m.rows.iter_mut().enumerate() {
                if i != r && row.get(c) {
                    *row ^= &pivot_row;
                }
            }
            pivots.push(c);
            r += 1;
        }
        (m, pivots)
    }

    /// `true` if this is the identity matrix.
    pub fn is_identity(&self) -> bool {
        self.rows() == self.cols
            && self
                .rows
                .iter()
                .enumerate()
                .all(|(i, r)| r.count_ones() == 1 && r.get(i))
    }

    /// A basis of the null space: all `x` with `self * x^T = 0`.
    ///
    /// Each returned vector has length `cols()`. The null space is the
    /// GF(2) span of the returned basis.
    pub fn null_space(&self) -> Vec<BitVec> {
        let (rref, pivots) = self.row_echelon();
        let mut is_pivot = vec![false; self.cols];
        for &p in &pivots {
            is_pivot[p] = true;
        }
        let free: Vec<usize> = (0..self.cols).filter(|&c| !is_pivot[c]).collect();
        let mut basis = Vec::with_capacity(free.len());
        for &f in &free {
            let mut v = BitVec::zeros(self.cols);
            v.set(f, true);
            // back-substitute: pivot row i has its pivot at pivots[i]
            for (i, &p) in pivots.iter().enumerate() {
                if rref.get(i, f) {
                    v.set(p, true);
                }
            }
            basis.push(v);
        }
        basis
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BitMatrix {}x{} [", self.rows(), self.cols)?;
        for r in &self.rows {
            writeln!(f, "  {r}")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hamming74_g() -> BitMatrix {
        BitMatrix::from_str_rows(
            "1000|101
             0100|110
             0010|111
             0001|011",
        )
        .unwrap()
    }

    #[test]
    fn identity_properties() {
        let i = BitMatrix::identity(5);
        assert!(i.is_identity());
        assert_eq!(i.rank(), 5);
        assert_eq!(i.count_ones(), 5);
        assert!(!BitMatrix::zeros(3, 3).is_identity());
    }

    #[test]
    fn paper_fig2_encode() {
        // Fig. 2 of the paper: (0011) * G = (0011|100).
        let g = hamming74_g();
        let d = BitVec::from_bitstring("0011").unwrap();
        let w = g.vec_mul(&d);
        assert_eq!(format!("{w}"), "0011100");
    }

    #[test]
    fn paper_fig2_check() {
        // H = (P^T | I3); H * w^T = 0 for the valid codeword.
        let g = hamming74_g();
        let p = g.col_slice(4..7);
        let h = p.transpose().hstack(&BitMatrix::identity(3));
        let w = BitVec::from_bitstring("0011100").unwrap();
        assert!(h.mul_vec(&w).is_zero());
        // flipping one bit makes the syndrome equal that column of H
        let mut corrupted = w.clone();
        corrupted.flip(2);
        let syn = h.mul_vec(&corrupted);
        assert_eq!(syn, h.col(2));
    }

    #[test]
    fn transpose_involution() {
        let g = hamming74_g();
        assert_eq!(g.transpose().transpose(), g);
        assert_eq!(g.transpose().rows(), 7);
        assert_eq!(g.transpose().cols(), 4);
    }

    #[test]
    fn mat_mul_identity() {
        let g = hamming74_g();
        assert_eq!(BitMatrix::identity(4).mat_mul(&g), g);
        assert_eq!(g.mat_mul(&BitMatrix::identity(7)), g);
    }

    #[test]
    fn rank_and_echelon() {
        let m = BitMatrix::from_str_rows(
            "110
             011
             101",
        )
        .unwrap();
        // row3 = row1 + row2 over GF(2), so rank 2
        assert_eq!(m.rank(), 2);
        let (_, pivots) = m.row_echelon();
        assert_eq!(pivots, vec![0, 1]);
    }

    #[test]
    fn null_space_members_are_kernel_vectors() {
        let m = BitMatrix::from_str_rows(
            "110
             011
             101",
        )
        .unwrap();
        let ns = m.null_space();
        assert_eq!(ns.len(), 1); // cols - rank = 3 - 2
        for v in &ns {
            assert!(m.mul_vec(v).is_zero());
            assert!(!v.is_zero());
        }
    }

    #[test]
    fn hstack_vstack_shapes() {
        let a = BitMatrix::identity(2);
        let b = BitMatrix::zeros(2, 3);
        let h = a.hstack(&b);
        assert_eq!((h.rows(), h.cols()), (2, 5));
        let v = a.vstack(&BitMatrix::zeros(1, 2));
        assert_eq!((v.rows(), v.cols()), (3, 2));
        assert_eq!(h.col_slice(0..2), a);
    }

    #[test]
    fn col_extraction() {
        let g = hamming74_g();
        assert_eq!(format!("{}", g.col(4)), "1110");
        assert_eq!(format!("{}", g.col(0)), "1000");
    }

    #[test]
    fn from_str_rows_rejects_bad_input() {
        assert!(BitMatrix::from_str_rows("10\n1").is_none());
        assert!(BitMatrix::from_str_rows("1x0").is_none());
    }

    proptest! {
        #[test]
        fn prop_vec_mul_linear(seed_a in any::<u64>(), seed_b in any::<u64>(),
                               rows in 1usize..12, cols in 1usize..12, mseed in any::<u128>()) {
            // (a ^ b) G == aG ^ bG
            let mut m = BitMatrix::zeros(rows, cols);
            for r in 0..rows {
                for c in 0..cols {
                    if (mseed >> ((r * cols + c) % 128)) & 1 == 1 {
                        m.set(r, c, true);
                    }
                }
            }
            let a = BitVec::from_u128(seed_a as u128, rows);
            let b = BitVec::from_u128(seed_b as u128, rows);
            let mut ab = a.clone();
            ab ^= &b;
            let mut lhs = m.vec_mul(&a);
            lhs ^= &m.vec_mul(&b);
            prop_assert_eq!(m.vec_mul(&ab), lhs);
        }

        #[test]
        fn prop_transpose_swaps_products(rows in 1usize..10, cols in 1usize..10,
                                         mseed in any::<u128>(), vseed in any::<u64>()) {
            let mut m = BitMatrix::zeros(rows, cols);
            for r in 0..rows {
                for c in 0..cols {
                    if (mseed >> ((r * cols + c) % 128)) & 1 == 1 {
                        m.set(r, c, true);
                    }
                }
            }
            let v = BitVec::from_u128(vseed as u128, rows);
            // v * M == M^T * v^T
            prop_assert_eq!(m.vec_mul(&v), m.transpose().mul_vec(&v));
        }

        #[test]
        fn prop_rank_bounded(rows in 1usize..10, cols in 1usize..10, mseed in any::<u128>()) {
            let mut m = BitMatrix::zeros(rows, cols);
            for r in 0..rows {
                for c in 0..cols {
                    if (mseed >> ((r * 3 + c * 7) % 128)) & 1 == 1 {
                        m.set(r, c, true);
                    }
                }
            }
            let rank = m.rank();
            prop_assert!(rank <= rows.min(cols));
            // rank-nullity over GF(2)
            prop_assert_eq!(m.null_space().len(), cols - rank);
        }
    }
}
