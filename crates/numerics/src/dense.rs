//! Row-major dense matrices and LU factorization with partial pivoting.
//!
//! Modified nodal analysis (MNA) systems for the circuits in this workspace
//! are small (tens of unknowns; an 8×8 array tile, the largest, has 128),
//! where a dense factorization with partial pivoting is both the fastest and
//! the most robust choice.

use crate::NumericsError;

/// A dense, row-major `f64` matrix.
///
/// # Examples
///
/// ```
/// use oxterm_numerics::dense::DMatrix;
///
/// let mut m = DMatrix::zeros(2, 2);
/// m.add(0, 0, 1.0);
/// m.add(1, 1, 2.0);
/// assert_eq!(m.get(1, 1), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DMatrix {
    n_rows: usize,
    n_cols: usize,
    data: Vec<f64>,
}

impl DMatrix {
    /// Creates an `n_rows × n_cols` matrix of zeros.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        DMatrix {
            n_rows,
            n_cols,
            data: vec![0.0; n_rows * n_cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = DMatrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if the rows have unequal
    /// lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, NumericsError> {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(n_rows * n_cols);
        for row in rows {
            if row.len() != n_cols {
                return Err(NumericsError::DimensionMismatch {
                    expected: n_cols,
                    found: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(DMatrix {
            n_rows,
            n_cols,
            data,
        })
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    #[inline]
    fn idx(&self, row: usize, col: usize) -> usize {
        debug_assert!(row < self.n_rows && col < self.n_cols);
        row * self.n_cols + col
    }

    /// Returns the entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.data[self.idx(row, col)]
    }

    /// Sets the entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        let i = self.idx(row, col);
        self.data[i] = value;
    }

    /// Adds `value` to the entry at `(row, col)` — the fundamental MNA
    /// "stamp" operation.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        let i = self.idx(row, col);
        self.data[i] += value;
    }

    /// Resets every entry to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Computes `self * x`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `x.len() != n_cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>, NumericsError> {
        if x.len() != self.n_cols {
            return Err(NumericsError::DimensionMismatch {
                expected: self.n_cols,
                found: x.len(),
            });
        }
        let mut y = vec![0.0; self.n_rows];
        for (i, yi) in y.iter_mut().enumerate() {
            let row = &self.data[i * self.n_cols..(i + 1) * self.n_cols];
            *yi = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        Ok(y)
    }

    /// Maximum absolute entry (∞-norm of the vectorized matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// Factorizes the matrix as `P·A = L·U` with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::SingularMatrix`] if a pivot underflows to an
    /// unusable magnitude, and [`NumericsError::DimensionMismatch`] for
    /// non-square matrices.
    pub fn factorize(&self) -> Result<LuFactors, NumericsError> {
        LuFactors::new(self.clone())
    }

    /// Read-only view of the underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }
}

/// The result of an LU factorization with partial pivoting.
///
/// Produced by [`DMatrix::factorize`]; reusable across multiple right-hand
/// sides, which is how the transient solver amortizes refactorization cost
/// when the Jacobian is unchanged.
#[derive(Debug, Clone)]
pub struct LuFactors {
    lu: DMatrix,
    /// `perm[k]` is the original row index that ended up in pivot position `k`.
    perm: Vec<usize>,
}

/// Pivots smaller than this (relative to the column scale) are treated as
/// structurally singular.
const PIVOT_FLOOR: f64 = 1e-13;

impl LuFactors {
    fn new(mut a: DMatrix) -> Result<Self, NumericsError> {
        if a.n_rows != a.n_cols {
            return Err(NumericsError::DimensionMismatch {
                expected: a.n_rows,
                found: a.n_cols,
            });
        }
        let n = a.n_rows;
        let mut perm: Vec<usize> = (0..n).collect();
        let scale = a.max_abs().max(1.0);
        for k in 0..n {
            // Partial pivot: the largest entry in column k at or below row k.
            let mut p = k;
            let mut p_val = a.get(k, k).abs();
            for i in (k + 1)..n {
                let v = a.get(i, k).abs();
                if v > p_val {
                    p = i;
                    p_val = v;
                }
            }
            if p_val <= PIVOT_FLOOR * scale {
                return Err(NumericsError::SingularMatrix { step: k });
            }
            if p != k {
                for j in 0..n {
                    let tmp = a.get(k, j);
                    a.set(k, j, a.get(p, j));
                    a.set(p, j, tmp);
                }
                perm.swap(k, p);
            }
            let pivot = a.get(k, k);
            for i in (k + 1)..n {
                let factor = a.get(i, k) / pivot;
                a.set(i, k, factor);
                if factor != 0.0 {
                    for j in (k + 1)..n {
                        let v = a.get(i, j) - factor * a.get(k, j);
                        a.set(i, j, v);
                    }
                }
            }
        }
        Ok(LuFactors { lu: a, perm })
    }

    /// Dimension of the factorized system.
    pub fn n(&self) -> usize {
        self.lu.n_rows
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `b.len() != n`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumericsError> {
        let n = self.n();
        if b.len() != n {
            return Err(NumericsError::DimensionMismatch {
                expected: n,
                found: b.len(),
            });
        }
        // Apply the row permutation.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        // Forward substitution (L has implicit unit diagonal).
        for i in 1..n {
            let mut sum = x[i];
            for (j, &xj) in x.iter().enumerate().take(i) {
                sum -= self.lu.get(i, j) * xj;
            }
            x[i] = sum;
        }
        // Back substitution.
        for i in (0..n).rev() {
            let mut sum = x[i];
            for (j, &xj) in x.iter().enumerate().skip(i + 1) {
                sum -= self.lu.get(i, j) * xj;
            }
            x[i] = sum / self.lu.get(i, i);
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solves_to_rhs() {
        let lu = DMatrix::identity(4).factorize().unwrap();
        let b = [1.0, -2.0, 3.0, 0.5];
        let x = lu.solve(&b).unwrap();
        for (xi, bi) in x.iter().zip(&b) {
            assert!((xi - bi).abs() < 1e-15);
        }
    }

    #[test]
    fn known_2x2_system() {
        let a = DMatrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
        let x = a.factorize().unwrap().solve(&[1.0, 2.0]).unwrap();
        // Exact solution of [[4,1],[1,3]] x = [1,2] is [1/11, 7/11].
        assert!((x[0] - 1.0 / 11.0).abs() < 1e-14);
        assert!((x[1] - 7.0 / 11.0).abs() < 1e-14);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = DMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = a.factorize().unwrap().solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-14);
        assert!((x[1] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        match a.factorize() {
            Err(NumericsError::SingularMatrix { .. }) => {}
            other => panic!("expected singular, got {other:?}"),
        }
    }

    #[test]
    fn non_square_factorization_rejected() {
        let a = DMatrix::zeros(2, 3);
        assert!(matches!(
            a.factorize(),
            Err(NumericsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn ragged_rows_rejected() {
        let r = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
        assert!(matches!(
            r,
            Err(NumericsError::DimensionMismatch {
                expected: 2,
                found: 1
            })
        ));
    }

    #[test]
    fn mul_vec_matches_manual() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let y = a.mul_vec(&[1.0, 1.0]).unwrap();
        assert_eq!(y, vec![3.0, 7.0]);
        assert!(a.mul_vec(&[1.0]).is_err());
    }

    #[test]
    fn stamp_accumulates() {
        let mut m = DMatrix::zeros(2, 2);
        m.add(0, 0, 1.0);
        m.add(0, 0, 2.5);
        assert_eq!(m.get(0, 0), 3.5);
        m.clear();
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn random_residuals_are_small() {
        // Deterministic LCG, no external dependency in unit scope.
        let mut state: u64 = 0x243F_6A88_85A3_08D3;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        for n in [3usize, 8, 17, 40] {
            let mut a = DMatrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    a.set(i, j, next());
                }
                a.add(i, i, 4.0); // diagonally dominant => well conditioned
            }
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            let x = a.factorize().unwrap().solve(&b).unwrap();
            let r = a.mul_vec(&x).unwrap();
            for (ri, bi) in r.iter().zip(&b) {
                assert!((ri - bi).abs() < 1e-10, "n={n} residual too large");
            }
        }
    }
}
