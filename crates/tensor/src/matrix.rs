//! Row-major dense `f32` matrix.

use crate::{Result, TensorError};

/// A row-major dense matrix of `f32`.
///
/// Node-feature matrices are stored one node per row, which matches the
/// layout the simulated kernels assume when charging coalesced reads of an
/// embedding row.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// An all-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Wraps an existing buffer; `data.len()` must equal `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::ShapeMismatch {
                context: format!(
                    "buffer of {} elements for a {rows}x{cols} matrix",
                    data.len()
                ),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of range"
        );
        self.data[r * self.cols + c]
    }

    /// Element setter.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of range"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The full backing slice, row-major.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The full backing slice, mutable.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning the backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Copies the rows named by `rows`, in order, into a new
    /// `rows.len() x cols` matrix — one slice copy per row. Indices may
    /// repeat; an empty list gives a `0 x cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn gather_rows(&self, rows: &[u32]) -> Matrix {
        let mut data = Vec::with_capacity(rows.len() * self.cols);
        for &r in rows {
            assert!((r as usize) < self.rows, "row {r} out of range");
            data.extend_from_slice(self.row(r as usize));
        }
        Matrix {
            rows: rows.len(),
            cols: self.cols,
            data,
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Size of the backing buffer in bytes, as charged to simulated global
    /// memory.
    pub fn bytes(&self) -> usize {
        self.data.len() * core::mem::size_of::<f32>()
    }

    /// Maximum absolute element-wise difference to another matrix.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(
            self.shape(),
            other.shape(),
            "shape mismatch in max_abs_diff"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn from_fn_layout() {
        let m = Matrix::from_fn(2, 2, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 10.0, 11.0]);
    }

    #[test]
    fn from_vec_shape_checked() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        let t = m.transpose();
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.get(0, 2), m.get(2, 0));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn gather_rows_matches_element_gather() {
        let m = Matrix::from_fn(5, 3, |r, c| (r * 10 + c) as f32 - 0.5);
        for idx in [vec![4u32, 0, 2], vec![1, 1, 3, 1], vec![]] {
            let want = Matrix::from_fn(idx.len(), m.cols(), |r, c| m.get(idx[r] as usize, c));
            let got = m.gather_rows(&idx);
            assert_eq!(got.shape(), (idx.len(), 3));
            assert_eq!(got, want, "indices {idx:?}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gather_rows_bounds_checked() {
        Matrix::zeros(2, 2).gather_rows(&[2]);
    }

    #[test]
    fn max_abs_diff_measures() {
        let a = Matrix::from_fn(2, 2, |_, _| 1.0);
        let mut b = a.clone();
        b.set(1, 1, 1.5);
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_bounds_checked() {
        Matrix::zeros(1, 1).get(0, 1);
    }
}
