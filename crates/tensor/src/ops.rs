//! Element-wise and row-wise tensor operations used by GNN layers.

use crate::matrix::Matrix;

/// In-place ReLU.
pub fn relu_inplace(m: &mut Matrix) {
    for v in m.as_mut_slice() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

/// Adds a bias vector to every row.
///
/// # Panics
///
/// Panics if `bias.len() != m.cols()`.
pub fn add_bias_inplace(m: &mut Matrix, bias: &[f32]) {
    assert_eq!(bias.len(), m.cols(), "bias length must match column count");
    for r in 0..m.rows() {
        for (v, b) in m.row_mut(r).iter_mut().zip(bias) {
            *v += b;
        }
    }
}

/// `a += s * b`, element-wise (AXPY).
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn axpy_inplace(a: &mut Matrix, s: f32, b: &Matrix) {
    assert_eq!(a.shape(), b.shape(), "shape mismatch in axpy_inplace");
    for (x, y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x += s * y;
    }
}

/// Row-wise softmax (numerically stabilized).
pub fn softmax_rows_inplace(m: &mut Matrix) {
    for r in 0..m.rows() {
        softmax_row_inplace(m.row_mut(r));
    }
}

/// Softmax of one row (numerically stabilized), as
/// [`softmax_rows_inplace`] computes each row.
pub fn softmax_row_inplace(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// Concatenates two matrices horizontally (`[a | b]`), as GraphSage does
/// with the self and neighbor embeddings. Returns
/// [`TensorError::ShapeMismatch`](crate::TensorError::ShapeMismatch) if
/// the row counts differ — serving paths reach this with externally
/// shaped inputs, so a mismatch must surface as an error, not a process
/// abort.
pub fn hconcat(a: &Matrix, b: &Matrix) -> crate::Result<Matrix> {
    if a.rows() != b.rows() {
        return Err(crate::TensorError::ShapeMismatch {
            context: format!(
                "hconcat row counts differ: {}x{} vs {}x{}",
                a.rows(),
                a.cols(),
                b.rows(),
                b.cols()
            ),
        });
    }
    let mut out = Matrix::zeros(a.rows(), a.cols() + b.cols());
    for r in 0..a.rows() {
        out.row_mut(r)[..a.cols()].copy_from_slice(a.row(r));
        out.row_mut(r)[a.cols()..].copy_from_slice(b.row(r));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut m = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -0.5]).unwrap();
        relu_inplace(&mut m);
        assert_eq!(m.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn bias_broadcasts_per_row() {
        let mut m = Matrix::zeros(2, 2);
        add_bias_inplace(&mut m, &[1.0, 2.0]);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0]).unwrap();
        softmax_rows_inplace(&mut m);
        for r in 0..2 {
            let s: f32 = m.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(m.row(r).iter().all(|&v| v >= 0.0));
        }
        assert!(m.get(0, 2) > m.get(0, 0), "softmax is monotone");
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::from_vec(1, 2, vec![1.0, 2.0]).unwrap();
        let b = Matrix::from_vec(1, 2, vec![10.0, 10.0]).unwrap();
        axpy_inplace(&mut a, 0.5, &b);
        assert_eq!(a.as_slice(), &[6.0, 7.0]);
    }

    #[test]
    fn hconcat_layout() {
        let a = Matrix::from_vec(2, 1, vec![1.0, 2.0]).unwrap();
        let b = Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]).unwrap();
        let c = hconcat(&a, &b).expect("rows match");
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(1), &[2.0, 5.0, 6.0]);
    }

    #[test]
    fn hconcat_row_mismatch_is_a_typed_error() {
        let a = Matrix::zeros(2, 1);
        let b = Matrix::zeros(3, 1);
        let err = hconcat(&a, &b).expect_err("row mismatch");
        let crate::TensorError::ShapeMismatch { context } = err;
        assert!(context.contains("hconcat"), "{context}");
    }
}
