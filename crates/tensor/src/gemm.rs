//! Blocked single-precision matrix multiply, row-parallel.
//!
//! The update phase of every GNN layer is one or more GEMMs (`X · W`),
//! and the backward pass adds `Xᵀ · dZ` and `dZ · Wᵀ`. Each kernel uses a
//! cache-friendly loop order with row blocking, allocation-free in the
//! inner loops, and runs over contiguous row chunks of its output on
//! `workers` threads through [`crate::par::for_each_row_chunk`]. Every
//! output element accumulates its `k` products in ascending `k` order and
//! skips zero entries of `a`, whatever chunk it lands in, so the result is
//! bitwise equal at any worker count. [`gemm`] and [`gemm_into`] are the
//! one-worker calls.

use crate::matrix::Matrix;
use crate::par::for_each_row_chunk;
use crate::{Result, TensorError};

/// Row/column block edge for the tiled loops.
const BLOCK: usize = 64;

/// Computes `a · b` on the calling thread, allocating the output.
///
/// # Examples
///
/// ```
/// use gnnadvisor_tensor::{gemm, Matrix};
///
/// let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]).unwrap();
/// let b = Matrix::from_vec(2, 1, vec![3.0, 4.0]).unwrap();
/// assert_eq!(gemm(&a, &b).unwrap().as_slice(), &[11.0]);
/// ```
pub fn gemm(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    gemm_par(a, b, 1)
}

/// Computes `a · b` over row chunks on up to `workers` threads, bitwise
/// equal to [`gemm`].
pub fn gemm_par(a: &Matrix, b: &Matrix, workers: usize) -> Result<Matrix> {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    gemm_into_par(a, b, &mut out, workers)?;
    Ok(out)
}

/// Computes `out = a · b` into an existing buffer on the calling thread
/// (must be zeroed or the product is accumulated on top).
pub fn gemm_into(a: &Matrix, b: &Matrix, out: &mut Matrix) -> Result<()> {
    gemm_into_par(a, b, out, 1)
}

/// [`gemm_into`] over row chunks on up to `workers` threads.
fn gemm_into_par(a: &Matrix, b: &Matrix, out: &mut Matrix, workers: usize) -> Result<()> {
    let (m, ka) = a.shape();
    let (kb, n) = b.shape();
    if ka != kb || out.shape() != (m, n) {
        return Err(TensorError::ShapeMismatch {
            context: format!("gemm {m}x{ka} . {kb}x{n} -> {:?}", out.shape()),
        });
    }
    let k = ka;
    let b_data = b.as_slice();
    for_each_row_chunk(out, workers, m * k * n, |rows, out_data| {
        let a_data = &a.as_slice()[rows.start * k..rows.end * k];
        let m = rows.len();
        for i0 in (0..m).step_by(BLOCK) {
            let i1 = (i0 + BLOCK).min(m);
            for k0 in (0..k).step_by(BLOCK) {
                let k1 = (k0 + BLOCK).min(k);
                for i in i0..i1 {
                    let a_row = &a_data[i * k..(i + 1) * k];
                    let out_row = &mut out_data[i * n..(i + 1) * n];
                    for kk in k0..k1 {
                        let aik = a_row[kk];
                        if aik == 0.0 {
                            continue;
                        }
                        let b_row = &b_data[kk * n..(kk + 1) * n];
                        for (o, &bv) in out_row.iter_mut().zip(b_row) {
                            *o += aik * bv;
                        }
                    }
                }
            }
        }
    });
    Ok(())
}

/// Computes `aᵀ · b` without materializing the transpose: `a` is `k x m`,
/// `b` is `k x n`, the result `m x n`, over row chunks on up to
/// `workers` threads.
///
/// Every output element accumulates its `k` products in ascending `k`
/// order and skips zero `a` entries exactly as [`gemm`] does, so the
/// result is bitwise equal to `gemm(&a.transpose(), b)`.
///
/// # Examples
///
/// ```
/// use gnnadvisor_tensor::{gemm, gemm_tn, Matrix};
///
/// let a = Matrix::from_vec(2, 1, vec![1.0, 2.0]).unwrap();
/// let b = Matrix::from_vec(2, 1, vec![3.0, 4.0]).unwrap();
/// assert_eq!(gemm_tn(&a, &b, 1).unwrap(), gemm(&a.transpose(), &b).unwrap());
/// ```
pub fn gemm_tn(a: &Matrix, b: &Matrix, workers: usize) -> Result<Matrix> {
    let (ka, m) = a.shape();
    let (kb, n) = b.shape();
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            context: format!("gemm_tn ({ka}x{m})ᵀ . {kb}x{n}"),
        });
    }
    let mut out = Matrix::zeros(m, n);
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    for_each_row_chunk(&mut out, workers, m * ka * n, |rows, out_data| {
        // Row blocks of the output stay cache-resident while `k` streams
        // through `a` and `b` row by row, in ascending order.
        for i0 in rows.clone().step_by(BLOCK) {
            let i1 = (i0 + BLOCK).min(rows.end);
            for kk in 0..ka {
                let a_row = &a_data[kk * m + i0..kk * m + i1];
                let b_row = &b_data[kk * n..(kk + 1) * n];
                for (i, &aki) in (i0 - rows.start..).zip(a_row) {
                    if aki == 0.0 {
                        continue;
                    }
                    let out_row = &mut out_data[i * n..(i + 1) * n];
                    for (o, &bv) in out_row.iter_mut().zip(b_row) {
                        *o += aki * bv;
                    }
                }
            }
        }
    });
    Ok(out)
}

/// Computes `a · bᵀ` without materializing the transpose: `a` is `m x k`,
/// `b` is `n x k`, the result `m x n`, over row chunks on up to
/// `workers` threads.
///
/// Every output element accumulates its `k` products in ascending `k`
/// order and skips zero `a` entries exactly as [`gemm`] does, so the
/// result is bitwise equal to `gemm(a, &b.transpose())`.
///
/// # Examples
///
/// ```
/// use gnnadvisor_tensor::{gemm, gemm_nt, Matrix};
///
/// let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]).unwrap();
/// let b = Matrix::from_vec(3, 2, vec![3.0, 4.0, 5.0, 6.0, 7.0, 8.0]).unwrap();
/// assert_eq!(gemm_nt(&a, &b, 1).unwrap(), gemm(&a, &b.transpose()).unwrap());
/// ```
pub fn gemm_nt(a: &Matrix, b: &Matrix, workers: usize) -> Result<Matrix> {
    let (m, ka) = a.shape();
    let (n, kb) = b.shape();
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            context: format!("gemm_nt {m}x{ka} . ({n}x{kb})ᵀ"),
        });
    }
    let k = ka;
    let mut out = Matrix::zeros(m, n);
    let b_data = b.as_slice();
    for_each_row_chunk(&mut out, workers, m * k * n, |rows, out_data| {
        let a_data = &a.as_slice()[rows.start * k..rows.end * k];
        for i in 0..rows.len() {
            let a_row = &a_data[i * k..(i + 1) * k];
            let out_row = &mut out_data[i * n..(i + 1) * n];
            for (kk, &aik) in a_row.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                // Column `kk` of `b` is row `kk` of `bᵀ`: stride `k`.
                for (o, &bv) in out_row.iter_mut().zip(b_data[kk..].iter().step_by(k)) {
                    *o += aik * bv;
                }
            }
        }
    });
    Ok(out)
}

/// Reference triple-loop multiply used to validate [`gemm`] in tests.
#[doc(hidden)]
pub fn gemm_naive(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    let (m, ka) = a.shape();
    let (kb, n) = b.shape();
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            context: format!("naive gemm {ka} vs {kb}"),
        });
    }
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for kk in 0..ka {
                acc += a.get(i, kk) * b.get(kk, j);
            }
            out.set(i, j, acc);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::tests::with_min_work;

    #[test]
    fn small_known_product() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = gemm(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matches_naive_on_odd_shapes() {
        // Sizes straddle the block edge to exercise remainder handling.
        for &(m, k, n) in &[(1, 1, 1), (5, 7, 3), (65, 64, 63), (130, 70, 1)] {
            let a = Matrix::from_fn(m, k, |r, c| ((r * 31 + c * 7) % 13) as f32 - 6.0);
            let b = Matrix::from_fn(k, n, |r, c| ((r * 17 + c * 5) % 11) as f32 - 5.0);
            let fast = gemm(&a, &b).unwrap();
            let slow = gemm_naive(&a, &b).unwrap();
            assert!(fast.max_abs_diff(&slow) < 1e-3, "mismatch at {m}x{k}x{n}");
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        assert!(gemm(&a, &b).is_err());
        let mut out = Matrix::zeros(3, 3);
        let b_ok = Matrix::zeros(3, 2);
        assert!(
            gemm_into(&a, &b_ok, &mut out).is_err(),
            "wrong output shape"
        );
    }

    /// Operands with exact `0.0` and `-0.0` entries (the skip path) and
    /// values whose sums round differently in another order.
    fn operand(rows: usize, cols: usize, salt: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| match (r * 7 + c * 3 + salt) % 9 {
            0 => 0.0,
            1 => -0.0,
            v => (v as f32 - 4.5) * 0.1 + ((r * 31 + c * 17 + salt) % 23) as f32 * 1e-3,
        })
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Shapes straddling `BLOCK` on every axis, plus degenerate edges.
    const SHAPES: [(usize, usize, usize); 7] = [
        (1, 1, 1),
        (5, 7, 3),
        (63, 65, 1),
        (64, 64, 64),
        (65, 130, 17),
        (130, 3, 66),
        (0, 4, 2),
    ];

    #[test]
    fn gemm_tn_is_bitwise_gemm_on_the_transpose() {
        for &(m, k, n) in &SHAPES {
            let a = operand(k, m, 1);
            let b = operand(k, n, 2);
            let want = gemm(&a.transpose(), &b).unwrap();
            let got = gemm_tn(&a, &b, 1).unwrap();
            assert_eq!(got.shape(), (m, n));
            assert_eq!(bits(&got), bits(&want), "gemm_tn at {m}x{k}x{n}");
        }
    }

    #[test]
    fn gemm_nt_is_bitwise_gemm_on_the_transpose() {
        for &(m, k, n) in &SHAPES {
            let a = operand(m, k, 3);
            let b = operand(n, k, 4);
            let want = gemm(&a, &b.transpose()).unwrap();
            let got = gemm_nt(&a, &b, 1).unwrap();
            assert_eq!(got.shape(), (m, n));
            assert_eq!(bits(&got), bits(&want), "gemm_nt at {m}x{k}x{n}");
        }
    }

    #[test]
    fn transposed_variants_skip_zeros_like_gemm() {
        // A zero in `a` skips its product even against an infinity, so
        // no NaN appears; gemm on the materialized transpose agrees.
        let a = Matrix::from_vec(2, 2, vec![0.0, 1.0, -0.0, 2.0]).unwrap();
        let b = Matrix::from_vec(2, 2, vec![f32::INFINITY, 1.0, 3.0, 4.0]).unwrap();
        let tn = gemm_tn(&a, &b, 1).unwrap();
        assert_eq!(bits(&tn), bits(&gemm(&a.transpose(), &b).unwrap()));
        assert!(tn.get(0, 0).is_finite(), "{tn:?}");
        let nt = gemm_nt(&a, &b, 1).unwrap();
        assert_eq!(bits(&nt), bits(&gemm(&a, &b.transpose()).unwrap()));
        assert!(nt.get(0, 0).is_finite(), "{nt:?}");
    }

    #[test]
    fn transposed_variants_reject_shape_mismatch() {
        let a = Matrix::zeros(3, 2);
        let b = Matrix::zeros(4, 2);
        assert!(matches!(
            gemm_tn(&a, &b, 1),
            Err(TensorError::ShapeMismatch { .. })
        ));
        let b = Matrix::zeros(4, 3);
        assert!(matches!(
            gemm_nt(&a, &b, 1),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn every_worker_count_is_bitwise_one_worker() {
        // With no per-worker minimum even these small shapes split, into
        // chunks that cut through `BLOCK`-row blocks.
        with_min_work(0, || {
            for &(m, k, n) in &SHAPES {
                let a = operand(m, k, 5);
                let b = operand(k, n, 6);
                let at = operand(k, m, 7);
                let bt = operand(n, k, 8);
                let serial = [
                    gemm(&a, &b).unwrap(),
                    gemm_tn(&at, &b, 1).unwrap(),
                    gemm_nt(&a, &bt, 1).unwrap(),
                ];
                for workers in 1..=5 {
                    let mut into = operand(m, n, 9);
                    let mut into_serial = into.clone();
                    gemm_into(&a, &b, &mut into_serial).unwrap();
                    gemm_into_par(&a, &b, &mut into, workers).unwrap();
                    let parallel = [
                        gemm_par(&a, &b, workers).unwrap(),
                        gemm_tn(&at, &b, workers).unwrap(),
                        gemm_nt(&a, &bt, workers).unwrap(),
                    ];
                    for (name, (got, want)) in ["gemm", "gemm_tn", "gemm_nt"]
                        .iter()
                        .zip(parallel.iter().zip(&serial))
                    {
                        assert_eq!(bits(got), bits(want), "{name} {m}x{k}x{n} at {workers}");
                    }
                    assert_eq!(bits(&into), bits(&into_serial), "gemm_into accumulates");
                }
            }
        });
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        let id = Matrix::from_fn(4, 4, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(gemm(&a, &id).unwrap(), a);
        assert_eq!(gemm(&id, &a).unwrap(), a);
    }
}
