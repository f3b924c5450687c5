//! Register-tiled single-precision matrix multiply, row-parallel.
//!
//! The update phase of every GNN layer is one or more GEMMs (`X · W`),
//! and the backward pass adds `Xᵀ · dZ` and `dZ · Wᵀ`. All three run
//! through one micro-kernel:
//!
//! - The right operand (`b`, or `bᵀ` for [`gemm_nt`]) is packed once per
//!   call into zero-padded `k × PANEL` column panels, shared read-only by
//!   the row-chunk workers of [`crate::par::for_each_row_chunk`].
//! - The kernel keeps a `TILE_ROWS × PANEL` tile of the output in
//!   registers across a k-block of up to `K_BLOCK` products. It reads the
//!   left operand in place: `TILE_ROWS` rows for [`gemm`] and
//!   [`gemm_nt`], `TILE_ROWS` adjacent columns per `k` for [`gemm_tn`].
//!   Between k-blocks the tile goes back to the output and is reloaded
//!   unchanged, so the blocks only bound the working set.
//! - The zero skip costs no branch per term where it cannot change a
//!   bit: when `b` is finite and the tile holds no `-0.0`, adding a zero
//!   term is a no-op, so the tile adds every product. Otherwise the tile
//!   branches on each zero `a` entry. On ReLU'd operands such a branch
//!   would mispredict about half the time.
//!
//! Every output element starts from its value in the output, adds
//! `a(i,k) · b(k,j)` for ascending `k` with a separate multiply and add,
//! and skips exactly the terms where `a(i,k) == 0.0`. That is the plain
//! triple loop's order whatever tile, panel, k-block or row chunk the
//! element lands in, so the result is bitwise equal to it at any worker
//! count. [`gemm`] and [`gemm_into`] are the one-worker calls.
//!
//! The row-chunk kernel is one source compiled twice ([`crate::simd`]):
//! for baseline x86-64 and for AVX2, where the 16-wide tile rows fill
//! two 8-lane registers instead of four 4-lane ones. A call picks its
//! body once, on the calling thread, and every chunk runs it. The bodies
//! give the same bits, because each element's operations and their order
//! are fixed by the source; FMA stays disabled, since a fused
//! multiply-add rounds once where the contract rounds twice.

use std::ops::Range;

use crate::matrix::Matrix;
use crate::par::for_each_row_chunk;
use crate::simd::{Body, Kernel};
use crate::{Result, TensorError};

/// Columns of a packed panel of the right operand, and of an output tile.
const PANEL: usize = 16;

/// Output rows of a register tile.
const TILE_ROWS: usize = 2;

/// Products an output tile accumulates in registers before it goes back
/// to the output.
const K_BLOCK: usize = 256;

/// Bits of `-0.0`.
const NEG_ZERO: u32 = 0x8000_0000;

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
    multiply(Left::rows(a), &Panels::rows(b), out, workers);
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
    multiply(Left::columns(a), &Panels::rows(b), &mut out, workers);
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
    let mut out = Matrix::zeros(m, n);
    multiply(Left::rows(a), &Panels::columns(b), &mut out, workers);
    Ok(out)
}

/// The right operand as zero-padded `k × PANEL` column panels: row `kk`
/// of panel `p` holds `b(kk, p·PANEL ..)`, at `data[p·k + kk]`.
struct Panels {
    data: Vec<[f32; PANEL]>,
    k: usize,
    /// Whether every entry of `b` is finite.
    finite: bool,
}

impl Panels {
    /// `b` itself, `k x n`.
    fn rows(b: &Matrix) -> Self {
        let (k, n) = b.shape();
        let data = b.as_slice();
        Self::pack(k, n, |kk, j| data[kk * n + j])
    }

    /// `bᵀ`, where `b` is `n x k`.
    fn columns(b: &Matrix) -> Self {
        let (n, k) = b.shape();
        let data = b.as_slice();
        Self::pack(k, n, |kk, j| data[j * k + kk])
    }

    /// Packs the `k x n` right operand whose element `(kk, j)` is `b(kk, j)`.
    fn pack(k: usize, n: usize, b: impl Fn(usize, usize) -> f32) -> Self {
        let mut data = vec![[0.0; PANEL]; k * n.div_ceil(PANEL)];
        for (i, row) in data.iter_mut().enumerate() {
            let (col, kk) = (i / k * PANEL, i % k);
            for (jj, v) in row.iter_mut().take(n - col).enumerate() {
                *v = b(kk, col + jj);
            }
        }
        let finite = data.iter().flatten().all(|v| v.is_finite());
        Self { data, k, finite }
    }

    /// Rows `ks` of the panel that starts at output column `col`.
    #[inline(always)]
    fn block(&self, col: usize, ks: Range<usize>) -> &[[f32; PANEL]] {
        let base = col / PANEL * self.k;
        &self.data[base + ks.start..base + ks.end]
    }
}

/// The left operand in place: `a(i, kk)` is `data[i·row_stride + kk·k_stride]`.
#[derive(Clone, Copy)]
struct Left<'a> {
    data: &'a [f32],
    row_stride: usize,
    k_stride: usize,
}

impl<'a> Left<'a> {
    /// `a` itself: row `i` of the product reads row `i` of `a`.
    fn rows(a: &'a Matrix) -> Self {
        Self {
            data: a.as_slice(),
            row_stride: a.cols(),
            k_stride: 1,
        }
    }

    /// `aᵀ`: row `i` of the product reads column `i` of `a`.
    fn columns(a: &'a Matrix) -> Self {
        Self {
            data: a.as_slice(),
            row_stride: 1,
            k_stride: a.cols(),
        }
    }

    /// `a(i, kk)`.
    #[inline(always)]
    fn at(&self, i: usize, kk: usize) -> f32 {
        self.data[i * self.row_stride + kk * self.k_stride]
    }
}

/// Accumulates `left · panels` onto `out` over row chunks on up to
/// `workers` threads, each chunk in the body [`Body::detect`] picks here,
/// on the calling thread.
fn multiply(left: Left<'_>, panels: &Panels, out: &mut Matrix, workers: usize) {
    let (m, n) = out.shape();
    let body = Body::detect();
    for_each_row_chunk(out, workers, m * panels.k * n, |rows, chunk| {
        body.run(Chunk {
            left,
            panels,
            rows,
            chunk,
            n,
        });
    });
}

/// One row chunk of a product: the rows `rows` of the output, `n`
/// columns each, held in `chunk`.
struct Chunk<'a, 'b> {
    left: Left<'a>,
    panels: &'a Panels,
    rows: Range<usize>,
    chunk: &'b mut [f32],
    n: usize,
}

impl Kernel for Chunk<'_, '_> {
    type Output = ();

    #[inline(always)]
    fn compute(self) {
        let Chunk {
            left,
            panels,
            rows,
            chunk,
            n,
        } = self;
        let k = panels.k;
        for k0 in (0..k).step_by(K_BLOCK) {
            let ks = k0..(k0 + K_BLOCK).min(k);
            // Whole tiles, then the rows left over one at a time.
            let tiled = rows.start + rows.len() / TILE_ROWS * TILE_ROWS;
            for i in (rows.start..tiled).step_by(TILE_ROWS) {
                let at = (i - rows.start) * n;
                let out = &mut chunk[at..at + TILE_ROWS * n];
                for col in (0..n).step_by(PANEL) {
                    tile::<TILE_ROWS>(left, i, ks.clone(), panels, out, col);
                }
            }
            for i in tiled..rows.end {
                let at = (i - rows.start) * n;
                let out = &mut chunk[at..at + n];
                for col in (0..n).step_by(PANEL) {
                    tile::<1>(left, i, ks.clone(), panels, out, col);
                }
            }
        }
    }
}

/// Adds the products over the k-block `ks` to the `R × PANEL` tile of
/// `out` (`R` rows of the product from row `i`) at column `col`, with the
/// tile held in registers.
#[inline(always)]
fn tile<const R: usize>(
    left: Left<'_>,
    i: usize,
    ks: Range<usize>,
    panels: &Panels,
    out: &mut [f32],
    col: usize,
) {
    let n = out.len() / R;
    let w = (n - col).min(PANEL);
    // Whole PANEL-wide rows in and out: the tile is only ever indexed by
    // constants, so it can live in registers.
    let mut acc = [[0.0f32; PANEL]; R];
    for (r, acc_row) in acc.iter_mut().enumerate() {
        let mut row = [0.0; PANEL];
        row[..w].copy_from_slice(&out[r * n + col..r * n + col + w]);
        *acc_row = row;
    }
    // A zero `a(i,k)` times a finite `b(k,j)` is `±0.0`, and adding `±0.0`
    // leaves every value but `-0.0` unchanged, bit for bit. A sum that does
    // not start at `-0.0` never reaches it: `x + y` rounds to `-0.0` only
    // when both are `-0.0`. So unless `b` holds an infinity or a NaN, or
    // the tile holds a `-0.0`, adding every product skips the zero terms
    // exactly, without a branch per term.
    let skip = !panels.finite || acc.iter().flatten().any(|v| v.to_bits() == NEG_ZERO);
    let b = panels.block(col, ks.clone());
    if skip {
        accumulate::<R, true>(&mut acc, left, i, ks.start, b);
    } else {
        accumulate::<R, false>(&mut acc, left, i, ks.start, b);
    }
    for (r, acc_row) in acc.iter().enumerate() {
        let row = *acc_row;
        out[r * n + col..r * n + col + w].copy_from_slice(&row[..w]);
    }
}

/// Adds `a(i + r, k0 + t) · b[t]` to `acc[r]` for ascending `t`, skipping
/// the zero `a` entries when `SKIP`.
#[inline(always)]
fn accumulate<const R: usize, const SKIP: bool>(
    acc: &mut [[f32; PANEL]; R],
    left: Left<'_>,
    i: usize,
    k0: usize,
    b: &[[f32; PANEL]],
) {
    for (kk, b_row) in (k0..).zip(b) {
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let a = left.at(i + r, kk);
            if SKIP && a == 0.0 {
                continue;
            }
            for (o, &bv) in acc_row.iter_mut().zip(b_row) {
                *o += a * bv;
            }
        }
    }
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
    use crate::simd::tests::{for_each_body, with_baseline};

    #[test]
    fn small_known_product() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = gemm(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matches_naive_on_odd_shapes() {
        // Sizes straddle the panel width to exercise remainder handling.
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

    /// Shapes straddling the 16-wide panels and the 2-row tiles, plus
    /// degenerate edges.
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
        // chunks that end in a partial tile.
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

    /// The contract every kernel keeps, as the plain triple loop: each
    /// element starts from its value in `out` and adds `a(i,k) · b(k,j)`
    /// for ascending `k`, a separate multiply and add, skipping exactly
    /// the terms where `a(i,k) == 0.0`.
    fn gemm_reference(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = out.get(i, j);
                for kk in 0..a.cols() {
                    let aik = a.get(i, kk);
                    if aik == 0.0 {
                        continue;
                    }
                    acc += aik * b.get(kk, j);
                }
                out.set(i, j, acc);
            }
        }
    }

    /// Bits with every NaN mapped to one pattern: Rust leaves the payload
    /// and sign of a NaN produced by arithmetic unspecified, so two
    /// correct evaluations of the same sum may differ only there.
    fn exact_bits(m: &Matrix) -> Vec<u32> {
        m.as_slice()
            .iter()
            .map(|v| {
                if v.is_nan() {
                    f32::NAN.to_bits()
                } else {
                    v.to_bits()
                }
            })
            .collect()
    }

    /// Checks `gemm`, `gemm_into` onto `start`, `gemm_tn` and `gemm_nt`
    /// against [`gemm_reference`] bit for bit at 1..=5 workers, with no
    /// per-worker minimum so every shape splits, in every body this CPU
    /// has.
    fn assert_exact(a: &Matrix, b: &Matrix, start: &Matrix) {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut from_zero = Matrix::zeros(m, n);
        gemm_reference(a, b, &mut from_zero);
        let mut from_start = start.clone();
        gemm_reference(a, b, &mut from_start);
        let (want_zero, want_start) = (exact_bits(&from_zero), exact_bits(&from_start));
        let (at, bt) = (a.transpose(), b.transpose());
        for_each_body(|body| {
            with_min_work(0, || {
                for workers in 1..=5 {
                    let at_shape = format!("{m}x{k}x{n} at {workers} workers, {body} body");
                    let got = gemm_par(a, b, workers).unwrap();
                    assert_eq!(exact_bits(&got), want_zero, "gemm {at_shape}");
                    let mut into = start.clone();
                    gemm_into_par(a, b, &mut into, workers).unwrap();
                    assert_eq!(exact_bits(&into), want_start, "gemm_into {at_shape}");
                    let got = gemm_tn(&at, b, workers).unwrap();
                    assert_eq!(exact_bits(&got), want_zero, "gemm_tn {at_shape}");
                    let got = gemm_nt(a, &bt, workers).unwrap();
                    assert_eq!(exact_bits(&got), want_zero, "gemm_nt {at_shape}");
                }
                let mut into = start.clone();
                gemm_into(a, b, &mut into).unwrap();
                assert_eq!(
                    exact_bits(&into),
                    want_start,
                    "gemm_into {m}x{k}x{n}, {body} body"
                );
                assert_eq!(
                    exact_bits(&gemm(a, b).unwrap()),
                    want_zero,
                    "gemm {m}x{k}x{n}, {body} body"
                );
            });
        });
    }

    /// A deterministic operand: about a third exact zeros (half of them
    /// `-0.0`), the rest spread over a few magnitudes so that sums round
    /// differently in another order.
    fn mixed_operand(rows: usize, cols: usize, salt: u64) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            let mut h = (r as u64 * 0x9E37_79B9 + c as u64 * 0x85EB_CA6B + salt)
                .wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
            h ^= h >> 29;
            match h % 6 {
                0 => 0.0,
                1 => -0.0,
                _ => ((h >> 8) % 2001) as f32 / 1000.0 - 1.0 + ((h >> 20) % 7) as f32 * 1e-4,
            }
        })
    }

    /// Output widths on both sides of 16 (the trainers' 10- and 12-wide
    /// class tails among them), depths on both sides of 256, and odd row
    /// counts from 1 to 37.
    const EXACT_WIDTHS: [usize; 8] = [1, 10, 12, 15, 16, 17, 33, 64];
    const EXACT_DEPTHS: [usize; 6] = [1, 7, 255, 256, 257, 600];
    const EXACT_ROWS: [usize; 5] = [1, 3, 5, 9, 37];

    #[test]
    fn every_kernel_keeps_the_exact_contract() {
        for &m in &EXACT_ROWS {
            for &k in &EXACT_DEPTHS {
                for &n in &EXACT_WIDTHS {
                    let salt = (m * 1000 + k * 10 + n) as u64;
                    let mut a = mixed_operand(m, k, salt);
                    let mut b = mixed_operand(k, n, salt + 1);
                    // Infinities and NaNs, some of them behind zero `a`
                    // entries (skipped, so no NaN) and some not. Narrow
                    // shapes keep finite rows and columns to compare.
                    if n >= 3 {
                        b.set(k / 2, 0, f32::NEG_INFINITY);
                        b.set(k - 1, n - 1, f32::NAN);
                        b.set(0, n / 2, f32::INFINITY);
                        for i in (0..m).step_by(2) {
                            a.set(i, k / 2, if i % 4 == 0 { 0.0 } else { -0.0 });
                        }
                    }
                    if m >= 3 {
                        a.set(m - 1, 0, f32::INFINITY);
                        a.set(m / 2, k - 1, f32::NAN);
                    }
                    let mut start = mixed_operand(m, n, salt + 2);
                    start.set(0, 0, -0.0);
                    assert_exact(&a, &b, &start);
                }
            }
        }
    }

    #[test]
    fn zero_terms_skip_exactly_with_and_without_a_branch() {
        // Zero `a` entries against a finite `b` and a `+0.0` start take the
        // path that adds every product; a `-0.0` in one tile's start, or an
        // infinity in `b`, takes the one that skips them. Row 4 of `a` is
        // all zeros, so its outputs are the start values exactly.
        for &k in &[1, 7, 256, 600] {
            for &n in &[1, 10, 16, 33] {
                let mut a = mixed_operand(9, k, k as u64);
                for kk in 0..k {
                    a.set(4, kk, if kk % 2 == 0 { 0.0 } else { -0.0 });
                }
                let mut b = mixed_operand(k, n, n as u64);
                let mut start = Matrix::zeros(9, n);
                assert_exact(&a, &b, &start);
                start.set(4, n - 1, -0.0);
                assert_exact(&a, &b, &start);
                b.set(k - 1, 0, f32::INFINITY);
                assert_exact(&a, &b, &start);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Random shapes and operands drawn from a small value set with
        /// signed zeros, repeated magnitudes and an occasional infinity.
        #[test]
        fn random_products_keep_the_exact_contract(
            m in 1usize..24,
            k in 1usize..300,
            n in 1usize..40,
            salt in 0u64..1_000_000,
        ) {
            const VALUES: [f32; 12] =
                [0.0, -0.0, 0.0, 1.0, -1.0, 0.5, 3.25, -7.125, 1e-3, 1e7, -2.5e-4, f32::INFINITY];
            let pick = |r: usize, c: usize, s: u64| {
                let h = (r as u64 * 7919 + c as u64 * 104_729 + s)
                    .wrapping_mul(0x2545_F491_4F6C_DD1D);
                let i = (h >> 33) as usize % (VALUES.len() * 64);
                // Infinities stay rare: one index in 64 rounds of the set.
                if i == VALUES.len() - 1 { f32::INFINITY } else { VALUES[i % (VALUES.len() - 1)] }
            };
            let a = Matrix::from_fn(m, k, |r, c| pick(r, c, salt));
            let b = Matrix::from_fn(k, n, |r, c| pick(r, c, salt ^ 0x5555));
            let start = Matrix::from_fn(m, n, |r, c| pick(r, c, salt ^ 0xAAAA));
            assert_exact(&a, &b, &start);
        }
    }

    #[test]
    fn both_bodies_give_identical_bits_on_a_four_worker_split() {
        // The forward's shapes, cut down: a 100-deep product into 16
        // columns, then 16 deep into 12, over 4 row chunks of a ReLU'd
        // (zero-heavy) left operand.
        let x = mixed_operand(203, 100, 11);
        let w1 = mixed_operand(100, 16, 12);
        let w2 = mixed_operand(16, 12, 13);
        let forward = || {
            with_min_work(0, || {
                let mut h = gemm_par(&x, &w1, 4).unwrap();
                h.as_mut_slice().iter_mut().for_each(|v| *v = v.max(0.0));
                let logits = gemm_par(&h, &w2, 4).unwrap();
                (bits(&h), bits(&logits), bits(&gemm_tn(&x, &h, 4).unwrap()))
            })
        };
        assert_eq!(with_baseline(forward), forward());
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        let id = Matrix::from_fn(4, 4, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(gemm(&a, &id).unwrap(), a);
        assert_eq!(gemm(&id, &a).unwrap(), a);
    }
}
