//! Fully connected layer (`y = x · W + b`).

use crate::gemm::gemm_par;
use crate::init::xavier_uniform;
use crate::matrix::Matrix;
use crate::ops::add_bias_inplace;
use crate::Result;

/// A dense layer with weight `in_dim x out_dim` and bias `out_dim`.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Matrix,
    bias: Vec<f32>,
}

impl Linear {
    /// Xavier-initialized layer, deterministic for a given seed.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        Self {
            weight: xavier_uniform(in_dim, out_dim, seed),
            bias: vec![0.0; out_dim],
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weight.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.weight.cols()
    }

    /// The weight matrix.
    pub fn weight(&self) -> &Matrix {
        &self.weight
    }

    /// Applies the layer to a batch of rows, its GEMM over row chunks on
    /// up to `workers` threads; bitwise equal at any worker count.
    pub fn forward(&self, x: &Matrix, workers: usize) -> Result<Matrix> {
        let mut y = gemm_par(x, &self.weight, workers)?;
        add_bias_inplace(&mut y, &self.bias);
        Ok(y)
    }

    /// FLOP count of one forward pass over `rows` inputs, consumed by the
    /// GPU cost model for the update phase.
    pub fn flops(&self, rows: usize) -> u64 {
        2 * rows as u64 * self.in_dim() as u64 * self.out_dim() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape_and_value() {
        let w = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 2.0]).unwrap();
        let layer = Linear {
            weight: w,
            bias: vec![1.0, -1.0],
        };
        let x = Matrix::from_vec(1, 2, vec![3.0, 4.0]).unwrap();
        let y = layer.forward(&x, 1).unwrap();
        assert_eq!(y.as_slice(), &[4.0, 7.0]);
    }

    #[test]
    fn shape_mismatch_is_error() {
        let layer = Linear::new(3, 2, 0);
        let x = Matrix::zeros(4, 5);
        assert!(layer.forward(&x, 1).is_err());
    }

    #[test]
    fn flops_formula() {
        let layer = Linear::new(16, 8, 0);
        assert_eq!(layer.flops(10), 2 * 10 * 16 * 8);
    }
}
