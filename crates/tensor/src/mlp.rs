//! Multi-layer perceptron (the GIN update function).

use crate::linear::Linear;
use crate::matrix::Matrix;
use crate::ops::relu_inplace;
use crate::Result;

/// A stack of [`Linear`] layers with ReLU between them (none after the
/// last), matching the 2-layer MLP that GIN applies after aggregation.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Builds an MLP through the given dimension chain, e.g. `[64, 64, 64]`
    /// produces two 64→64 layers. Deterministic for a given seed.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dimensions are given.
    pub fn new(dims: &[usize], seed: u64) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output dims"
        );
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(w[0], w[1], seed.wrapping_add(i as u64)))
            .collect();
        Self { layers }
    }

    /// Number of linear layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers
            .first()
            .expect("non-empty by construction")
            .in_dim()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers
            .last()
            .expect("non-empty by construction")
            .out_dim()
    }

    /// Forward pass with ReLU between layers, every GEMM over row chunks
    /// on up to `workers` threads; bitwise equal at any worker count.
    pub fn forward(&self, x: &Matrix, workers: usize) -> Result<Matrix> {
        let mut h = self.layers[0].forward(x, workers)?;
        for layer in &self.layers[1..] {
            relu_inplace(&mut h);
            h = layer.forward(&h, workers)?;
        }
        Ok(h)
    }

    /// Total FLOPs of a forward pass over `rows` inputs.
    pub fn flops(&self, rows: usize) -> u64 {
        self.layers.iter().map(|l| l.flops(rows)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_chain() {
        let mlp = Mlp::new(&[8, 16, 4], 0);
        assert_eq!(mlp.depth(), 2);
        assert_eq!(mlp.in_dim(), 8);
        assert_eq!(mlp.out_dim(), 4);
    }

    #[test]
    fn forward_shape() {
        let mlp = Mlp::new(&[3, 5, 2], 1);
        let x = Matrix::zeros(7, 3);
        let y = mlp.forward(&x, 1).unwrap();
        assert_eq!(y.shape(), (7, 2));
    }

    #[test]
    fn flops_sum_over_layers() {
        let mlp = Mlp::new(&[4, 8, 2], 0);
        assert_eq!(mlp.flops(3), 2 * 3 * 4 * 8 + 2 * 3 * 8 * 2);
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn too_few_dims_panics() {
        Mlp::new(&[4], 0);
    }

    #[test]
    fn deterministic() {
        let a = Mlp::new(&[4, 4], 9);
        let b = Mlp::new(&[4, 4], 9);
        let x = Matrix::from_fn(2, 4, |r, c| (r + c) as f32);
        assert_eq!(a.forward(&x, 1).unwrap(), b.forward(&x, 1).unwrap());
    }
}
