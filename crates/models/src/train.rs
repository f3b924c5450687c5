//! GNN training on the simulated runtime.
//!
//! Section 8.1.4: "GNNAdvisor's optimizations can also be applied towards
//! GNN training, which uses the same aggregation-update pattern in both of
//! its value propagation in the forward phase and gradient propagation in
//! backward phase." This module makes that concrete: [`GcnTrainer`] runs
//! real softmax-cross-entropy training of a GCN — true gradients, SGD
//! updates — while charging the simulated GPU for every forward *and*
//! backward aggregation and GEMM.
//!
//! Backward structure per layer `H_l = ReLU(A_hat (H_{l-1} W_l))`:
//!
//! - `dA = dH ⊙ ReLU'`,
//! - `dZ = A_hat^T dA` — the gradient propagates through the *transpose*
//!   of the renormalized adjacency,
//! - `dW = H_{l-1}^T dZ`, `dH_{l-1} = dZ W^T`.
//!
//! On a full undirected graph `A_hat` is symmetric, so [`GcnTrainer::step`]
//! reuses the forward aggregation kernel for `dZ`. That shortcut is
//! **invalid** on sampled mini-batch blocks: fan-out sampling keeps edge
//! `v -> u` without necessarily keeping `u -> v`, the block adjacency is
//! asymmetric, and its GCN normalization must be recomputed from the
//! block's own degrees. [`GcnTrainer::step_block`] therefore aggregates
//! the backward pass over the block's transpose with the forward block's
//! degrees ([`aggregate_gcn_block`]), which the finite-difference tests
//! below verify is the true adjoint.

use gnnadvisor_core::compute::{aggregate_gcn_block, Aggregation};
use gnnadvisor_core::frameworks::{aggregate_with, Framework};
use gnnadvisor_core::{CoreError, Result};
use gnnadvisor_gpu::{Engine, RunMetrics, Workload};
use gnnadvisor_graph::sample::SampledBlock;
use gnnadvisor_graph::Csr;
use gnnadvisor_tensor::init::xavier_uniform;
use gnnadvisor_tensor::ops::{relu_inplace, softmax_row_inplace};
use gnnadvisor_tensor::{gemm_nt, gemm_par, gemm_tn, Matrix};

use crate::exec::ModelExec;

/// Checks one label per expected row, each below `classes`, returning a
/// typed error instead of letting `Matrix::get` abort on a bad index.
fn validate_labels(labels: &[usize], expected: usize, classes: usize) -> Result<()> {
    if labels.len() != expected {
        return Err(CoreError::InvalidParams {
            reason: format!("expected {expected} labels, got {}", labels.len()),
        });
    }
    if let Some((v, &y)) = labels.iter().enumerate().find(|&(_, &y)| y >= classes) {
        return Err(CoreError::InvalidParams {
            reason: format!("label {y} for node {v} out of range: the model has {classes} classes"),
        });
    }
    Ok(())
}

/// Charges the simulated cost of an `m x k -> m x n` GEMM.
fn charge_gemm(engine: &Engine, m: usize, n: usize, k: usize, metrics: &mut RunMetrics) {
    let kernel = engine
        .submit(&mut engine.lock_context(), Workload::Gemm { m, n, k })
        .expect("gemm workloads are infallible")
        .into_kernel();
    metrics.push_kernel(kernel);
}

/// Softmax cross-entropy over the first `labels.len()` rows of `logits`,
/// consuming them. Returns the mean loss, the accuracy over the labeled
/// rows, and `dL/dlogits` — `(softmax - one_hot) / labels.len()` on
/// labeled rows, zero on the rest (a block's non-seed nodes).
fn softmax_cross_entropy(mut logits: Matrix, labels: &[usize]) -> (f64, f64, Matrix) {
    let count = labels.len();
    let inv = 1.0 / count as f32;
    let mut loss = 0.0f64;
    let mut correct = 0usize;
    for (v, &y) in labels.iter().enumerate() {
        // Only labeled rows are softmaxed: the rest are zeroed below.
        let row = logits.row_mut(v);
        softmax_row_inplace(row);
        loss -= (row[y].max(1e-12) as f64).ln();
        let pred = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);
        if pred == y {
            correct += 1;
        }
        for (c, p) in row.iter_mut().enumerate() {
            let indicator = if c == y { 1.0 } else { 0.0 };
            *p = (*p - indicator) * inv;
        }
    }
    let labeled = count * logits.cols();
    logits.as_mut_slice()[labeled..].fill(0.0);
    (loss / count as f64, correct as f64 / count as f64, logits)
}

/// One training step's outcome.
#[derive(Debug, Clone)]
pub struct StepResult {
    /// Mean cross-entropy loss over all nodes.
    pub loss: f64,
    /// Training accuracy of this step's predictions.
    pub accuracy: f64,
    /// Simulated metrics of the whole step (forward + backward + update).
    pub metrics: RunMetrics,
}

impl StepResult {
    /// One-line epoch report: loss, accuracy, and where the step's
    /// simulated cycles went (compute / DRAM / atomics / launch).
    pub fn phase_summary(&self) -> String {
        format!(
            "loss {:.4}, acc {:.1}%, {:.4} ms — {}",
            self.loss,
            self.accuracy * 100.0,
            self.metrics.total_ms(),
            self.metrics.phases.report(),
        )
    }
}

/// A GCN under softmax-cross-entropy training with SGD.
pub struct GcnTrainer {
    weights: Vec<Matrix>,
    lr: f32,
}

impl GcnTrainer {
    /// Builds a trainer over the dimension chain, e.g. `[feat, 16, cls]`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dimensions are given.
    pub fn new(dims: &[usize], lr: f32, seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        let weights = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| xavier_uniform(w[0], w[1], seed.wrapping_add(i as u64 * 11)))
            .collect();
        Self { weights, lr }
    }

    /// Number of graph-convolution layers.
    pub fn num_layers(&self) -> usize {
        self.weights.len()
    }

    /// The layers' weight matrices, input layer first.
    pub fn weights(&self) -> &[Matrix] {
        &self.weights
    }

    fn num_classes(&self) -> usize {
        self.weights.last().expect("non-empty").cols()
    }

    /// Inference pass with the current weights (no metrics).
    pub fn predict(&self, exec: &ModelExec<'_>, features: &Matrix) -> Result<Matrix> {
        let mut metrics = RunMetrics::default();
        Ok(self.forward(exec, features, &mut metrics)?.1)
    }

    /// Full-batch forward pass, charging each layer's GEMM and
    /// aggregation: returns the hidden layers' post-ReLU activations and
    /// the logits.
    fn forward(
        &self,
        exec: &ModelExec<'_>,
        features: &Matrix,
        metrics: &mut RunMetrics,
    ) -> Result<(Vec<Matrix>, Matrix)> {
        let n = features.rows();
        self.forward_with(features, exec.host_workers(), |l, z| {
            let w = &self.weights[l];
            exec.update_cost(n, w.rows(), w.cols(), metrics);
            exec.aggregate(z, Aggregation::GcnNorm, metrics)
        })
    }

    /// The forward numerics shared by full-batch and block steps: per
    /// layer `Z = H W` on `workers` threads, then `aggregate(l, Z)`, then
    /// ReLU on hidden layers. Layer 0 reads `features` in place. Returns
    /// the hidden layers' post-ReLU activations (a ReLU's input is `<= 0`
    /// exactly where its output is, so they also carry the backward mask)
    /// and the logits.
    fn forward_with(
        &self,
        features: &Matrix,
        workers: usize,
        mut aggregate: impl FnMut(usize, &Matrix) -> Result<Matrix>,
    ) -> Result<(Vec<Matrix>, Matrix)> {
        let last = self.weights.len() - 1;
        let mut hidden: Vec<Matrix> = Vec::with_capacity(last);
        for l in 0..last {
            let z = gemm_par(hidden.last().unwrap_or(features), &self.weights[l], workers)?;
            let mut a = aggregate(l, &z)?;
            relu_inplace(&mut a);
            hidden.push(a);
        }
        let z = gemm_par(
            hidden.last().unwrap_or(features),
            &self.weights[last],
            workers,
        )?;
        let logits = aggregate(last, &z)?;
        Ok((hidden, logits))
    }

    /// The backward numerics shared by full-batch and block steps: from
    /// `grad = dL/dlogits`, per layer (last first) mask through the ReLU,
    /// `dZ = aggregate_t(l, dA)`, `dW = H_inᵀ dZ` and `dH_in = dZ Wᵀ` —
    /// both GEMMs read their operands in place, on `workers` threads.
    /// Returns the weight gradients in layer order.
    fn backward_with(
        &self,
        features: &Matrix,
        hidden: &[Matrix],
        grad: Matrix,
        workers: usize,
        mut aggregate_t: impl FnMut(usize, &Matrix) -> Result<Matrix>,
    ) -> Result<Vec<Matrix>> {
        let layers = self.weights.len();
        let mut d_h = grad;
        let mut weight_grads: Vec<Matrix> = Vec::with_capacity(layers);
        for l in (0..layers).rev() {
            if l + 1 < layers {
                for (g, &a) in d_h.as_mut_slice().iter_mut().zip(hidden[l].as_slice()) {
                    if a <= 0.0 {
                        *g = 0.0;
                    }
                }
            }
            let d_z = aggregate_t(l, &d_h)?;
            let h_in = if l == 0 { features } else { &hidden[l - 1] };
            weight_grads.push(gemm_tn(h_in, &d_z, workers)?);
            if l > 0 {
                d_h = gemm_nt(&d_z, &self.weights[l], workers)?;
            }
        }
        weight_grads.reverse();
        Ok(weight_grads)
    }

    /// SGD update.
    fn apply(&mut self, weight_grads: &[Matrix]) {
        for (w, g) in self.weights.iter_mut().zip(weight_grads) {
            for (wv, gv) in w.as_mut_slice().iter_mut().zip(g.as_slice()) {
                *wv -= self.lr * gv;
            }
        }
    }

    /// Runs `epochs` full-batch SGD steps, returning every epoch's
    /// [`StepResult`] in order — each carries the phase-attributed cycle
    /// breakdown of its forward + backward pass, so training loops can
    /// report per-epoch summaries via [`StepResult::phase_summary`].
    pub fn train_epochs(
        &mut self,
        exec: &ModelExec<'_>,
        features: &Matrix,
        labels: &[usize],
        epochs: usize,
    ) -> Result<Vec<StepResult>> {
        (0..epochs)
            .map(|_| self.step(exec, features, labels))
            .collect()
    }

    /// One SGD step on `(features, labels)`; labels index classes per
    /// node. Returns [`CoreError::InvalidParams`] when the label count
    /// mismatches the rows or any label is `>= num_classes` — labels come
    /// from dataset files, so a bad one must not abort the process.
    pub fn step(
        &mut self,
        exec: &ModelExec<'_>,
        features: &Matrix,
        labels: &[usize],
    ) -> Result<StepResult> {
        let n = features.rows();
        validate_labels(labels, n, self.num_classes())?;
        let mut metrics = RunMetrics::default();
        let (hidden, logits) = self.forward(exec, features, &mut metrics)?;
        let (loss, accuracy, grad) = softmax_cross_entropy(logits, labels);
        // Backward aggregation is A_hat^T; on this full-batch path the
        // graph is undirected so A_hat is symmetric and the forward
        // kernel (and its simulated cost) is exactly the adjoint.
        // Sampled blocks are asymmetric — step_block handles those.
        let workers = exec.host_workers();
        let weight_grads = self.backward_with(features, &hidden, grad, workers, |l, d_h| {
            let (rows, cols) = self.weights[l].shape();
            let d_z = exec.aggregate(d_h, Aggregation::GcnNorm, &mut metrics)?;
            // dW = H_in^T dZ and dH_in = dZ W^T (two GEMMs).
            exec.update_cost(rows, n, cols, &mut metrics);
            if l > 0 {
                exec.update_cost(n, cols, rows, &mut metrics);
            }
            Ok(d_z)
        })?;
        self.apply(&weight_grads);
        Ok(StepResult {
            loss,
            accuracy,
            metrics,
        })
    }

    /// One SGD step on a sampled mini-batch block.
    ///
    /// `features` holds one row per block node (block-local order, i.e.
    /// gathered via [`SampledBlock::nodes`]); `labels` holds one label
    /// per *seed* — only seed rows enter the loss, deeper hops exist
    /// solely to feed their receptive fields. The forward pass uses the
    /// block's own recomputed GCN degrees, and the backward pass
    /// aggregates over the block's **transpose** with those same degrees
    /// (the true adjoint of the asymmetric sampled operator — reusing
    /// the forward aggregation here, as the full-batch symmetric
    /// shortcut would, computes wrong gradients).
    ///
    /// Simulated cost is charged per phase: one GEMM per update, one
    /// DGL-style aggregation per forward layer on the block and per
    /// backward layer on its transpose. The step charges, then runs the
    /// numerics of [`GcnTrainer::train_block`] on the engine's
    /// [`Engine::host_workers`].
    pub fn step_block(
        &mut self,
        engine: &Engine,
        block: &SampledBlock,
        features: &Matrix,
        labels: &[usize],
    ) -> Result<StepResult> {
        self.check_block(block, features, labels)?;
        let transposed = block.block.transpose();
        let metrics = self.charge_block(engine, block, &transposed)?;
        let step = self.train_block(block, &transposed, features, labels, engine.host_workers())?;
        Ok(StepResult { metrics, ..step })
    }

    /// The numerics of [`GcnTrainer::step_block`] without its simulated
    /// charge: the returned `metrics` are empty. `transposed` must be
    /// `block.block.transpose()`; callers that price the block's device
    /// work themselves (the mini-batch pipeline) transpose once and pass
    /// it here. Features and activations are read in place, never copied.
    /// The GEMMs and aggregations run row-parallel on `workers` threads,
    /// bitwise equal at any count.
    pub fn train_block(
        &mut self,
        block: &SampledBlock,
        transposed: &Csr,
        features: &Matrix,
        labels: &[usize],
        workers: usize,
    ) -> Result<StepResult> {
        self.check_block(block, features, labels)?;
        let g = &block.block;
        if transposed.num_nodes() != g.num_nodes() || transposed.num_edges() != g.num_edges() {
            return Err(CoreError::InvalidParams {
                reason: format!(
                    "transpose has {} nodes and {} edges but the block has {} and {}",
                    transposed.num_nodes(),
                    transposed.num_edges(),
                    g.num_nodes(),
                    g.num_edges()
                ),
            });
        }
        let degrees = block.degrees();
        let (hidden, logits) = self.forward_with(features, workers, |_, z| {
            Ok(aggregate_gcn_block(g, &degrees, z, workers))
        })?;
        // Seed-masked softmax cross-entropy: gradient rows of non-seed
        // nodes stay zero.
        let (loss, accuracy, grad) = softmax_cross_entropy(logits, labels);
        let weight_grads = self.backward_with(features, &hidden, grad, workers, |_, d_h| {
            Ok(aggregate_gcn_block(transposed, &degrees, d_h, workers))
        })?;
        self.apply(&weight_grads);
        Ok(StepResult {
            loss,
            accuracy,
            metrics: RunMetrics::default(),
        })
    }

    /// Rejects block features that are not one row per block node and
    /// labels that are not one in-range class per seed.
    fn check_block(&self, block: &SampledBlock, features: &Matrix, labels: &[usize]) -> Result<()> {
        let n = block.block.num_nodes();
        if features.rows() != n {
            return Err(CoreError::InvalidParams {
                reason: format!(
                    "block features have {} rows but the block has {n} nodes",
                    features.rows()
                ),
            });
        }
        validate_labels(labels, block.num_seeds.min(n), self.num_classes())
    }

    /// The simulated cost of one block step, in [`GcnTrainer::step_block`]'s
    /// order: per forward layer the update GEMM and a DGL aggregation
    /// over the block, then per backward layer (last first) a DGL
    /// aggregation over the transpose and the `dW` / `dH` GEMMs.
    fn charge_block(
        &self,
        engine: &Engine,
        block: &SampledBlock,
        transposed: &Csr,
    ) -> Result<RunMetrics> {
        let g = &block.block;
        let n = g.num_nodes();
        let mut metrics = RunMetrics::default();
        for w in &self.weights {
            charge_gemm(engine, n, w.cols(), w.rows(), &mut metrics);
            metrics.merge(aggregate_with(Framework::Dgl, engine, g, w.cols(), None)?);
        }
        for (l, w) in self.weights.iter().enumerate().rev() {
            let (rows, cols) = w.shape();
            metrics.merge(aggregate_with(
                Framework::Dgl,
                engine,
                transposed,
                cols,
                None,
            )?);
            charge_gemm(engine, rows, cols, n, &mut metrics);
            if l > 0 {
                charge_gemm(engine, n, rows, cols, &mut metrics);
            }
        }
        Ok(metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnadvisor_core::Framework;
    use gnnadvisor_gpu::{Engine, GpuSpec};
    use gnnadvisor_graph::generators::{community_graph, CommunityParams};
    use gnnadvisor_graph::Csr;

    /// A cleanly separable task: features carry a noisy one-hot of the
    /// planted community, labels are the community id modulo classes.
    fn task(classes: usize) -> (Csr, Matrix, Vec<usize>) {
        let params = CommunityParams {
            num_nodes: 300,
            num_edges: 4_000,
            mean_community: 50,
            community_size_cv: 0.2,
            inter_fraction: 0.05,
            shuffle_ids: true,
        };
        let (g, comm) = community_graph(&params, 77).expect("valid");
        let labels: Vec<usize> = comm.iter().map(|&c| c as usize % classes).collect();
        let dim = 16;
        let features = Matrix::from_fn(g.num_nodes(), dim, |v, d| {
            let hot = labels[v] % dim;
            let noise = ((v * 31 + d * 17) % 13) as f32 / 26.0;
            if d == hot {
                1.0 + noise
            } else {
                noise
            }
        });
        (g, features, labels)
    }

    #[test]
    fn training_reduces_loss_and_learns() {
        let (g, features, labels) = task(4);
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let exec = ModelExec::new(&engine, &g, Framework::Dgl, None);
        let mut trainer = GcnTrainer::new(&[16, 16, 4], 0.5, 3);
        let first = trainer.step(&exec, &features, &labels).expect("step");
        let mut last = first.clone();
        for _ in 0..30 {
            last = trainer.step(&exec, &features, &labels).expect("step");
        }
        assert!(
            last.loss < first.loss * 0.7,
            "loss must drop: {} -> {}",
            first.loss,
            last.loss
        );
        assert!(last.accuracy > 0.7, "accuracy {} too low", last.accuracy);
    }

    #[test]
    fn step_charges_forward_and_backward_aggregation() {
        let (g, features, labels) = task(4);
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let exec = ModelExec::new(&engine, &g, Framework::Dgl, None);
        let mut trainer = GcnTrainer::new(&[16, 8, 4], 0.1, 1);
        let r = trainer.step(&exec, &features, &labels).expect("step");
        // DGL strategy: 2 kernels per aggregation; 2 layers forward + 2
        // backward = 8 aggregation kernels, plus gemms.
        let agg_kernels = r
            .metrics
            .kernels
            .iter()
            .filter(|k| !k.name.starts_with("gemm"))
            .count();
        assert_eq!(agg_kernels, 8);
        assert!(r.metrics.total_ms() > 0.0);
    }

    #[test]
    fn train_epochs_reports_phases_per_epoch() {
        let (g, features, labels) = task(4);
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let exec = ModelExec::new(&engine, &g, Framework::Dgl, None);
        let mut trainer = GcnTrainer::new(&[16, 16, 4], 0.5, 3);
        let epochs = trainer
            .train_epochs(&exec, &features, &labels, 5)
            .expect("trains");
        assert_eq!(epochs.len(), 5);
        for e in &epochs {
            // The breakdown is an exact partition of the epoch's kernel
            // cycles, and the summary is human-readable.
            assert_eq!(e.metrics.phases.total_cycles(), e.metrics.total_cycles());
            let s = e.phase_summary();
            assert!(s.contains("loss") && s.contains("compute"), "{s}");
        }
        assert!(
            epochs.last().expect("non-empty").loss < epochs[0].loss,
            "loss must drop across epochs"
        );
    }

    #[test]
    fn step_rejects_out_of_range_labels() {
        // Regression: a label >= num_classes used to index past the
        // probability row and abort the process.
        let (g, features, mut labels) = task(4);
        labels[17] = 4; // model has classes 0..=3
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let exec = ModelExec::new(&engine, &g, Framework::Dgl, None);
        let mut trainer = GcnTrainer::new(&[16, 8, 4], 0.1, 1);
        let err = trainer
            .step(&exec, &features, &labels)
            .expect_err("bad label");
        assert!(
            matches!(&err, CoreError::InvalidParams { reason } if reason.contains("out of range")),
            "{err:?}"
        );
    }

    #[test]
    fn step_rejects_label_count_mismatch() {
        let (g, features, mut labels) = task(4);
        labels.pop();
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let exec = ModelExec::new(&engine, &g, Framework::Dgl, None);
        let mut trainer = GcnTrainer::new(&[16, 8, 4], 0.1, 1);
        let err = trainer
            .step(&exec, &features, &labels)
            .expect_err("short labels");
        assert!(matches!(err, CoreError::InvalidParams { .. }), "{err:?}");
    }

    #[test]
    fn gradients_match_finite_differences() {
        // Tiny graph, tiny model: perturb one weight and compare the loss
        // delta against the analytic gradient.
        let (g, features, labels) = {
            let g = gnnadvisor_graph::GraphBuilder::new(4)
                .undirected_edge(0, 1)
                .undirected_edge(1, 2)
                .undirected_edge(2, 3)
                .build()
                .expect("valid");
            let f = Matrix::from_fn(4, 3, |v, d| ((v * 3 + d) % 5) as f32 / 5.0);
            (g, f, vec![0usize, 1, 0, 1])
        };
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let exec = ModelExec::new(&engine, &g, Framework::Dgl, None);

        let loss_at = |weights: &[Matrix]| -> f64 {
            let mut t = GcnTrainer::new(&[3, 3, 2], 0.0, 7);
            t.weights = weights.to_vec();
            // lr = 0 so step() computes loss without changing weights.
            t.step(&exec, &features, &labels).expect("step").loss
        };

        // Analytic gradient via a tiny lr step on a fresh trainer.
        let base = GcnTrainer::new(&[3, 3, 2], 0.0, 7);
        let eps = 1e-3f32;
        // Probe two scalar coordinates across the two layers.
        for (layer, r, c) in [(0usize, 0usize, 1usize), (1, 2, 0)] {
            let w0 = base.weights[layer].get(r, c);
            let mut plus = base.weights.clone();
            plus[layer].set(r, c, w0 + eps);
            let mut minus = base.weights.clone();
            minus[layer].set(r, c, w0 - eps);
            let numeric = (loss_at(&plus) - loss_at(&minus)) / (2.0 * eps as f64);

            // Analytic: run one step with lr 1 and read the weight delta.
            let mut t = GcnTrainer::new(&[3, 3, 2], 1.0, 7);
            let before = t.weights[layer].get(r, c);
            t.step(&exec, &features, &labels).expect("step");
            let analytic = (before - t.weights[layer].get(r, c)) as f64;
            assert!(
                (numeric - analytic).abs() < 2e-3,
                "layer {layer} ({r},{c}): numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    /// A hand-built asymmetric sampled block: node 0 keeps edges to 1 and
    /// 2, node 1 keeps 2, node 3 keeps 0 — no reverse edges, so the
    /// forward operator is *not* its own adjoint.
    fn asymmetric_block() -> SampledBlock {
        let block = Csr::from_raw(4, vec![0, 2, 3, 3, 4], vec![1, 2, 2, 0]).expect("valid");
        SampledBlock {
            block,
            nodes: vec![0, 1, 2, 3],
            num_seeds: 2,
            hop_offsets: vec![0, 2, 4],
            scanned_edges: 4,
        }
    }

    #[test]
    fn block_gradients_match_finite_differences() {
        // Satellite check for the symmetric-backward bug: on an
        // asymmetric block, only transpose aggregation in the backward
        // pass matches numeric loss derivatives. The old full-batch
        // shortcut (reusing forward aggregation) fails this test.
        let blk = asymmetric_block();
        let features = Matrix::from_fn(4, 3, |v, d| ((v * 3 + d) % 5) as f32 / 5.0);
        let labels = vec![0usize, 1];
        let engine = Engine::new(GpuSpec::quadro_p6000());

        let loss_at = |weights: &[Matrix]| -> f64 {
            let mut t = GcnTrainer::new(&[3, 3, 2], 0.0, 7);
            t.weights = weights.to_vec();
            t.step_block(&engine, &blk, &features, &labels)
                .expect("step")
                .loss
        };

        let base = GcnTrainer::new(&[3, 3, 2], 0.0, 7);
        let eps = 1e-3f32;
        for (layer, r, c) in [(0usize, 0usize, 1usize), (0, 2, 2), (1, 2, 0), (1, 0, 1)] {
            let w0 = base.weights[layer].get(r, c);
            let mut plus = base.weights.clone();
            plus[layer].set(r, c, w0 + eps);
            let mut minus = base.weights.clone();
            minus[layer].set(r, c, w0 - eps);
            let numeric = (loss_at(&plus) - loss_at(&minus)) / (2.0 * eps as f64);

            let mut t = GcnTrainer::new(&[3, 3, 2], 1.0, 7);
            let before = t.weights[layer].get(r, c);
            t.step_block(&engine, &blk, &features, &labels)
                .expect("step");
            let analytic = (before - t.weights[layer].get(r, c)) as f64;
            assert!(
                (numeric - analytic).abs() < 2e-3,
                "layer {layer} ({r},{c}): numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn step_block_rejects_bad_labels_and_shapes() {
        let blk = asymmetric_block();
        let features = Matrix::from_fn(4, 3, |v, d| (v + d) as f32);
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let mut t = GcnTrainer::new(&[3, 3, 2], 0.1, 7);
        // One label per seed (2 seeds), each < 2 classes.
        let err = t
            .step_block(&engine, &blk, &features, &[0, 2])
            .expect_err("label out of range");
        assert!(matches!(err, CoreError::InvalidParams { .. }), "{err:?}");
        let err = t
            .step_block(&engine, &blk, &features, &[0, 1, 0])
            .expect_err("one label per seed, not per node");
        assert!(matches!(err, CoreError::InvalidParams { .. }), "{err:?}");
        let short = Matrix::from_fn(3, 3, |v, d| (v + d) as f32);
        let err = t
            .step_block(&engine, &blk, &short, &[0, 1])
            .expect_err("feature rows must match block nodes");
        assert!(matches!(err, CoreError::InvalidParams { .. }), "{err:?}");
    }

    #[test]
    fn train_block_is_step_block_without_the_charge() {
        let blk = asymmetric_block();
        let features = Matrix::from_fn(4, 3, |v, d| ((v * 3 + d) % 5) as f32 / 5.0 - 0.3);
        let labels = [0usize, 1];
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let transposed = blk.block.transpose();
        let mut priced = GcnTrainer::new(&[3, 4, 2], 0.5, 7);
        let mut numerics = GcnTrainer::new(&[3, 4, 2], 0.5, 7);
        for _ in 0..3 {
            let a = priced
                .step_block(&engine, &blk, &features, &labels)
                .expect("step");
            let b = numerics
                .train_block(&blk, &transposed, &features, &labels, 1)
                .expect("step");
            assert_eq!(a.loss.to_bits(), b.loss.to_bits());
            assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
            assert!(!a.metrics.kernels.is_empty());
            assert_eq!(b.metrics, RunMetrics::default(), "numerics charge nothing");
        }
        assert_eq!(priced.weights, numerics.weights);
    }

    #[test]
    fn train_block_rejects_a_foreign_transpose() {
        let blk = asymmetric_block();
        let features = Matrix::from_fn(4, 3, |v, d| (v + d) as f32);
        let mut t = GcnTrainer::new(&[3, 3, 2], 0.1, 7);
        let wrong = Csr::from_raw(4, vec![0, 1, 1, 1, 1], vec![2]).expect("valid");
        let err = t
            .train_block(&blk, &wrong, &features, &[0, 1], 1)
            .expect_err("transpose must match the block");
        assert!(matches!(err, CoreError::InvalidParams { .. }), "{err:?}");
    }

    #[test]
    fn step_block_trains_on_real_sampled_blocks() {
        use gnnadvisor_graph::sample::{sample_epoch, SampleConfig};
        let (g, features, labels) = task(4);
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let cfg = SampleConfig {
            batch_size: 64,
            fanouts: vec![6, 4],
            ..SampleConfig::default()
        };
        let mut trainer = GcnTrainer::new(&[16, 16, 4], 0.4, 3);
        let mut first = f64::NAN;
        let mut last = f64::NAN;
        for epoch in 0..8u64 {
            let mut epoch_loss = 0.0;
            let blocks = sample_epoch(&g, &cfg, epoch).expect("samples");
            let count = blocks.len();
            for blk in blocks {
                // Gather block-local features and seed labels.
                let bf = Matrix::from_fn(blk.nodes.len(), features.cols(), |r, c| {
                    features.get(blk.nodes[r] as usize, c)
                });
                let bl: Vec<usize> = blk.nodes[..blk.num_seeds]
                    .iter()
                    .map(|&v| labels[v as usize])
                    .collect();
                let r = trainer.step_block(&engine, &blk, &bf, &bl).expect("step");
                assert!(r.metrics.total_ms() > 0.0, "block steps charge the GPU");
                epoch_loss += r.loss;
            }
            epoch_loss /= count as f64;
            if epoch == 0 {
                first = epoch_loss;
            }
            last = epoch_loss;
        }
        assert!(
            last < first * 0.8,
            "mini-batch loss must drop: {first} -> {last}"
        );
    }

    #[test]
    fn softmax_cross_entropy_reads_only_labeled_rows() {
        let logits = Matrix::from_fn(6, 4, |r, c| ((r * 7 + c * 3) % 11) as f32 * 0.7 - 3.0);
        let labels = [2, 0, 3];
        let (loss, accuracy, grad) = softmax_cross_entropy(logits.clone(), &labels);
        // Labeled rows: (softmax - one_hot) / count, softmax as the
        // whole-matrix op computes it.
        let mut probs = logits.clone();
        gnnadvisor_tensor::ops::softmax_rows_inplace(&mut probs);
        for (v, &y) in labels.iter().enumerate() {
            for c in 0..4 {
                let indicator = if c == y { 1.0 } else { 0.0 };
                let want = (probs.get(v, c) - indicator) * (1.0 / 3.0);
                assert_eq!(grad.get(v, c).to_bits(), want.to_bits(), "row {v} col {c}");
            }
        }
        assert!(grad.as_slice()[3 * 4..].iter().all(|&g| g == 0.0));
        // Unlabeled rows never enter: even non-finite ones change nothing.
        let mut noisy = logits;
        for v in 3..6 {
            noisy.row_mut(v).fill(f32::NAN);
        }
        noisy.set(5, 0, f32::INFINITY);
        let (loss2, accuracy2, grad2) = softmax_cross_entropy(noisy, &labels);
        assert_eq!(loss.to_bits(), loss2.to_bits());
        assert_eq!(accuracy.to_bits(), accuracy2.to_bits());
        assert_eq!(grad, grad2);
    }
}
