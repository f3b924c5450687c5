//! Model execution: real numbers plus simulated metrics.
//!
//! [`ModelExec`] wraps an execution strategy (a [`Framework`] and, for
//! GNNAdvisor, a prepared [`Advisor`]) and exposes the primitives every
//! model is built from:
//!
//! - [`ModelExec::aggregate`] — numerically aggregates neighbor features
//!   *and* records the simulated aggregation-kernel metrics
//!   ([`ModelExec::aggregate_cost`] records only the metrics),
//! - [`ModelExec::update`] — runs a [`Linear`] layer *and* records the
//!   simulated GEMM cost of the dense update
//!   ([`ModelExec::update_cost`] records only the cost).
//!
//! The numerics run row-parallel on the engine's
//! [`Engine::host_workers`], bitwise equal at any worker count.
//!
//! When the advisor renumbers the graph, only the simulated kernels run
//! over the renumbered graph ([`ModelExec::aggregate_cost`] prices the
//! advisor's graph). The numbers are computed over the original graph, in
//! original node order, so nothing is permuted and callers never see
//! renumbered ids.

use gnnadvisor_core::compute::{aggregate_reference, Aggregation};
use gnnadvisor_core::frameworks::{aggregate_with, Framework};
use gnnadvisor_core::runtime::Advisor;
use gnnadvisor_core::Result;
use gnnadvisor_gpu::{Engine, RunMetrics, Workload};
use gnnadvisor_graph::Csr;
use gnnadvisor_tensor::{Linear, Matrix};

/// Output of a full model forward pass.
#[derive(Debug, Clone)]
pub struct ForwardResult {
    /// Final node embeddings / logits (original node order).
    pub output: Matrix,
    /// Accumulated simulated metrics across every kernel and transfer.
    pub metrics: RunMetrics,
}

/// An execution context binding a graph to a framework strategy.
pub struct ModelExec<'a> {
    engine: &'a Engine,
    graph: &'a Csr,
    framework: Framework,
    advisor: Option<&'a Advisor>,
    /// Host threads for the numerics.
    workers: usize,
}

impl<'a> ModelExec<'a> {
    /// Creates a context. For [`Framework::GnnAdvisor`], `advisor` must be
    /// provided and must have been built over `graph`.
    pub fn new(
        engine: &'a Engine,
        graph: &'a Csr,
        framework: Framework,
        advisor: Option<&'a Advisor>,
    ) -> Self {
        Self {
            engine,
            graph,
            framework,
            advisor,
            workers: engine.host_workers(),
        }
    }

    /// Host threads the numerics run on: the engine's
    /// [`Engine::host_workers`].
    pub fn host_workers(&self) -> usize {
        self.workers
    }

    /// The execution framework.
    pub fn framework(&self) -> Framework {
        self.framework
    }

    /// The graph models should compute against (original ids).
    pub fn graph(&self) -> &Csr {
        self.graph
    }

    /// Numerically aggregates `features` (original node order) and records
    /// the simulated kernel metrics into `metrics`.
    pub fn aggregate(
        &self,
        features: &Matrix,
        op: Aggregation,
        metrics: &mut RunMetrics,
    ) -> Result<Matrix> {
        if features.rows() != self.graph.num_nodes() {
            // Typed error instead of the reference kernel's assert: model
            // forwards sit on the serving path, where a shape mismatch
            // must not abort the process.
            return Err(gnnadvisor_core::CoreError::Tensor(
                gnnadvisor_tensor::TensorError::ShapeMismatch {
                    context: format!(
                        "aggregate features have {} rows but the graph has {} nodes",
                        features.rows(),
                        self.graph.num_nodes()
                    ),
                },
            ));
        }
        self.aggregate_cost(features.cols(), metrics)?;
        // Real numbers. The advisor's renumbered graph computes the same
        // multiset of sums; we use the original graph so outputs stay in
        // original node order (the permutation-invariance of aggregation is
        // covered by tests).
        Ok(aggregate_reference(self.graph, features, op, self.workers))
    }

    /// Records the simulated kernel metrics of one aggregation at `dim`
    /// into `metrics`, without computing it.
    pub fn aggregate_cost(&self, dim: usize, metrics: &mut RunMetrics) -> Result<()> {
        let run = match (self.framework, self.advisor) {
            (Framework::GnnAdvisor, Some(adv)) => aggregate_with(
                Framework::GnnAdvisor,
                adv.engine(),
                adv.graph(),
                dim,
                Some(adv),
            )?,
            (fw, _) => aggregate_with(fw, self.engine, self.graph, dim, self.advisor)?,
        };
        metrics.merge(run);
        Ok(())
    }

    /// Applies `layer` to `x` and records the simulated cost of its GEMM
    /// into `metrics`.
    pub fn update(&self, layer: &Linear, x: &Matrix, metrics: &mut RunMetrics) -> Result<Matrix> {
        self.update_cost(x.rows(), layer.in_dim(), layer.out_dim(), metrics);
        Ok(layer.forward(x, self.workers)?)
    }

    /// Records the simulated cost of a dense `rows x in_dim -> out_dim`
    /// update into `metrics`.
    pub fn update_cost(
        &self,
        rows: usize,
        in_dim: usize,
        out_dim: usize,
        metrics: &mut RunMetrics,
    ) {
        let engine = match (self.framework, self.advisor) {
            (Framework::GnnAdvisor, Some(adv)) => adv.engine(),
            _ => self.engine,
        };
        let update = engine
            .submit(
                &mut engine.lock_context(),
                Workload::Gemm {
                    m: rows,
                    n: out_dim,
                    k: in_dim,
                },
            )
            .expect("gemm workloads are infallible")
            .into_kernel();
        metrics.push_kernel(update);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnadvisor_core::input::AggOrder;
    use gnnadvisor_core::runtime::AdvisorConfig;
    use gnnadvisor_gpu::GpuSpec;
    use gnnadvisor_graph::generators::barabasi_albert;
    use gnnadvisor_tensor::init::random_features;

    #[test]
    fn aggregate_records_metrics_and_computes() {
        let g = barabasi_albert(200, 4, 9).expect("valid");
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let exec = ModelExec::new(&engine, &g, Framework::Dgl, None);
        let f = random_features(200, 8, 1);
        let mut metrics = RunMetrics::default();
        let out = exec
            .aggregate(&f, Aggregation::Sum, &mut metrics)
            .expect("runs");
        assert_eq!(out.shape(), (200, 8));
        assert_eq!(metrics.kernels.len(), 2, "DGL = stacking + SpMM");
        let reference = aggregate_reference(&g, &f, Aggregation::Sum, 1);
        assert_eq!(out, reference);
    }

    #[test]
    fn advisor_path_matches_baseline_numerics() {
        let g = barabasi_albert(300, 4, 10).expect("valid");
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let advisor = Advisor::new(
            &g,
            16,
            16,
            4,
            AggOrder::UpdateThenAggregate,
            AdvisorConfig::default(),
        )
        .expect("builds");
        let ours = ModelExec::new(&engine, &g, Framework::GnnAdvisor, Some(&advisor));
        let theirs = ModelExec::new(&engine, &g, Framework::Pyg, None);
        let f = random_features(300, 16, 2);
        let mut m1 = RunMetrics::default();
        let mut m2 = RunMetrics::default();
        let a = ours
            .aggregate(&f, Aggregation::GcnNorm, &mut m1)
            .expect("runs");
        let b = theirs
            .aggregate(&f, Aggregation::GcnNorm, &mut m2)
            .expect("runs");
        assert!(
            a.max_abs_diff(&b) < 1e-5,
            "numerics are framework-independent"
        );
        assert!(m1.total_ms() > 0.0 && m2.total_ms() > 0.0);
    }

    #[test]
    fn update_cost_accumulates() {
        let g = barabasi_albert(100, 3, 2).expect("valid");
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let exec = ModelExec::new(&engine, &g, Framework::Dgl, None);
        let mut metrics = RunMetrics::default();
        exec.update_cost(100, 64, 16, &mut metrics);
        assert_eq!(metrics.kernels.len(), 1);
        assert!(metrics.compute_ms > 0.0);
        // `update` charges the same GEMM and applies the layer.
        let layer = Linear::new(64, 16, 3);
        let x = random_features(100, 64, 4);
        let y = exec.update(&layer, &x, &mut metrics).expect("runs");
        assert_eq!(y, layer.forward(&x, 1).expect("runs"));
        assert_eq!(metrics.kernels.len(), 2);
        assert_eq!(metrics.kernels[0], metrics.kernels[1]);
    }
}
