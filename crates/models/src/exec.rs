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
//! When the advisor renumbers the graph, the simulated kernels run over
//! the renumbered graph ([`ModelExec::aggregate_cost`] prices the
//! advisor's graph), and so do the numerics of the update-first GCN
//! forward ([`crate::Gcn::forward`]). It scatters its first GEMM's output
//! into the renumbered order, aggregates over the advisor's graph
//! ([`Advisor::graph`]: each row lists the same neighbours in the same
//! order, only renamed), and gathers its logits back. Every row sums the
//! same terms in the same order, so the output is bitwise that of the
//! original order; the gain is locality, since a row's neighbours now sit
//! close together in memory. [`ModelExec::aggregate`] and every other
//! public primitive keep the original node order, so callers never see
//! renumbered ids.

use gnnadvisor_core::compute::{aggregate_gcn_relu, aggregate_reference, Aggregation};
use gnnadvisor_core::frameworks::{aggregate_with, Framework};
use gnnadvisor_core::runtime::Advisor;
use gnnadvisor_core::{CoreError, Result};
use gnnadvisor_gpu::{Engine, RunMetrics, Workload};
use gnnadvisor_graph::{Csr, Permutation};
use gnnadvisor_tensor::{Linear, Matrix, TensorError};

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
        self.check_rows(features)?;
        self.aggregate_cost(features.cols(), metrics)?;
        Ok(aggregate_reference(self.graph, features, op, self.workers))
    }

    /// A GCN aggregation ([`Aggregation::GcnNorm`]) of `features` *in the
    /// row order* ([`ModelExec::to_row_order`]), followed by a ReLU when
    /// `relu`, folded into the aggregation's one write per row strip.
    /// Records the same simulated metrics as [`ModelExec::aggregate`].
    pub(crate) fn aggregate_gcn(
        &self,
        features: &Matrix,
        relu: bool,
        metrics: &mut RunMetrics,
    ) -> Result<Matrix> {
        self.check_rows(features)?;
        self.aggregate_cost(features.cols(), metrics)?;
        let graph = self.renumbered().map_or(self.graph, |(graph, _)| graph);
        Ok(if relu {
            aggregate_gcn_relu(graph, features, self.workers)
        } else {
            aggregate_reference(graph, features, Aggregation::GcnNorm, self.workers)
        })
    }

    /// Scatters `x` (original node order) into the row order the GCN
    /// forward runs its numerics in: the advisor's renumbering under
    /// GNNAdvisor, the original order otherwise (returned as is).
    pub(crate) fn to_row_order(&self, x: Matrix) -> Result<Matrix> {
        self.check_rows(&x)?;
        Ok(match self.renumbered() {
            Some((_, perm)) => Matrix::from_vec(
                x.rows(),
                x.cols(),
                perm.permute_rows(x.as_slice(), x.cols()),
            )?,
            None => x,
        })
    }

    /// Gathers `x` from the row order back into original node order; the
    /// inverse of [`ModelExec::to_row_order`].
    pub(crate) fn to_node_order(&self, x: Matrix) -> Result<Matrix> {
        self.check_rows(&x)?;
        Ok(match self.renumbered() {
            Some((_, perm)) => x.gather_rows(perm.as_slice()),
            None => x,
        })
    }

    /// The advisor's renumbered graph and its permutation when the numerics
    /// run in its order (GNNAdvisor with a renumbering advisor).
    fn renumbered(&self) -> Option<(&Csr, &Permutation)> {
        match (self.framework, self.advisor) {
            (Framework::GnnAdvisor, Some(adv)) => adv.permutation().map(|p| (adv.graph(), p)),
            _ => None,
        }
    }

    /// A typed error unless `x` has one row per graph node: model forwards
    /// sit on the serving path, where a shape mismatch must not abort the
    /// process.
    fn check_rows(&self, x: &Matrix) -> Result<()> {
        if x.rows() == self.graph.num_nodes() {
            return Ok(());
        }
        Err(CoreError::Tensor(TensorError::ShapeMismatch {
            context: format!(
                "features have {} rows but the graph has {} nodes",
                x.rows(),
                self.graph.num_nodes()
            ),
        }))
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
        self.update_cost(x.rows(), layer.in_dim(), layer.out_dim(), metrics)?;
        Ok(layer.forward(x, self.workers)?)
    }

    /// Records the simulated cost of a dense `rows x in_dim -> out_dim`
    /// update into `metrics`. On an engine with a fault plan the GEMM can
    /// draw a fault, returned as [`CoreError::Gpu`].
    pub fn update_cost(
        &self,
        rows: usize,
        in_dim: usize,
        out_dim: usize,
        metrics: &mut RunMetrics,
    ) -> Result<()> {
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
            )?
            .into_kernel();
        metrics.push_kernel(update);
        Ok(())
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
    fn gemm_faults_come_back_as_typed_errors() {
        use crate::{Gat, Gcn, GcnTrainer, Gin};
        use gnnadvisor_core::CoreError;
        use gnnadvisor_gpu::{FaultConfig, FaultKind, FaultPlan, GpuError};
        use std::sync::Arc;

        let g = barabasi_albert(300, 4, 12).expect("valid");
        let f = random_features(300, 8, 5);
        let labels: Vec<usize> = (0..300).map(|v| v % 4).collect();
        // Whether a GEMM or an aggregation kernel draws the first fault
        // depends on the plan's seed, so try several and require that
        // every model sees a GEMM timeout among them.
        let mut gemm_faults = [0usize; 4];
        for seed in 0..16 {
            let engine = || {
                let config = FaultConfig {
                    kernel_timeout_prob: 0.5,
                    seed,
                    ..FaultConfig::default()
                };
                Engine::builder(GpuSpec::quadro_p6000())
                    .fault_plan(Arc::new(FaultPlan::new(config).expect("valid")))
                    .build()
                    .expect("valid")
            };
            let (e1, e2, e3, e4) = (engine(), engine(), engine(), engine());
            let exec = |e| ModelExec::new(e, &g, Framework::Dgl, None);
            let runs = [
                Gcn::paper_default(8, 4, 1)
                    .forward(&exec(&e1), &f)
                    .map(drop),
                Gin::paper_default(8, 4, 1)
                    .forward(&exec(&e2), &f)
                    .map(drop),
                Gat::paper_default(8, 4, 1)
                    .forward(&exec(&e3), &f)
                    .map(drop),
                GcnTrainer::new(&[8, 16, 4], 0.1, 1)
                    .step(&exec(&e4), &f, &labels)
                    .map(drop),
            ];
            for (model, run) in runs.into_iter().enumerate() {
                match run {
                    Ok(_) => {}
                    Err(CoreError::Gpu(GpuError::Fault {
                        kind: FaultKind::KernelTimeout,
                        op,
                    })) => gemm_faults[model] += usize::from(op.starts_with("gemm")),
                    Err(e) => panic!("model {model}, fault seed {seed}: unexpected error {e}"),
                }
            }
        }
        assert!(
            gemm_faults.iter().all(|&n| n > 0),
            "every model returns a GEMM timeout for some seed: {gemm_faults:?}"
        );
    }

    #[test]
    fn update_cost_accumulates() {
        let g = barabasi_albert(100, 3, 2).expect("valid");
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let exec = ModelExec::new(&engine, &g, Framework::Dgl, None);
        let mut metrics = RunMetrics::default();
        exec.update_cost(100, 64, 16, &mut metrics).expect("prices");
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
