//! The model half of the serving runtime: a GCN batch executor.
//!
//! [`gnnadvisor_core::serving`] owns the policy side of inference serving
//! (arrivals, admission, dynamic batching, multi-stream scheduling) but
//! is model-agnostic: it delegates "what does one dispatched batch cost
//! on the device?" to a [`BatchExecutor`]. This module implements that
//! trait for a 2-layer GCN over a Type II (block-diagonal) dataset:
//!
//! 1. each request names one component graph of the dataset;
//! 2. the executor stitches the batch's components into one
//!    block-diagonal CSR ([`concat_block_diagonal`]) — exactly how
//!    mini-batch frameworks coalesce small graphs;
//! 3. the batch prices as h2d copy → per-layer dense update (GEMM) and
//!    DGL-style aggregation (stacking + fused SpMM) → d2h copy, all
//!    enqueued on one simulated stream so independent batches overlap.

use std::sync::Arc;

use gnnadvisor_core::kernels::spmm_dgl::{SpmmKernel, StackingKernel};
use gnnadvisor_core::serving::{BatchExecutor, BatchWork, DeviceWork, DispatchedBatch};
use gnnadvisor_core::{CoreError, Result};
use gnnadvisor_gpu::{BlockSink, GridConfig, Kernel};
use gnnadvisor_graph::Csr;

use crate::batch::{component_batches, concat_block_diagonal};
use crate::WORD;

/// A fused-SpMM aggregation kernel that shares its (batch-assembled)
/// graph, so it can outlive the executor call that built it and every
/// layer's kernel reads one copy. Emits exactly what [`SpmmKernel`] emits.
struct OwnedSpmm {
    graph: Arc<Csr>,
    dim: usize,
}

impl Kernel for OwnedSpmm {
    fn name(&self) -> &str {
        "serve_gcn_spmm"
    }
    fn grid(&self) -> GridConfig {
        SpmmKernel::new(&self.graph, self.dim).grid()
    }
    fn emit_block(&self, block_id: usize, sink: &mut BlockSink<'_>) {
        SpmmKernel::new(&self.graph, self.dim).emit_block(block_id, sink)
    }
}

/// Plans the device work of GCN inference batches over a block-diagonal
/// dataset (one component graph per request).
pub struct GcnBatchExecutor {
    components: Vec<Csr>,
    in_dim: usize,
    hidden_dim: usize,
    num_classes: usize,
}

impl GcnBatchExecutor {
    /// An executor over `graph`'s components (see
    /// [`component_batches`]) pricing a `in_dim -> hidden_dim ->
    /// num_classes` GCN forward per batch.
    pub fn new(
        graph: &Csr,
        component_of: &[u32],
        in_dim: usize,
        hidden_dim: usize,
        num_classes: usize,
    ) -> Self {
        Self {
            components: component_batches(graph, component_of),
            in_dim,
            hidden_dim,
            num_classes,
        }
    }

    /// How many component graphs requests may reference.
    pub fn num_components(&self) -> usize {
        self.components.len()
    }
}

/// Appends a GCN forward's per-layer device work over `nodes` rows for the
/// layer widths `dims` (input first): update-then-aggregate per layer, the
/// paper's GCN ordering (dimension reduction first makes aggregation
/// cheaper). Each layer is a GEMM, a DGL-style stacking pass, then the
/// kernel `aggregation(layer, out_dim)` returns.
pub(crate) fn push_gcn_layers(
    ops: &mut Vec<DeviceWork>,
    nodes: usize,
    dims: &[usize],
    mut aggregation: impl FnMut(usize, usize) -> Box<dyn Kernel>,
) {
    for (layer, w) in dims.windows(2).enumerate() {
        let (in_dim, out_dim) = (w[0], w[1]);
        ops.push(DeviceWork::Gemm {
            m: nodes,
            n: out_dim,
            k: in_dim,
        });
        ops.push(DeviceWork::Kernel(Box::new(StackingKernel::new(
            nodes, out_dim,
        ))));
        ops.push(DeviceWork::Kernel(aggregation(layer, out_dim)));
    }
}

impl BatchExecutor for GcnBatchExecutor {
    fn plan(&mut self, batch: &DispatchedBatch) -> Result<BatchWork> {
        if batch.requests.is_empty() {
            return Ok(BatchWork::default());
        }
        let mut graphs = Vec::with_capacity(batch.requests.len());
        for request in &batch.requests {
            let component =
                self.components
                    .get(request.component)
                    .ok_or_else(|| CoreError::Serving {
                        reason: format!(
                            "request {} asks for component {} but the dataset has {}",
                            request.id,
                            request.component,
                            self.components.len()
                        ),
                    })?;
            graphs.push(component);
        }
        let merged = Arc::new(concat_block_diagonal(graphs));
        let nodes = merged.num_nodes();
        let edges = merged.num_edges();

        // Host -> device: input features plus the batch topology.
        let h2d = (nodes * self.in_dim * WORD + (nodes + 1 + edges) * WORD) as u64;
        let mut ops = vec![DeviceWork::Transfer { bytes: h2d }];
        let dims = [self.in_dim, self.hidden_dim, self.num_classes];
        push_gcn_layers(&mut ops, nodes, &dims, |_, dim| {
            Box::new(OwnedSpmm {
                graph: Arc::clone(&merged),
                dim,
            })
        });
        // Device -> host: the logits.
        ops.push(DeviceWork::Transfer {
            bytes: (nodes * self.num_classes * WORD) as u64,
        });
        Ok(BatchWork { ops })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnadvisor_core::serving::{
        generate_arrivals, simulate, ArrivalConfig, BatchPolicy, QueuePolicy, Request, RetryPolicy,
        ServingConfig,
    };
    use gnnadvisor_gpu::{Engine, GpuSpec};
    use gnnadvisor_graph::generators::{batched_graph, BatchedParams};

    fn dataset() -> (Csr, Vec<u32>) {
        let params = BatchedParams {
            num_nodes: 1_200,
            num_edges: 4_800,
            mean_graph_size: 30,
            graph_size_cv: 0.4,
        };
        batched_graph(&params, 17).expect("valid")
    }

    fn executor() -> GcnBatchExecutor {
        let (g, comp) = dataset();
        GcnBatchExecutor::new(&g, &comp, 32, 16, 4)
    }

    fn batch_of(components: &[usize]) -> DispatchedBatch {
        DispatchedBatch {
            dispatch_ms: 0.0,
            requests: components
                .iter()
                .enumerate()
                .map(|(id, &component)| Request {
                    id,
                    arrival_ms: 0.0,
                    component,
                })
                .collect(),
        }
    }

    #[test]
    fn plans_the_full_gcn_pipeline() {
        let mut exec = executor();
        assert!(exec.num_components() > 4);
        let work = exec.plan(&batch_of(&[0, 1, 2])).expect("valid components");
        // h2d + 2 layers x (gemm + stacking + spmm) + d2h.
        assert_eq!(work.ops.len(), 8);
        assert!(matches!(work.ops[0], DeviceWork::Transfer { bytes } if bytes > 0));
        assert!(matches!(work.ops[1], DeviceWork::Gemm { n: 16, k: 32, .. }));
        assert!(matches!(work.ops[7], DeviceWork::Transfer { bytes } if bytes > 0));
    }

    #[test]
    fn bigger_batches_price_more_work() {
        let mut exec = executor();
        let gemm_rows = |work: &BatchWork| match work.ops[1] {
            DeviceWork::Gemm { m, .. } => m,
            _ => unreachable!(),
        };
        let one = exec.plan(&batch_of(&[0])).expect("valid");
        let four = exec.plan(&batch_of(&[0, 1, 2, 3])).expect("valid");
        assert!(gemm_rows(&four) > gemm_rows(&one));
    }

    #[test]
    fn unknown_component_is_a_serving_error() {
        let mut exec = executor();
        let bogus = exec.num_components() + 5;
        let err = exec.plan(&batch_of(&[bogus]));
        assert!(matches!(err, Err(CoreError::Serving { .. })));
    }

    #[test]
    fn end_to_end_serving_is_deterministic() {
        let (g, comp) = dataset();
        let mut exec = GcnBatchExecutor::new(&g, &comp, 32, 16, 4);
        let arrivals = generate_arrivals(&ArrivalConfig {
            num_requests: 48,
            mean_interarrival_ms: 0.3,
            num_components: exec.num_components(),
            seed: 5,
        })
        .expect("valid");
        let cfg = ServingConfig {
            streams: 3,
            queue: QueuePolicy { capacity: 24 },
            batch: BatchPolicy {
                max_batch: 6,
                max_delay_ms: 1.5,
            },
            retry: RetryPolicy::default(),
            deadline_ms: None,
        };
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let a = simulate(&engine, &arrivals, &cfg, &mut exec).expect("runs");
        let b = simulate(&engine, &arrivals, &cfg, &mut exec).expect("runs");
        assert_eq!(a.render(), b.render());
        assert_eq!(a.completed as u64 + a.shed, 48);
        assert!(a.p50_ms > 0.0);
        assert!(a.throughput_rps > 0.0);
    }

    #[test]
    fn faulted_serving_retries_gcn_batches() {
        use gnnadvisor_gpu::{FaultConfig, FaultPlan};
        let (g, comp) = dataset();
        let mut exec = GcnBatchExecutor::new(&g, &comp, 32, 16, 4);
        let arrivals = generate_arrivals(&ArrivalConfig {
            num_requests: 32,
            mean_interarrival_ms: 0.3,
            num_components: exec.num_components(),
            seed: 9,
        })
        .expect("valid");
        let cfg = ServingConfig {
            streams: 2,
            queue: QueuePolicy { capacity: 24 },
            batch: BatchPolicy {
                max_batch: 6,
                max_delay_ms: 1.5,
            },
            retry: RetryPolicy {
                max_attempts: 3,
                backoff_base_ms: 0.25,
                seed: 9,
                ..RetryPolicy::default()
            },
            deadline_ms: None,
        };
        let engine = Engine::builder(GpuSpec::quadro_p6000())
            .fault_plan(std::sync::Arc::new(
                FaultPlan::new(FaultConfig::uniform(0.2, 9)).expect("valid"),
            ))
            .build()
            .expect("valid");
        let report = simulate(&engine, &arrivals, &cfg, &mut exec).expect("runs");
        assert_eq!(
            report.completed as u64 + report.shed + report.failed as u64,
            32
        );
        assert!(report.retries > 0, "a 20 % fault rate must trigger retries");
    }
}
