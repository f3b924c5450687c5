//! The model half of *dynamic-graph* serving: a GCN snapshot executor.
//!
//! [`gnnadvisor_core::dynamic`] owns the policy side of serving over a
//! mutating graph (update interleaving, copy-on-write snapshots, the
//! locality-triggered re-renumbering policy) but is model-agnostic: it
//! delegates "what does one dispatched batch cost against *this graph
//! version*?" to a [`SnapshotExecutor`]. This module implements that
//! trait for a 2-layer GCN whose aggregation runs the GNNAdvisor kernel
//! (neighbor grouping + shared-memory staging), so the hit-rate the
//! re-renumbering policy watches is the hit-rate the paper's kernel
//! actually achieves on the snapshot's layout:
//!
//! 1. topology is *resident*: the full CSR uploads only when the batch's
//!    snapshot version differs from the device-resident version (a
//!    rebuild or compaction swaps the whole array; steady-state batches
//!    pay nothing for topology);
//! 2. per-request input features copy up, logits copy back;
//! 3. each layer prices a dense update (GEMM), a DGL-style stacking
//!    pass, and the advisor aggregation over the whole snapshot — one
//!    [`PreparedSnapshot`] (groups and shared layout) is built per
//!    version and shared by both layers' [`SnapshotAggregationKernel`]s
//!    and every batch pinned to that version.

use gnnadvisor_core::dynamic::{PreparedSnapshot, SnapshotAggregationKernel, SnapshotExecutor};
use gnnadvisor_core::serving::{BatchWork, DeviceWork, DispatchedBatch};
use gnnadvisor_core::{CoreError, Result, RuntimeParams};
use gnnadvisor_graph::Csr;

use crate::serve::push_gcn_layers;
use crate::WORD;

/// Plans the device work of GCN inference batches against versioned
/// graph snapshots, modeling resident topology and per-version kernel
/// preparation.
pub struct DynamicGcnExecutor {
    in_dim: usize,
    hidden_dim: usize,
    num_classes: usize,
    params: RuntimeParams,
    /// The graph version whose topology is device-resident, with the
    /// prepared aggregation kernels for the two layer widths.
    resident: Option<Resident>,
}

struct Resident {
    version: u64,
    layers: [SnapshotAggregationKernel; 2],
}

impl DynamicGcnExecutor {
    /// An executor pricing an `in_dim -> hidden_dim -> num_classes` GCN
    /// forward per batch, aggregating with the advisor kernel under
    /// `params`.
    pub fn new(
        in_dim: usize,
        hidden_dim: usize,
        num_classes: usize,
        params: RuntimeParams,
    ) -> Result<Self> {
        params.validate()?;
        if in_dim == 0 || hidden_dim == 0 || num_classes == 0 {
            return Err(CoreError::InvalidParams {
                reason: "GCN layer dimensionalities must be at least 1".into(),
            });
        }
        Ok(Self {
            in_dim,
            hidden_dim,
            num_classes,
            params,
            resident: None,
        })
    }
}

impl SnapshotExecutor for DynamicGcnExecutor {
    fn plan(&mut self, batch: &DispatchedBatch, graph: &Csr, version: u64) -> Result<BatchWork> {
        if batch.requests.is_empty() {
            return Ok(BatchWork::default());
        }
        let nodes = graph.num_nodes();
        let edges = graph.num_edges();
        let mut ops = Vec::with_capacity(9);

        // Re-upload topology and re-prepare the aggregation kernels only
        // when the snapshot moved from under us.
        let stale = self.resident.as_ref().is_none_or(|r| r.version != version);
        if stale {
            ops.push(DeviceWork::Transfer {
                bytes: ((nodes + 1 + edges) * WORD) as u64,
            });
            let snapshot = PreparedSnapshot::prepare(graph, self.params)?;
            let layer = |dim| SnapshotAggregationKernel::new(snapshot.clone(), dim);
            self.resident = Some(Resident {
                version,
                layers: [layer(self.hidden_dim)?, layer(self.num_classes)?],
            });
        }
        let resident = self.resident.as_ref().expect("installed above");

        // Host -> device: the batch's input features.
        ops.push(DeviceWork::Transfer {
            bytes: (batch.requests.len() * self.in_dim * WORD) as u64,
        });
        let dims = [self.in_dim, self.hidden_dim, self.num_classes];
        push_gcn_layers(&mut ops, nodes, &dims, |layer, _| {
            Box::new(resident.layers[layer].clone())
        });
        // Device -> host: the batch's logits.
        ops.push(DeviceWork::Transfer {
            bytes: (batch.requests.len() * self.num_classes * WORD) as u64,
        });
        Ok(BatchWork { ops })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnadvisor_core::serving::Request;
    use gnnadvisor_graph::generators::{community_graph, CommunityParams};

    fn snapshot() -> Csr {
        let params = CommunityParams {
            num_nodes: 400,
            num_edges: 3_200,
            mean_community: 25,
            community_size_cv: 0.3,
            inter_fraction: 0.1,
            shuffle_ids: false,
        };
        community_graph(&params, 3).expect("valid").0
    }

    fn executor() -> DynamicGcnExecutor {
        DynamicGcnExecutor::new(32, 16, 4, RuntimeParams::default()).expect("valid")
    }

    fn batch_of(n: usize) -> DispatchedBatch {
        DispatchedBatch {
            dispatch_ms: 0.0,
            requests: (0..n)
                .map(|id| Request {
                    id,
                    arrival_ms: 0.0,
                    component: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn first_plan_uploads_topology_then_goes_resident() {
        let g = snapshot();
        let mut exec = executor();
        let cold = exec.plan(&batch_of(3), &g, 0).expect("plans");
        // topology + features + 2 layers x (gemm + stacking + advisor) + d2h.
        assert_eq!(cold.ops.len(), 9);
        let topo_bytes = ((g.num_nodes() + 1 + g.num_edges()) * WORD) as u64;
        assert!(matches!(cold.ops[0], DeviceWork::Transfer { bytes } if bytes == topo_bytes));

        let warm = exec.plan(&batch_of(3), &g, 0).expect("plans");
        assert_eq!(warm.ops.len(), 8, "resident topology must not re-upload");
        let feat_bytes = (3 * 32 * WORD) as u64;
        assert!(matches!(warm.ops[0], DeviceWork::Transfer { bytes } if bytes == feat_bytes));
    }

    #[test]
    fn version_change_forces_reupload() {
        let g = snapshot();
        let mut exec = executor();
        exec.plan(&batch_of(2), &g, 0).expect("plans");
        let bumped = exec.plan(&batch_of(2), &g, 1).expect("plans");
        assert_eq!(bumped.ops.len(), 9, "new version must re-upload topology");
        let warm = exec.plan(&batch_of(2), &g, 1).expect("plans");
        assert_eq!(warm.ops.len(), 8);
    }

    #[test]
    fn layer_shapes_follow_the_snapshot() {
        let g = snapshot();
        let mut exec = executor();
        let work = exec.plan(&batch_of(4), &g, 0).expect("plans");
        let n = g.num_nodes();
        assert!(matches!(work.ops[2], DeviceWork::Gemm { m, n: 16, k: 32 } if m == n));
        assert!(matches!(work.ops[5], DeviceWork::Gemm { m, n: 4, k: 16 } if m == n));
        assert!(
            matches!(&work.ops[8], DeviceWork::Transfer { bytes } if *bytes == (4 * 4 * WORD) as u64)
        );
    }

    #[test]
    fn empty_batches_price_nothing() {
        let g = snapshot();
        let mut exec = executor();
        let work = exec.plan(&batch_of(0), &g, 0).expect("plans");
        assert!(work.ops.is_empty());
    }

    #[test]
    fn invalid_dimensions_are_rejected() {
        assert!(DynamicGcnExecutor::new(0, 16, 4, RuntimeParams::default()).is_err());
        assert!(DynamicGcnExecutor::new(32, 0, 4, RuntimeParams::default()).is_err());
        assert!(DynamicGcnExecutor::new(32, 16, 0, RuntimeParams::default()).is_err());
        let bad = RuntimeParams {
            group_size: 0,
            ..RuntimeParams::default()
        };
        assert!(DynamicGcnExecutor::new(32, 16, 4, bad).is_err());
    }
}
