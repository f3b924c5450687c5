//! Multi-GPU execution (the paper's future-work extension).
//!
//! Section 8.7: "we also foresee that our current work of GNNAdvisor can
//! be extended to the multi-GPU or distributed data center". This module
//! implements that extension on the simulator: the (renumbered) node range
//! is split into contiguous partitions with balanced edge counts, each
//! partition's group workload runs on its own simulated device, and halo
//! node embeddings (neighbors owned by other devices) are exchanged over a
//! modeled interconnect each layer.
//!
//! Community-aware renumbering is exactly what makes contiguous
//! partitioning effective here: communities land whole inside one
//! partition, so the halo — and with it the exchange traffic — shrinks,
//! extending the paper's locality argument across device boundaries.

use gnnadvisor_gpu::{Engine, GpuSpec, KernelMetrics};
use gnnadvisor_graph::reorder::{renumber, RenumberConfig};
use gnnadvisor_graph::{Csr, NodeId};

use crate::kernels::advisor::AdvisorKernel;
use crate::memory::organize::resolve_launch;
use crate::tuning::params::RuntimeParams;
use crate::workload::group::{partition_groups, NeighborGroup};
use crate::{CoreError, Result};

/// Multi-GPU setup.
#[derive(Debug, Clone)]
pub struct MultiGpuConfig {
    /// Number of devices.
    pub num_gpus: usize,
    /// Per-direction interconnect bandwidth between any device pair, GB/s
    /// (NVLink-class ~25, PCIe-class ~12).
    pub interconnect_gbps: f64,
    /// Per-exchange fixed latency, microseconds.
    pub interconnect_latency_us: f64,
    /// Device preset used for every GPU.
    pub spec: GpuSpec,
}

impl Default for MultiGpuConfig {
    fn default() -> Self {
        Self {
            num_gpus: 2,
            interconnect_gbps: 25.0,
            interconnect_latency_us: 8.0,
            spec: GpuSpec::quadro_p6000(),
        }
    }
}

/// Outcome of one multi-GPU aggregation pass.
#[derive(Debug, Clone)]
pub struct MultiGpuRun {
    /// Per-device kernel metrics.
    pub per_gpu: Vec<KernelMetrics>,
    /// Distinct halo rows each device must receive.
    pub halo_rows: Vec<usize>,
    /// Total bytes exchanged across the interconnect.
    pub halo_bytes: u64,
    /// Time of the halo exchange phase, ms (the slowest device's receive).
    pub exchange_ms: f64,
    /// End-to-end time: exchange + slowest device's kernel, ms.
    pub elapsed_ms: f64,
}

impl MultiGpuRun {
    /// Speedup over a given single-device time.
    pub fn speedup_over(&self, single_ms: f64) -> f64 {
        single_ms / self.elapsed_ms.max(1e-12)
    }
}

/// Splits `0..n` into `parts` contiguous ranges with approximately equal
/// edge counts (prefix balance over `row_ptr`). `parts == 0` is rejected:
/// an empty partition list would silently drop the whole graph.
pub fn partition_nodes(graph: &Csr, parts: usize) -> Result<Vec<(usize, usize)>> {
    if parts == 0 {
        return Err(CoreError::InvalidParams {
            reason: "partition_nodes needs at least 1 partition".into(),
        });
    }
    let n = graph.num_nodes();
    let e = graph.num_edges().max(1);
    let row_ptr = graph.row_ptr();
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0usize;
    for p in 0..parts {
        let target = e * (p + 1) / parts;
        let mut end = start;
        while end < n && row_ptr[end] < target {
            end += 1;
        }
        if p + 1 == parts {
            end = n;
        }
        ranges.push((start, end.max(start)));
        start = end.max(start);
    }
    Ok(ranges)
}

/// Runs one aggregation pass at dimensionality `dim` across the devices.
pub fn run_multi_gpu_aggregation(
    graph: &Csr,
    dim: usize,
    params: RuntimeParams,
    config: &MultiGpuConfig,
) -> Result<MultiGpuRun> {
    if config.num_gpus == 0 {
        return Err(CoreError::InvalidParams {
            reason: "num_gpus must be >= 1".into(),
        });
    }
    params.validate()?;
    // Honor `params.renumber` as the single-device runtime does, by
    // renumbering *before* partitioning, so communities land whole inside
    // contiguous partitions and the halo shrinks. Unlike `Advisor::new`,
    // which renames rows with `Csr::relabel` and keeps each row's order,
    // this applies the permutation with `Csr::permute`, which also sorts
    // every row.
    let renumbered;
    let graph = if params.renumber {
        let r = renumber(graph, &RenumberConfig::default())?;
        renumbered = graph.permute(&r.permutation)?;
        &renumbered
    } else {
        graph
    };
    let groups = partition_groups(graph, params.group_size)?;
    let ranges = partition_nodes(graph, config.num_gpus)?;

    // All simulated devices share one spec; one engine prices them all
    // instead of rebuilding cache state per device per call.
    let engine = Engine::new(config.spec.clone());
    let mut per_gpu = Vec::with_capacity(config.num_gpus);
    let mut halo_rows = Vec::with_capacity(config.num_gpus);
    let row_bytes = dim as u64 * 4;

    for &(lo, hi) in &ranges {
        // This device's share of the group workload.
        let local: Vec<NeighborGroup> = groups
            .iter()
            .copied()
            .filter(|g| (lo..hi).contains(&(g.node as usize)))
            .collect();
        // Halo: distinct external neighbors referenced by local groups.
        let mut halo: std::collections::HashSet<NodeId> = std::collections::HashSet::new();
        for g in &local {
            for &u in &graph.col_idx()[g.start as usize..g.end as usize] {
                if !(lo..hi).contains(&(u as usize)) {
                    halo.insert(u);
                }
            }
        }
        halo_rows.push(halo.len());

        if local.is_empty() {
            per_gpu.push(KernelMetrics {
                name: "advisor_aggregation".into(),
                ..Default::default()
            });
            continue;
        }
        let launch = resolve_launch(&local, params, dim, &config.spec);
        let kernel = AdvisorKernel::new(graph, &local, launch.layout.as_ref(), dim, launch.params);
        per_gpu.push(crate::submit::launch(&engine, &kernel)?);
    }

    // Exchange phase: every device receives its halo rows; transfers
    // overlap across devices, so the phase lasts as long as the largest
    // receive.
    let bw_bytes_per_ms = config.interconnect_gbps * 1e6;
    let exchange_ms = halo_rows
        .iter()
        .map(|&rows| {
            config.interconnect_latency_us / 1000.0
                + rows as f64 * row_bytes as f64 / bw_bytes_per_ms
        })
        .fold(0.0f64, f64::max);
    let halo_bytes: u64 = halo_rows.iter().map(|&r| r as u64 * row_bytes).sum();
    let kernel_ms = per_gpu.iter().map(|m| m.time_ms).fold(0.0f64, f64::max);

    Ok(MultiGpuRun {
        per_gpu,
        halo_rows,
        halo_bytes,
        exchange_ms,
        elapsed_ms: exchange_ms + kernel_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::organize::organize_shared;
    use gnnadvisor_graph::generators::{community_graph, CommunityParams};
    use gnnadvisor_graph::reorder::{renumber, RenumberConfig};

    fn graph() -> Csr {
        let params = CommunityParams {
            num_nodes: 12_000,
            num_edges: 300_000,
            mean_community: 80,
            community_size_cv: 0.3,
            inter_fraction: 0.08,
            shuffle_ids: true,
        };
        community_graph(&params, 404).expect("valid").0
    }

    fn base_params() -> RuntimeParams {
        RuntimeParams {
            renumber: false,
            ..RuntimeParams::default()
        }
    }

    #[test]
    fn partitions_tile_nodes_and_balance_edges() {
        let g = graph();
        for parts in [1, 2, 4, 7] {
            let ranges = partition_nodes(&g, parts).expect("non-zero parts");
            assert_eq!(ranges.len(), parts);
            assert_eq!(ranges[0].0, 0);
            assert_eq!(ranges[parts - 1].1, g.num_nodes());
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0, "ranges must be contiguous");
            }
            if parts > 1 {
                let edges: Vec<usize> = ranges
                    .iter()
                    .map(|&(a, b)| g.row_ptr()[b] - g.row_ptr()[a])
                    .collect();
                let max = *edges.iter().max().expect("non-empty");
                let min = *edges.iter().min().expect("non-empty");
                assert!(max < min * 2 + g.max_degree(), "edge balance: {edges:?}");
            }
        }
    }

    #[test]
    fn more_gpus_reduce_elapsed_time_after_renumbering() {
        // Scaling requires partition locality: on the raw shuffled graph
        // every neighbor is remote and 4 devices barely help (asserted in
        // `renumbering_shrinks_the_halo`); after community renumbering the
        // partitions cut few edges and devices scale.
        let g = graph();
        let r = renumber(&g, &RenumberConfig::default()).expect("runs");
        let g = g.permute(&r.permutation).expect("valid");
        let single = run_multi_gpu_aggregation(
            &g,
            32,
            base_params(),
            &MultiGpuConfig {
                num_gpus: 1,
                ..Default::default()
            },
        )
        .expect("runs");
        let quad = run_multi_gpu_aggregation(
            &g,
            32,
            base_params(),
            &MultiGpuConfig {
                num_gpus: 4,
                ..Default::default()
            },
        )
        .expect("runs");
        assert!(
            quad.elapsed_ms < single.elapsed_ms,
            "4 GPUs {} ms vs 1 GPU {} ms",
            quad.elapsed_ms,
            single.elapsed_ms
        );
        assert!(quad.speedup_over(single.elapsed_ms) > 1.3);
        assert_eq!(single.halo_bytes, 0, "one device has no halo");
        assert!(quad.halo_bytes > 0);
    }

    #[test]
    fn renumbering_shrinks_the_halo() {
        let g = graph();
        let r = renumber(&g, &RenumberConfig::default()).expect("runs");
        let ordered = g.permute(&r.permutation).expect("valid");
        let cfg = MultiGpuConfig {
            num_gpus: 4,
            ..Default::default()
        };
        let shuffled_run = run_multi_gpu_aggregation(&g, 32, base_params(), &cfg).expect("runs");
        let ordered_run =
            run_multi_gpu_aggregation(&ordered, 32, base_params(), &cfg).expect("runs");
        assert!(
            ordered_run.halo_bytes * 2 < shuffled_run.halo_bytes,
            "communities inside partitions must shrink the halo: {} vs {}",
            ordered_run.halo_bytes,
            shuffled_run.halo_bytes
        );
        assert!(ordered_run.exchange_ms < shuffled_run.exchange_ms);
    }

    #[test]
    fn each_device_launches_the_shape_resolve_launch_gives() {
        // Group size 32 leaves most nodes one group, so a 16-group block
        // stages up to 16 distinct nodes: 64 KB at dim 1024, over the
        // P6000's 48 KB per block. Such a device must narrow its block and
        // keep staging, not fall back to atomics.
        let params = CommunityParams {
            num_nodes: 3_000,
            num_edges: 30_000,
            mean_community: 60,
            community_size_cv: 0.3,
            inter_fraction: 0.08,
            shuffle_ids: true,
        };
        let g = community_graph(&params, 405).expect("valid").0;
        let params = RuntimeParams {
            group_size: 32,
            ..base_params()
        };
        let dim = 1024;
        let cfg = MultiGpuConfig {
            num_gpus: 2,
            ..Default::default()
        };
        let run = run_multi_gpu_aggregation(&g, dim, params, &cfg).expect("runs");

        let groups = partition_groups(&g, params.group_size).expect("valid");
        let ranges = partition_nodes(&g, cfg.num_gpus).expect("valid");
        let engine = Engine::new(cfg.spec.clone());
        let mut narrowed = 0;
        for (device, &(lo, hi)) in ranges.iter().enumerate() {
            let local: Vec<NeighborGroup> = groups
                .iter()
                .copied()
                .filter(|grp| (lo..hi).contains(&(grp.node as usize)))
                .collect();
            let tuned = organize_shared(&local, params.groups_per_block());
            let launch = resolve_launch(&local, params, dim, &cfg.spec);
            if tuned.shared_bytes(dim) > cfg.spec.shared_mem_per_block {
                assert!(
                    launch.params.threads_per_block < params.threads_per_block
                        && launch.layout.is_some(),
                    "device {device}: an overflowing layout must narrow and stage"
                );
                narrowed += 1;
            }
            let kernel = AdvisorKernel::new(&g, &local, launch.layout.as_ref(), dim, launch.params);
            assert_eq!(
                run.per_gpu[device],
                crate::submit::launch(&engine, &kernel).expect("launches"),
                "device {device}: priced shape differs from the resolved one"
            );
        }
        assert!(
            narrowed > 0,
            "no device overflowed: the test lost its subject"
        );
    }

    #[test]
    fn zero_gpus_rejected() {
        let g = graph();
        let cfg = MultiGpuConfig {
            num_gpus: 0,
            ..Default::default()
        };
        assert!(run_multi_gpu_aggregation(&g, 16, base_params(), &cfg).is_err());
    }

    #[test]
    fn zero_partitions_are_an_error_not_an_empty_tiling() {
        // Regression: `partition_nodes(g, 0)` used to return an empty Vec,
        // silently dropping every node from the tiling.
        let g = graph();
        assert!(matches!(
            partition_nodes(&g, 0),
            Err(CoreError::InvalidParams { .. })
        ));
    }

    #[test]
    fn renumber_param_is_applied_before_partitioning() {
        // Regression: `run_multi_gpu_aggregation` used to ignore
        // `params.renumber` entirely. Asking for renumbering must now
        // match manually permuting the graph first — and beat not
        // renumbering at all on a shuffled community graph.
        let g = graph();
        let cfg = MultiGpuConfig {
            num_gpus: 4,
            ..Default::default()
        };
        let auto = run_multi_gpu_aggregation(
            &g,
            32,
            RuntimeParams {
                renumber: true,
                ..base_params()
            },
            &cfg,
        )
        .expect("runs");
        let r = renumber(&g, &RenumberConfig::default()).expect("runs");
        let ordered = g.permute(&r.permutation).expect("valid");
        let manual = run_multi_gpu_aggregation(&ordered, 32, base_params(), &cfg).expect("runs");
        assert_eq!(
            auto.halo_bytes, manual.halo_bytes,
            "renumber=true must renumber exactly like the single-device runtime"
        );
        let ignored = run_multi_gpu_aggregation(&g, 32, base_params(), &cfg).expect("runs");
        assert!(
            auto.halo_bytes * 2 < ignored.halo_bytes,
            "honored renumbering must shrink the halo: {} vs {}",
            auto.halo_bytes,
            ignored.halo_bytes
        );
    }
}
