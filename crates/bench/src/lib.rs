//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (Section 8).
//!
//! Each experiment lives in [`experiments`] as a pure function returning a
//! serializable result plus a printer that emits the same rows/series the
//! paper reports. Thin binaries under `src/bin/` wrap them:
//!
//! | Paper artifact | Binary |
//! |---|---|
//! | Table 1 (datasets) | `table1_datasets` |
//! | Figure 8 (speedup vs DGL) | `fig08_dgl_speedup` |
//! | Figure 9 (kernel metrics vs DGL) | `fig09_kernel_metrics` |
//! | Figure 10a/10b (PyG, GunRock) | `fig10_pyg_gunrock` |
//! | Table 2 (NeuGraph) | `table2_neugraph` |
//! | Figure 11a–c (parameter sweeps) | `fig11_param_sweeps` |
//! | Figure 12a–c (renumbering + block opts) | `fig12_renumbering_block` |
//! | Figure 13a–c + Table 3 (case studies) | `fig13_case_studies` |
//! | everything, plus EXPERIMENTS.md data | `run_all` |
//!
//! Absolute times come from the deterministic GPU simulator, so the point
//! of comparison with the paper is *shape* (who wins, by what factor,
//! where the crossovers sit), not milliseconds. Set `GNNADVISOR_SCALE`
//! (default 0.05) to trade fidelity for runtime; every binary honors it.

#![deny(unsafe_code)]

pub mod experiments;
pub mod report;
pub mod runner;

pub use runner::{dump_trace, run_forward_traced, trace_dir_from_env, ExperimentConfig, ModelKind};
