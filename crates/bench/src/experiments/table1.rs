//! Table 1: the dataset inventory, printed with both the published
//! statistics and the properties of the synthesized stand-ins.

use gnnadvisor_datasets::{all_table1, DatasetSpec};
use gnnadvisor_graph::stats::DegreeStats;
use serde::Serialize;

use crate::report::Table;
use crate::runner::ExperimentConfig;

/// One dataset row: the spec plus generated-graph statistics.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Dataset name.
    pub name: String,
    /// Structural type label.
    pub ty: String,
    /// Published node count.
    pub spec_nodes: usize,
    /// Published edge count.
    pub spec_edges: usize,
    /// Feature dimension.
    pub dim: usize,
    /// Class count.
    pub classes: usize,
    /// Generated node count at the configured scale.
    pub gen_nodes: usize,
    /// Generated edge count.
    pub gen_edges: usize,
    /// Generated mean degree.
    pub gen_avg_degree: f64,
    /// Generated degree stddev.
    pub gen_degree_stddev: f64,
}

/// Full Table 1 result.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Result {
    /// Scale the graphs were generated at.
    pub scale: f64,
    /// All 15 rows in paper order.
    pub rows: Vec<Row>,
}

/// Generates every Table 1 dataset at the configured scale and records the
/// published-vs-generated statistics.
pub fn run(cfg: &ExperimentConfig) -> Table1Result {
    let rows = all_table1()
        .into_iter()
        .map(|spec: DatasetSpec| {
            let ds = spec
                .generate(cfg.scale)
                .expect("table1 datasets must generate");
            let stats = DegreeStats::of(&ds.graph);
            Row {
                name: spec.name.to_string(),
                ty: spec.ty.label().to_string(),
                spec_nodes: spec.num_nodes,
                spec_edges: spec.num_edges,
                dim: spec.feat_dim,
                classes: spec.num_classes,
                gen_nodes: ds.graph.num_nodes(),
                gen_edges: ds.graph.num_edges(),
                gen_avg_degree: stats.mean,
                gen_degree_stddev: stats.stddev,
            }
        })
        .collect();
    Table1Result {
        scale: cfg.scale,
        rows,
    }
}

/// Prints the paper-style table.
pub fn print(result: &Table1Result) {
    println!(
        "Table 1: Datasets for Evaluation (generated at scale {}).\n",
        result.scale
    );
    let mut t = Table::new(&[
        "Dataset",
        "Type",
        "#Vertex",
        "#Edge",
        "#Dim",
        "#Cls",
        "gen #V",
        "gen #E",
        "avg deg",
        "deg stddev",
    ]);
    for r in &result.rows {
        t.row(&[
            r.name.clone(),
            r.ty.clone(),
            r.spec_nodes.to_string(),
            r.spec_edges.to_string(),
            r.dim.to_string(),
            r.classes.to_string(),
            r.gen_nodes.to_string(),
            r.gen_edges.to_string(),
            format!("{:.1}", r.gen_avg_degree),
            format!("{:.1}", r.gen_degree_stddev),
        ]);
    }
    t.print();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_at_tiny_scale() {
        let cfg = ExperimentConfig::at_scale(0.005);
        let r = run(&cfg);
        assert_eq!(r.rows.len(), 15);
        assert!(r.rows.iter().all(|row| row.gen_edges > 0));
    }
}
