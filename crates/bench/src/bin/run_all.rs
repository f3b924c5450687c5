//! Runs every experiment in sequence and writes all JSON results — the
//! one-shot regeneration of the paper's evaluation section.

#![deny(unsafe_code)]

use gnnadvisor_bench::experiments::{fig08, fig09, fig10, fig11, fig12, fig13, table1, table2};
use gnnadvisor_bench::report::write_json;
use gnnadvisor_bench::{
    dump_trace, run_forward_traced, trace_dir_from_env, ExperimentConfig, ModelKind,
};
use gnnadvisor_core::Framework;

fn main() {
    let cfg = ExperimentConfig::default();
    eprintln!(
        "running all experiments at scale {} (set GNNADVISOR_SCALE to change)\n",
        cfg.scale
    );

    let t1 = table1::run(&cfg);
    table1::print(&t1);
    let _ = write_json("table1", &t1);
    println!("\n{}\n", "=".repeat(70));

    let f8 = fig08::run(&cfg);
    fig08::print(&f8);
    let _ = write_json("fig08", &f8);
    println!("\n{}\n", "=".repeat(70));

    let f9 = fig09::run(&cfg);
    fig09::print(&f9);
    let _ = write_json("fig09", &f9);
    println!("\n{}\n", "=".repeat(70));

    let f10 = fig10::run(&cfg);
    fig10::print(&f10);
    let _ = write_json("fig10", &f10);
    println!("\n{}\n", "=".repeat(70));

    let t2 = table2::run(&cfg);
    table2::print(&t2);
    let _ = write_json("table2", &t2);
    println!("\n{}\n", "=".repeat(70));

    let f11 = fig11::run(&cfg);
    fig11::print(&f11);
    let _ = write_json("fig11", &f11);
    println!("\n{}\n", "=".repeat(70));

    let f12 = fig12::run(&cfg);
    fig12::print(&f12);
    let _ = write_json("fig12", &f12);
    println!("\n{}\n", "=".repeat(70));

    let f13 = fig13::run(&cfg);
    fig13::print(&f13);
    let _ = write_json("fig13", &f13);

    dump_traces(&cfg);

    eprintln!("\nall experiments complete; JSON under target/experiments/");
}

/// With `GNNADVISOR_TRACE_DIR` set, re-runs one representative forward
/// pass per model with the trace recorder attached and dumps the chrome
/// traces there — diffable regression artifacts alongside the JSON
/// results (timestamps are simulated cycles, so the bytes are stable).
fn dump_traces(cfg: &ExperimentConfig) {
    let Some(dir) = trace_dir_from_env() else {
        return;
    };
    eprintln!("\ndumping chrome traces to {}", dir.display());
    for (dataset, model) in [
        ("Cora", ModelKind::Gcn),
        ("Cora", ModelKind::Gin),
        ("Pubmed", ModelKind::Sage),
    ] {
        let ds = match gnnadvisor_datasets::table1_by_name(dataset)
            .expect("Table 1 dataset")
            .generate(cfg.scale)
        {
            Ok(ds) => ds,
            Err(e) => {
                eprintln!("  {dataset}: generation failed: {e}");
                continue;
            }
        };
        let name = format!("{}_{}", model.name().to_lowercase(), dataset.to_lowercase());
        match run_forward_traced(Framework::GnnAdvisor, model, &ds, cfg) {
            Ok((metrics, tracer)) => match dump_trace(&tracer, &dir, &name) {
                Ok(path) => eprintln!(
                    "  {} ({} events, {}): {}",
                    name,
                    tracer.len(),
                    metrics.phases.report(),
                    path.display()
                ),
                Err(e) => eprintln!("  {name}: {e}"),
            },
            Err(e) => eprintln!("  {name}: run failed: {e}"),
        }
    }
}
