//! Regenerates Figure 8: speedup over DGL for GCN and GIN.

#![deny(unsafe_code)]

use gnnadvisor_bench::experiments::fig08;
use gnnadvisor_bench::report::write_json;
use gnnadvisor_bench::ExperimentConfig;

fn main() {
    let cfg = ExperimentConfig::default();
    let result = fig08::run(&cfg);
    fig08::print(&result);
    if let Ok(path) = write_json("fig08", &result) {
        eprintln!("\n[written {}]", path.display());
    }
}
