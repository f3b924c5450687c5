//! Regenerates Figure 12: node renumbering and block-level optimization
//! ablations.

#![deny(unsafe_code)]

use gnnadvisor_bench::experiments::fig12;
use gnnadvisor_bench::report::write_json;
use gnnadvisor_bench::ExperimentConfig;

fn main() {
    let cfg = ExperimentConfig::default();
    let result = fig12::run(&cfg);
    fig12::print(&result);
    if let Ok(path) = write_json("fig12", &result) {
        eprintln!("\n[written {}]", path.display());
    }
}
