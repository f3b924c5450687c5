//! Regenerates Figure 11: group-size / thread-per-block / dimension-worker
//! sweeps.

#![deny(unsafe_code)]

use gnnadvisor_bench::experiments::fig11;
use gnnadvisor_bench::report::write_json;
use gnnadvisor_bench::ExperimentConfig;

fn main() {
    let cfg = ExperimentConfig::default();
    let result = fig11::run(&cfg);
    fig11::print(&result);
    if let Ok(path) = write_json("fig11", &result) {
        eprintln!("\n[written {}]", path.display());
    }
}
