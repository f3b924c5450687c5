//! Regenerates Figure 9: SM efficiency and cache hit rate vs DGL.

#![deny(unsafe_code)]

use gnnadvisor_bench::experiments::fig09;
use gnnadvisor_bench::report::write_json;
use gnnadvisor_bench::ExperimentConfig;

fn main() {
    let cfg = ExperimentConfig::default();
    let result = fig09::run(&cfg);
    fig09::print(&result);
    if let Ok(path) = write_json("fig09", &result) {
        eprintln!("\n[written {}]", path.display());
    }
}
