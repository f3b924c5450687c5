//! Regenerates Figure 10: comparisons with PyG and GunRock.

#![deny(unsafe_code)]

use gnnadvisor_bench::experiments::fig10;
use gnnadvisor_bench::report::write_json;
use gnnadvisor_bench::ExperimentConfig;

fn main() {
    let cfg = ExperimentConfig::default();
    let result = fig10::run(&cfg);
    fig10::print(&result);
    if let Ok(path) = write_json("fig10", &result) {
        eprintln!("\n[written {}]", path.display());
    }
}
