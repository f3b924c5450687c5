//! Regenerates Figure 13 and Table 3: hidden-dimension scaling and the
//! V100 case study.

#![deny(unsafe_code)]

use gnnadvisor_bench::experiments::fig13;
use gnnadvisor_bench::report::write_json;
use gnnadvisor_bench::ExperimentConfig;

fn main() {
    let cfg = ExperimentConfig::default();
    let result = fig13::run(&cfg);
    fig13::print(&result);
    if let Ok(path) = write_json("fig13", &result) {
        eprintln!("\n[written {}]", path.display());
    }
}
