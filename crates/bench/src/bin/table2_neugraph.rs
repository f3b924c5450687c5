//! Regenerates Table 2: comparison with NeuGraph.

#![deny(unsafe_code)]

use gnnadvisor_bench::experiments::table2;
use gnnadvisor_bench::report::write_json;
use gnnadvisor_bench::ExperimentConfig;

fn main() {
    let cfg = ExperimentConfig::default();
    let result = table2::run(&cfg);
    table2::print(&result);
    if let Ok(path) = write_json("table2", &result) {
        eprintln!("\n[written {}]", path.display());
    }
}
