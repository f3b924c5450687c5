//! Regenerates Table 1: the dataset inventory.

#![deny(unsafe_code)]

use gnnadvisor_bench::experiments::table1;
use gnnadvisor_bench::report::write_json;
use gnnadvisor_bench::ExperimentConfig;

fn main() {
    let cfg = ExperimentConfig::default();
    let result = table1::run(&cfg);
    table1::print(&result);
    if let Ok(path) = write_json("table1", &result) {
        eprintln!("\n[written {}]", path.display());
    }
}
