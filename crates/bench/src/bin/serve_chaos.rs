//! Chaos scenario: serving under injected faults, retry vs no-retry.

#![deny(unsafe_code)]

use gnnadvisor_bench::experiments::chaos;
use gnnadvisor_bench::report::write_json;
use gnnadvisor_bench::ExperimentConfig;

fn main() {
    let cfg = ExperimentConfig::default();
    let result = chaos::run(&cfg);
    chaos::print(&result);
    assert!(
        result.goodput_recovery > 1.0,
        "retries with backoff must restore goodput under faults"
    );
    if let Ok(path) = write_json("chaos", &result) {
        eprintln!("\n[written {}]", path.display());
    }
}
