//! Serving scenario: serialized vs. overlapped simulated streams.

#![deny(unsafe_code)]

use gnnadvisor_bench::experiments::serving;
use gnnadvisor_bench::report::write_json;
use gnnadvisor_bench::ExperimentConfig;

fn main() {
    let cfg = ExperimentConfig::default();
    let result = serving::run(&cfg);
    serving::print(&result);
    assert!(
        result.overlap_speedup > 1.0,
        "overlapped streams must beat the serialized schedule"
    );
    if let Ok(path) = write_json("serving", &result) {
        eprintln!("\n[written {}]", path.display());
    }
}
