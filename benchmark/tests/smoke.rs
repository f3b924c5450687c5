//! Smoke test: a tiny-size run of every workload emits every named
//! metric with its unit, passes its own output checks, and a different
//! seed changes the inputs but not the metric names.

use std::sync::Mutex;

use gnnadvisor_benchmark::catalogue::{END_TO_END, PER_LAYER};
use gnnadvisor_benchmark::{run, Options, Report, Size, Workload};

/// A run sets `GNNADVISOR_SIM_THREADS` for the whole process, so runs
/// from parallel tests take turns.
static ONE_RUN_AT_A_TIME: Mutex<()> = Mutex::new(());

fn tiny(workload: Workload, seed: u64, trace: bool) -> Report {
    let _turn = ONE_RUN_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    run(&Options {
        workload,
        seed,
        seconds: 0.01,
        trace,
        size: Size::Tiny,
        sim_threads: 2,
    })
}

fn names(report: &Report) -> Vec<&'static str> {
    report.metrics.iter().map(|(def, _)| def.name).collect()
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for workload in Workload::ALL {
        for (trace, list) in [(false, END_TO_END), (true, PER_LAYER)] {
            let report = tiny(workload, 1, trace);
            assert!(
                report.correct(),
                "{} trace={trace}: {:#?}",
                workload.name(),
                report.lines
            );
            assert!(report.attempted >= 1);
            let expected: Vec<&str> = list.iter().map(|d| d.name).collect();
            assert_eq!(names(&report), expected, "{}", workload.name());
            let json = report.to_json();
            for def in list {
                let entry = format!("\"{}\": {{\"value\": ", def.name);
                assert!(
                    json.contains(&entry),
                    "{} lacks {}",
                    workload.name(),
                    def.name
                );
                assert!(json.contains(&format!("\"unit\": \"{}\"", def.unit)));
            }
            if !trace {
                // End-to-end metrics are never 0.
                for (def, value) in &report.metrics {
                    assert!(*value > 0.0, "{}: {} = {value}", workload.name(), def.name);
                }
            }
        }
    }
}

#[test]
fn another_seed_changes_inputs_not_names() {
    let a = tiny(Workload::Fullgraph, 1, false);
    let b = tiny(Workload::Fullgraph, 2, false);
    assert_eq!(names(&a), names(&b));
    let forward = |r: &Report| {
        r.metrics
            .iter()
            .find(|(d, _)| d.name == "sim_forward_ms")
            .map(|(_, v)| *v)
            .expect("measured")
    };
    assert_ne!(forward(&a), forward(&b), "the seed must change the inputs");
    // The same seed repeats every simulated value exactly.
    let c = tiny(Workload::Fullgraph, 1, false);
    assert_eq!(forward(&a), forward(&c));
}

#[test]
fn benchmark_json_names_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    for workload in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", workload.name())));
    }
    for def in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(
            "\"name\": \"{}\",\n      \"unit\": \"{}\",\n      \"better\": \"{}\"",
            def.name,
            def.unit,
            def.better.label()
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let listed = json.matches("\"unit\":").count();
    assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
}
