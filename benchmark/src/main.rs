//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload fullgraph --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints the run context, a metric table, and as the last line of
//! standard output one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. A traced run also writes its spans to
//! `$CARGO_TARGET_DIR/bench-traces/` (`target/` when unset).

use std::process::ExitCode;

use gnnadvisor_benchmark::{default_sim_threads, run, Options, Size, Workload};

const USAGE: &str =
    "usage: gnnadvisor-benchmark --workload fullgraph|serve-cluster|serve-dynamic|minibatch \
--seed N --seconds S --trace 0|1";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| "--seed must be an integer")?,
                )
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds must be a number")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        size: Size::Full,
        // One simulation worker per core: explicit, never above nproc.
        sim_threads: default_sim_threads(),
    })
}

fn write_spans(opts: &Options, json: &str) -> std::io::Result<std::path::PathBuf> {
    let root = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let dir = std::path::Path::new(&root).join("bench-traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.json", opts.workload.name(), opts.seed));
    std::fs::write(&path, json)?;
    Ok(path)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&opts);
    for line in &report.lines {
        println!("{line}");
    }
    if let Some(json) = &report.spans_json {
        match write_spans(&opts, json) {
            Ok(path) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans: {e}"),
        }
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
