//! The repository's benchmark: four seeded workloads on two clocks.
//!
//! See `README.md` next to this crate for each workload's purpose and each
//! metric's clock and direction. [`run`] executes one workload in this
//! process and returns a [`Report`] whose last line of output is the
//! machine-readable result.

pub mod catalogue;
mod cluster;
mod dynamic;
mod fullgraph;
mod harness;
mod ladder;
mod minibatch;
mod trace;

use std::fmt::Write as _;

use catalogue::{MetricDef, END_TO_END, PER_LAYER};
use harness::Ctx;
pub use harness::Size;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fullgraph,
    ServeCluster,
    ServeDynamic,
    Minibatch,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Fullgraph,
        Workload::ServeCluster,
        Workload::ServeDynamic,
        Workload::Minibatch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fullgraph => "fullgraph",
            Workload::ServeCluster => "serve-cluster",
            Workload::ServeDynamic => "serve-dynamic",
            Workload::Minibatch => "minibatch",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    pub sim_threads: usize,
}

/// The outcome of one invocation.
pub struct Report {
    /// Human-readable lines: run context, metric table, notes.
    pub lines: Vec<String>,
    /// `(definition, value)` for every metric of the invocation's list.
    pub metrics: Vec<(&'static MetricDef, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// The trace's spans as JSON (empty when untraced).
    pub spans_json: Option<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (def, value)) in self.metrics.iter().enumerate() {
            let _ = write!(
                metrics,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                def.name,
                json_number(*value),
                def.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Default simulation worker count: one per available core.
pub fn default_sim_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs one workload and collects its report.
pub fn run(opts: &Options) -> Report {
    harness::with_sim_threads(opts.sim_threads, || run_inner(opts))
}

fn run_inner(opts: &Options) -> Report {
    let mut ctx = Ctx::new(
        opts.size,
        opts.seed,
        opts.seconds,
        opts.sim_threads,
        opts.trace,
    );
    let result = match opts.workload {
        Workload::Fullgraph => fullgraph::run(&mut ctx),
        Workload::ServeCluster => cluster::run(&mut ctx),
        Workload::ServeDynamic => dynamic::run(&mut ctx),
        Workload::Minibatch => minibatch::run(&mut ctx),
    };
    if let Err(e) = result {
        // The failing call already counted its ops; make sure the run
        // cannot read as correct.
        if ctx.failed() == 0 {
            ctx.fail(1, e);
        }
    }
    if let Some(rss) = harness::peak_rss_mb() {
        if !opts.trace {
            ctx.set("peak_rss_mb", rss);
        }
    }

    let list: &'static [MetricDef] = if opts.trace { PER_LAYER } else { END_TO_END };
    let mut lines = vec![format!(
        "workload {} seed {} seconds {} trace {} size {:?} host_cpus {} sim_threads {} git {}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.size,
        default_sim_threads(),
        opts.sim_threads,
        harness::git_revision(),
    )];
    let mut metrics = Vec::with_capacity(list.len());
    for def in list {
        let value = match ctx.get(def.name) {
            Some(v) => v,
            // A layer this workload never calls.
            None if opts.trace => 0.0,
            None => {
                ctx.fail(
                    1,
                    format!("end-to-end metric {} was not measured", def.name),
                );
                0.0
            }
        };
        if !value.is_finite() {
            ctx.fail(1, format!("metric {} is not finite", def.name));
        }
        let validation = match (def.clock, def.name) {
            (_, "sim_speedup_vs_dgl") if opts.workload == Workload::Fullgraph => {
                let rel = value / fullgraph::PAPER_TYPE_III_GCN_SPEEDUP - 1.0;
                format!(
                    "reference {:.2}x (paper Type III GCN), error {:+.1}%",
                    fullgraph::PAPER_TYPE_III_GCN_SPEEDUP,
                    rel * 100.0
                )
            }
            (catalogue::Clock::Sim, n) if n.starts_with("sim_") => {
                "unvalidated: no reference in the repository".to_string()
            }
            _ => String::new(),
        };
        lines.push(format!(
            "  {:<30} {:>18.6} {:<6} [{} clock, {} is better] {validation}",
            def.name,
            value,
            def.unit,
            def.clock.label(),
            def.better.label(),
        ));
        metrics.push((def, value));
    }
    lines.extend(ctx.notes.iter().cloned());
    lines.push(format!(
        "ops attempted {} failed {}",
        ctx.attempted(),
        ctx.failed()
    ));
    Report {
        lines,
        metrics,
        attempted: ctx.attempted().max(1),
        failed: ctx.failed(),
        spans_json: opts.trace.then(|| ctx.tracer.to_json()),
    }
}
