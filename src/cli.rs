//! Command-line interface logic (see `src/bin/gnnadvisor.rs`).
//!
//! The paper's conclusion promises "a handy tool to accelerate GNNs on
//! GPUs systematically and comprehensively"; this module is that tool's
//! engine. Every command returns its report as a `String` so the logic is
//! unit-testable; the binary just prints it.
//!
//! Each flag is one row of the `flags!` table: its name, placeholder,
//! default, range rule, help text and the commands that take it.
//! `dispatch` resolves the command first and then parses only that
//! command's flags; `gnnadvisor help` is generated from the same table.

use std::sync::Arc;

use gnnadvisor_core::cluster::{
    assign_tenants, simulate_cluster, validate_tenants, AutoscalerConfig, ClusterConfig,
    RouterPolicy, TenantSpec,
};
use gnnadvisor_core::dynamic::{
    generate_updates, simulate_dynamic, DynamicConfig, RenumberPolicy, UpdateStreamConfig,
};
use gnnadvisor_core::frameworks::{aggregate_with, Framework};
use gnnadvisor_core::input::extract;
use gnnadvisor_core::minibatch::HostCostModel;
use gnnadvisor_core::runtime::{Advisor, AdvisorConfig};
use gnnadvisor_core::serving::{
    generate_arrivals, generate_mmpp_arrivals, simulate, ArrivalConfig, BatchPolicy, MmppConfig,
    QueuePolicy, Request, RetryPolicy, ServingConfig,
};
use gnnadvisor_core::tuning::estimator::{Estimator, EstimatorConfig};
use gnnadvisor_core::tuning::model;
use gnnadvisor_core::tuning::params::RuntimeParams;
use gnnadvisor_core::tuning::{aggregation_metrics, tune_two_tier, TwoTierConfig};
use gnnadvisor_datasets::{table1_by_name, Dataset};
use gnnadvisor_gpu::{Engine, FaultConfig, FaultPlan, GpuSpec, TraceRecorder};
use gnnadvisor_graph::generators::{
    batched_graph, community_graph, BatchedParams, CommunityParams,
};
use gnnadvisor_graph::io::{load_edge_list, LoadOptions};
use gnnadvisor_graph::reorder::{renumber, RenumberConfig};
use gnnadvisor_graph::sample::{SampleConfig, SampleStrategy};
use gnnadvisor_graph::stats::DegreeStats;
use gnnadvisor_models::{
    DynamicGcnExecutor, Gat, Gcn, GcnBatchExecutor, Gin, GraphSage, MiniBatchConfig, ModelExec,
};
use gnnadvisor_tensor::init::random_features;

/// CLI errors as plain strings (shown to the user verbatim).
pub type CliResult = Result<String, String>;

/// Upper bound on the counts that size a fleet: `--streams`, `--replicas`
/// and the `--autoscale` MAX.
const MAX_FLEET: usize = 1024;
/// Upper bound on the lengths that size a trace or a queue: `--requests`,
/// `--updates` and `--queue-cap`.
const MAX_TRACE: usize = 1 << 24;
/// Upper bound on the model dimensions: `--feat-dim`, `--classes` and
/// `--hidden`.
const MAX_DIM: usize = 1 << 14;

/// One subcommand and the function that runs it.
struct Command {
    name: &'static str,
    /// The command's bit in each flag's `cmds` set.
    bit: u16,
    about: &'static str,
    run: fn(&CliOptions) -> CliResult,
}

const ANALYZE: u16 = 1;
const RUN: u16 = 1 << 1;
const PROFILE: u16 = 1 << 2;
const COMPARE: u16 = 1 << 3;
const TUNE: u16 = 1 << 4;
const SERVE_SIM: u16 = 1 << 5;
const SERVE_CLUSTER: u16 = 1 << 6;
const SERVE_DYNAMIC: u16 = 1 << 7;
const TRAIN: u16 = 1 << 8;
/// The commands that load a Table 1 dataset or an edge list.
const GRAPH: u16 = ANALYZE | RUN | PROFILE | COMPARE | TUNE;
const SERVE: u16 = SERVE_SIM | SERVE_CLUSTER | SERVE_DYNAMIC;
const ALL: u16 = GRAPH | SERVE | TRAIN;

/// Declares `COMMANDS`, one row per subcommand:
/// `BIT "name" function, "one-line help"`.
macro_rules! commands {
    ($($bit:ident $name:literal $run:ident, $about:literal;)*) => {
        static COMMANDS: &[Command] = &[
            $(Command { name: $name, bit: $bit, about: $about, run: $run },)*
        ];
    };
}

commands! {
    ANALYZE "analyze" analyze, "input-extractor report + suggested runtime parameters";
    RUN "run" run, "one model forward pass under GNNAdvisor, with metrics";
    PROFILE "profile" profile, "a traced forward pass: phase breakdown + span report";
    COMPARE "compare" compare, "all execution strategies on one aggregation pass";
    TUNE "tune" tune, "the Section 7 Modeling & Estimating pipeline (two-tier)";
    SERVE_SIM "serve-sim" serve_sim, "multi-stream serving runtime with dynamic batching";
    SERVE_CLUSTER "serve-cluster" serve_cluster, "replicated serving: router, tenants, autoscaler";
    SERVE_DYNAMIC "serve-dynamic" serve_dynamic, "serving under live graph updates, with re-renumbering";
    TRAIN "train-minibatch" train_minibatch, "pipelined sampling-based mini-batch training";
}

/// One flag, as its `flags!` row declares it.
struct Flag {
    name: &'static str,
    meta: &'static str,
    help: &'static str,
    /// The bits of the commands that take the flag.
    cmds: u16,
    /// Parses and range-checks one argument into the options.
    set: fn(&mut CliOptions, &str) -> Result<(), String>,
    /// The range rule, as the help prints it (empty when there is none).
    rule: fn() -> String,
    /// The flag's value in the options; `None` when unset.
    show: fn(&CliOptions) -> Option<String>,
}

/// The type behind a flag's field.
trait FlagValue {
    /// What an argument parses to: the field's type, or the type an
    /// `Option` field wraps.
    type Arg: std::str::FromStr + std::fmt::Display;
    /// What a malformed argument should have been, for its error.
    const KIND: &'static str;
    fn wrap(arg: Self::Arg) -> Self;
    fn show(&self) -> Option<String>;
}

macro_rules! plain_flag_values {
    ($($ty:ty: $kind:literal),*) => {$(
        impl FlagValue for $ty {
            type Arg = $ty;
            const KIND: &'static str = $kind;
            fn wrap(arg: $ty) -> Self {
                arg
            }
            fn show(&self) -> Option<String> {
                Some(self.to_string())
            }
        }
    )*};
}

plain_flag_values!(usize: "an integer", u64: "an integer", f64: "a number", String: "a value");

impl<T: FlagValue> FlagValue for Option<T> {
    type Arg = T::Arg;
    const KIND: &'static str = T::KIND;
    fn wrap(arg: T::Arg) -> Self {
        Some(T::wrap(arg))
    }
    fn show(&self) -> Option<String> {
        self.as_ref().and_then(T::show)
    }
}

/// Declares `CliOptions`, its `Default` and `FLAGS`, one row per flag:
/// `field: Type = default, "--name" "META", COMMANDS, "help"`, then
/// optionally `map f` (applied to the argument first), one range rule —
/// `check "rule" => predicate` or `count LO..=HI` — and `with parser`
/// (whose error becomes the flag's error).
macro_rules! flags {
    (@rule) => { String::new };
    (@rule check $rule:expr) => { || $rule.to_string() };
    (@rule count $lo:literal $hi:expr) => { || format!("between {} and {}", $lo, $hi) };
    (@ok) => { |_| true };
    (@ok check $ok:expr) => { $ok };
    (@ok count $lo:literal $hi:expr) => { |v| ($lo..=$hi).contains(v) };
    ($($field:ident: $ty:ty = $default:expr, $name:literal $meta:literal, $cmds:expr, $help:literal
        $(, map $map:path)?
        $(, check $rule:expr => $ok:expr)?
        $(, count $lo:literal..=$hi:expr)?
        $(, with $with:path)?;
    )*) => {
        #[derive(Debug)]
        struct CliOptions {
            $($field: $ty,)*
        }

        impl Default for CliOptions {
            fn default() -> Self {
                Self { $($field: $default,)* }
            }
        }

        const FLAGS: &[Flag] = &[$(Flag {
            name: $name,
            meta: $meta,
            help: $help,
            cmds: $cmds,
            set: |opts, raw| {
                $(let raw: &str = &$map(raw);)?
                let v: <$ty as FlagValue>::Arg = raw.parse().map_err(|_| {
                    format!("{} needs {}, got {raw:?}", $name, <$ty as FlagValue>::KIND)
                })?;
                let ok: fn(&<$ty as FlagValue>::Arg) -> bool =
                    flags!(@ok $(check $ok)? $(count $lo $hi)?);
                if !ok(&v) {
                    let rule: fn() -> String = flags!(@rule $(check $rule)? $(count $lo $hi)?);
                    return Err(format!("{} must be {}, got {v}", $name, rule()));
                }
                $($with(&v)?;)?
                opts.$field = <$ty as FlagValue>::wrap(v);
                Ok(())
            },
            rule: flags!(@rule $(check $rule)? $(count $lo $hi)?),
            show: |opts| opts.$field.show(),
        },)*];
    };
}

fn positive(v: &f64) -> bool {
    v.is_finite() && *v > 0.0
}

fn non_negative(v: &f64) -> bool {
    v.is_finite() && *v >= 0.0
}

/// In `[0, 1]`.
fn fraction(v: &f64) -> bool {
    (0.0..=1.0).contains(v)
}

/// In `(0, 1]`.
fn nonzero_fraction(v: &f64) -> bool {
    *v > 0.0 && *v <= 1.0
}

flags! {
    dataset: Option<String> = None, "--dataset" "NAME", GRAPH,
        "a Table 1 dataset (e.g. Cora, artist, DD)";
    edge_list: Option<String> = None, "--edge-list" "FILE", GRAPH,
        "a SNAP-style edge list, instead of --dataset";
    scale: f64 = 0.05, "--scale" "S", ALL, "dataset or synthetic-graph scale",
        check "a number in (0, 1]" => nonzero_fraction;
    model: String = "gcn".into(), "--model" "M", GRAPH, "gcn | gin | sage | gat",
        map str::to_lowercase;
    gpu: String = "p6000".into(), "--gpu" "G", ALL, "p6000 | v100", map str::to_lowercase;
    feat_dim: usize = 96, "--feat-dim" "D", ALL,
        "input feature dim (a Table 1 dataset brings its own)", count 1..=MAX_DIM;
    num_classes: usize = 10, "--classes" "C", ALL,
        "class count (a Table 1 dataset brings its own)", count 1..=MAX_DIM;
    trace_out: Option<String> = None, "--trace-out" "FILE", PROFILE,
        "write the chrome://tracing JSON here";

    tier: String = "two-tier".into(), "--tier" "T", TUNE,
        "analytic: explore on the calibrated model; two-tier: also engine-verify the \
         top-K finalists; full: score every candidate on the simulator",
        map str::to_lowercase,
        check "analytic, two-tier, or full" =>
            |v| matches!(v.as_str(), "analytic" | "two-tier" | "full");
    top_k: usize = 4, "--top-k" "K", TUNE, "two-tier finalists verified on the engine",
        check "at least 1" => |v| *v >= 1;
    speed_check: Option<f64> = None, "--speed-check" "R", TUNE,
        "require fast-path scoring R times faster than full simulation (ratio on stderr)",
        check "a positive ratio" => positive;

    requests: usize = 64, "--requests" "N", SERVE, "arrival-trace length",
        count 1..=MAX_TRACE;
    rate: f64 = 2_000.0, "--rate" "R", SERVE, "offered load, requests per second",
        check "a positive request rate" => positive;
    batch_size: usize = 8, "--batch-size" "B", SERVE | TRAIN,
        "max requests per serving batch, or seed nodes per mini-batch",
        check "at least 1" => |v| *v >= 1;
    max_delay_ms: f64 = 2.0, "--max-delay-ms" "D", SERVE,
        "the batcher's max queueing delay, ms", check "non-negative" => non_negative;
    queue_cap: usize = 64, "--queue-cap" "Q", SERVE,
        "admission-queue capacity; arrivals beyond it are shed", count 1..=MAX_TRACE;
    streams: usize = 4, "--streams" "S", SERVE, "concurrent simulated streams per engine",
        count 1..=MAX_FLEET;
    seed: u64 = 7, "--seed" "X", SERVE | TRAIN,
        "seed of the arrival trace and faults, or of sampling and weights";
    fault_rate: f64 = 0.0, "--fault-rate" "F", SERVE, "injected device-fault rate",
        check "a number in [0, 1]" => fraction;
    retries: usize = 2, "--retries" "N", SERVE, "retries per faulted batch",
        check format!("below {}", usize::MAX) => |v| v.checked_add(1).is_some();
    deadline_ms: Option<f64> = None, "--deadline-ms" "D", SERVE,
        "per-request completion deadline, ms (serve-cluster: the default tenant's SLO)",
        check "positive" => positive;

    replicas: usize = 2, "--replicas" "N", SERVE_CLUSTER | SERVE_DYNAMIC,
        "replica engines behind the router", count 1..=MAX_FLEET;
    router: String = "cost-aware".into(), "--router" "P", SERVE_CLUSTER,
        "replica selection policy", map str::to_lowercase,
        check "round-robin, least-loaded, or cost-aware" => |v| RouterPolicy::parse(v).is_some();
    tenants: Option<String> = None, "--tenants" "SPEC", SERVE_CLUSTER,
        "roster NAME:WEIGHT[:DEADLINE_MS],...: weighted-fair admission shares and \
         per-tenant SLOs (unset: one tenant carrying --deadline-ms)",
        with parse_tenant_specs;
    autoscale: Option<String> = None, "--autoscale" "MIN:MAX", SERVE_CLUSTER,
        "seeded queue-depth/p99 autoscaler bounds (unset: a fixed fleet)",
        check format!("MIN:MAX with 1 <= MIN <= MAX <= {MAX_FLEET}") =>
            |v| parse_autoscale(v).is_some();
    scale_high: usize = 8, "--scale-high" "N", SERVE_CLUSTER,
        "queue depth that votes to scale up";
    scale_low: usize = 1, "--scale-low" "N", SERVE_CLUSTER,
        "queue depth that votes to scale down, below --scale-high";
    scale_interval_ms: f64 = 5.0, "--scale-interval-ms" "I", SERVE_CLUSTER,
        "autoscaler control cadence, ms", check "positive" => positive;
    scale_p99_ms: Option<f64> = None, "--scale-p99-ms" "P", SERVE_CLUSTER,
        "a p99 estimate above P ms also votes to scale up", check "positive" => positive;
    arrivals: String = "poisson".into(), "--arrivals" "A", SERVE_CLUSTER,
        "arrival process; mmpp switches between bursty and calm phases",
        map str::to_lowercase,
        check "poisson or mmpp" => |v| matches!(v.as_str(), "poisson" | "mmpp");
    burst: f64 = 4.0, "--burst" "F", SERVE_CLUSTER,
        "mmpp: the heavy phase runs at F times the mean rate",
        check "a finite factor above 1" => |v| v.is_finite() && *v > 1.0;
    dwell_ms: f64 = 5.0, "--dwell-ms" "D", SERVE_CLUSTER, "mmpp: mean phase dwell, ms",
        check "positive" => positive;
    reset_replica: Option<String> = None, "--reset-replica" "R:MS", SERVE_CLUSTER,
        "kill replica R with a device reset at MS; the fleet retries its batches elsewhere",
        check "REPLICA:MS with a positive MS" => |v| parse_reset(v).is_some();

    updates: usize = 4_000, "--updates" "N", SERVE_DYNAMIC, "update-stream length",
        count 1..=MAX_TRACE;
    update_gap_ms: f64 = 0.004, "--update-gap-ms" "G", SERVE_DYNAMIC,
        "mean gap between updates, simulated ms", check "positive" => positive;
    delete_frac: f64 = 0.15, "--delete-frac" "F", SERVE_DYNAMIC,
        "fraction of updates deleting a live edge", check "a number in [0, 1]" => fraction;
    node_frac: f64 = 0.25, "--node-frac" "F", SERVE_DYNAMIC,
        "fraction of updates that are node arrivals; with --delete-frac at most 1",
        check "a number in [0, 1]" => fraction;
    attach_degree: usize = 6, "--attach-degree" "K", SERVE_DYNAMIC,
        "edges each arriving node wires into its community";
    renumber: String = "on".into(), "--renumber" "on|off", SERVE_DYNAMIC,
        "locality-triggered re-renumbering", map str::to_lowercase,
        check "on or off" => |v| matches!(v.as_str(), "on" | "off");
    hit_watermark: f64 = 0.98, "--hit-watermark" "W", SERVE_DYNAMIC,
        "rebuild when the windowed hit-rate sinks below W x the post-rebuild baseline",
        check "a number in (0, 1]" => nonzero_fraction;
    policy_window: usize = 8, "--policy-window" "B", SERVE_DYNAMIC,
        "sliding hit-rate window, batches", check "at least 1" => |v| *v >= 1;
    cooldown: usize = 16, "--cooldown" "B", SERVE_DYNAMIC, "minimum batches between rebuilds";
    rebuild_cost_us: f64 = 0.0005, "--rebuild-cost-us" "C", SERVE_DYNAMIC,
        "simulated rebuild stall, us per live edge", check "non-negative" => non_negative;
    compact_every: usize = 64, "--compact-every" "N", SERVE_DYNAMIC,
        "fold the delta overlay into the base CSR after N applied updates (0: only at rebuilds)";

    epochs: usize = 3, "--epochs" "N", TRAIN, "training epochs", check "at least 1" => |v| *v >= 1;
    fanout: String = "10,5".into(), "--fanout" "F1,F2,...", TRAIN, "per-hop neighbor fan-outs",
        check "comma-separated positive integers" => |v| parse_fanouts(v).is_some();
    hidden: usize = 16, "--hidden" "H", TRAIN, "hidden layer dimension", count 1..=MAX_DIM;
    lr: f64 = 0.1, "--lr" "R", TRAIN, "SGD learning rate",
        check "a finite non-negative rate" => non_negative;
    strategy: String = "neighbor".into(), "--strategy" "S", TRAIN,
        "neighbor: per-node fan-out sampling; layer: a shared per-hop node budget",
        map str::to_lowercase,
        check "neighbor or layer" => |v| matches!(v.as_str(), "neighbor" | "layer");
    budget: usize = 256, "--budget" "N", TRAIN, "the layer strategy's node budget per hop",
        check "at least 1" => |v| *v >= 1;
}

/// The command named `name`.
fn command(name: &str) -> Result<&'static Command, String> {
    COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown command {name}\n\n{}", usage()))
}

impl CliOptions {
    /// Parses the `--flag value` pairs after `cmd`. A flag `cmd` does not
    /// take, a malformed or out-of-range value and a broken cross-flag
    /// rule are each an error naming the command and the flag.
    fn parse(cmd: &str, args: &[String]) -> Result<Self, String> {
        let bit = command(cmd)?.bit;
        let mut opts = Self::default();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let flag = FLAGS
                .iter()
                .find(|f| f.name == key)
                .ok_or_else(|| format!("{cmd}: unknown option {key}"))?;
            if flag.cmds & bit == 0 {
                return Err(format!("{cmd} does not take {key}; see gnnadvisor help"));
            }
            let raw = it
                .next()
                .ok_or_else(|| format!("{cmd}: {key} needs a value"))?;
            (flag.set)(&mut opts, raw).map_err(|e| format!("{cmd}: {e}"))?;
        }
        let clash = match cmd {
            "serve-cluster" if opts.scale_low >= opts.scale_high => format!(
                "--scale-low {} must sit below --scale-high {}",
                opts.scale_low, opts.scale_high
            ),
            "serve-dynamic" if opts.delete_frac + opts.node_frac > 1.0 => format!(
                "--delete-frac {} + --node-frac {} must not exceed 1",
                opts.delete_frac, opts.node_frac
            ),
            _ if opts.dataset.is_some() && opts.edge_list.is_some() => {
                "pass --dataset or --edge-list, not both".to_string()
            }
            _ => return Ok(opts),
        };
        Err(format!("{cmd}: {clash}"))
    }

    fn spec(&self) -> Result<GpuSpec, String> {
        match self.gpu.as_str() {
            "p6000" => Ok(GpuSpec::quadro_p6000()),
            "v100" => Ok(GpuSpec::tesla_v100()),
            other => Err(format!("unknown GPU {other}; use p6000 or v100")),
        }
    }

    fn load(&self) -> Result<Dataset, String> {
        if let Some(path) = &self.edge_list {
            let graph = load_edge_list(path, &LoadOptions::default()).map_err(|e| e.to_string())?;
            if graph.num_edges() == 0 {
                return Err(format!(
                    "edge list {path} has no edges (self-loops are dropped)"
                ));
            }
            let spec = gnnadvisor_datasets::DatasetSpec {
                name: "edge-list",
                num_nodes: graph.num_nodes(),
                num_edges: graph.num_edges(),
                feat_dim: self.feat_dim,
                num_classes: self.num_classes,
                ty: gnnadvisor_datasets::DatasetType::TypeIII,
                mean_cluster: 64,
                cluster_cv: 0.3,
            };
            return Ok(Dataset {
                spec,
                scale: 1.0,
                graph,
                feat_dim: self.feat_dim,
                num_classes: self.num_classes,
            });
        }
        let name = self
            .dataset
            .as_deref()
            .ok_or("pass --dataset NAME or --edge-list FILE")?;
        let spec = table1_by_name(name)
            .ok_or_else(|| format!("unknown dataset {name}; see Table 1 for names"))?;
        spec.generate(self.scale).map_err(|e| e.to_string())
    }
}

/// The GNNAdvisor runtime for `ds` under `--model`, launching on `engine`.
fn advisor(opts: &CliOptions, ds: &Dataset, engine: &Engine) -> Result<Advisor, String> {
    Advisor::new(
        &ds.graph,
        ds.feat_dim,
        16,
        ds.num_classes,
        model_order(&opts.model)?,
        AdvisorConfig {
            spec: engine.spec().clone(),
            engine: Some(engine.clone()),
            ..Default::default()
        },
    )
    .map_err(|e| e.to_string())
}

/// Replica `replica`'s engine for `--gpu`, honouring
/// `GNNADVISOR_SIM_THREADS` (a malformed value is an error naming the
/// variable, not a panic). Under `--fault-rate`, or when `reset` names the
/// replica, it gets a fault plan seeded `--seed + replica`: replicas fault
/// independently, but the whole run's chaos replays from one seed.
fn build_engine(
    opts: &CliOptions,
    replica: usize,
    reset: Option<(usize, f64)>,
) -> Result<Engine, String> {
    let mut builder = Engine::builder(opts.spec()?);
    let reset_ms = reset.and_then(|(r, ms)| (r == replica).then_some(ms));
    if opts.fault_rate > 0.0 || reset_ms.is_some() {
        let mut fc = FaultConfig::uniform(opts.fault_rate, opts.seed.wrapping_add(replica as u64));
        fc.device_reset_ms = reset_ms;
        let plan = FaultPlan::new(fc).map_err(|e| e.to_string())?;
        builder = builder.fault_plan(Arc::new(plan));
    }
    builder.build().map_err(|e| e.to_string())
}

/// The batched Type II dataset (Section 8.1.2) that `serve-sim` and
/// `serve-cluster` serve: many small independent graphs, the workload
/// class served with mini-batched inference.
fn batched_exec(opts: &CliOptions) -> Result<GcnBatchExecutor, String> {
    let nodes = ((40_000.0 * opts.scale) as usize).clamp(400, 40_000);
    let (graph, components) = batched_graph(
        &BatchedParams {
            num_nodes: nodes,
            num_edges: nodes * 4,
            mean_graph_size: 40,
            graph_size_cv: 0.4,
        },
        31,
    )
    .map_err(|e| e.to_string())?;
    Ok(GcnBatchExecutor::new(
        &graph,
        &components,
        opts.feat_dim,
        16,
        opts.num_classes,
    ))
}

/// `--requests` arrivals at `--rate` over `components` graphs, Poisson or
/// (`--arrivals mmpp`) bursty.
fn arrivals(opts: &CliOptions, components: usize) -> Result<Vec<Request>, String> {
    let mean = 1000.0 / opts.rate;
    match opts.arrivals.as_str() {
        "mmpp" => generate_mmpp_arrivals(&MmppConfig {
            num_requests: opts.requests,
            phase_interarrival_ms: vec![mean / opts.burst, mean * opts.burst],
            mean_dwell_ms: opts.dwell_ms,
            num_components: components,
            seed: opts.seed,
        }),
        _ => generate_arrivals(&ArrivalConfig {
            num_requests: opts.requests,
            mean_interarrival_ms: mean,
            num_components: components,
            seed: opts.seed,
        }),
    }
    .map_err(|e| e.to_string())
}

/// The admission queue, batcher, retry policy and deadline of a serving
/// run.
fn serving_config(opts: &CliOptions) -> ServingConfig {
    ServingConfig {
        streams: opts.streams,
        queue: QueuePolicy {
            capacity: opts.queue_cap,
        },
        batch: BatchPolicy {
            max_batch: opts.batch_size,
            max_delay_ms: opts.max_delay_ms,
        },
        retry: RetryPolicy {
            // `--retries` is below usize::MAX, checked at parse.
            max_attempts: opts.retries + 1,
            seed: opts.seed,
            ..RetryPolicy::default()
        },
        deadline_ms: opts.deadline_ms,
    }
}

/// `analyze`: the input extractor's report plus suggested parameters.
fn analyze(opts: &CliOptions) -> CliResult {
    let ds = opts.load()?;
    let spec = opts.spec()?;
    let stats = DegreeStats::of(&ds.graph);
    let info = extract(
        &ds.graph,
        ds.feat_dim,
        16,
        ds.num_classes,
        model_order(&opts.model)?,
    );
    let decided = model::decide(&info, &spec);
    let r = renumber(&ds.graph, &RenumberConfig::default()).map_err(|e| e.to_string())?;

    // Workload balance: per-thread work before (one thread per node) and
    // after group-based partitioning with the suggested group size.
    let groups = gnnadvisor_core::workload::group::partition_groups(&ds.graph, decided.group_size)
        .map_err(|e| e.to_string())?;
    let grouped_max = groups.iter().map(|g| g.len()).max().unwrap_or(0);
    let grouped_mean = if groups.is_empty() {
        0.0
    } else {
        ds.graph.num_edges() as f64 / groups.len() as f64
    };
    let node_imbalance = stats.max as f64 / stats.mean.max(1e-9);
    let group_imbalance = grouped_max as f64 / grouped_mean.max(1e-9);

    let mut out = String::new();
    out.push_str(&format!(
        "input analysis: {} (scale {})\n\
         nodes {}, directed edges {}, feature dim {}, classes {}\n\
         degree: mean {:.1}, stddev {:.1}, max {} (alpha = {:.3})\n\
         communities: {} found, modularity {:.3}\n\
         mean edge span: {:.0} (renumbered: {:.0})\n\
         workload balance (max/mean per thread): node-centric {:.1}x -> grouped {:.1}x\n\
         suggested params: gs={}, tpb={}, dw={}, shared={}, renumber={}\n",
        ds.spec.name,
        ds.scale,
        info.num_nodes,
        info.num_edges,
        info.feat_dim,
        info.num_classes,
        stats.mean,
        stats.stddev,
        stats.max,
        info.alpha(),
        r.num_communities,
        r.modularity,
        ds.graph.mean_edge_span(),
        ds.graph
            .permute(&r.permutation)
            .map(|g| g.mean_edge_span())
            .unwrap_or(f64::NAN),
        node_imbalance,
        group_imbalance,
        decided.group_size,
        decided.threads_per_block,
        decided.dim_workers,
        decided.use_shared,
        decided.renumber,
    ));
    Ok(out)
}

/// `run`: one model forward pass under GNNAdvisor, with metrics.
fn run(opts: &CliOptions) -> CliResult {
    let ds = opts.load()?;
    let engine = build_engine(opts, 0, None)?;
    let advisor = advisor(opts, &ds, &engine)?;
    let features = random_features(ds.graph.num_nodes(), ds.feat_dim, 7);
    let exec = ModelExec::new(&engine, &ds.graph, Framework::GnnAdvisor, Some(&advisor));
    let result = forward(&opts.model, &exec, &ds, &features)?;

    let mut limiter_counts: std::collections::BTreeMap<&'static str, usize> = Default::default();
    for k in &result.metrics.kernels {
        *limiter_counts.entry(k.limiter.label()).or_insert(0) += 1;
    }
    let limiters = limiter_counts
        .iter()
        .map(|(l, c)| format!("{c} {l}-bound"))
        .collect::<Vec<_>>()
        .join(", ");
    Ok(format!(
        "{} on {} ({}): {:.4} simulated ms\n\
         kernels: {} ({limiters}), DRAM {:.2} MB, cache hit rate {:.1}%, SM efficiency {:.1}%\n\
         params: {:?}\n",
        opts.model.to_uppercase(),
        ds.spec.name,
        engine.spec().name,
        result.metrics.total_ms(),
        result.metrics.kernels.len(),
        result.metrics.dram_bytes() as f64 / 1e6,
        result.metrics.cache_hit_rate() * 100.0,
        result.metrics.mean_sm_efficiency() * 100.0,
        advisor.params(),
    ))
}

/// `profile`: one forward pass with the trace recorder attached. Prints
/// the phase-attributed cycle breakdown and the flamegraph-style span
/// report; `--trace-out FILE` additionally writes chrome://tracing JSON.
/// Timestamps are simulated cycles, so the output is byte-identical
/// run-to-run and at any `GNNADVISOR_SIM_THREADS`.
fn profile(opts: &CliOptions) -> CliResult {
    let ds = opts.load()?;
    let tracer = Arc::new(TraceRecorder::new());
    let engine = Engine::builder(opts.spec()?)
        .tracer(Arc::clone(&tracer))
        .build()
        .map_err(|e| e.to_string())?;
    // The traced engine must drive the advisor too: GNNAdvisor-framework
    // kernels launch on `advisor.engine()`, not the exec's engine.
    let advisor = advisor(opts, &ds, &engine)?;
    let features = random_features(ds.graph.num_nodes(), ds.feat_dim, 7);
    let exec = ModelExec::new(&engine, &ds.graph, Framework::GnnAdvisor, Some(&advisor));
    let result = forward(&opts.model, &exec, &ds, &features)?;

    let mut out = format!(
        "{} on {} ({}): {:.4} simulated ms, {} trace events\n\
         phases: {}\n\n{}",
        opts.model.to_uppercase(),
        ds.spec.name,
        engine.spec().name,
        result.metrics.total_ms(),
        tracer.len(),
        result.metrics.phases.report(),
        tracer.flame_report(),
    );
    if let Some(path) = &opts.trace_out {
        std::fs::write(path, tracer.to_chrome_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        out.push_str(&format!(
            "\nchrome trace written to {path} (load via chrome://tracing or ui.perfetto.dev)\n"
        ));
    }
    Ok(out)
}

/// `compare`: every execution strategy on one aggregation pass.
fn compare(opts: &CliOptions) -> CliResult {
    let ds = opts.load()?;
    let engine = build_engine(opts, 0, None)?;
    let advisor = advisor(opts, &ds, &engine)?;
    let dim = 16;
    let mut out = format!(
        "one aggregation pass at dim {dim} on {} ({} nodes, {} edges):\n",
        ds.spec.name,
        ds.graph.num_nodes(),
        ds.graph.num_edges()
    );
    let mut base = 0.0;
    for fw in [
        Framework::GnnAdvisor,
        Framework::Dgl,
        Framework::Pyg,
        Framework::Gunrock,
        Framework::NodeCentric,
        Framework::EdgeCentric,
    ] {
        let adv = (fw == Framework::GnnAdvisor).then_some(&advisor);
        let m = aggregate_with(fw, &engine, &ds.graph, dim, adv).map_err(|e| e.to_string())?;
        if fw == Framework::GnnAdvisor {
            base = m.total_ms();
        }
        out.push_str(&format!(
            "  {:<14} {:>10.4} ms  ({:>5.2}x)\n",
            fw.name(),
            m.total_ms(),
            m.total_ms() / base.max(1e-12)
        ));
    }
    Ok(out)
}

/// `tune`: the Section 7 Modeling & Estimating pipeline, with tier
/// selection. `two-tier` (the default) explores on the calibrated
/// analytical fast path and engine-verifies only the finalists;
/// `analytic` stops after the fast path; `full` scores every candidate on
/// the event-level simulator. All stdout is derived from simulated or
/// counted quantities, never wall-clock, so the report is byte-identical
/// run-to-run — `--speed-check` prints its (wall-clock) measurement to
/// stderr only.
fn tune(opts: &CliOptions) -> CliResult {
    let ds = opts.load()?;
    let spec = opts.spec()?;
    // Built before any tuning so a malformed GNNADVISOR_SIM_THREADS is a
    // typed error here rather than a panic inside the tuners' engines.
    let engine = build_engine(opts, 0, None)?;
    let info = extract(
        &ds.graph,
        ds.feat_dim,
        16,
        ds.num_classes,
        model_order(&opts.model)?,
    );
    let decided = model::decide(&info, &spec);
    let dim = info.aggregation_dim();
    let mut out = format!(
        "tuning for {} on {} (tier: {}):\n\
         modeling (Eq. 2-4 grid): gs={}, tpb={}, dw={} (score {:.3e})\n",
        ds.spec.name,
        spec.name,
        opts.tier,
        decided.group_size,
        decided.threads_per_block,
        decided.dim_workers,
        model::estimated_latency(&decided, &info, &spec),
    );

    if opts.tier == "full" {
        if opts.speed_check.is_some() {
            return Err("--speed-check needs --tier two-tier or analytic".to_string());
        }
        let est = Estimator::new(info.clone(), spec.clone(), EstimatorConfig::default());
        let (best, stats) = est.tune_profiled_stats(|p, e| {
            aggregation_metrics(&ds.graph, dim, p, e).map_or(f64::INFINITY, |m| m.time_ms)
        });
        let best_ms = aggregation_metrics(&ds.graph, dim, &best, &engine)
            .map_or(f64::INFINITY, |m| m.time_ms);
        out.push_str(&format!(
            "estimating (full-sim evolutionary): gs={}, tpb={}, dw={} (engine {:.4} ms)\n\
             engine launches: {} distinct candidates (+{} memo hits)\n",
            best.group_size,
            best.threads_per_block,
            best.dim_workers,
            best_ms,
            stats.unique_evals,
            stats.memo_hits,
        ));
        return Ok(out);
    }

    // analytic and two-tier share the probe + calibrate + fast-search
    // front end; analytic just verifies nothing beyond the fast winner.
    let cfg = TwoTierConfig {
        top_k: if opts.tier == "analytic" {
            1
        } else {
            opts.top_k
        },
        ..Default::default()
    };
    let outcome = tune_two_tier(&info, &spec, &cfg, |p, e| {
        aggregation_metrics(&ds.graph, dim, p, e)
    });
    let band_pct = outcome.model.error_band() * 100.0;
    if opts.tier == "analytic" {
        let fast = &outcome.fast_best;
        out.push_str(&format!(
            "estimating (analytic fast path): gs={}, tpb={}, dw={} (predicted {:.3} us)\n\
             calibration band: {:.1}% | fast path: {} unique evals (+{} memo hits) | engine launches: {}\n",
            fast.group_size,
            fast.threads_per_block,
            fast.dim_workers,
            outcome.model.predict_us(fast),
            band_pct,
            outcome.fast_evals,
            outcome.memo_hits,
            outcome.engine_evals,
        ));
    } else {
        out.push_str(&format!(
            "estimating (two-tier): gs={}, tpb={}, dw={} (engine {:.4} ms)\n\
             calibration band: {:.1}% | fast path: {} unique evals (+{} memo hits) | engine launches: {}\n\
             finalists (fast-path rank order):\n",
            outcome.best.group_size,
            outcome.best.threads_per_block,
            outcome.best.dim_workers,
            outcome.best_engine_ms,
            band_pct,
            outcome.fast_evals,
            outcome.memo_hits,
            outcome.engine_evals,
        ));
        for f in &outcome.finalists {
            out.push_str(&format!(
                "  gs={:<3} tpb={:<4} dw={:<2} fast {:>9.3} us  engine {:>8.4} ms{}\n",
                f.params.group_size,
                f.params.threads_per_block,
                f.params.dim_workers,
                f.fast_us,
                f.engine_ms,
                if f.params == outcome.best {
                    "  <- winner"
                } else {
                    ""
                },
            ));
        }
    }

    if let Some(required) = opts.speed_check {
        speed_check(opts, &ds, dim, &engine, &outcome, required)?;
    }
    Ok(out)
}

/// Measures the fast-path vs full-sim per-candidate scoring cost and
/// fails unless the fast path is at least `required` times faster. The
/// measurement is wall-clock, so everything it prints goes to stderr —
/// stdout stays deterministic.
fn speed_check(
    opts: &CliOptions,
    ds: &Dataset,
    dim: usize,
    engine: &Engine,
    outcome: &gnnadvisor_core::tuning::TwoTierOutcome,
    required: f64,
) -> Result<(), String> {
    let mut sample: Vec<RuntimeParams> = outcome.pool.iter().take(3).map(|&(p, _)| p).collect();
    if sample.is_empty() {
        sample.push(outcome.fast_best);
    }
    const REPS: usize = 256;
    let t0 = std::time::Instant::now();
    let mut sink = 0.0f64;
    for _ in 0..REPS {
        for p in &sample {
            sink += outcome.model.predict_us(p);
        }
    }
    std::hint::black_box(sink);
    let fast_per = t0.elapsed().as_secs_f64() / (REPS * sample.len()) as f64;
    let t1 = std::time::Instant::now();
    for p in &sample {
        std::hint::black_box(aggregation_metrics(&ds.graph, dim, p, engine));
    }
    let full_per = t1.elapsed().as_secs_f64() / sample.len() as f64;
    let ratio = full_per / fast_per.max(1e-12);
    eprintln!(
        "speed-check ({}): fast-path scoring {:.0}x faster than full simulation \
         ({:.3} us vs {:.1} us per candidate; required {}x)",
        opts.tier,
        ratio,
        fast_per * 1e6,
        full_per * 1e6,
        required,
    );
    if ratio < required {
        return Err(format!(
            "speed-check failed: fast path only {ratio:.1}x faster than full simulation \
             (required {required}x)"
        ));
    }
    Ok(())
}

/// `serve-sim`: the multi-stream serving runtime on a synthetic Type II
/// workload. A seeded Poisson arrival trace feeds the bounded admission
/// queue; the dynamic batcher (max-batch / max-delay) coalesces requests
/// into GCN inference batches that round-robin across simulated streams.
/// Everything downstream of the seed is deterministic: the report is
/// byte-identical across runs and across `GNNADVISOR_SIM_THREADS`.
fn serve_sim(opts: &CliOptions) -> CliResult {
    let mut exec = batched_exec(opts)?;
    let arrivals = arrivals(opts, exec.num_components())?;
    let engine = build_engine(opts, 0, None)?;
    let report = simulate(&engine, &arrivals, &serving_config(opts), &mut exec)
        .map_err(|e| e.to_string())?;
    let deadline = opts
        .deadline_ms
        .map_or("none".to_string(), |d| format!("{d} ms"));
    Ok(format!(
        "serve-sim: {} requests at {} req/s over {} component graphs ({})\n\
         batching: max {} per batch, {} ms max delay, queue capacity {}, {} streams\n\
         reliability: fault rate {}, {} retries, deadline {}\n\n{}",
        opts.requests,
        opts.rate,
        exec.num_components(),
        engine.spec().name,
        opts.batch_size,
        opts.max_delay_ms,
        opts.queue_cap,
        opts.streams,
        opts.fault_rate,
        opts.retries,
        deadline,
        report.render(),
    ))
}

/// Parses a `--tenants` roster: `NAME:WEIGHT[:DEADLINE_MS],...`.
fn parse_tenant_specs(s: &str) -> Result<Vec<TenantSpec>, String> {
    let mut tenants = Vec::new();
    for part in s.split(',') {
        let fields: Vec<&str> = part.split(':').collect();
        if !(2..=3).contains(&fields.len()) {
            return Err(format!(
                "--tenants entry {part:?} must be NAME:WEIGHT[:DEADLINE_MS]"
            ));
        }
        let weight: u32 = fields[1].parse().map_err(|_| {
            format!("--tenants entry {part:?}: the weight must be a positive integer")
        })?;
        let deadline_ms = match fields.get(2) {
            Some(d) => Some(d.parse::<f64>().map_err(|_| {
                format!("--tenants entry {part:?}: the deadline must be a number (ms)")
            })?),
            None => None,
        };
        tenants.push(TenantSpec {
            name: fields[0].to_string(),
            weight,
            deadline_ms,
        });
    }
    validate_tenants(&tenants).map_err(|e| format!("--tenants: {e}"))?;
    Ok(tenants)
}

/// Parses `--autoscale MIN:MAX`, where `1 <= MIN <= MAX <= MAX_FLEET`.
fn parse_autoscale(s: &str) -> Option<(usize, usize)> {
    let (min, max) = s.split_once(':')?;
    let (min, max) = (min.parse().ok()?, max.parse().ok()?);
    (1 <= min && min <= max && max <= MAX_FLEET).then_some((min, max))
}

/// Parses `--reset-replica REPLICA:MS`, where the instant `MS` is positive.
fn parse_reset(s: &str) -> Option<(usize, f64)> {
    let (replica, ms) = s.split_once(':')?;
    let ms: f64 = ms.parse().ok()?;
    Some((replica.parse().ok()?, ms)).filter(|_| positive(&ms))
}

/// `serve-cluster`: the serving pipeline scaled out across replicated
/// engines — weighted-fair tenant admission, a deterministic router
/// (round-robin / least-loaded / cost-aware), optional seeded
/// autoscaling, and retry-elsewhere failover. Arrivals come from either
/// the Poisson generator or the bursty MMPP generator; everything
/// downstream of the seed replays bit-for-bit, so the report is
/// byte-identical across runs and `GNNADVISOR_SIM_THREADS`.
fn serve_cluster(opts: &CliOptions) -> CliResult {
    let mut exec = batched_exec(opts)?;
    let arrivals = arrivals(opts, exec.num_components())?;
    let tenants = match &opts.tenants {
        Some(s) => parse_tenant_specs(s)?,
        None => vec![TenantSpec {
            name: "default".into(),
            weight: 1,
            deadline_ms: opts.deadline_ms,
        }],
    };
    let tenant_of = assign_tenants(&arrivals, &tenants, opts.seed).map_err(|e| e.to_string())?;

    let autoscaler = opts
        .autoscale
        .as_deref()
        .and_then(parse_autoscale)
        .map(|(min, max)| AutoscalerConfig {
            min_replicas: min,
            max_replicas: max,
            interval_ms: opts.scale_interval_ms,
            high_queue_depth: opts.scale_high,
            low_queue_depth: opts.scale_low,
            p99_high_ms: opts.scale_p99_ms,
            consecutive: 2,
            seed: opts.seed,
        });
    let slots = autoscaler
        .as_ref()
        .map_or(opts.replicas, |a| a.max_replicas.max(opts.replicas));
    let reset = opts.reset_replica.as_deref().and_then(parse_reset);
    if let Some((r, _)) = reset {
        if r >= slots {
            return Err(format!(
                "--reset-replica names replica {r} but the fleet has {slots} slots"
            ));
        }
    }
    let engines = (0..slots)
        .map(|r| build_engine(opts, r, reset))
        .collect::<Result<Vec<_>, _>>()?;

    let ServingConfig {
        streams,
        queue,
        batch,
        retry,
        ..
    } = serving_config(opts);
    let cfg = ClusterConfig {
        replicas: opts.replicas,
        streams,
        queue,
        batch,
        retry,
        router: RouterPolicy::parse(&opts.router).expect("checked at parse"),
        autoscaler,
    };
    let report = simulate_cluster(&engines, &arrivals, &tenant_of, &tenants, &cfg, &mut exec)
        .map_err(|e| e.to_string())?;

    let roster: Vec<String> = tenants
        .iter()
        .map(|t| {
            let slo = t
                .deadline_ms
                .map_or(String::new(), |d| format!(" slo {d}ms"));
            format!("{} w{}{}", t.name, t.weight, slo)
        })
        .collect();
    let autoscale_str = cfg.autoscaler.as_ref().map_or("off".to_string(), |a| {
        format!("{}..{} replicas", a.min_replicas, a.max_replicas)
    });
    Ok(format!(
        "serve-cluster: {} requests at {} req/s ({} arrivals) over {} component graphs ({})\n\
         fleet: {} replicas x {} streams, router {}, autoscale {}\n\
         tenants: {}\n\
         batching: max {} per batch, {} ms max delay, queue capacity {}\n\
         reliability: fault rate {}, {} retries\n\n{}",
        opts.requests,
        opts.rate,
        opts.arrivals,
        exec.num_components(),
        engines[0].spec().name,
        opts.replicas,
        opts.streams,
        cfg.router.label(),
        autoscale_str,
        roster.join(", "),
        opts.batch_size,
        opts.max_delay_ms,
        opts.queue_cap,
        opts.fault_rate,
        opts.retries,
        report.render(),
    ))
}

/// `serve-dynamic`: the serving pipeline over a *mutating* graph. A
/// seeded update stream (edge churn + community-attached node arrivals)
/// interleaves with request arrivals on the simulated clock; each batch
/// executes against a consistent copy-on-write snapshot of the live
/// delta CSR, and the re-renumbering policy (`--renumber on`) rebuilds
/// the layout when the measured kernel L2 hit-rate sinks below the
/// watermark. Everything downstream of the seeds replays bit-for-bit,
/// so the report is byte-identical across runs and
/// `GNNADVISOR_SIM_THREADS`.
fn serve_dynamic(opts: &CliOptions) -> CliResult {
    // A community-structured graph, freshly renumbered: the starting
    // layout is what the Section 6.1 pass produces offline, and the run
    // measures how long it stays good under churn.
    let nodes = ((40_000.0 * opts.scale) as usize).clamp(400, 40_000);
    let (shuffled, _) = community_graph(
        &CommunityParams {
            num_nodes: nodes,
            num_edges: nodes * 12,
            mean_community: 40,
            community_size_cv: 0.3,
            inter_fraction: 0.08,
            shuffle_ids: true,
        },
        31,
    )
    .map_err(|e| e.to_string())?;
    let r = renumber(&shuffled, &RenumberConfig::default()).map_err(|e| e.to_string())?;
    let base = shuffled
        .permute(&r.permutation)
        .map_err(|e| e.to_string())?;

    let updates = generate_updates(
        &base,
        &UpdateStreamConfig {
            num_updates: opts.updates,
            mean_interarrival_ms: opts.update_gap_ms,
            delete_fraction: opts.delete_frac,
            node_fraction: opts.node_frac,
            attach_degree: opts.attach_degree,
            seed: opts.seed.wrapping_add(1),
        },
    )
    .map_err(|e| e.to_string())?;
    let arrivals = arrivals(opts, 1)?;
    let policy = (opts.renumber == "on").then_some(RenumberPolicy {
        window: opts.policy_window,
        watermark: opts.hit_watermark,
        cooldown_batches: opts.cooldown,
        rebuild_cost_us_per_edge: opts.rebuild_cost_us,
    });
    let cfg = DynamicConfig {
        serving: serving_config(opts),
        policy,
        compact_every: opts.compact_every,
    };
    let engines = (0..opts.replicas)
        .map(|r| build_engine(opts, r, None))
        .collect::<Result<Vec<_>, _>>()?;

    // Hidden dim 32 keeps the advisor aggregation in the SM-time-limited
    // regime where layout locality is what the clock measures.
    let mut exec = DynamicGcnExecutor::new(
        opts.feat_dim,
        32,
        opts.num_classes,
        RuntimeParams::default(),
    )
    .map_err(|e| e.to_string())?;
    let report = simulate_dynamic(&engines, base, &updates, &arrivals, &cfg, &mut exec)
        .map_err(|e| e.to_string())?;

    let policy_str = match &cfg.policy {
        Some(p) => format!(
            "on (window {}, watermark {}, cooldown {}, rebuild {} us/edge)",
            p.window, p.watermark, p.cooldown_batches, p.rebuild_cost_us_per_edge
        ),
        None => "off".to_string(),
    };
    let deadline = opts
        .deadline_ms
        .map_or("none".to_string(), |d| format!("{d} ms"));
    Ok(format!(
        "serve-dynamic: {} requests at {} req/s over a {}-node community graph ({})\n\
         churn: {} updates at {} ms mean gap (delete {}, node-arrival {}, attach {})\n\
         re-renumbering: {}\n\
         batching: max {} per batch, {} ms max delay, queue capacity {}, {} replicas x {} streams\n\
         reliability: fault rate {}, {} retries, deadline {}\n\n{}",
        opts.requests,
        opts.rate,
        nodes,
        engines[0].spec().name,
        opts.updates,
        opts.update_gap_ms,
        opts.delete_frac,
        opts.node_frac,
        opts.attach_degree,
        policy_str,
        opts.batch_size,
        opts.max_delay_ms,
        opts.queue_cap,
        opts.replicas,
        opts.streams,
        opts.fault_rate,
        opts.retries,
        deadline,
        report.render(),
    ))
}

/// Parses a comma-separated fan-out list like `10,5`, every entry positive.
fn parse_fanouts(s: &str) -> Option<Vec<usize>> {
    s.split(',')
        .map(|part| part.trim().parse().ok().filter(|&f| f > 0))
        .collect()
}

/// `train-minibatch`: pipelined sampling-based mini-batch training. A
/// community-structured graph supplies a separable node-classification
/// task (labels from the planted communities, noisy one-hot features);
/// every epoch is trained for real through per-block SGD while the
/// simulator prices both the pipelined schedule (the host samples batch
/// `k+1` while the device trains batch `k`) and the classic serialized
/// loop. Everything is seeded, so the report replays byte-for-byte at any
/// `GNNADVISOR_SIM_THREADS`.
fn train_minibatch(opts: &CliOptions) -> CliResult {
    let nodes = ((20_000.0 * opts.scale) as usize).clamp(300, 20_000);
    let (graph, comm) = community_graph(
        &CommunityParams {
            num_nodes: nodes,
            num_edges: nodes * 10,
            mean_community: 40,
            community_size_cv: 0.3,
            inter_fraction: 0.08,
            shuffle_ids: true,
        },
        23,
    )
    .map_err(|e| e.to_string())?;
    let labels: Vec<usize> = comm
        .iter()
        .map(|&c| c as usize % opts.num_classes)
        .collect();
    let features = gnnadvisor_tensor::Matrix::from_fn(nodes, opts.feat_dim, |v, d| {
        let hot = labels[v] % opts.feat_dim;
        let noise = ((v * 31 + d * 17) % 13) as f32 / 26.0;
        if d == hot {
            1.0 + noise
        } else {
            noise
        }
    });

    let fanouts = parse_fanouts(&opts.fanout).expect("checked at parse");
    let strategy = match opts.strategy.as_str() {
        "layer" => SampleStrategy::LayerWise {
            budget: opts.budget,
        },
        _ => SampleStrategy::NeighborFanout,
    };
    let cfg = MiniBatchConfig {
        dims: vec![opts.feat_dim, opts.hidden, opts.num_classes],
        lr: opts.lr as f32,
        epochs: opts.epochs,
        sample: SampleConfig {
            batch_size: opts.batch_size,
            fanouts: fanouts.clone(),
            strategy,
            seed: opts.seed,
        },
        host: HostCostModel::default(),
        seed: opts.seed,
    };
    let engine = build_engine(opts, 0, None)?;
    let report = gnnadvisor_models::train_minibatch(&engine, &graph, &features, &labels, &cfg)
        .map_err(|e| e.to_string())?;

    let fanout_str = fanouts
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let strategy_str = match strategy {
        SampleStrategy::NeighborFanout => "neighbor".to_string(),
        SampleStrategy::LayerWise { budget } => format!("layer (budget {budget})"),
    };
    Ok(format!(
        "train-minibatch: {} epochs over a {}-node community graph ({})\n\
         sampling: {} seeds per batch, fan-outs [{}], strategy {}, seed {}\n\
         model: dims [{}, {}, {}], lr {}\n\n{}\n\
         final: loss {:.6}, accuracy {:.4}\n\
         total: pipelined {:.4} ms vs serialized {:.4} ms ({:.2}x)\n",
        opts.epochs,
        nodes,
        engine.spec().name,
        opts.batch_size,
        fanout_str,
        strategy_str,
        opts.seed,
        opts.feat_dim,
        opts.hidden,
        opts.num_classes,
        opts.lr,
        report.render(),
        report.final_loss(),
        report.final_accuracy(),
        report.pipelined_ms(),
        report.serialized_ms(),
        report.serialized_ms() / report.pipelined_ms().max(f64::MIN_POSITIVE),
    ))
}

fn model_order(model: &str) -> Result<gnnadvisor_core::input::AggOrder, String> {
    match model {
        "gcn" | "sage" => Ok(gnnadvisor_core::input::AggOrder::UpdateThenAggregate),
        "gin" | "gat" => Ok(gnnadvisor_core::input::AggOrder::AggregateThenUpdate),
        other => Err(format!("unknown model {other}; use gcn | gin | sage | gat")),
    }
}

fn forward(
    model: &str,
    exec: &ModelExec<'_>,
    ds: &Dataset,
    features: &gnnadvisor_tensor::Matrix,
) -> Result<gnnadvisor_models::ForwardResult, String> {
    let r = match model {
        "gcn" => Gcn::paper_default(ds.feat_dim, ds.num_classes, 0).forward(exec, features),
        "gin" => Gin::paper_default(ds.feat_dim, ds.num_classes, 0).forward(exec, features),
        "sage" => GraphSage::paper_default(ds.feat_dim, ds.num_classes, 0).forward(exec, features),
        "gat" => Gat::paper_default(ds.feat_dim, ds.num_classes, 0).forward(exec, features),
        other => return Err(format!("unknown model {other}; use gcn | gin | sage | gat")),
    };
    r.map_err(|e| e.to_string())
}

/// The help text, generated from `COMMANDS` and `FLAGS`.
fn usage() -> String {
    let mut out = String::from(
        "gnnadvisor — GNNAdvisor runtime reproduction CLI\n\n\
         USAGE:\n    gnnadvisor <COMMAND> [OPTIONS]\n\n\
         COMMANDS (each takes only the options listed under it):\n",
    );
    for c in COMMANDS {
        out.push_str(&format!("    {:<16} {}\n", c.name, c.about));
        let names: Vec<&str> = FLAGS
            .iter()
            .filter(|f| f.cmds & c.bit != 0)
            .map(|f| f.name)
            .collect();
        out.push_str(&wrap(&names.join(" "), 21));
    }
    out.push_str("\nOPTIONS:\n");
    let defaults = CliOptions::default();
    for f in FLAGS {
        let default = (f.show)(&defaults).unwrap_or_else(|| "none".to_string());
        let rule = match (f.rule)() {
            r if r.is_empty() => r,
            r => format!("; must be {r}"),
        };
        out.push_str(&format!("    {} {}\n", f.name, f.meta));
        out.push_str(&wrap(&format!("{}{rule} (default {default})", f.help), 8));
    }
    out
}

/// `text` in lines of at most 80 columns, each indented by `indent`.
fn wrap(text: &str, indent: usize) -> String {
    let mut out = String::new();
    let mut line = String::new();
    for word in text.split_whitespace() {
        if !line.is_empty() && indent + line.len() + word.len() >= 80 {
            out.push_str(&format!("{:indent$}{line}\n", ""));
            line.clear();
        }
        if !line.is_empty() {
            line.push(' ');
        }
        line.push_str(word);
    }
    out + &format!("{:indent$}{line}\n", "")
}

/// Dispatches a full argument vector (without the program name).
pub fn dispatch(args: &[String]) -> CliResult {
    let (cmd, rest) = args.split_first().ok_or_else(usage)?;
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        return Ok(usage());
    }
    (command(cmd)?.run)(&CliOptions::parse(cmd, rest)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_options() {
        let o = CliOptions::parse(
            "run",
            &args("--dataset Cora --scale 0.02 --model gin --gpu v100"),
        )
        .expect("parses");
        assert_eq!(o.dataset.as_deref(), Some("Cora"));
        assert_eq!(o.scale, 0.02);
        assert_eq!(o.model, "gin");
        assert_eq!(o.gpu, "v100");
        assert!(CliOptions::parse("run", &args("--bogus 1")).is_err());
        assert!(CliOptions::parse("run", &args("--scale")).is_err());
    }

    #[test]
    fn out_of_range_scale_rejected_at_parse() {
        for bad in ["2", "-1", "0", "NaN", "inf", "1.0001"] {
            let err = CliOptions::parse("run", &args(&format!("--scale {bad}")))
                .expect_err(bad)
                .to_string();
            assert!(err.contains("(0, 1]"), "{bad}: {err}");
        }
        // Boundary values stay accepted.
        assert!(CliOptions::parse("run", &args("--scale 1")).is_ok());
        assert!(CliOptions::parse("run", &args("--scale 0.001")).is_ok());
    }

    #[test]
    fn zero_dims_rejected_at_parse() {
        assert!(CliOptions::parse("run", &args("--feat-dim 0"))
            .expect_err("zero feat dim")
            .contains("--feat-dim"));
        assert!(CliOptions::parse("run", &args("--classes 0"))
            .expect_err("zero classes")
            .contains("--classes"));
        assert!(CliOptions::parse("run", &args("--feat-dim 1 --classes 1")).is_ok());
    }

    #[test]
    fn profile_emits_deterministic_chrome_trace() {
        let dir = std::env::temp_dir().join("gnnadvisor_profile_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let a = dir.join("a.json");
        let b = dir.join("b.json");
        for path in [&a, &b] {
            let out = dispatch(&args(&format!(
                "profile --dataset Cora --scale 0.03 --trace-out {}",
                path.display()
            )))
            .expect("runs");
            assert!(out.contains("phases:"), "{out}");
            assert!(out.contains("trace report"), "{out}");
        }
        let ja = std::fs::read(&a).expect("trace a");
        let jb = std::fs::read(&b).expect("trace b");
        assert!(!ja.is_empty());
        assert_eq!(ja, jb, "chrome trace must be byte-identical run-to-run");
        let text = String::from_utf8(ja).expect("utf8");
        assert!(text.contains("\"traceEvents\""));
        assert!(text.contains("advisor_aggregation"));
        std::fs::remove_file(a).ok();
        std::fs::remove_file(b).ok();
    }

    #[test]
    fn analyze_reports_params() {
        let out = dispatch(&args("analyze --dataset Cora --scale 0.05")).expect("runs");
        assert!(out.contains("suggested params"));
        assert!(out.contains("communities"));
    }

    #[test]
    fn run_every_model() {
        for m in ["gcn", "gin", "sage", "gat"] {
            let out = dispatch(&args(&format!(
                "run --dataset Cora --scale 0.03 --model {m}"
            )))
            .unwrap_or_else(|e| panic!("{m}: {e}"));
            assert!(out.contains("simulated ms"), "{m}");
        }
    }

    #[test]
    fn compare_lists_all_frameworks() {
        let out = dispatch(&args("compare --dataset artist --scale 0.01")).expect("runs");
        for fw in [
            "GNNAdvisor",
            "DGL",
            "PyG",
            "GunRock",
            "node-centric",
            "edge-centric",
        ] {
            assert!(out.contains(fw), "missing {fw} in:\n{out}");
        }
    }

    #[test]
    fn tune_outputs_both_stages() {
        let out = dispatch(&args("tune --dataset Pubmed --scale 0.03")).expect("runs");
        assert!(out.contains("modeling"));
        assert!(out.contains("estimating"));
        // The default tier is two-tier: the report carries the calibration
        // band, the evaluation counters, and the verified finalists.
        assert!(out.contains("two-tier"), "{out}");
        assert!(out.contains("calibration band"), "{out}");
        assert!(out.contains("finalists"), "{out}");
        assert!(out.contains("<- winner"), "{out}");
    }

    #[test]
    fn tune_every_tier_reports_its_stage() {
        for (tier, needle) in [
            ("analytic", "analytic fast path"),
            ("two-tier", "estimating (two-tier)"),
            ("full", "full-sim evolutionary"),
        ] {
            let out = dispatch(&args(&format!(
                "tune --dataset Cora --scale 0.05 --tier {tier}"
            )))
            .unwrap_or_else(|e| panic!("{tier}: {e}"));
            assert!(out.contains(needle), "{tier}: missing {needle} in:\n{out}");
            assert!(out.contains("modeling"), "{tier}");
        }
    }

    #[test]
    fn tune_report_is_deterministic() {
        let cmd = "tune --dataset Cora --scale 0.05";
        let a = dispatch(&args(cmd)).expect("runs");
        let b = dispatch(&args(cmd)).expect("runs");
        assert_eq!(a, b, "tune stdout must be byte-identical run-to-run");
    }

    #[test]
    fn tune_speed_check_passes_generously_and_rejects_impossible_ratios() {
        // 1x is trivially met: one engine launch costs orders of magnitude
        // more than one closed-form evaluation.
        let out =
            dispatch(&args("tune --dataset Cora --scale 0.05 --speed-check 1")).expect("runs");
        assert!(out.contains("estimating"), "{out}");
        // ... and the stdout report must not change when the check runs.
        let plain = dispatch(&args("tune --dataset Cora --scale 0.05")).expect("runs");
        assert_eq!(out, plain, "--speed-check must leave stdout untouched");
        // An absurd ratio fails via Err, not via stdout.
        let err = dispatch(&args("tune --dataset Cora --scale 0.05 --speed-check 1e18"))
            .expect_err("impossible ratio");
        assert!(err.contains("speed-check failed"), "{err}");
        // The full tier has no fast path to check.
        let err = dispatch(&args(
            "tune --dataset Cora --scale 0.05 --tier full --speed-check 2",
        ))
        .expect_err("full tier");
        assert!(err.contains("--speed-check"), "{err}");
    }

    #[test]
    fn tune_options_validated_at_parse() {
        assert!(CliOptions::parse("tune", &args("--tier warp"))
            .expect_err("bad tier")
            .contains("--tier"));
        assert!(CliOptions::parse("tune", &args("--top-k 0"))
            .expect_err("zero finalists")
            .contains("--top-k"));
        for bad in ["0", "-3", "nan"] {
            assert!(
                CliOptions::parse("tune", &args(&format!("--speed-check {bad}")))
                    .expect_err(bad)
                    .contains("--speed-check")
            );
        }
        assert!(
            CliOptions::parse("tune", &args("--tier analytic --top-k 2 --speed-check 20")).is_ok()
        );
    }

    #[test]
    fn errors_are_friendly() {
        assert!(dispatch(&args("run --dataset nope"))
            .unwrap_err()
            .contains("unknown dataset"));
        assert!(dispatch(&args("frobnicate"))
            .unwrap_err()
            .contains("unknown command"));
        assert!(dispatch(&args("run")).unwrap_err().contains("--dataset"));
        assert!(dispatch(&args("run --dataset Cora --gpu tpu"))
            .unwrap_err()
            .contains("unknown GPU"));
    }

    #[test]
    fn serve_sim_report_is_deterministic() {
        let cmd = "serve-sim --requests 32 --rate 4000 --batch-size 4 --streams 2 --scale 0.02";
        let a = dispatch(&args(cmd)).expect("runs");
        let b = dispatch(&args(cmd)).expect("runs");
        assert_eq!(a, b, "serve-sim must be byte-identical run-to-run");
        for needle in [
            "serving-sim report",
            "latency p50",
            "latency p99",
            "throughput",
            "requests completed",
        ] {
            assert!(a.contains(needle), "missing {needle} in:\n{a}");
        }
    }

    #[test]
    fn serve_sim_seed_changes_the_trace() {
        let a = dispatch(&args("serve-sim --requests 32 --scale 0.02 --seed 1")).expect("runs");
        let b = dispatch(&args("serve-sim --requests 32 --scale 0.02 --seed 2")).expect("runs");
        assert_ne!(a, b, "different seeds must give different traces");
    }

    #[test]
    fn serve_sim_options_validated_at_parse() {
        assert!(CliOptions::parse("serve-sim", &args("--rate 0"))
            .expect_err("zero rate")
            .contains("--rate"));
        assert!(CliOptions::parse("serve-sim", &args("--rate nan"))
            .expect_err("nan rate")
            .contains("--rate"));
        assert!(CliOptions::parse("serve-sim", &args("--batch-size 0"))
            .expect_err("zero batch")
            .contains("--batch-size"));
        assert!(CliOptions::parse("serve-sim", &args("--queue-cap 0"))
            .expect_err("zero cap")
            .contains("--queue-cap"));
        assert!(CliOptions::parse("serve-sim", &args("--streams 0"))
            .expect_err("zero streams")
            .contains("--streams"));
        assert!(CliOptions::parse("serve-sim", &args("--max-delay-ms -1"))
            .expect_err("negative delay")
            .contains("--max-delay-ms"));
        assert!(CliOptions::parse("serve-sim", &args("--max-delay-ms 0")).is_ok());
        for bad in ["-0.1", "1.5", "nan"] {
            assert!(
                CliOptions::parse("serve-sim", &args(&format!("--fault-rate {bad}")))
                    .expect_err(bad)
                    .contains("--fault-rate")
            );
        }
        assert!(CliOptions::parse("serve-sim", &args("--fault-rate 0.3 --retries 0")).is_ok());
        for bad in ["0", "-2", "inf"] {
            assert!(
                CliOptions::parse("serve-sim", &args(&format!("--deadline-ms {bad}")))
                    .expect_err(bad)
                    .contains("--deadline-ms")
            );
        }
        assert!(CliOptions::parse("serve-sim", &args("--deadline-ms 5")).is_ok());
    }

    #[test]
    fn serve_sim_chaos_is_deterministic_and_reports_reliability() {
        let cmd = "serve-sim --requests 32 --rate 4000 --scale 0.02 \
                   --fault-rate 0.25 --retries 2 --deadline-ms 40";
        let a = dispatch(&args(cmd)).expect("runs");
        let b = dispatch(&args(cmd)).expect("runs");
        assert_eq!(a, b, "faulted serve-sim must be byte-identical");
        for needle in [
            "fault rate 0.25",
            "requests failed",
            "deadline missed",
            "batch retries",
            "goodput",
        ] {
            assert!(a.contains(needle), "missing {needle} in:\n{a}");
        }
        // Retries must actually fire at this fault rate.
        let retries_line = a
            .lines()
            .find(|l| l.contains("batch retries"))
            .expect("retries line");
        assert!(
            !retries_line.trim_end().ends_with(" 0"),
            "expected non-zero retries: {retries_line}"
        );
    }

    #[test]
    fn serve_cluster_report_is_deterministic() {
        let cmd = "serve-cluster --requests 32 --rate 4000 --batch-size 4 --streams 2 \
                   --replicas 2 --scale 0.02";
        let a = dispatch(&args(cmd)).expect("runs");
        let b = dispatch(&args(cmd)).expect("runs");
        assert_eq!(a, b, "serve-cluster must be byte-identical run-to-run");
        for needle in [
            "cluster-serving report",
            "router cost-aware",
            "replica submissions",
            "goodput",
            "tenant default",
            "slo",
        ] {
            assert!(a.contains(needle), "missing {needle} in:\n{a}");
        }
    }

    #[test]
    fn serve_cluster_tenants_and_failover_report_their_rows() {
        let cmd = "serve-cluster --requests 48 --rate 4000 --batch-size 4 --streams 2 \
                   --replicas 2 --scale 0.02 --tenants batch:3,online:1:40 \
                   --reset-replica 0:0.5 --retries 3";
        let out = dispatch(&args(cmd)).expect("runs");
        assert!(out.contains("tenant batch"), "{out}");
        assert!(out.contains("tenant online"), "{out}");
        assert!(out.contains("slo 40ms"), "{out}");
        assert!(out.contains("dead replicas        0"), "{out}");
        // Byte-identical replay under chaos too.
        assert_eq!(out, dispatch(&args(cmd)).expect("runs"));
    }

    #[test]
    fn serve_cluster_mmpp_and_autoscaler_run() {
        let cmd = "serve-cluster --requests 48 --rate 4000 --batch-size 4 --streams 2 \
                   --scale 0.02 --arrivals mmpp --burst 8 --dwell-ms 2 \
                   --autoscale 1:3 --scale-interval-ms 1 --scale-high 6";
        let out = dispatch(&args(cmd)).expect("runs");
        assert!(out.contains("(mmpp arrivals)"), "{out}");
        assert!(out.contains("autoscale 1..3 replicas"), "{out}");
        // The burst shifts the trace relative to Poisson at the same seed.
        let poisson = dispatch(&args(
            "serve-cluster --requests 48 --rate 4000 --batch-size 4 --streams 2 --scale 0.02",
        ))
        .expect("runs");
        assert_ne!(out, poisson);
    }

    #[test]
    fn serve_cluster_options_validated_at_parse() {
        assert!(CliOptions::parse("serve-cluster", &args("--replicas 0"))
            .expect_err("zero replicas")
            .contains("--replicas"));
        assert!(CliOptions::parse("serve-cluster", &args("--router random"))
            .expect_err("bad router")
            .contains("--router"));
        for bad in ["solo", "a:0", "a:1:nan", "a:1:-3", ":2"] {
            assert!(
                CliOptions::parse("serve-cluster", &args(&format!("--tenants {bad}")))
                    .expect_err(bad)
                    .contains("--tenants")
            );
        }
        assert!(CliOptions::parse("serve-cluster", &args("--tenants batch:3,online:1:40")).is_ok());
        for bad in ["3", "0:2", "4:2", "a:b"] {
            assert!(
                CliOptions::parse("serve-cluster", &args(&format!("--autoscale {bad}")))
                    .expect_err(bad)
                    .contains("--autoscale")
            );
        }
        assert!(CliOptions::parse("serve-cluster", &args("--autoscale 1:4")).is_ok());
        assert!(
            CliOptions::parse("serve-cluster", &args("--scale-low 8 --scale-high 8"))
                .expect_err("inverted watermarks")
                .contains("--scale-low")
        );
        assert!(
            CliOptions::parse("serve-cluster", &args("--scale-interval-ms 0"))
                .expect_err("zero cadence")
                .contains("--scale-interval-ms")
        );
        assert!(
            CliOptions::parse("serve-cluster", &args("--scale-p99-ms -1"))
                .expect_err("negative p99")
                .contains("--scale-p99-ms")
        );
        assert!(
            CliOptions::parse("serve-cluster", &args("--arrivals uniform"))
                .expect_err("bad arrivals")
                .contains("--arrivals")
        );
        for bad in ["1", "0.5", "nan"] {
            assert!(
                CliOptions::parse("serve-cluster", &args(&format!("--burst {bad}")))
                    .expect_err(bad)
                    .contains("--burst")
            );
        }
        assert!(CliOptions::parse("serve-cluster", &args("--dwell-ms 0"))
            .expect_err("zero dwell")
            .contains("--dwell-ms"));
        for bad in ["1", "1:0", "x:2", "1:nan"] {
            assert!(
                CliOptions::parse("serve-cluster", &args(&format!("--reset-replica {bad}")))
                    .expect_err(bad)
                    .contains("--reset-replica")
            );
        }
        assert!(CliOptions::parse("serve-cluster", &args("--reset-replica 0:0.5")).is_ok());
    }

    #[test]
    fn serve_dynamic_report_is_deterministic() {
        let cmd = "serve-dynamic --requests 32 --rate 4000 --batch-size 4 --streams 2 \
                   --scale 0.02 --updates 600 --update-gap-ms 0.01";
        let a = dispatch(&args(cmd)).expect("runs");
        let b = dispatch(&args(cmd)).expect("runs");
        assert_eq!(a, b, "serve-dynamic must be byte-identical run-to-run");
        for needle in [
            "dynamic-graph report",
            "updates applied",
            "final version",
            "hit-rate head",
            "hit-rate tail",
            "re-renumber events",
            "goodput",
        ] {
            assert!(a.contains(needle), "missing {needle} in:\n{a}");
        }
    }

    #[test]
    fn serve_dynamic_policy_off_never_renumbers() {
        let out = dispatch(&args(
            "serve-dynamic --requests 24 --rate 4000 --batch-size 4 --streams 2 \
             --scale 0.02 --updates 400 --update-gap-ms 0.01 --renumber off",
        ))
        .expect("runs");
        assert!(out.contains("re-renumbering: off"), "{out}");
        assert!(out.contains("re-renumber events   0"), "{out}");
    }

    #[test]
    fn serve_dynamic_options_validated_at_parse() {
        assert!(
            CliOptions::parse("serve-dynamic", &args("--update-gap-ms 0"))
                .expect_err("zero gap")
                .contains("--update-gap-ms")
        );
        for bad in ["-0.1", "1.5", "nan"] {
            assert!(
                CliOptions::parse("serve-dynamic", &args(&format!("--delete-frac {bad}")))
                    .expect_err(bad)
                    .contains("--delete-frac")
            );
            assert!(
                CliOptions::parse("serve-dynamic", &args(&format!("--node-frac {bad}")))
                    .expect_err(bad)
                    .contains("--node-frac")
            );
        }
        assert!(
            CliOptions::parse("serve-dynamic", &args("--delete-frac 0.6 --node-frac 0.6"))
                .expect_err("fractions over 1")
                .contains("must not exceed 1")
        );
        assert!(
            CliOptions::parse("serve-dynamic", &args("--renumber maybe"))
                .expect_err("bad mode")
                .contains("--renumber")
        );
        for bad in ["0", "1.5", "nan"] {
            assert!(
                CliOptions::parse("serve-dynamic", &args(&format!("--hit-watermark {bad}")))
                    .expect_err(bad)
                    .contains("--hit-watermark")
            );
        }
        assert!(
            CliOptions::parse("serve-dynamic", &args("--policy-window 0"))
                .expect_err("zero window")
                .contains("--policy-window")
        );
        assert!(
            CliOptions::parse("serve-dynamic", &args("--rebuild-cost-us -1"))
                .expect_err("negative cost")
                .contains("--rebuild-cost-us")
        );
        assert!(CliOptions::parse(
            "serve-dynamic",
            &args(
                "--updates 100 --update-gap-ms 0.01 --delete-frac 0.2 --node-frac 0.3 \
             --attach-degree 4 --renumber off --hit-watermark 0.9 --policy-window 4 \
             --cooldown 8 --rebuild-cost-us 0.001 --compact-every 0"
            )
        )
        .is_ok());
    }

    #[test]
    fn train_minibatch_report_is_deterministic() {
        let cmd = "train-minibatch --scale 0.02 --batch-size 96 --epochs 2 --fanout 6,3";
        let a = dispatch(&args(cmd)).expect("runs");
        let b = dispatch(&args(cmd)).expect("runs");
        assert_eq!(a, b, "train-minibatch must be byte-identical run-to-run");
        for needle in [
            "train-minibatch: 2 epochs",
            "fan-outs [6,3]",
            "strategy neighbor",
            "epoch batches loss accuracy host_ms device_ms pipelined_ms serialized_ms overlap",
            "final: loss",
            "total: pipelined",
        ] {
            assert!(a.contains(needle), "missing {needle} in:\n{a}");
        }
    }

    #[test]
    fn train_minibatch_layer_strategy_runs() {
        let out = dispatch(&args(
            "train-minibatch --scale 0.02 --batch-size 96 --epochs 1 --fanout 4 \
             --strategy layer --budget 64",
        ))
        .expect("runs");
        assert!(out.contains("strategy layer (budget 64)"), "{out}");
    }

    #[test]
    fn train_minibatch_options_validated_at_parse() {
        assert!(CliOptions::parse("train-minibatch", &args("--epochs 0"))
            .expect_err("zero epochs")
            .contains("--epochs"));
        for bad in ["", "0", "3,0", "a", "2,,3"] {
            assert!(
                CliOptions::parse("train-minibatch", &args(&format!("--fanout {bad}")))
                    .expect_err(bad)
                    .contains("--fanout")
            );
        }
        assert!(CliOptions::parse("train-minibatch", &args("--hidden 0"))
            .expect_err("zero hidden")
            .contains("--hidden"));
        for bad in ["-0.1", "nan", "inf"] {
            assert!(
                CliOptions::parse("train-minibatch", &args(&format!("--lr {bad}")))
                    .expect_err(bad)
                    .contains("--lr")
            );
        }
        assert!(
            CliOptions::parse("train-minibatch", &args("--strategy random"))
                .expect_err("bad strategy")
                .contains("--strategy")
        );
        assert!(CliOptions::parse("train-minibatch", &args("--budget 0"))
            .expect_err("zero budget")
            .contains("--budget"));
        assert!(CliOptions::parse(
            "train-minibatch",
            &args("--epochs 5 --fanout 10,5,2 --hidden 32 --lr 0.05 --strategy layer --budget 128")
        )
        .is_ok());
    }

    #[test]
    fn edge_list_input_works() {
        let dir = std::env::temp_dir().join("gnnadvisor_cli_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("tiny.el");
        std::fs::write(&path, "0 1\n1 2\n2 0\n2 3\n3 4\n4 2\n").expect("write");
        let out = dispatch(&args(&format!(
            "run --edge-list {} --feat-dim 8 --classes 2",
            path.display()
        )))
        .expect("runs");
        assert!(out.contains("simulated ms"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn edge_lists_without_edges_are_rejected_naming_the_file() {
        let dir = std::env::temp_dir().join("gnnadvisor_cli_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        for (name, body) in [
            ("empty.el", ""),
            ("comments.el", "# nodes 3 edges 0\n% nothing here\n"),
            ("self_loops.el", "0 0\n1 1\n2 2\n"),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, body).expect("write");
            for cmd in ["run", "analyze"] {
                let line = format!("{cmd} --edge-list {}", path.display());
                let err = dispatch(&args(&line)).expect_err(&line);
                assert!(
                    err.contains(&path.display().to_string()) && err.contains("no edges"),
                    "{line}: {err}"
                );
            }
            std::fs::remove_file(path).ok();
        }
    }

    /// `line` with `MAX` standing for `usize::MAX` must fail at parse,
    /// naming `flag`.
    fn rejected(line: &str, flag: &str) {
        let line = line.replace("MAX", &usize::MAX.to_string());
        let err = dispatch(&args(&line)).expect_err(&line);
        assert!(err.contains(flag), "{line}: {err}");
    }

    #[test]
    fn retries_that_overflow_the_attempt_count_are_rejected() {
        rejected(
            "serve-sim --requests 8 --scale 0.02 --retries MAX",
            "--retries",
        );
    }

    #[test]
    fn huge_stream_counts_are_rejected() {
        rejected(
            "serve-sim --requests 8 --scale 0.02 --streams MAX",
            "--streams",
        );
    }

    #[test]
    fn huge_queue_capacities_are_rejected() {
        rejected(
            "serve-sim --requests 8 --scale 0.02 --queue-cap MAX",
            "--queue-cap",
        );
    }

    #[test]
    fn huge_request_counts_are_rejected() {
        rejected("serve-sim --requests MAX", "--requests");
    }

    #[test]
    fn huge_replica_counts_are_rejected() {
        rejected(
            "serve-dynamic --requests 8 --scale 0.02 --updates 10 --replicas MAX",
            "--replicas",
        );
    }

    #[test]
    fn huge_autoscale_bounds_are_rejected() {
        rejected(
            "serve-cluster --requests 8 --scale 0.02 --autoscale 1:MAX",
            "--autoscale",
        );
    }

    #[test]
    fn huge_update_counts_and_dims_are_rejected() {
        rejected("serve-dynamic --requests 8 --updates MAX", "--updates");
        rejected("run --edge-list g.el --feat-dim MAX", "--feat-dim");
        rejected("serve-sim --requests 8 --classes MAX", "--classes");
        rejected("train-minibatch --epochs 1 --hidden MAX", "--hidden");
    }

    #[test]
    fn dataset_and_edge_list_together_are_rejected() {
        let err = dispatch(&args("run --dataset Cora --edge-list g.el")).expect_err("both");
        assert!(
            err.contains("--dataset") && err.contains("--edge-list"),
            "{err}"
        );
    }

    #[test]
    fn foreign_flags_are_rejected_naming_the_command_and_the_flag() {
        let err = dispatch(&args("run --dataset Cora --scale 0.05 --replicas 3")).unwrap_err();
        assert!(err.contains("run") && err.contains("--replicas"), "{err}");
        for c in COMMANDS {
            for f in FLAGS.iter().filter(|f| f.cmds & c.bit == 0) {
                let err =
                    CliOptions::parse(c.name, &args(&format!("{} 1", f.name))).expect_err(f.name);
                assert!(err.contains(c.name) && err.contains(f.name), "{err}");
            }
        }
    }

    #[test]
    fn every_flag_of_a_command_is_accepted_at_its_default() {
        let defaults = CliOptions::default();
        for c in COMMANDS {
            for f in FLAGS.iter().filter(|f| f.cmds & c.bit != 0) {
                // Unset options (`None`) have no value to pass.
                if let Some(value) = (f.show)(&defaults) {
                    CliOptions::parse(c.name, &[f.name.to_string(), value])
                        .unwrap_or_else(|e| panic!("{}: {e}", c.name));
                }
            }
        }
    }

    #[test]
    fn help_lists_every_command_and_every_flag_with_its_default() {
        let help = dispatch(&args("help")).expect("help");
        assert_eq!(FLAGS.len(), 50);
        for c in COMMANDS {
            assert!(
                help.contains(&format!("\n    {:<16} ", c.name)),
                "{}",
                c.name
            );
        }
        let defaults = CliOptions::default();
        for f in FLAGS {
            let entry = format!("\n    {} {}\n", f.name, f.meta);
            let at = help.find(&entry).unwrap_or_else(|| panic!("{entry}"));
            let default = (f.show)(&defaults).unwrap_or_else(|| "none".into());
            let text = &help[at + entry.len()..];
            let text = &text[..text.find("\n    --").unwrap_or(text.len())];
            assert!(
                text.split_whitespace()
                    .collect::<Vec<_>>()
                    .join(" ")
                    .ends_with(&format!("(default {default})")),
                "{entry}{text}"
            );
        }
    }

    /// Argument values that overflow, wrap, or are not numbers at all,
    /// then a few that some flags accept.
    const VALUES: [&str; 18] = [
        "",
        "-1",
        "-0",
        "nan",
        "inf",
        "1e308",
        "18446744073709551615",
        "a:b",
        ",",
        "3,0",
        "0",
        "1",
        "0.5",
        "2",
        "1:2",
        "a:1:40",
        "on",
        "mmpp",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Any argv of `--flag value` pairs parses to `Ok` or `Err`, never a
        /// panic, under every command. Most pairs use the command's own
        /// flags, so values reach the range checks; the rest use any flag
        /// or junk, and the argv may end on a flag without its value.
        #[test]
        fn parsing_never_panics(
            cmd in 0..COMMANDS.len(),
            pairs in proptest::collection::vec((0..4usize, 0..FLAGS.len(), 0..VALUES.len()), 0..8),
            dangling in (0..8usize, 0..FLAGS.len()),
        ) {
            let c = &COMMANDS[cmd];
            let own: Vec<&str> = FLAGS.iter().filter(|f| f.cmds & c.bit != 0).map(|f| f.name).collect();
            let name = |kind: usize, i: usize| match kind {
                0 => FLAGS[i].name,
                1 => "--bogus",
                _ => own[i % own.len()],
            };
            let mut argv: Vec<String> = Vec::new();
            for &(kind, flag, value) in &pairs {
                argv.push(name(kind, flag).to_string());
                argv.push(VALUES[value].to_string());
            }
            if dangling.0 < 4 {
                argv.push(name(dangling.0, dangling.1).to_string());
            }
            let _ = CliOptions::parse(c.name, &argv);
        }

        /// Any text, as lines of id-like tokens or as raw bytes, loads as an
        /// edge list or fails with an error, never a panic.
        #[test]
        fn edge_list_reading_never_panics(
            lines in proptest::collection::vec(
                proptest::collection::vec(0..EDGE_TOKENS.len(), 0..5),
                0..10,
            ),
            sep in 0..3usize,
            bytes in proptest::collection::vec(0u8..=255, 0..48),
        ) {
            let sep = [" ", ",", "\t"][sep];
            let text: Vec<String> = lines
                .iter()
                .map(|l| l.iter().map(|&t| EDGE_TOKENS[t]).collect::<Vec<_>>().join(sep))
                .collect();
            for input in [text.join("\n").into_bytes(), bytes] {
                for symmetrize in [false, true] {
                    let opts = LoadOptions { symmetrize, drop_self_loops: !symmetrize };
                    let _ = gnnadvisor_graph::io::read_edge_list(input.as_slice(), &opts);
                }
            }
        }
    }

    const EDGE_TOKENS: [&str; 14] = [
        "0",
        "1",
        "7",
        "-1",
        "18446744073709551615",
        "18446744073709551616",
        "4294967296",
        "a",
        "#",
        "%",
        "1e3",
        "",
        "0x1",
        "3,0",
    ];
}
