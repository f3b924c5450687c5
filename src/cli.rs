//! Command-line interface logic (see `src/bin/gnnadvisor.rs`).
//!
//! The paper's conclusion promises "a handy tool to accelerate GNNs on
//! GPUs systematically and comprehensively"; this module is that tool's
//! engine. Every command returns its report as a `String` so the logic is
//! unit-testable; the binary just prints it.

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
    QueuePolicy, RetryPolicy, ServingConfig,
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

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct CliOptions {
    /// Table 1 dataset name (mutually exclusive with `edge_list`).
    pub dataset: Option<String>,
    /// Edge-list file path.
    pub edge_list: Option<String>,
    /// Dataset scale in `(0, 1]`.
    pub scale: f64,
    /// Model name: gcn | gin | sage | gat.
    pub model: String,
    /// Device: p6000 | v100.
    pub gpu: String,
    /// Feature dimensionality when loading raw edge lists.
    pub feat_dim: usize,
    /// Class count when loading raw edge lists.
    pub num_classes: usize,
    /// Where `profile` writes its chrome://tracing JSON (`None` = don't).
    pub trace_out: Option<String>,
    /// serve-sim: requests in the synthetic arrival trace.
    pub requests: usize,
    /// serve-sim: offered load, requests per second of simulated time.
    pub rate: f64,
    /// serve-sim: dynamic batcher's max batch size.
    pub batch_size: usize,
    /// serve-sim: dynamic batcher's max queueing delay, ms.
    pub max_delay_ms: f64,
    /// serve-sim: admission-queue capacity (arrivals beyond it are shed).
    pub queue_cap: usize,
    /// serve-sim: concurrent simulated streams.
    pub streams: usize,
    /// serve-sim: arrival-trace seed.
    pub seed: u64,
    /// serve-sim: injected fault rate in `[0, 1]` (0 disables faults).
    pub fault_rate: f64,
    /// serve-sim: retries per faulted batch (attempts = retries + 1).
    pub retries: usize,
    /// serve-sim: per-request completion deadline, ms (`None` = none).
    pub deadline_ms: Option<f64>,
    /// serve-cluster: replica engines behind the router.
    pub replicas: usize,
    /// serve-cluster: router policy — round-robin | least-loaded | cost-aware.
    pub router: String,
    /// serve-cluster: tenant roster `NAME:WEIGHT[:DEADLINE_MS],...`
    /// (`None` = one default tenant carrying `deadline_ms`).
    pub tenants: Option<String>,
    /// serve-cluster: autoscaler bounds `MIN:MAX` (`None` = fixed fleet).
    pub autoscale: Option<String>,
    /// serve-cluster: autoscaler queue-depth scale-up watermark.
    pub scale_high: usize,
    /// serve-cluster: autoscaler queue-depth scale-down watermark.
    pub scale_low: usize,
    /// serve-cluster: autoscaler control cadence, ms.
    pub scale_interval_ms: f64,
    /// serve-cluster: optional autoscaler p99 latency watermark, ms.
    pub scale_p99_ms: Option<f64>,
    /// serve-cluster: arrival process — poisson | mmpp.
    pub arrivals: String,
    /// serve-cluster: MMPP burst factor (heavy phase runs this many times
    /// faster than the mean, calm phase as many times slower).
    pub burst: f64,
    /// serve-cluster: MMPP mean phase dwell, ms.
    pub dwell_ms: f64,
    /// serve-cluster: kill one replica mid-run, `REPLICA:MS`.
    pub reset_replica: Option<String>,
    /// serve-dynamic: update-stream length.
    pub updates: usize,
    /// serve-dynamic: mean gap between updates, ms of simulated time.
    pub update_gap_ms: f64,
    /// serve-dynamic: fraction of updates that delete a live edge.
    pub delete_frac: f64,
    /// serve-dynamic: fraction of updates that are node arrivals.
    pub node_frac: f64,
    /// serve-dynamic: edges each arriving node wires into its community.
    pub attach_degree: usize,
    /// serve-dynamic: re-renumbering policy — on | off.
    pub renumber: String,
    /// serve-dynamic: rebuild when the windowed hit-rate sinks below this
    /// fraction of the post-rebuild baseline.
    pub hit_watermark: f64,
    /// serve-dynamic: sliding hit-rate window length, batches.
    pub policy_window: usize,
    /// serve-dynamic: minimum batches between rebuilds.
    pub cooldown: usize,
    /// serve-dynamic: simulated rebuild stall, microseconds per live edge.
    pub rebuild_cost_us: f64,
    /// serve-dynamic: fold the delta overlay into the base CSR after this
    /// many applied updates (0 = only at rebuilds).
    pub compact_every: usize,
    /// tune: tier selection — analytic | two-tier | full.
    pub tier: String,
    /// tune: finalists verified on the engine in two-tier mode.
    pub top_k: usize,
    /// tune: require fast-path candidate scoring to be at least this many
    /// times faster than full simulation (measured; reported on stderr so
    /// stdout stays byte-deterministic).
    pub speed_check: Option<f64>,
    /// train-minibatch: training epochs.
    pub epochs: usize,
    /// train-minibatch: per-hop neighbor fan-outs, comma-separated.
    pub fanout: String,
    /// train-minibatch: hidden layer dimension.
    pub hidden: usize,
    /// train-minibatch: SGD learning rate.
    pub lr: f64,
    /// train-minibatch: sampling strategy — neighbor | layer.
    pub strategy: String,
    /// train-minibatch: layer-wise strategy's shared node budget per hop.
    pub budget: usize,
}

impl Default for CliOptions {
    fn default() -> Self {
        Self {
            dataset: None,
            edge_list: None,
            scale: 0.05,
            model: "gcn".into(),
            gpu: "p6000".into(),
            feat_dim: 96,
            num_classes: 10,
            trace_out: None,
            requests: 64,
            rate: 2_000.0,
            batch_size: 8,
            max_delay_ms: 2.0,
            queue_cap: 64,
            streams: 4,
            seed: 7,
            fault_rate: 0.0,
            retries: 2,
            deadline_ms: None,
            replicas: 2,
            router: "cost-aware".into(),
            tenants: None,
            autoscale: None,
            scale_high: 8,
            scale_low: 1,
            scale_interval_ms: 5.0,
            scale_p99_ms: None,
            arrivals: "poisson".into(),
            burst: 4.0,
            dwell_ms: 5.0,
            reset_replica: None,
            updates: 4_000,
            update_gap_ms: 0.004,
            delete_frac: 0.15,
            node_frac: 0.25,
            attach_degree: 6,
            renumber: "on".into(),
            hit_watermark: 0.98,
            policy_window: 8,
            cooldown: 16,
            rebuild_cost_us: 0.0005,
            compact_every: 64,
            tier: "two-tier".into(),
            top_k: 4,
            speed_check: None,
            epochs: 3,
            fanout: "10,5".into(),
            hidden: 16,
            lr: 0.1,
            strategy: "neighbor".into(),
            budget: 256,
        }
    }
}

/// CLI errors as plain strings (shown to the user verbatim).
pub type CliResult = Result<String, String>;

impl CliOptions {
    /// Parses `--key value` pairs after the subcommand.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = Self::default();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let mut need = || {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{key} needs a value"))
            };
            match key.as_str() {
                "--dataset" => opts.dataset = Some(need()?),
                "--edge-list" => opts.edge_list = Some(need()?),
                "--scale" => {
                    opts.scale = need()?
                        .parse()
                        .map_err(|_| "--scale needs a number in (0, 1]".to_string())?
                }
                "--model" => opts.model = need()?.to_lowercase(),
                "--gpu" => opts.gpu = need()?.to_lowercase(),
                "--feat-dim" => {
                    opts.feat_dim = need()?
                        .parse()
                        .map_err(|_| "--feat-dim needs an integer".to_string())?
                }
                "--classes" => {
                    opts.num_classes = need()?
                        .parse()
                        .map_err(|_| "--classes needs an integer".to_string())?
                }
                "--trace-out" => opts.trace_out = Some(need()?),
                "--requests" => {
                    opts.requests = need()?
                        .parse()
                        .map_err(|_| "--requests needs an integer".to_string())?
                }
                "--rate" => {
                    opts.rate = need()?
                        .parse()
                        .map_err(|_| "--rate needs a number (requests per second)".to_string())?
                }
                "--batch-size" => {
                    opts.batch_size = need()?
                        .parse()
                        .map_err(|_| "--batch-size needs an integer".to_string())?
                }
                "--max-delay-ms" => {
                    opts.max_delay_ms = need()?
                        .parse()
                        .map_err(|_| "--max-delay-ms needs a number".to_string())?
                }
                "--queue-cap" => {
                    opts.queue_cap = need()?
                        .parse()
                        .map_err(|_| "--queue-cap needs an integer".to_string())?
                }
                "--streams" => {
                    opts.streams = need()?
                        .parse()
                        .map_err(|_| "--streams needs an integer".to_string())?
                }
                "--seed" => {
                    opts.seed = need()?
                        .parse()
                        .map_err(|_| "--seed needs an integer".to_string())?
                }
                "--fault-rate" => {
                    opts.fault_rate = need()?
                        .parse()
                        .map_err(|_| "--fault-rate needs a number in [0, 1]".to_string())?
                }
                "--retries" => {
                    opts.retries = need()?
                        .parse()
                        .map_err(|_| "--retries needs an integer".to_string())?
                }
                "--deadline-ms" => {
                    opts.deadline_ms = Some(
                        need()?
                            .parse()
                            .map_err(|_| "--deadline-ms needs a number".to_string())?,
                    )
                }
                "--replicas" => {
                    opts.replicas = need()?
                        .parse()
                        .map_err(|_| "--replicas needs an integer".to_string())?
                }
                "--router" => opts.router = need()?.to_lowercase(),
                "--tenants" => opts.tenants = Some(need()?),
                "--autoscale" => opts.autoscale = Some(need()?),
                "--scale-high" => {
                    opts.scale_high = need()?
                        .parse()
                        .map_err(|_| "--scale-high needs an integer".to_string())?
                }
                "--scale-low" => {
                    opts.scale_low = need()?
                        .parse()
                        .map_err(|_| "--scale-low needs an integer".to_string())?
                }
                "--scale-interval-ms" => {
                    opts.scale_interval_ms = need()?
                        .parse()
                        .map_err(|_| "--scale-interval-ms needs a number".to_string())?
                }
                "--scale-p99-ms" => {
                    opts.scale_p99_ms = Some(
                        need()?
                            .parse()
                            .map_err(|_| "--scale-p99-ms needs a number".to_string())?,
                    )
                }
                "--arrivals" => opts.arrivals = need()?.to_lowercase(),
                "--burst" => {
                    opts.burst = need()?
                        .parse()
                        .map_err(|_| "--burst needs a number above 1".to_string())?
                }
                "--dwell-ms" => {
                    opts.dwell_ms = need()?
                        .parse()
                        .map_err(|_| "--dwell-ms needs a number".to_string())?
                }
                "--reset-replica" => opts.reset_replica = Some(need()?),
                "--updates" => {
                    opts.updates = need()?
                        .parse()
                        .map_err(|_| "--updates needs an integer".to_string())?
                }
                "--update-gap-ms" => {
                    opts.update_gap_ms = need()?
                        .parse()
                        .map_err(|_| "--update-gap-ms needs a number".to_string())?
                }
                "--delete-frac" => {
                    opts.delete_frac = need()?
                        .parse()
                        .map_err(|_| "--delete-frac needs a number in [0, 1]".to_string())?
                }
                "--node-frac" => {
                    opts.node_frac = need()?
                        .parse()
                        .map_err(|_| "--node-frac needs a number in [0, 1]".to_string())?
                }
                "--attach-degree" => {
                    opts.attach_degree = need()?
                        .parse()
                        .map_err(|_| "--attach-degree needs an integer".to_string())?
                }
                "--renumber" => opts.renumber = need()?.to_lowercase(),
                "--hit-watermark" => {
                    opts.hit_watermark = need()?
                        .parse()
                        .map_err(|_| "--hit-watermark needs a number in (0, 1]".to_string())?
                }
                "--policy-window" => {
                    opts.policy_window = need()?
                        .parse()
                        .map_err(|_| "--policy-window needs an integer".to_string())?
                }
                "--cooldown" => {
                    opts.cooldown = need()?
                        .parse()
                        .map_err(|_| "--cooldown needs an integer".to_string())?
                }
                "--rebuild-cost-us" => {
                    opts.rebuild_cost_us = need()?
                        .parse()
                        .map_err(|_| "--rebuild-cost-us needs a number".to_string())?
                }
                "--compact-every" => {
                    opts.compact_every = need()?
                        .parse()
                        .map_err(|_| "--compact-every needs an integer".to_string())?
                }
                "--tier" => opts.tier = need()?.to_lowercase(),
                "--top-k" => {
                    opts.top_k = need()?
                        .parse()
                        .map_err(|_| "--top-k needs an integer".to_string())?
                }
                "--speed-check" => {
                    opts.speed_check = Some(
                        need()?
                            .parse()
                            .map_err(|_| "--speed-check needs a number".to_string())?,
                    )
                }
                "--epochs" => {
                    opts.epochs = need()?
                        .parse()
                        .map_err(|_| "--epochs needs an integer".to_string())?
                }
                "--fanout" => opts.fanout = need()?,
                "--hidden" => {
                    opts.hidden = need()?
                        .parse()
                        .map_err(|_| "--hidden needs an integer".to_string())?
                }
                "--lr" => {
                    opts.lr = need()?
                        .parse()
                        .map_err(|_| "--lr needs a number".to_string())?
                }
                "--strategy" => opts.strategy = need()?.to_lowercase(),
                "--budget" => {
                    opts.budget = need()?
                        .parse()
                        .map_err(|_| "--budget needs an integer".to_string())?
                }
                other => return Err(format!("unknown option {other}")),
            }
        }
        // Range checks up front, so a bad value fails with the CLI's own
        // message instead of a panic deep inside dataset scaling.
        if !(opts.scale.is_finite() && opts.scale > 0.0 && opts.scale <= 1.0) {
            return Err(format!(
                "--scale must be a number in (0, 1], got {}",
                opts.scale
            ));
        }
        if opts.feat_dim == 0 {
            return Err("--feat-dim must be at least 1".to_string());
        }
        if opts.num_classes == 0 {
            return Err("--classes must be at least 1".to_string());
        }
        if !(opts.rate.is_finite() && opts.rate > 0.0) {
            return Err(format!(
                "--rate must be a positive request rate, got {}",
                opts.rate
            ));
        }
        if opts.batch_size == 0 {
            return Err("--batch-size must be at least 1".to_string());
        }
        if opts.queue_cap == 0 {
            return Err("--queue-cap must be at least 1".to_string());
        }
        if opts.streams == 0 {
            return Err("--streams must be at least 1".to_string());
        }
        if !(opts.max_delay_ms.is_finite() && opts.max_delay_ms >= 0.0) {
            return Err(format!(
                "--max-delay-ms must be non-negative, got {}",
                opts.max_delay_ms
            ));
        }
        if !(opts.fault_rate.is_finite() && (0.0..=1.0).contains(&opts.fault_rate)) {
            return Err(format!(
                "--fault-rate must be a number in [0, 1], got {}",
                opts.fault_rate
            ));
        }
        if let Some(d) = opts.deadline_ms {
            if !(d.is_finite() && d > 0.0) {
                return Err(format!("--deadline-ms must be positive, got {d}"));
            }
        }
        if opts.replicas == 0 {
            return Err("--replicas must be at least 1".to_string());
        }
        if RouterPolicy::parse(&opts.router).is_none() {
            return Err(format!(
                "--router must be round-robin, least-loaded, or cost-aware, got {}",
                opts.router
            ));
        }
        if let Some(t) = &opts.tenants {
            parse_tenant_specs(t)?;
        }
        if let Some(a) = &opts.autoscale {
            parse_autoscale(a)?;
        }
        if opts.scale_low >= opts.scale_high {
            return Err(format!(
                "--scale-low {} must sit below --scale-high {}",
                opts.scale_low, opts.scale_high
            ));
        }
        if !(opts.scale_interval_ms.is_finite() && opts.scale_interval_ms > 0.0) {
            return Err(format!(
                "--scale-interval-ms must be positive, got {}",
                opts.scale_interval_ms
            ));
        }
        if let Some(p) = opts.scale_p99_ms {
            if !(p.is_finite() && p > 0.0) {
                return Err(format!("--scale-p99-ms must be positive, got {p}"));
            }
        }
        if !matches!(opts.arrivals.as_str(), "poisson" | "mmpp") {
            return Err(format!(
                "--arrivals must be poisson or mmpp, got {}",
                opts.arrivals
            ));
        }
        if !(opts.burst.is_finite() && opts.burst > 1.0) {
            return Err(format!(
                "--burst must be a finite factor above 1, got {}",
                opts.burst
            ));
        }
        if !(opts.dwell_ms.is_finite() && opts.dwell_ms > 0.0) {
            return Err(format!(
                "--dwell-ms must be positive, got {}",
                opts.dwell_ms
            ));
        }
        if let Some(r) = &opts.reset_replica {
            parse_reset(r)?;
        }
        if !(opts.update_gap_ms.is_finite() && opts.update_gap_ms > 0.0) {
            return Err(format!(
                "--update-gap-ms must be positive, got {}",
                opts.update_gap_ms
            ));
        }
        for (name, v) in [
            ("--delete-frac", opts.delete_frac),
            ("--node-frac", opts.node_frac),
        ] {
            if !(v.is_finite() && (0.0..=1.0).contains(&v)) {
                return Err(format!("{name} must be a number in [0, 1], got {v}"));
            }
        }
        if opts.delete_frac + opts.node_frac > 1.0 {
            return Err(format!(
                "--delete-frac {} + --node-frac {} must not exceed 1",
                opts.delete_frac, opts.node_frac
            ));
        }
        if !matches!(opts.renumber.as_str(), "on" | "off") {
            return Err(format!(
                "--renumber must be on or off, got {}",
                opts.renumber
            ));
        }
        if !(opts.hit_watermark.is_finite()
            && opts.hit_watermark > 0.0
            && opts.hit_watermark <= 1.0)
        {
            return Err(format!(
                "--hit-watermark must be a number in (0, 1], got {}",
                opts.hit_watermark
            ));
        }
        if opts.policy_window == 0 {
            return Err("--policy-window must be at least 1".to_string());
        }
        if !(opts.rebuild_cost_us.is_finite() && opts.rebuild_cost_us >= 0.0) {
            return Err(format!(
                "--rebuild-cost-us must be non-negative, got {}",
                opts.rebuild_cost_us
            ));
        }
        if !matches!(opts.tier.as_str(), "analytic" | "two-tier" | "full") {
            return Err(format!(
                "--tier must be analytic, two-tier, or full, got {}",
                opts.tier
            ));
        }
        if opts.top_k == 0 {
            return Err("--top-k must be at least 1".to_string());
        }
        if let Some(r) = opts.speed_check {
            if !(r.is_finite() && r > 0.0) {
                return Err(format!("--speed-check must be a positive ratio, got {r}"));
            }
        }
        if opts.epochs == 0 {
            return Err("--epochs must be at least 1".to_string());
        }
        parse_fanouts(&opts.fanout)?;
        if opts.hidden == 0 {
            return Err("--hidden must be at least 1".to_string());
        }
        if !(opts.lr.is_finite() && opts.lr >= 0.0) {
            return Err(format!(
                "--lr must be a finite non-negative rate, got {}",
                opts.lr
            ));
        }
        if !matches!(opts.strategy.as_str(), "neighbor" | "layer") {
            return Err(format!(
                "--strategy must be neighbor or layer, got {}",
                opts.strategy
            ));
        }
        if opts.budget == 0 {
            return Err("--budget must be at least 1".to_string());
        }
        Ok(opts)
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

/// An engine for `spec` honouring `GNNADVISOR_SIM_THREADS`; a malformed
/// value is an error naming the variable, not a panic.
fn build_engine(spec: &GpuSpec) -> Result<Engine, String> {
    Engine::builder(spec.clone())
        .build()
        .map_err(|e| e.to_string())
}

/// `analyze`: the input extractor's report plus suggested parameters.
pub fn analyze(opts: &CliOptions) -> CliResult {
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
pub fn run(opts: &CliOptions) -> CliResult {
    let ds = opts.load()?;
    let spec = opts.spec()?;
    let engine = build_engine(&spec)?;
    let advisor = Advisor::new(
        &ds.graph,
        ds.feat_dim,
        16,
        ds.num_classes,
        model_order(&opts.model)?,
        AdvisorConfig {
            spec,
            engine: Some(engine.clone()),
            ..Default::default()
        },
    )
    .map_err(|e| e.to_string())?;
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
pub fn profile(opts: &CliOptions) -> CliResult {
    let ds = opts.load()?;
    let spec = opts.spec()?;
    let tracer = Arc::new(TraceRecorder::new());
    let engine = Engine::builder(spec.clone())
        .tracer(Arc::clone(&tracer))
        .build()
        .map_err(|e| e.to_string())?;
    // The traced engine must drive the advisor too: GNNAdvisor-framework
    // kernels launch on `advisor.engine()`, not the exec's engine.
    let advisor = Advisor::new(
        &ds.graph,
        ds.feat_dim,
        16,
        ds.num_classes,
        model_order(&opts.model)?,
        AdvisorConfig {
            spec,
            engine: Some(engine.clone()),
            ..Default::default()
        },
    )
    .map_err(|e| e.to_string())?;
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
pub fn compare(opts: &CliOptions) -> CliResult {
    let ds = opts.load()?;
    let spec = opts.spec()?;
    let engine = build_engine(&spec)?;
    let advisor = Advisor::new(
        &ds.graph,
        ds.feat_dim,
        16,
        ds.num_classes,
        model_order(&opts.model)?,
        AdvisorConfig {
            spec,
            engine: Some(engine.clone()),
            ..Default::default()
        },
    )
    .map_err(|e| e.to_string())?;
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
pub fn tune(opts: &CliOptions) -> CliResult {
    let ds = opts.load()?;
    let spec = opts.spec()?;
    // Built before any tuning so a malformed GNNADVISOR_SIM_THREADS is a
    // typed error here rather than a panic inside the tuners' engines.
    let engine = build_engine(&spec)?;
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
pub fn serve_sim(opts: &CliOptions) -> CliResult {
    let spec = opts.spec()?;
    // A batched Type II dataset (Section 8.1.2): many small independent
    // graphs, the workload class served with mini-batched inference.
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
    let mut exec = GcnBatchExecutor::new(&graph, &components, opts.feat_dim, 16, opts.num_classes);
    let arrivals = generate_arrivals(&ArrivalConfig {
        num_requests: opts.requests,
        mean_interarrival_ms: 1000.0 / opts.rate,
        num_components: exec.num_components(),
        seed: opts.seed,
    })
    .map_err(|e| e.to_string())?;
    let serving = ServingConfig {
        streams: opts.streams,
        queue: QueuePolicy {
            capacity: opts.queue_cap,
        },
        batch: BatchPolicy {
            max_batch: opts.batch_size,
            max_delay_ms: opts.max_delay_ms,
        },
        retry: RetryPolicy {
            max_attempts: opts.retries + 1,
            seed: opts.seed,
            ..RetryPolicy::default()
        },
        deadline_ms: opts.deadline_ms,
    };
    let mut builder = Engine::builder(spec);
    if opts.fault_rate > 0.0 {
        // Faults are seeded alongside the arrival trace: the whole chaos
        // run replays bit-for-bit from one --seed.
        let plan = FaultPlan::new(FaultConfig::uniform(opts.fault_rate, opts.seed))
            .map_err(|e| e.to_string())?;
        builder = builder.fault_plan(Arc::new(plan));
    }
    let engine = builder.build().map_err(|e| e.to_string())?;
    let report = simulate(&engine, &arrivals, &serving, &mut exec).map_err(|e| e.to_string())?;
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

/// Parses `--autoscale MIN:MAX`.
fn parse_autoscale(s: &str) -> Result<(usize, usize), String> {
    let (min, max) = s
        .split_once(':')
        .ok_or_else(|| "--autoscale must be MIN:MAX".to_string())?;
    let min: usize = min
        .parse()
        .map_err(|_| "--autoscale MIN must be an integer".to_string())?;
    let max: usize = max
        .parse()
        .map_err(|_| "--autoscale MAX must be an integer".to_string())?;
    if min == 0 || max < min {
        return Err(format!(
            "--autoscale needs 1 <= MIN <= MAX, got {min}:{max}"
        ));
    }
    Ok((min, max))
}

/// Parses `--reset-replica REPLICA:MS`.
fn parse_reset(s: &str) -> Result<(usize, f64), String> {
    let (replica, ms) = s
        .split_once(':')
        .ok_or_else(|| "--reset-replica must be REPLICA:MS".to_string())?;
    let replica: usize = replica
        .parse()
        .map_err(|_| "--reset-replica REPLICA must be an integer".to_string())?;
    let ms: f64 = ms
        .parse()
        .map_err(|_| "--reset-replica MS must be a number".to_string())?;
    if !(ms.is_finite() && ms > 0.0) {
        return Err(format!(
            "--reset-replica instant must be positive, got {ms}"
        ));
    }
    Ok((replica, ms))
}

/// `serve-cluster`: the serving pipeline scaled out across replicated
/// engines — weighted-fair tenant admission, a deterministic router
/// (round-robin / least-loaded / cost-aware), optional seeded
/// autoscaling, and retry-elsewhere failover. Arrivals come from either
/// the Poisson generator or the bursty MMPP generator; everything
/// downstream of the seed replays bit-for-bit, so the report is
/// byte-identical across runs and `GNNADVISOR_SIM_THREADS`.
pub fn serve_cluster(opts: &CliOptions) -> CliResult {
    // Same batched Type II dataset as serve-sim: the cluster serves the
    // mini-batched inference workload class.
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
    let mut exec = GcnBatchExecutor::new(&graph, &components, opts.feat_dim, 16, opts.num_classes);

    let mean = 1000.0 / opts.rate;
    let arrivals = match opts.arrivals.as_str() {
        "mmpp" => generate_mmpp_arrivals(&MmppConfig {
            num_requests: opts.requests,
            phase_interarrival_ms: vec![mean / opts.burst, mean * opts.burst],
            mean_dwell_ms: opts.dwell_ms,
            num_components: exec.num_components(),
            seed: opts.seed,
        }),
        _ => generate_arrivals(&ArrivalConfig {
            num_requests: opts.requests,
            mean_interarrival_ms: mean,
            num_components: exec.num_components(),
            seed: opts.seed,
        }),
    }
    .map_err(|e| e.to_string())?;

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
        .map(parse_autoscale)
        .transpose()?
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
    let reset = opts.reset_replica.as_deref().map(parse_reset).transpose()?;
    if let Some((r, _)) = reset {
        if r >= slots {
            return Err(format!(
                "--reset-replica names replica {r} but the fleet has {slots} slots"
            ));
        }
    }

    let mut engines = Vec::with_capacity(slots);
    for r in 0..slots {
        let mut builder = Engine::builder(opts.spec()?);
        let reset_ms = reset.and_then(|(rr, ms)| (rr == r).then_some(ms));
        if opts.fault_rate > 0.0 || reset_ms.is_some() {
            // Per-replica fault seeds: replicas fault independently, but
            // the whole fleet's chaos replays from one --seed.
            let mut fc = FaultConfig::uniform(opts.fault_rate, opts.seed.wrapping_add(r as u64));
            fc.device_reset_ms = reset_ms;
            let plan = FaultPlan::new(fc).map_err(|e| e.to_string())?;
            builder = builder.fault_plan(Arc::new(plan));
        }
        engines.push(builder.build().map_err(|e| e.to_string())?);
    }

    let cfg = ClusterConfig {
        replicas: opts.replicas,
        streams: opts.streams,
        queue: QueuePolicy {
            capacity: opts.queue_cap,
        },
        batch: BatchPolicy {
            max_batch: opts.batch_size,
            max_delay_ms: opts.max_delay_ms,
        },
        retry: RetryPolicy {
            max_attempts: opts.retries + 1,
            seed: opts.seed,
            ..RetryPolicy::default()
        },
        router: RouterPolicy::parse(&opts.router).expect("validated at parse"),
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
pub fn serve_dynamic(opts: &CliOptions) -> CliResult {
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
    let arrivals = generate_arrivals(&ArrivalConfig {
        num_requests: opts.requests,
        mean_interarrival_ms: 1000.0 / opts.rate,
        num_components: 1,
        seed: opts.seed,
    })
    .map_err(|e| e.to_string())?;

    let policy = (opts.renumber == "on").then_some(RenumberPolicy {
        window: opts.policy_window,
        watermark: opts.hit_watermark,
        cooldown_batches: opts.cooldown,
        rebuild_cost_us_per_edge: opts.rebuild_cost_us,
    });
    let cfg = DynamicConfig {
        serving: ServingConfig {
            streams: opts.streams,
            queue: QueuePolicy {
                capacity: opts.queue_cap,
            },
            batch: BatchPolicy {
                max_batch: opts.batch_size,
                max_delay_ms: opts.max_delay_ms,
            },
            retry: RetryPolicy {
                max_attempts: opts.retries + 1,
                seed: opts.seed,
                ..RetryPolicy::default()
            },
            deadline_ms: opts.deadline_ms,
        },
        policy,
        compact_every: opts.compact_every,
    };

    let mut engines = Vec::with_capacity(opts.replicas);
    for replica in 0..opts.replicas {
        let mut builder = Engine::builder(opts.spec()?);
        if opts.fault_rate > 0.0 {
            let plan = FaultPlan::new(FaultConfig::uniform(
                opts.fault_rate,
                opts.seed.wrapping_add(replica as u64),
            ))
            .map_err(|e| e.to_string())?;
            builder = builder.fault_plan(Arc::new(plan));
        }
        engines.push(builder.build().map_err(|e| e.to_string())?);
    }

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

/// Parses a comma-separated fan-out list like `10,5` (all entries > 0).
fn parse_fanouts(s: &str) -> Result<Vec<usize>, String> {
    let fanouts: Vec<usize> = s
        .split(',')
        .map(|part| {
            part.trim()
                .parse::<usize>()
                .ok()
                .filter(|&f| f > 0)
                .ok_or_else(|| format!("--fanout needs comma-separated positive integers, got {s}"))
        })
        .collect::<Result<_, _>>()?;
    if fanouts.is_empty() {
        return Err("--fanout needs at least one hop".to_string());
    }
    Ok(fanouts)
}

/// `train-minibatch`: pipelined sampling-based mini-batch training. A
/// community-structured graph supplies a separable node-classification
/// task (labels from the planted communities, noisy one-hot features);
/// every epoch is trained for real through per-block SGD while the
/// simulator prices both the pipelined schedule (the host samples batch
/// `k+1` while the device trains batch `k`) and the classic serialized
/// loop. Everything is seeded, so the report replays byte-for-byte at any
/// `GNNADVISOR_SIM_THREADS`.
pub fn train_minibatch(opts: &CliOptions) -> CliResult {
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

    let fanouts = parse_fanouts(&opts.fanout)?;
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
    let engine = build_engine(&opts.spec()?)?;
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

/// Usage text for the binary.
pub const USAGE: &str = "\
gnnadvisor — GNNAdvisor runtime reproduction CLI

USAGE:
    gnnadvisor <COMMAND> [OPTIONS]

COMMANDS:
    analyze    input-extractor report + suggested runtime parameters
    run        one model forward pass under GNNAdvisor, with metrics
    profile    a traced forward pass: phase breakdown + span report
    compare    all execution strategies on one aggregation pass
    tune       the Section 7 Modeling & Estimating pipeline (two-tier)
    serve-sim  multi-stream serving runtime with dynamic batching
    serve-cluster  replicated serving: router, tenants, autoscaler
    serve-dynamic  serving under live graph updates: incremental CSR,
                   locality-triggered re-renumbering
    train-minibatch  pipelined sampling-based mini-batch training:
                     host sampling overlapped with device training

OPTIONS:
    --dataset NAME       a Table 1 dataset (e.g. Cora, artist, DD)
    --edge-list FILE     load a SNAP-style edge list instead
    --scale S            dataset scale in (0, 1], default 0.05
    --model M            gcn | gin | sage | gat, default gcn
    --gpu G              p6000 | v100, default p6000
    --feat-dim D         feature dim for --edge-list inputs (default 96)
    --classes C          class count for --edge-list inputs (default 10)
    --trace-out FILE     profile only: write chrome://tracing JSON here

TUNE OPTIONS:
    --tier T             analytic | two-tier | full (default two-tier):
                         explore on the calibrated analytical model only,
                         engine-verify the top-K finalists, or score every
                         candidate on the event-level simulator
    --top-k K            two-tier finalists verified on the engine (default 4)
    --speed-check R      require fast-path candidate scoring to be at least
                         R times faster than full simulation; the measured
                         ratio prints to stderr (stdout stays deterministic)

SERVE-SIM OPTIONS:
    --requests N         arrival-trace length (default 64)
    --rate R             offered load, requests/second (default 2000)
    --batch-size B       dynamic batcher's max batch size (default 8)
    --max-delay-ms D     max queueing delay before dispatch (default 2)
    --queue-cap Q        admission-queue capacity (default 64)
    --streams S          concurrent simulated streams (default 4)
    --seed X             arrival-trace and fault seed (default 7)
    --fault-rate F       injected device-fault rate in [0, 1] (default 0)
    --retries N          retries per faulted batch (default 2)
    --deadline-ms D      per-request completion deadline, ms (default none)

SERVE-CLUSTER OPTIONS (plus all serve-sim options):
    --replicas N         replica engines behind the router (default 2)
    --router P           round-robin | least-loaded | cost-aware (default)
    --tenants SPEC       roster NAME:WEIGHT[:DEADLINE_MS],... — weighted-fair
                         admission shares + per-tenant SLOs (default: one
                         tenant carrying --deadline-ms)
    --autoscale MIN:MAX  seeded queue-depth/p99 autoscaler bounds (default off)
    --scale-high N       queue depth that votes to scale up (default 8)
    --scale-low N        queue depth that votes to scale down (default 1)
    --scale-interval-ms I  autoscaler control cadence (default 5)
    --scale-p99-ms P     p99 estimate above P also votes to scale up
    --arrivals A         poisson | mmpp — bursty state-switching (default poisson)
    --burst F            mmpp: heavy phase is F times the mean rate (default 4)
    --dwell-ms D         mmpp: mean phase dwell (default 5)
    --reset-replica R:MS kill replica R with a device reset at MS — the
                         fleet retries its batches elsewhere

SERVE-DYNAMIC OPTIONS (plus the serve-sim options and --replicas):
    --updates N          update-stream length (default 4000)
    --update-gap-ms G    mean gap between updates, simulated ms (default 0.004)
    --delete-frac F      fraction of updates deleting a live edge (default 0.15)
    --node-frac F        fraction of updates that are node arrivals (default 0.25)
    --attach-degree K    edges each arrival wires into its community (default 6)
    --renumber on|off    locality-triggered re-renumbering (default on)
    --hit-watermark W    rebuild when windowed hit-rate < W x baseline (default 0.98)
    --policy-window B    sliding hit-rate window, batches (default 8)
    --cooldown B         minimum batches between rebuilds (default 16)
    --rebuild-cost-us C  simulated rebuild stall, us per live edge (default 0.0005)
    --compact-every N    fold the delta overlay after N applied updates
                         (default 64; 0 = only at rebuilds)

TRAIN-MINIBATCH OPTIONS:
    --epochs N           training epochs (default 3)
    --batch-size B       seed nodes per mini-batch (default 8)
    --fanout F1,F2,...   per-hop neighbor fan-outs (default 10,5)
    --hidden H           hidden layer dimension (default 16)
    --lr R               SGD learning rate (default 0.1)
    --strategy S         neighbor | layer — per-node fan-out sampling or a
                         shared per-hop node budget (default neighbor)
    --budget N           layer strategy's shared node budget (default 256)
    --seed X             sampling and weight-init seed (default 7)
";

/// Dispatches a full argument vector (without the program name).
pub fn dispatch(args: &[String]) -> CliResult {
    let (cmd, rest) = args.split_first().ok_or_else(|| USAGE.to_string())?;
    let opts = CliOptions::parse(rest)?;
    match cmd.as_str() {
        "analyze" => analyze(&opts),
        "run" => run(&opts),
        "profile" => profile(&opts),
        "compare" => compare(&opts),
        "tune" => tune(&opts),
        "serve-sim" => serve_sim(&opts),
        "serve-cluster" => serve_cluster(&opts),
        "serve-dynamic" => serve_dynamic(&opts),
        "train-minibatch" => train_minibatch(&opts),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(format!("unknown command {other}\n\n{USAGE}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_options() {
        let o = CliOptions::parse(&args("--dataset Cora --scale 0.02 --model gin --gpu v100"))
            .expect("parses");
        assert_eq!(o.dataset.as_deref(), Some("Cora"));
        assert_eq!(o.scale, 0.02);
        assert_eq!(o.model, "gin");
        assert_eq!(o.gpu, "v100");
        assert!(CliOptions::parse(&args("--bogus 1")).is_err());
        assert!(CliOptions::parse(&args("--scale")).is_err());
    }

    #[test]
    fn out_of_range_scale_rejected_at_parse() {
        for bad in ["2", "-1", "0", "NaN", "inf", "1.0001"] {
            let err = CliOptions::parse(&args(&format!("--scale {bad}")))
                .expect_err(bad)
                .to_string();
            assert!(err.contains("(0, 1]"), "{bad}: {err}");
        }
        // Boundary values stay accepted.
        assert!(CliOptions::parse(&args("--scale 1")).is_ok());
        assert!(CliOptions::parse(&args("--scale 0.001")).is_ok());
    }

    #[test]
    fn zero_dims_rejected_at_parse() {
        assert!(CliOptions::parse(&args("--feat-dim 0"))
            .expect_err("zero feat dim")
            .contains("--feat-dim"));
        assert!(CliOptions::parse(&args("--classes 0"))
            .expect_err("zero classes")
            .contains("--classes"));
        assert!(CliOptions::parse(&args("--feat-dim 1 --classes 1")).is_ok());
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
        assert!(CliOptions::parse(&args("--tier warp"))
            .expect_err("bad tier")
            .contains("--tier"));
        assert!(CliOptions::parse(&args("--top-k 0"))
            .expect_err("zero finalists")
            .contains("--top-k"));
        for bad in ["0", "-3", "nan"] {
            assert!(CliOptions::parse(&args(&format!("--speed-check {bad}")))
                .expect_err(bad)
                .contains("--speed-check"));
        }
        assert!(CliOptions::parse(&args("--tier analytic --top-k 2 --speed-check 20")).is_ok());
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
        assert!(CliOptions::parse(&args("--rate 0"))
            .expect_err("zero rate")
            .contains("--rate"));
        assert!(CliOptions::parse(&args("--rate nan"))
            .expect_err("nan rate")
            .contains("--rate"));
        assert!(CliOptions::parse(&args("--batch-size 0"))
            .expect_err("zero batch")
            .contains("--batch-size"));
        assert!(CliOptions::parse(&args("--queue-cap 0"))
            .expect_err("zero cap")
            .contains("--queue-cap"));
        assert!(CliOptions::parse(&args("--streams 0"))
            .expect_err("zero streams")
            .contains("--streams"));
        assert!(CliOptions::parse(&args("--max-delay-ms -1"))
            .expect_err("negative delay")
            .contains("--max-delay-ms"));
        assert!(CliOptions::parse(&args("--max-delay-ms 0")).is_ok());
        for bad in ["-0.1", "1.5", "nan"] {
            assert!(CliOptions::parse(&args(&format!("--fault-rate {bad}")))
                .expect_err(bad)
                .contains("--fault-rate"));
        }
        assert!(CliOptions::parse(&args("--fault-rate 0.3 --retries 0")).is_ok());
        for bad in ["0", "-2", "inf"] {
            assert!(CliOptions::parse(&args(&format!("--deadline-ms {bad}")))
                .expect_err(bad)
                .contains("--deadline-ms"));
        }
        assert!(CliOptions::parse(&args("--deadline-ms 5")).is_ok());
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
        assert!(CliOptions::parse(&args("--replicas 0"))
            .expect_err("zero replicas")
            .contains("--replicas"));
        assert!(CliOptions::parse(&args("--router random"))
            .expect_err("bad router")
            .contains("--router"));
        for bad in ["solo", "a:0", "a:1:nan", "a:1:-3", ":2"] {
            assert!(CliOptions::parse(&args(&format!("--tenants {bad}")))
                .expect_err(bad)
                .contains("--tenants"));
        }
        assert!(CliOptions::parse(&args("--tenants batch:3,online:1:40")).is_ok());
        for bad in ["3", "0:2", "4:2", "a:b"] {
            assert!(CliOptions::parse(&args(&format!("--autoscale {bad}")))
                .expect_err(bad)
                .contains("--autoscale"));
        }
        assert!(CliOptions::parse(&args("--autoscale 1:4")).is_ok());
        assert!(CliOptions::parse(&args("--scale-low 8 --scale-high 8"))
            .expect_err("inverted watermarks")
            .contains("--scale-low"));
        assert!(CliOptions::parse(&args("--scale-interval-ms 0"))
            .expect_err("zero cadence")
            .contains("--scale-interval-ms"));
        assert!(CliOptions::parse(&args("--scale-p99-ms -1"))
            .expect_err("negative p99")
            .contains("--scale-p99-ms"));
        assert!(CliOptions::parse(&args("--arrivals uniform"))
            .expect_err("bad arrivals")
            .contains("--arrivals"));
        for bad in ["1", "0.5", "nan"] {
            assert!(CliOptions::parse(&args(&format!("--burst {bad}")))
                .expect_err(bad)
                .contains("--burst"));
        }
        assert!(CliOptions::parse(&args("--dwell-ms 0"))
            .expect_err("zero dwell")
            .contains("--dwell-ms"));
        for bad in ["1", "1:0", "x:2", "1:nan"] {
            assert!(CliOptions::parse(&args(&format!("--reset-replica {bad}")))
                .expect_err(bad)
                .contains("--reset-replica"));
        }
        assert!(CliOptions::parse(&args("--reset-replica 0:0.5")).is_ok());
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
        assert!(CliOptions::parse(&args("--update-gap-ms 0"))
            .expect_err("zero gap")
            .contains("--update-gap-ms"));
        for bad in ["-0.1", "1.5", "nan"] {
            assert!(CliOptions::parse(&args(&format!("--delete-frac {bad}")))
                .expect_err(bad)
                .contains("--delete-frac"));
            assert!(CliOptions::parse(&args(&format!("--node-frac {bad}")))
                .expect_err(bad)
                .contains("--node-frac"));
        }
        assert!(
            CliOptions::parse(&args("--delete-frac 0.6 --node-frac 0.6"))
                .expect_err("fractions over 1")
                .contains("must not exceed 1")
        );
        assert!(CliOptions::parse(&args("--renumber maybe"))
            .expect_err("bad mode")
            .contains("--renumber"));
        for bad in ["0", "1.5", "nan"] {
            assert!(CliOptions::parse(&args(&format!("--hit-watermark {bad}")))
                .expect_err(bad)
                .contains("--hit-watermark"));
        }
        assert!(CliOptions::parse(&args("--policy-window 0"))
            .expect_err("zero window")
            .contains("--policy-window"));
        assert!(CliOptions::parse(&args("--rebuild-cost-us -1"))
            .expect_err("negative cost")
            .contains("--rebuild-cost-us"));
        assert!(CliOptions::parse(&args(
            "--updates 100 --update-gap-ms 0.01 --delete-frac 0.2 --node-frac 0.3 \
             --attach-degree 4 --renumber off --hit-watermark 0.9 --policy-window 4 \
             --cooldown 8 --rebuild-cost-us 0.001 --compact-every 0"
        ))
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
        assert!(CliOptions::parse(&args("--epochs 0"))
            .expect_err("zero epochs")
            .contains("--epochs"));
        for bad in ["", "0", "3,0", "a", "2,,3"] {
            assert!(CliOptions::parse(&args(&format!("--fanout {bad}")))
                .expect_err(bad)
                .contains("--fanout"));
        }
        assert!(CliOptions::parse(&args("--hidden 0"))
            .expect_err("zero hidden")
            .contains("--hidden"));
        for bad in ["-0.1", "nan", "inf"] {
            assert!(CliOptions::parse(&args(&format!("--lr {bad}")))
                .expect_err(bad)
                .contains("--lr"));
        }
        assert!(CliOptions::parse(&args("--strategy random"))
            .expect_err("bad strategy")
            .contains("--strategy"));
        assert!(CliOptions::parse(&args("--budget 0"))
            .expect_err("zero budget")
            .contains("--budget"));
        assert!(CliOptions::parse(&args(
            "--epochs 5 --fanout 10,5,2 --hidden 32 --lr 0.05 --strategy layer --budget 128"
        ))
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
}
