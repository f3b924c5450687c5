//! Pipelined sampling-based mini-batch training.
//!
//! Mini-batch GNN training is host-bound at small hidden dimensions: the
//! CPU samples neighborhoods, slices block CSRs, and gathers feature rows
//! while the GPU's per-batch work is a handful of tiny GEMMs and SpMMs.
//! The fix every production sampler applies is the same one this module
//! simulates: *pipeline* the host against the device — while the device
//! trains on batch `k`, the host prepares batch `k+1`, so the device's
//! H2D copy for batch `k` is released the instant the host finishes
//! preparing it and the two timelines overlap.
//!
//! The host side runs that pipeline for real. Per epoch, the calling
//! thread prepares the first batch itself — samples it from
//! [`EpochSampler`], transposes it and prices its device work — then a
//! scoped producer thread takes the started sampler and prepares every
//! later batch the same way, handing each over through a channel that
//! holds one batch, while the calling thread gathers features, trains
//! and schedules. So preparing batch `k+1` overlaps training batch `k`,
//! and the host holds about two blocks at a time instead of an epoch's
//! worth. The pricing contexts live for the whole run and are lent to
//! each epoch's producer; that first batch (the pipeline's prologue)
//! sizes them on the calling thread, so the allocator does not keep them
//! in a producer thread's own arena. An error on either side ends the
//! epoch with that error, and neither thread is left blocked: the
//! consumer's error drops the receiver, which fails the producer's next
//! send. A batch whose pricing failed still trains before the pricing
//! error is returned.
//!
//! [`train_minibatch`] runs both simulated arms over identical batches:
//!
//! - **pipelined** — one [`StreamSim`] per epoch; batch `k`'s H2D is
//!   enqueued with a release time at the host's cumulative preparation
//!   instant (the host works ahead serially), followed by the batch's
//!   training kernels in FIFO order;
//! - **serialized** — the classic loop: sample, *then* copy and train,
//!   nothing overlaps. Its epoch time is `Σ (host_k + device_solo_k)`.
//!
//! Each batch's device work is priced **once**: one op list (H2D, then
//! per layer the forward GEMM, stacking and SpMM, then the backward
//! mirror over the block's transpose) is priced with one
//! [`Engine::price_list`] call on the thread that prepared the batch,
//! each repeated stacking kernel priced once (see `price_batch`). The
//! training thread draws each op's fault verdict with [`StreamSim::draw`]
//! in issue order, enqueues the ops on the pipelined timeline, and a
//! clone of them on the batch's solo timeline. [`GcnTrainer::step_block`]
//! charges the same list after its H2D copy, with DGL's unfused-launch
//! surcharge added on top of each SpMM; the stream timeline schedules the
//! stacking and SpMM kernels at their standalone price.
//!
//! Real numerics ride along: every batch is trained for real through
//! [`GcnTrainer::train_block`] — `step_block`'s numerics (per-block
//! normalization, transpose backward) without its charge — on the block
//! transpose the op list also uses, on the engine's
//! [`Engine::host_workers`], so the report carries true losses next to
//! the simulated timelines. Feature rows are gathered with one
//! slice copy per row. Host time is priced by [`HostCostModel`] from the
//! sampler's own counters (scanned edges, block edges, gathered bytes).
//!
//! Everything is deterministic: sampling is seeded, pricing and the
//! row-parallel numerics are worker-count-invariant, and the stream
//! scheduler is serial, so
//! [`MiniBatchReport::render`] is byte-identical at any
//! `GNNADVISOR_SIM_THREADS`.

use std::sync::mpsc::{self, SyncSender};
use std::thread;

use gnnadvisor_core::kernels::spmm_dgl::{SpmmKernel, StackingKernel};
use gnnadvisor_core::minibatch::HostCostModel;
use gnnadvisor_core::{CoreError, Result};
use gnnadvisor_gpu::{CleanPrice, Engine, PricedOp, RunContext, StreamSim, Workload};
use gnnadvisor_graph::sample::{EpochSampler, SampleConfig, SampledBlock};
use gnnadvisor_graph::Csr;
use gnnadvisor_tensor::Matrix;

use crate::train::GcnTrainer;
use crate::WORD;

/// Configuration of one mini-batch training run.
#[derive(Debug, Clone)]
pub struct MiniBatchConfig {
    /// Layer dimension chain, e.g. `[feat_dim, 16, num_classes]`.
    pub dims: Vec<usize>,
    /// SGD learning rate.
    pub lr: f32,
    /// Epochs to run (each epoch covers every node as a seed once).
    pub epochs: usize,
    /// Sampler configuration (batch size, fan-outs, strategy, seed).
    pub sample: SampleConfig,
    /// Host-side cost model for sampling / slicing / gathering.
    pub host: HostCostModel,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl Default for MiniBatchConfig {
    fn default() -> Self {
        Self {
            dims: vec![16, 16, 4],
            lr: 0.1,
            epochs: 3,
            sample: SampleConfig::default(),
            host: HostCostModel::default(),
            seed: 7,
        }
    }
}

impl MiniBatchConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.dims.len() < 2 {
            return Err(CoreError::InvalidParams {
                reason: "need at least input and output dims".into(),
            });
        }
        if self.dims.contains(&0) {
            return Err(CoreError::InvalidParams {
                reason: "layer dimensions must be positive".into(),
            });
        }
        if self.epochs == 0 {
            return Err(CoreError::InvalidParams {
                reason: "epochs must be positive".into(),
            });
        }
        if !(self.lr.is_finite() && self.lr >= 0.0) {
            return Err(CoreError::InvalidParams {
                reason: format!("learning rate {} must be finite and >= 0", self.lr),
            });
        }
        self.sample.validate().map_err(CoreError::from)
    }
}

/// One epoch's training and timeline outcome.
#[derive(Debug, Clone)]
pub struct EpochStats {
    /// Epoch index.
    pub epoch: usize,
    /// Mean per-batch training loss.
    pub loss: f64,
    /// Mean per-batch seed accuracy.
    pub accuracy: f64,
    /// Batches the epoch ran.
    pub num_batches: usize,
    /// Total host metadata time: sampling + CSR slicing + gathering.
    pub host_ms: f64,
    /// Total device time with each batch run alone (copies + kernels).
    pub device_ms: f64,
    /// Makespan of the pipelined schedule (host works one batch ahead).
    pub pipelined_ms: f64,
    /// Makespan of the serialized loop: `host_ms + device_ms`.
    pub serialized_ms: f64,
    /// Device-busy time overlapped with the host's working interval.
    pub overlap_ms: f64,
}

impl EpochStats {
    /// Fraction of the host's working interval hidden under device work.
    pub fn overlap_ratio(&self) -> f64 {
        if self.host_ms > 0.0 {
            self.overlap_ms / self.host_ms
        } else {
            0.0
        }
    }
}

/// The outcome of a [`train_minibatch`] run.
#[derive(Debug, Clone)]
pub struct MiniBatchReport {
    /// Per-epoch stats, in order.
    pub epochs: Vec<EpochStats>,
}

impl MiniBatchReport {
    /// Final (last-epoch) mean loss.
    pub fn final_loss(&self) -> f64 {
        self.epochs.last().map_or(f64::NAN, |e| e.loss)
    }

    /// Final (last-epoch) mean seed accuracy.
    pub fn final_accuracy(&self) -> f64 {
        self.epochs.last().map_or(f64::NAN, |e| e.accuracy)
    }

    /// Sum of pipelined epoch makespans.
    pub fn pipelined_ms(&self) -> f64 {
        self.epochs.iter().map(|e| e.pipelined_ms).sum()
    }

    /// Sum of serialized epoch makespans.
    pub fn serialized_ms(&self) -> f64 {
        self.epochs.iter().map(|e| e.serialized_ms).sum()
    }

    /// Fixed-precision textual report, one row per epoch — CI compares
    /// runs byte-for-byte, so every float is formatted explicitly.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "epoch batches loss accuracy host_ms device_ms pipelined_ms serialized_ms overlap\n",
        );
        for e in &self.epochs {
            out.push_str(&format!(
                "{} {} {:.6} {:.4} {:.4} {:.4} {:.4} {:.4} {:.2}%\n",
                e.epoch,
                e.num_batches,
                e.loss,
                e.accuracy,
                e.host_ms,
                e.device_ms,
                e.pipelined_ms,
                e.serialized_ms,
                e.overlap_ratio() * 100.0,
            ));
        }
        out
    }
}

/// Prices one batch's device work, in issue order: the H2D copy
/// (features + block topology), then per layer the forward GEMM and the
/// DGL-style aggregation (stacking + fused SpMM over the block), then the
/// backward mirror, last layer first (stacking + SpMM over `transposed`,
/// the `dW` GEMM, and the `dH` GEMM below the first layer). The prices
/// are clean: the caller draws each op's fault verdict when it places it
/// ([`StreamSim::draw`]). Both arms of [`train_minibatch`] schedule this
/// one list, so each op is priced once per batch, and
/// [`GcnTrainer::step_block`] charges it after the H2D copy.
///
/// A layer's backward stacking kernel is its forward one, so the list
/// handed to [`Engine::price_list`] (one host pool job, a context of
/// `ctxs` per kernel) holds each workload once, `6L` for `L` layers
/// instead of `7L`, and the repeated stacking price is cloned into its
/// backward position.
pub(crate) fn price_batch(
    engine: &Engine,
    ctxs: &mut Vec<RunContext>,
    block: &SampledBlock,
    transposed: &Csr,
    dims: &[usize],
) -> Result<Vec<CleanPrice>> {
    let g = &block.block;
    let n = g.num_nodes();
    let h2d = (n * dims[0] * WORD + (n + 1 + g.num_edges()) * WORD) as u64;
    let layers = &dims[1..];
    let stacking: Vec<StackingKernel> = layers.iter().map(|&d| StackingKernel::new(n, d)).collect();
    let forward: Vec<SpmmKernel<'_>> = layers.iter().map(|&d| SpmmKernel::new(g, d)).collect();
    let backward: Vec<SpmmKernel<'_>> = layers
        .iter()
        .map(|&d| SpmmKernel::new(transposed, d))
        .collect();
    // `distinct` holds each workload once; `issue[i]` is the position in
    // `distinct` of the batch's i-th op. One H2D, three ops per forward
    // layer, four per backward layer but the first (it has no dH GEMM),
    // of which the stacking kernel repeats the forward's.
    let mut distinct = Vec::with_capacity(6 * layers.len());
    let mut issue = Vec::with_capacity(7 * layers.len());
    let mut stacked_at = Vec::with_capacity(layers.len());
    distinct.push(Workload::Transfer { bytes: h2d });
    // Forward: update-then-aggregate per layer.
    for (l, w) in dims.windows(2).enumerate() {
        let (in_dim, out_dim) = (w[0], w[1]);
        distinct.push(Workload::Gemm {
            m: n,
            n: out_dim,
            k: in_dim,
        });
        stacked_at.push(distinct.len());
        distinct.push(Workload::Kernel(&stacking[l]));
        distinct.push(Workload::Kernel(&forward[l]));
    }
    issue.extend(0..distinct.len());
    // Backward: transpose aggregation plus dW / dH GEMMs per layer.
    for (l, w) in dims.windows(2).enumerate().rev() {
        let (in_dim, out_dim) = (w[0], w[1]);
        issue.push(stacked_at[l]);
        let first = distinct.len();
        distinct.push(Workload::Kernel(&backward[l]));
        distinct.push(Workload::Gemm {
            m: in_dim,
            n: out_dim,
            k: n,
        });
        if l > 0 {
            distinct.push(Workload::Gemm {
                m: n,
                n: in_dim,
                k: out_dim,
            });
        }
        issue.extend(first..distinct.len());
    }
    let clean = engine.price_list(ctxs, &distinct)?;
    Ok(issue.iter().map(|&i| clean[i].clone()).collect())
}

/// Length of the union of `spans` clipped to `[0, horizon_ms]` — how much
/// device-busy time fell inside the host's working interval.
fn overlap_with_host(spans: &[(f64, f64)], horizon_ms: f64) -> f64 {
    let mut clipped: Vec<(f64, f64)> = spans
        .iter()
        .filter_map(|&(s, e)| {
            let (s, e) = (s.max(0.0), e.min(horizon_ms));
            (e > s).then_some((s, e))
        })
        .collect();
    clipped.sort_by(|a, b| a.partial_cmp(b).expect("finite span bounds"));
    let mut total = 0.0;
    let mut cursor = 0.0f64;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Trains a GCN with sampled mini-batches, reporting real losses and the
/// pipelined-vs-serialized simulated timelines per epoch.
///
/// `features` has one row per graph node; `labels` one class per node
/// (blocks gather their own slices). `cfg.dims[0]` must equal the
/// feature dimension.
pub fn train_minibatch(
    engine: &Engine,
    graph: &Csr,
    features: &Matrix,
    labels: &[usize],
    cfg: &MiniBatchConfig,
) -> Result<MiniBatchReport> {
    cfg.validate()?;
    if features.rows() != graph.num_nodes() {
        return Err(CoreError::InvalidParams {
            reason: format!(
                "features have {} rows but the graph has {} nodes",
                features.rows(),
                graph.num_nodes()
            ),
        });
    }
    if features.cols() != cfg.dims[0] {
        return Err(CoreError::InvalidParams {
            reason: format!(
                "features have dim {} but dims[0] is {}",
                features.cols(),
                cfg.dims[0]
            ),
        });
    }
    if labels.len() != graph.num_nodes() {
        return Err(CoreError::InvalidParams {
            reason: format!(
                "expected {} labels, got {}",
                graph.num_nodes(),
                labels.len()
            ),
        });
    }

    let mut trainer = GcnTrainer::new(&cfg.dims, cfg.lr, cfg.seed);
    // Pricing contexts for the whole run, lent to each epoch's producer.
    let mut ctxs = Vec::new();
    let mut epochs = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        // The prologue: this thread prepares the epoch's first batch, so
        // the contexts are first sized by its allocator, not by a
        // producer's per-thread arena that would then hold them all run.
        let mut sampler = EpochSampler::new(graph, &cfg.sample, epoch as u64)?;
        let first = sampler
            .next()
            .map(|block| prepare_batch(engine, &mut ctxs, block, &cfg.dims))
            .transpose()?;
        // The producer prepares batch k+1 while this thread trains batch
        // k. Each side ends when the other hangs up: an error here drops
        // the receiver, which fails the producer's next send.
        let stats = thread::scope(|s| {
            let (tx, rx) = mpsc::sync_channel(PREFETCH_DEPTH);
            let ctxs = &mut ctxs;
            s.spawn(move || prepare_epoch(engine, sampler, ctxs, &cfg.dims, &tx));
            let batches = first.into_iter().map(Ok).chain(rx);
            train_epoch(engine, &mut trainer, features, labels, cfg, epoch, batches)
        })?;
        epochs.push(stats);
    }
    Ok(MiniBatchReport { epochs })
}

/// Prepared batches that may wait in the channel for the training
/// thread; the producer blocks while it is full.
const PREFETCH_DEPTH: usize = 1;

/// A sampled batch, its transpose and the clean prices of its device
/// work. A pricing error travels inside, so the batch still trains first.
type PreparedBatch = Result<(SampledBlock, Csr, Result<Vec<CleanPrice>>)>;

/// Transposes and prices one sampled block.
fn prepare_batch(
    engine: &Engine,
    ctxs: &mut Vec<RunContext>,
    block: gnnadvisor_graph::Result<SampledBlock>,
    dims: &[usize],
) -> PreparedBatch {
    let block = block?;
    let transposed = block.block.transpose();
    let prices = price_batch(engine, ctxs, &block, &transposed, dims);
    Ok((block, transposed, prices))
}

/// The producer side of [`train_minibatch`]: prepares the rest of an
/// epoch's blocks into `tx`. Stops after the first error or when the
/// receiver is gone.
fn prepare_epoch(
    engine: &Engine,
    sampler: EpochSampler<'_>,
    ctxs: &mut Vec<RunContext>,
    dims: &[usize],
    tx: &SyncSender<PreparedBatch>,
) {
    for block in sampler {
        let batch = prepare_batch(engine, ctxs, block, dims);
        let failed = !matches!(batch, Ok((_, _, Ok(_))));
        if tx.send(batch).is_err() || failed {
            return;
        }
    }
}

/// The consumer side of [`train_minibatch`]: trains and schedules every
/// batch of `batches`, in order, and returns the epoch's stats.
fn train_epoch(
    engine: &Engine,
    trainer: &mut GcnTrainer,
    features: &Matrix,
    labels: &[usize],
    cfg: &MiniBatchConfig,
    epoch: usize,
    batches: impl Iterator<Item = PreparedBatch>,
) -> Result<EpochStats> {
    let feat_dim = cfg.dims[0];
    let workers = engine.host_workers();
    let mut pipelined = StreamSim::new(engine);
    let stream = pipelined.stream();
    let mut host_end_ms = 0.0f64;
    let mut device_ms = 0.0f64;
    let mut loss = 0.0f64;
    let mut accuracy = 0.0f64;
    let mut num_batches = 0usize;
    for batch in batches {
        let (block, transposed, prices) = batch?;
        num_batches += 1;
        // Host prepares the batch: sample, slice, gather.
        let phases = cfg.host.charge(
            block.scanned_edges,
            block.block.num_edges(),
            block.gather_bytes(feat_dim),
        )?;
        host_end_ms += phases.total_ms();

        // Real training numerics; the device work was priced with the batch.
        let bf = features.gather_rows(&block.nodes);
        let bl: Vec<usize> = block.nodes[..block.num_seeds]
            .iter()
            .map(|&v| labels[v as usize])
            .collect();
        let step = trainer.train_block(&block, &transposed, &bf, &bl, workers)?;
        loss += step.loss;
        accuracy += step.accuracy;

        // Each op's fault verdict is drawn in issue order.
        let ops: Vec<PricedOp> = prices?.iter().map(|c| pipelined.draw(c)).collect();

        // Serialized arm: the same batch alone on an idle device.
        let mut solo = StreamSim::new(engine);
        let solo_stream = solo.stream();
        for op in &ops {
            solo.enqueue_priced(solo_stream, op.clone(), 0)?;
        }
        device_ms += solo.run()?.makespan_ms;

        // Pipelined arm: the batch's H2D is released the instant the
        // host finishes preparing it; the device drains in FIFO order.
        let release = engine.spec().ms_to_cycles(host_end_ms);
        for (i, op) in ops.into_iter().enumerate() {
            let not_before = if i == 0 { release } else { 0 };
            pipelined.enqueue_priced(stream, op, not_before)?;
        }
    }
    let report = pipelined.run()?;
    let spec = engine.spec();
    let spans: Vec<(f64, f64)> = report
        .spans
        .iter()
        .map(|s| {
            (
                spec.cycles_to_ms(s.start_cycles),
                spec.cycles_to_ms(s.end_cycles),
            )
        })
        .collect();
    let n_batches = num_batches.max(1) as f64;
    Ok(EpochStats {
        epoch,
        loss: loss / n_batches,
        accuracy: accuracy / n_batches,
        num_batches,
        host_ms: host_end_ms,
        device_ms,
        pipelined_ms: report.makespan_ms,
        serialized_ms: host_end_ms + device_ms,
        overlap_ms: overlap_with_host(&spans, host_end_ms),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnadvisor_gpu::GpuSpec;
    use gnnadvisor_graph::generators::{community_graph, CommunityParams};
    use gnnadvisor_graph::sample::sample_epoch;
    use gnnadvisor_graph::Csr;

    fn task() -> (Csr, Matrix, Vec<usize>) {
        let params = CommunityParams {
            num_nodes: 400,
            num_edges: 5_000,
            mean_community: 60,
            community_size_cv: 0.2,
            inter_fraction: 0.05,
            shuffle_ids: true,
        };
        let (g, comm) = community_graph(&params, 41).expect("valid");
        let labels: Vec<usize> = comm.iter().map(|&c| c as usize % 4).collect();
        let features = Matrix::from_fn(g.num_nodes(), 16, |v, d| {
            let hot = labels[v] % 16;
            let noise = ((v * 31 + d * 17) % 13) as f32 / 26.0;
            if d == hot {
                1.0 + noise
            } else {
                noise
            }
        });
        (g, features, labels)
    }

    fn config() -> MiniBatchConfig {
        MiniBatchConfig {
            dims: vec![16, 16, 4],
            lr: 0.4,
            epochs: 3,
            sample: SampleConfig {
                batch_size: 96,
                fanouts: vec![8, 4],
                ..SampleConfig::default()
            },
            ..MiniBatchConfig::default()
        }
    }

    #[test]
    fn pipelining_beats_the_serialized_loop() {
        let (g, features, labels) = task();
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let report = train_minibatch(&engine, &g, &features, &labels, &config()).expect("trains");
        assert_eq!(report.epochs.len(), 3);
        for e in &report.epochs {
            assert!(e.num_batches > 1, "epoch must be mini-batched");
            assert!(
                e.pipelined_ms < e.serialized_ms,
                "epoch {}: pipelined {} must beat serialized {}",
                e.epoch,
                e.pipelined_ms,
                e.serialized_ms
            );
            assert!(e.overlap_ms > 0.0, "host and device must overlap");
            let r = e.overlap_ratio();
            assert!((0.0..=1.0).contains(&r), "overlap ratio {r} out of range");
            // The pipelined makespan is at least each arm alone.
            assert!(e.pipelined_ms >= e.host_ms.max(e.device_ms) - 1e-9);
        }
    }

    #[test]
    fn host_metadata_dominates_at_small_hidden_dims() {
        // The paper-motivating regime: at hidden dim 16 the device's
        // per-batch work is tiny and the sampling pipeline is host-bound.
        let (g, features, labels) = task();
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let report = train_minibatch(&engine, &g, &features, &labels, &config()).expect("trains");
        for e in &report.epochs {
            assert!(
                e.host_ms > e.device_ms,
                "epoch {}: host {} must dominate device {} at hidden 16",
                e.epoch,
                e.host_ms,
                e.device_ms
            );
        }
    }

    #[test]
    fn training_learns_while_the_pipeline_runs() {
        let (g, features, labels) = task();
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let mut cfg = config();
        cfg.epochs = 8;
        let report = train_minibatch(&engine, &g, &features, &labels, &cfg).expect("trains");
        let first = report.epochs[0].loss;
        let last = report.final_loss();
        assert!(last < first * 0.8, "loss must drop: {first} -> {last}");
        assert!(report.final_accuracy() > 0.5);
    }

    #[test]
    fn report_is_byte_identical_across_sim_thread_counts() {
        let (g, features, labels) = task();
        let cfg = config();
        let render_at = |threads: usize| {
            let engine = Engine::builder(GpuSpec::quadro_p6000())
                .sim_threads(threads)
                .build()
                .expect("builds");
            train_minibatch(&engine, &g, &features, &labels, &cfg)
                .expect("trains")
                .render()
        };
        let serial = render_at(1);
        assert_eq!(render_at(4), serial, "sim-thread count must not leak");
        assert!(serial.contains("overlap"), "{serial}");
    }

    #[test]
    fn rejects_invalid_configs_and_shapes() {
        let (g, features, labels) = task();
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let mut cfg = config();
        cfg.epochs = 0;
        assert!(train_minibatch(&engine, &g, &features, &labels, &cfg).is_err());
        let mut cfg = config();
        cfg.dims = vec![16];
        assert!(train_minibatch(&engine, &g, &features, &labels, &cfg).is_err());
        // Feature dim must match dims[0].
        let cfg = config();
        let wrong = Matrix::zeros(g.num_nodes(), 8);
        assert!(train_minibatch(&engine, &g, &wrong, &labels, &cfg).is_err());
        // One label per node.
        assert!(train_minibatch(
            &engine,
            &g,
            &features,
            labels[1..].to_vec().as_slice(),
            &cfg
        )
        .is_err());
    }

    /// Prices the batch's full op list as issued, each op listed where it
    /// runs (a layer's stacking kernel twice): the oracle the deduplicated
    /// [`price_batch`] must equal.
    fn price_issue_list(
        engine: &Engine,
        block: &SampledBlock,
        transposed: &Csr,
        dims: &[usize],
    ) -> Vec<CleanPrice> {
        let g = &block.block;
        let n = g.num_nodes();
        let h2d = (n * dims[0] * WORD + (n + 1 + g.num_edges()) * WORD) as u64;
        let layers = &dims[1..];
        let stacking: Vec<StackingKernel> =
            layers.iter().map(|&d| StackingKernel::new(n, d)).collect();
        let forward: Vec<SpmmKernel<'_>> = layers.iter().map(|&d| SpmmKernel::new(g, d)).collect();
        let backward: Vec<SpmmKernel<'_>> = layers
            .iter()
            .map(|&d| SpmmKernel::new(transposed, d))
            .collect();
        let mut list = vec![Workload::Transfer { bytes: h2d }];
        for (l, w) in dims.windows(2).enumerate() {
            list.push(Workload::Gemm {
                m: n,
                n: w[1],
                k: w[0],
            });
            list.push(Workload::Kernel(&stacking[l]));
            list.push(Workload::Kernel(&forward[l]));
        }
        for (l, w) in dims.windows(2).enumerate().rev() {
            list.push(Workload::Kernel(&stacking[l]));
            list.push(Workload::Kernel(&backward[l]));
            list.push(Workload::Gemm {
                m: w[0],
                n: w[1],
                k: n,
            });
            if l > 0 {
                list.push(Workload::Gemm {
                    m: n,
                    n: w[0],
                    k: w[1],
                });
            }
        }
        assert_eq!(list.len(), 7 * layers.len());
        engine.price_list(&mut Vec::new(), &list).expect("prices")
    }

    #[test]
    fn deduplicated_pricing_equals_the_full_issue_list() {
        let (g, _, _) = task();
        let engine = Engine::new(GpuSpec::quadro_p6000());
        let mut ctxs = Vec::new();
        for (dims, fanouts) in [
            (vec![16, 16, 4], vec![8, 4]),
            (vec![16, 12, 8, 4], vec![8, 4, 2]),
        ] {
            let sample = SampleConfig {
                batch_size: 96,
                fanouts,
                ..SampleConfig::default()
            };
            let blocks = sample_epoch(&g, &sample, 0).expect("samples");
            let last = blocks.last().expect("non-empty epoch");
            assert!(last.num_seeds < blocks[0].num_seeds, "short last block");
            for block in [&blocks[0], last] {
                let transposed = block.block.transpose();
                let got =
                    price_batch(&engine, &mut ctxs, block, &transposed, &dims).expect("prices");
                assert_eq!(
                    got,
                    price_issue_list(&engine, block, &transposed, &dims),
                    "dims {dims:?}, {} seeds",
                    block.num_seeds
                );
            }
        }
    }

    /// Runs `train_minibatch` on a watchdog thread: a producer left
    /// blocked on the channel would hang the call, and this fails instead.
    fn train_within_deadline(
        g: &Csr,
        features: &Matrix,
        labels: &[usize],
        cfg: &MiniBatchConfig,
    ) -> Result<MiniBatchReport> {
        let (g, features, labels, cfg) =
            (g.clone(), features.clone(), labels.to_vec(), cfg.clone());
        let (done, outcome) = mpsc::channel();
        thread::spawn(move || {
            let engine = Engine::new(GpuSpec::quadro_p6000());
            let _ = done.send(train_minibatch(&engine, &g, &features, &labels, &cfg));
        });
        outcome
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("train_minibatch must return, not leave a thread blocked")
    }

    #[test]
    fn an_error_mid_epoch_ends_the_run_and_its_producer() {
        let (g, features, mut labels) = task();
        let cfg = config();
        // The first seed of epoch 0's second batch gets an out-of-range
        // label: batch 0 trains, batch 1 fails while the producer still
        // has batches to hand over.
        let blocks = sample_epoch(&g, &cfg.sample, 0).expect("samples");
        assert!(blocks.len() > 3, "the producer must have batches left");
        let classes = *cfg.dims.last().expect("non-empty dims");
        labels[blocks[1].nodes[0] as usize] = classes;
        let err = train_within_deadline(&g, &features, &labels, &cfg).expect_err("bad label");
        assert!(
            matches!(&err, CoreError::InvalidParams { reason } if reason.contains("out of range")),
            "{err:?}"
        );

        // A sampler that fails before its first batch ends the run too.
        let empty = Csr::empty(0);
        let err = train_within_deadline(&empty, &Matrix::zeros(0, 16), &[], &cfg)
            .expect_err("empty graph");
        assert!(matches!(err, CoreError::Graph(_)), "{err:?}");
    }

    #[test]
    fn an_error_in_the_prologue_batch_ends_the_run() {
        let (g, features, mut labels) = task();
        // One epoch, so only epoch 0's first batch can report the label.
        let cfg = MiniBatchConfig {
            epochs: 1,
            ..config()
        };
        // The first seed of epoch 0's first batch, which the calling
        // thread prepares before the producer starts, gets an
        // out-of-range label.
        let blocks = sample_epoch(&g, &cfg.sample, 0).expect("samples");
        let classes = *cfg.dims.last().expect("non-empty dims");
        labels[blocks[0].nodes[0] as usize] = classes;
        let err = train_within_deadline(&g, &features, &labels, &cfg).expect_err("bad label");
        assert!(
            matches!(&err, CoreError::InvalidParams { reason } if reason.contains("out of range")),
            "{err:?}"
        );
    }
}
