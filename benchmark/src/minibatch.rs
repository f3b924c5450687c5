//! `minibatch`: pipelined sampling-based mini-batch GCN training.
//!
//! A community graph supplies a node-classification task (labels from the
//! planted communities, noisy one-hot features). `train_minibatch` trains
//! for real through per-block SGD while the simulator prices the
//! pipelined and the serialized schedules. One op is one trained batch.

use gnnadvisor_core::minibatch::HostCostModel;
use gnnadvisor_graph::generators::{community_graph, CommunityParams};
use gnnadvisor_graph::sample::{sample_epoch, SampleConfig, SampleStrategy};
use gnnadvisor_graph::Csr;
use gnnadvisor_models::{train_minibatch, GcnTrainer, MiniBatchConfig, MiniBatchReport};
use gnnadvisor_tensor::Matrix;

use crate::fullgraph::{engine, forward_pair, record_forward};
use crate::harness::{derive, err, median, Ctx, Fallible, Fingerprint, Rep, Size};

const FEAT_DIM: usize = 96;
const HIDDEN: usize = 16;
const CLASSES: usize = 10;
const EPOCHS: usize = 2;

fn nodes(size: Size) -> usize {
    match size {
        Size::Full => 10_000,
        Size::Tiny => 600,
    }
}

fn config(seed: u64) -> MiniBatchConfig {
    MiniBatchConfig {
        dims: vec![FEAT_DIM, HIDDEN, CLASSES],
        lr: 0.1,
        epochs: EPOCHS,
        sample: SampleConfig {
            batch_size: 256,
            fanouts: vec![10, 5],
            strategy: SampleStrategy::NeighborFanout,
            seed,
        },
        host: HostCostModel::default(),
        seed,
    }
}

struct Prepared {
    graph: Csr,
    features: Matrix,
    labels: Vec<usize>,
}

fn prepare(ctx: &mut Ctx) -> Fallible<Prepared> {
    let (seed, n) = (ctx.seed, nodes(ctx.size));
    let (generated, _) = ctx.timed("gen.graph", |_| {
        community_graph(
            &CommunityParams {
                num_nodes: n,
                num_edges: n * 10,
                mean_community: 40,
                community_size_cv: 0.3,
                inter_fraction: 0.08,
                shuffle_ids: true,
            },
            derive(seed, 10),
        )
    });
    let (graph, communities) = generated.map_err(err("community_graph"))?;
    let labels: Vec<usize> = communities.iter().map(|&c| c as usize % CLASSES).collect();
    // Noisy one-hot features: the class's coordinate stands out of a
    // seeded noise floor.
    let noise_seed = derive(seed, 11);
    let features = Matrix::from_fn(n, FEAT_DIM, |v, d| {
        let noise = (derive(noise_seed, (v * FEAT_DIM + d) as u64) % 1000) as f32 / 2000.0;
        if d == labels[v] % FEAT_DIM {
            1.0 + noise
        } else {
            noise
        }
    });
    Ok(Prepared {
        graph,
        features,
        labels,
    })
}

fn fingerprint(r: &MiniBatchReport) -> Fingerprint {
    r.epochs
        .iter()
        .flat_map(|e| {
            [
                e.loss.to_bits(),
                e.accuracy.to_bits(),
                e.num_batches as u64,
                e.host_ms.to_bits(),
                e.device_ms.to_bits(),
                e.pipelined_ms.to_bits(),
                e.overlap_ms.to_bits(),
            ]
        })
        .collect()
}

fn train(ctx: &mut Ctx, p: &Prepared, threads: usize) -> Fallible<MiniBatchReport> {
    let engine = engine(threads)?;
    let cfg = config(derive(ctx.seed, 12));
    let (report, _) = ctx.timed("train_minibatch", |_| {
        train_minibatch(&engine, &p.graph, &p.features, &p.labels, &cfg)
    });
    let report = report.map_err(err("train_minibatch"))?;
    for e in &report.epochs {
        ctx.check(e.loss.is_finite(), || {
            format!("epoch {} loss is not finite", e.epoch)
        });
        ctx.check(e.pipelined_ms <= e.serialized_ms, || {
            format!(
                "epoch {}: pipelined {} ms > serialized {} ms",
                e.epoch, e.pipelined_ms, e.serialized_ms
            )
        });
    }
    Ok(report)
}

/// Tiny-size fingerprint for the thread-count determinism check.
fn probe(seed: u64, threads: usize) -> Fallible<Fingerprint> {
    let mut ctx = Ctx::new(Size::Tiny, seed, 1.0, threads, false);
    let p = prepare(&mut ctx)?;
    Ok(fingerprint(&train(&mut ctx, &p, threads)?))
}

pub fn run(ctx: &mut Ctx) -> Fallible<()> {
    let p = ctx.setup(prepare)?;
    let threads = ctx.sim_threads;
    let report = ctx.steady(|ctx| {
        let report = train(ctx, &p, threads)?;
        Ok(Rep {
            ops: report.epochs.iter().map(|e| e.num_batches as u64).sum(),
            fingerprint: fingerprint(&report),
            data: report,
        })
    })?;

    // The unit of work is an epoch: its latency is the pipelined epoch.
    let epochs: Vec<f64> = report.epochs.iter().map(|e| e.pipelined_ms).collect();
    let batches: usize = report.epochs.iter().map(|e| e.num_batches).sum();
    ctx.set("sim_epoch_ms", median(&epochs));
    ctx.set("sim_p99_ms", crate::harness::percentile(&epochs, 99.0));
    ctx.set(
        "sim_goodput_rps",
        batches as f64 * 1e3 / report.pipelined_ms(),
    );
    ctx.set("train.accuracy", report.final_accuracy());
    ctx.notes.push(format!(
        "final loss {:.6}, accuracy {:.4}, pipelined {:.3} ms vs serialized {:.3} ms",
        report.final_loss(),
        report.final_accuracy(),
        report.pipelined_ms(),
        report.serialized_ms()
    ));

    let (ours, dgl) = forward_pair(
        &p.graph,
        FEAT_DIM,
        CLASSES,
        derive(ctx.seed, 60),
        &engine(threads)?,
    )?;
    record_forward(ctx, &ours, &dgl);

    let seed = ctx.seed;
    ctx.check_thread_invariance(|threads| probe(seed, threads));

    if ctx.tracer.enabled() {
        attribute(ctx, &p, &report)?;
    }
    Ok(())
}

/// `train_minibatch`'s constituents on the same inputs: the sampler and
/// the training step per epoch; the rest of the call is the loop's self
/// time (host pricing, feature gathering, stream timelines).
fn attribute(ctx: &mut Ctx, p: &Prepared, report: &MiniBatchReport) -> Fallible<()> {
    let gen = ctx.tracer.durations_ms("gen.graph");
    ctx.set_median("gen.graph_ms", &gen);
    let cfg = config(derive(ctx.seed, 12));
    let engine = engine(ctx.sim_threads)?;
    let (mut sample_ms, mut step_ms) = (Vec::new(), Vec::new());
    let (mut block_edges, mut scanned_edges) = (0usize, 0usize);
    let mut trainer = GcnTrainer::new(&cfg.dims, cfg.lr, cfg.seed);
    for epoch in 0..EPOCHS {
        let (blocks, ms) = ctx.timed("sample.epoch", |_| {
            sample_epoch(&p.graph, &cfg.sample, epoch as u64)
        });
        let blocks = blocks.map_err(err("sample_epoch"))?;
        sample_ms.push(ms);
        block_edges += blocks.iter().map(|b| b.block.num_edges()).sum::<usize>();
        scanned_edges += blocks.iter().map(|b| b.scanned_edges).sum::<usize>();
        let mut epoch_step_ms = 0.0;
        for block in &blocks {
            let features = Matrix::from_fn(block.nodes.len(), FEAT_DIM, |r, c| {
                p.features.get(block.nodes[r] as usize, c)
            });
            let labels: Vec<usize> = block.nodes[..block.num_seeds]
                .iter()
                .map(|&v| p.labels[v as usize])
                .collect();
            let (step, ms) = ctx.timed("train.step", |_| {
                trainer.step_block(&engine, block, &features, &labels)
            });
            step.map_err(err("step_block"))?;
            epoch_step_ms += ms;
        }
        step_ms.push(epoch_step_ms);
    }
    let (sample, step) = (median(&sample_ms), median(&step_ms));
    ctx.set("sample.epoch_ms", sample);
    ctx.set(
        "sample.useful_ratio",
        block_edges as f64 / scanned_edges.max(1) as f64,
    );
    ctx.set("train.step_ms", step);
    let per_epoch = median(&ctx.tracer.durations_ms("train_minibatch")) / EPOCHS as f64;
    ctx.set(
        "minibatch.loop_self_ms",
        (per_epoch - sample - step).max(0.0),
    );
    let n = report.epochs.len() as f64;
    ctx.set(
        "sim.overlap_ratio",
        report.epochs.iter().map(|e| e.overlap_ratio()).sum::<f64>() / n,
    );
    ctx.set(
        "sim.host_ms",
        report.epochs.iter().map(|e| e.host_ms).sum::<f64>() / n,
    );
    ctx.set(
        "sim.device_ms",
        report.epochs.iter().map(|e| e.device_ms).sum::<f64>() / n,
    );
    Ok(())
}
