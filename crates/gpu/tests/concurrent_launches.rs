//! Differential test: kernel launches issued from several threads at once
//! price exactly like the same launches issued one by one.
//!
//! Four threads submit a mix of kernels concurrently — two through clones
//! of one engine (sharing its run context), two through engines of their
//! own — at several worker counts. Whatever the host threads end up
//! doing beside each other, every `KernelMetrics` must equal the serial,
//! single-worker launch bit for bit.

use std::sync::Barrier;

use gnnadvisor_gpu::kernel::WARP_SIZE;
use gnnadvisor_gpu::{
    ArrayId, BlockSink, Engine, GpuSpec, GridConfig, Kernel, KernelMetrics, Workload,
};

/// Blocks re-read most of their predecessor's window, scatter reads
/// across a shared array and hit a few atomic counters: sensitive to
/// cache order, shard boundaries and hotspot merging alike.
struct Windowed {
    blocks: usize,
    stride: u64,
}

impl Kernel for Windowed {
    fn name(&self) -> &str {
        "windowed"
    }
    fn grid(&self) -> GridConfig {
        GridConfig {
            num_blocks: self.blocks,
            threads_per_block: 2 * WARP_SIZE,
            shared_mem_bytes: 0,
        }
    }
    fn emit_block(&self, block_id: usize, sink: &mut BlockSink<'_>) {
        let b = block_id as u64;
        sink.begin_warp();
        sink.compute(150 + b % 13 * 40, WARP_SIZE);
        sink.global_read(ArrayId(1), b * self.stride, 1024);
        sink.shared_access(256);
        sink.begin_warp();
        let offsets: Vec<u64> = (0..WARP_SIZE as u64)
            .map(|lane| (b * 31 + lane * 97) % 65_536)
            .collect();
        sink.global_read_scattered(ArrayId(2), &offsets, 4);
        sink.atomic_rmw(ArrayId(3), (b % 7) * 4, 4, 32);
        sink.global_write(ArrayId(4), b * 128, 128);
        sink.sync();
    }
}

/// Uneven per-block compute: the SM placement and tail balance differ
/// from block to block.
struct Ragged {
    blocks: usize,
}

impl Kernel for Ragged {
    fn name(&self) -> &str {
        "ragged"
    }
    fn grid(&self) -> GridConfig {
        GridConfig {
            num_blocks: self.blocks,
            threads_per_block: 4 * WARP_SIZE,
            shared_mem_bytes: 2048,
        }
    }
    fn emit_block(&self, block_id: usize, sink: &mut BlockSink<'_>) {
        for w in 0..4u64 {
            sink.begin_warp();
            let lanes: Vec<u64> = (0..WARP_SIZE as u64)
                .map(|lane| (block_id as u64 * 7 + w * 3 + lane) % 50 + 10)
                .collect();
            sink.compute_lanes(&lanes);
            sink.global_read(ArrayId(0), (block_id as u64 * 4 + w) * 512, 512);
        }
    }
}

/// The launch mix: single-shard, a few shards and the shard ceiling.
fn kernels() -> Vec<Box<dyn Kernel + Send + Sync>> {
    vec![
        Box::new(Windowed {
            blocks: 40,
            stride: 256,
        }),
        Box::new(Ragged { blocks: 159 }),
        Box::new(Windowed {
            blocks: 700,
            stride: 512,
        }),
        Box::new(Ragged { blocks: 1_000 }),
        Box::new(Windowed {
            blocks: 97,
            stride: 64,
        }),
    ]
}

/// A kernel's name and every other field of its metrics, floats by their
/// bits.
type Bits = (String, Vec<u64>);

fn bits(m: &KernelMetrics) -> Bits {
    (
        m.name.clone(),
        vec![
            m.elapsed_cycles,
            m.time_ms.to_bits(),
            m.dram_read_bytes,
            m.dram_write_bytes,
            m.l2_hits,
            m.l2_misses,
            m.atomic_ops,
            m.atomic_serialization_cycles,
            m.shared_bytes,
            m.useful_cycles,
            m.num_blocks,
            m.sm_efficiency.to_bits(),
            m.achieved_occupancy.to_bits(),
            m.limiter as u64,
            m.phases.compute_cycles,
            m.phases.dram_cycles,
            m.phases.atomic_cycles,
            m.phases.launch_cycles,
        ],
    )
}

fn engine(threads: usize) -> Engine {
    Engine::builder(GpuSpec::quadro_p6000())
        .sim_threads(threads)
        .build()
        .expect("valid worker count")
}

/// Prices the whole mix, plus a roofline GEMM, through `engine`'s shared
/// context, in order.
fn price_mix(engine: &Engine, kernels: &[Box<dyn Kernel + Send + Sync>]) -> Vec<Bits> {
    let mut out: Vec<_> = kernels
        .iter()
        .map(|k| {
            let m = engine
                .submit(&mut engine.lock_context(), Workload::Kernel(&**k))
                .expect("valid launch")
                .into_kernel();
            bits(&m)
        })
        .collect();
    let gemm = engine
        .submit(
            &mut engine.lock_context(),
            Workload::Gemm {
                m: 2_708,
                n: 16,
                k: 1_433,
            },
        )
        .expect("gemm is infallible")
        .into_kernel();
    out.push(bits(&gemm));
    out
}

#[test]
fn concurrent_launches_match_the_serial_launch_bit_for_bit() {
    let kernels = kernels();
    let serial = price_mix(&engine(1), &kernels);
    const ROUNDS: usize = 3;
    for threads in [1, 2, 5] {
        let shared = engine(threads);
        let start = Barrier::new(4);
        let results: Vec<Vec<Vec<Bits>>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let own = (t >= 2).then(|| engine(threads));
                    let clone = shared.clone();
                    let (kernels, start) = (&kernels, &start);
                    s.spawn(move || {
                        let engine = own.as_ref().unwrap_or(&clone);
                        start.wait();
                        (0..ROUNDS).map(|_| price_mix(engine, kernels)).collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pricing thread"))
                .collect()
        });
        for (t, rounds) in results.iter().enumerate() {
            for (round, got) in rounds.iter().enumerate() {
                assert_eq!(
                    got, &serial,
                    "sim_threads {threads}, thread {t}, round {round} differs from the serial launch"
                );
            }
        }
    }
}
