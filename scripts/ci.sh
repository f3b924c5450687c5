#!/usr/bin/env bash
# Offline-friendly CI gate: formatting, lints, and the full test suite.
# Usage: scripts/ci.sh  (run from anywhere; no registry access required)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings -D deprecated"
# -D deprecated: the workspace keeps no deprecated API alive, so a
# deprecation warning anywhere (a new shim, or a call into a deprecated
# dependency item) fails the build instead of lingering.
cargo clippy --offline --workspace --all-targets -- -D warnings -D deprecated

echo "==> cargo doc -D warnings"
# A deleted or renamed item must not leave a dangling intra-doc link.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "==> cargo build --examples"
cargo build --offline --workspace --examples

echo "==> cargo test -q"
cargo test --offline --workspace -q

echo "==> cargo test --release: numerics oracles, pins and the host pool"
# The GEMM micro-kernel keeps its output tile in registers only under
# optimization, the build the benchmark runs, so the exact-contract
# oracles and the numerics pins run there too; so do the host pool's
# concurrency tests and the concurrent-launch differential test, where
# optimized timing makes the interleavings they probe most likely.
cargo test --release --offline -q -p gnnadvisor-tensor -p gnnadvisor-models -p gnnadvisor-gpu

echo "==> benchmark smoke test"
# The benchmark is a package of its own; its smoke test runs every
# workload at tiny size, so an engine change that breaks the harness
# fails here.
cargo test --release --offline -q --manifest-path benchmark/Cargo.toml

out_dir="$(mktemp -d)"
trap 'rm -rf "$out_dir"' EXIT

# check_stable NAME CMD [PATTERN...]: CMD writes its report to the file
# named by its first argument. The report must contain every PATTERN and be
# byte-identical across two runs and across GNNADVISOR_SIM_THREADS=1/4.
check_stable() {
  local name="$1" cmd="$2"
  shift 2
  local out="$out_dir/$name"
  "$cmd" "$out.a"
  "$cmd" "$out.b"
  GNNADVISOR_SIM_THREADS=1 "$cmd" "$out.t1"
  GNNADVISOR_SIM_THREADS=4 "$cmd" "$out.t4"
  local pattern
  for pattern in "$@"; do
    grep -q -- "$pattern" "$out.a" || {
      echo "FAIL: $name output missing '$pattern'" >&2
      exit 1
    }
  done
  cmp "$out.a" "$out.b" || {
    echo "FAIL: $name output differs between identical runs" >&2
    exit 1
  }
  cmp "$out.a" "$out.t1" && cmp "$out.a" "$out.t4" || {
    echo "FAIL: $name output depends on GNNADVISOR_SIM_THREADS" >&2
    exit 1
  }
}

gnnadvisor() {
  cargo run --offline -q --bin gnnadvisor -- "$@"
}

echo "==> profile smoke: trace bytes stable across runs and worker counts"
profile() {
  gnnadvisor profile --dataset Cora --scale 0.03 --trace-out "$1" >/dev/null
}
check_stable profile profile

echo "==> serve-sim smoke: report stable across runs and worker counts"
serve() {
  gnnadvisor serve-sim --requests 32 --rate 4000 --streams 2 --scale 0.02 > "$1"
}
check_stable serve-sim serve "latency p50" "kernel occupancy"

echo "==> serve-sim overload smoke: admission sheds, report stable across runs and worker counts"
# A 4-slot queue against bursts of 8000 req/s: the planner must shed, so
# the report needs a non-zero shed count.
serve_overload() {
  gnnadvisor serve-sim --requests 64 --rate 8000 --streams 2 --scale 0.02 \
    --queue-cap 4 --batch-size 8 --max-delay-ms 0.5 > "$1"
}
check_stable serve-sim-overload serve_overload "requests shed  *[1-9]"

echo "==> chaos smoke: faulted serve-sim stable across runs and worker counts"
chaos() {
  gnnadvisor serve-sim --requests 32 --rate 4000 --streams 2 --scale 0.02 \
    --fault-rate 0.2 --retries 2 --deadline-ms 40 > "$1"
}
check_stable chaos chaos "batch retries"

echo "==> serve-cluster smoke: report stable across runs and worker counts"
cluster() {
  gnnadvisor serve-cluster --requests 32 --rate 4000 --streams 2 --scale 0.02 \
    --replicas 2 --tenants batch:3,online:1:40 --fault-rate 0.2 --retries 2 > "$1"
}
check_stable serve-cluster cluster "tenant online" "replica submissions"

echo "==> serve-cluster failover smoke: autoscaling, failover and a device reset stable"
# Bursty traffic scales the fleet from 2 to 3 replicas while a device
# reset kills replica 1, so its batches retry elsewhere.
cluster_failover() {
  gnnadvisor serve-cluster --requests 200 --rate 20000 --streams 2 --scale 0.02 \
    --replicas 2 --autoscale 1:3 --scale-high 4 --scale-interval-ms 1 --reset-replica 1:1 \
    --tenants batch:3,online:1:5 --fault-rate 0.2 --retries 2 --arrivals mmpp > "$1"
}
check_stable serve-cluster-failover cluster_failover "dead replicas        1" \
  "scale events         2->3"

echo "==> serve-dynamic smoke: report stable across runs and worker counts"
dynamic() {
  gnnadvisor serve-dynamic --requests 32 --rate 4000 --streams 2 --scale 0.02 \
    --updates 600 --update-gap-ms 0.01 > "$1"
}
check_stable serve-dynamic dynamic "dynamic-graph report" "updates applied"

echo "==> faulted serve-dynamic smoke: retried batches stable across runs and worker counts"
# Faults make batches retry, so every attempt after the first replays
# fault verdicts over the batch's one set of prices.
dynamic_chaos() {
  gnnadvisor serve-dynamic --requests 32 --rate 4000 --streams 2 --scale 0.02 \
    --updates 600 --update-gap-ms 0.01 --fault-rate 0.2 --retries 2 > "$1"
}
check_stable serve-dynamic-chaos dynamic_chaos "batch retries"

# The train-minibatch smokes run under `timeout`: the sampling thread and
# the training thread hand batches over a bounded channel, so a deadlock
# between them would hang the run. The limit also covers a cold build.
echo "==> train-minibatch smoke: report stable across runs and worker counts"
minibatch() {
  timeout 600 cargo run --offline -q --bin gnnadvisor -- \
    train-minibatch --scale 0.02 --batch-size 96 --epochs 2 --fanout 6,3 > "$1"
}
check_stable train-minibatch minibatch "total: pipelined" "overlap"

echo "==> train-minibatch layer-wise smoke: report stable across runs and worker counts"
minibatch_layer() {
  timeout 600 cargo run --offline -q --bin gnnadvisor -- \
    train-minibatch --scale 0.02 --batch-size 96 --epochs 2 --fanout 6,3 \
    --strategy layer --budget 64 > "$1"
}
check_stable train-minibatch-layer minibatch_layer "strategy layer (budget 64)" "total: pipelined"

echo "==> train-minibatch row-parallel smoke: wide blocks stable across runs and worker counts"
# Blocks of ~9k nodes at hidden 64: the block GEMMs and most aggregations
# are several times tensor::par::MIN_WORK_PER_WORKER, so the losses on
# stdout come from the row-parallel numerics at 4 workers and from the
# serial path at 1.
minibatch_wide() {
  timeout 600 cargo run --offline -q --release --bin gnnadvisor -- \
    train-minibatch --scale 0.5 --batch-size 1024 --epochs 1 --fanout 10,5 --hidden 64 > "$1"
}
check_stable train-minibatch-wide minibatch_wide "dims \[96, 64, 10\]" "final: loss"

echo "==> analyze smoke: renumbering report stable across runs and worker counts"
analyze() {
  gnnadvisor analyze --dataset artist --scale 0.1 > "$1"
}
check_stable analyze analyze "communities:"

echo "==> tune smoke: two-tier report stable across runs and worker counts"
tune2() {
  cargo run --offline -q --release --bin gnnadvisor -- \
    tune --dataset Cora --scale 0.05 "${@:2}" > "$1"
}
check_stable tune tune2 "estimating (two-tier)" "calibration band"
# The fast path must price candidates at least 20x faster than full
# simulation (release build, so the ratio is not a debug-mode artifact);
# the measured ratio prints to stderr and failure surfaces as an error.
tune2 "$out_dir/tune.sc" --speed-check 20 || {
  echo "FAIL: fast-path scoring is not 20x faster than full simulation" >&2
  exit 1
}
cmp "$out_dir/tune.a" "$out_dir/tune.sc" || {
  echo "FAIL: --speed-check changed the tune report on stdout" >&2
  exit 1
}

echo "==> flag smoke: a foreign flag fails naming the command and the flag"
# Each command takes only its own flags; run has no --replicas.
if gnnadvisor run --dataset Cora --scale 0.05 --replicas 3 \
  > "$out_dir/foreign.out" 2> "$out_dir/foreign.err"; then
  status=0
else
  status=$?
fi
if [[ $status -ne 1 ]] || ! grep -q -- "run" "$out_dir/foreign.err" \
  || ! grep -q -- "--replicas" "$out_dir/foreign.err"; then
  echo "FAIL: run --replicas must exit 1 naming run and --replicas (status $status)" >&2
  cat "$out_dir/foreign.err" >&2
  exit 1
fi

echo "==> edge-list smoke: an edge list with no edges fails naming the file"
empty_edges="$out_dir/empty.el"
: > "$empty_edges"
if gnnadvisor run --edge-list "$empty_edges" \
  > "$out_dir/empty.out" 2> "$out_dir/empty.err"; then
  status=0
else
  status=$?
fi
if [[ $status -ne 1 ]] || ! grep -qF -- "$empty_edges" "$out_dir/empty.err"; then
  echo "FAIL: run --edge-list <empty file> must exit 1 naming the file (status $status)" >&2
  cat "$out_dir/empty.err" >&2
  exit 1
fi

echo "==> help smoke: the generated help lists every command"
gnnadvisor help > "$out_dir/help"
for command in analyze run profile compare tune serve-sim serve-cluster serve-dynamic \
  train-minibatch; do
  grep -q -- "^    $command " "$out_dir/help" || {
    echo "FAIL: gnnadvisor help does not list $command" >&2
    exit 1
  }
done

echo "CI green."
