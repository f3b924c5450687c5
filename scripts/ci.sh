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

echo "==> cargo build --examples"
cargo build --offline --workspace --examples

echo "==> cargo test -q"
cargo test --offline --workspace -q

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

echo "==> serve-dynamic smoke: report stable across runs and worker counts"
dynamic() {
  gnnadvisor serve-dynamic --requests 32 --rate 4000 --streams 2 --scale 0.02 \
    --updates 600 --update-gap-ms 0.01 > "$1"
}
check_stable serve-dynamic dynamic "dynamic-graph report" "updates applied"

echo "==> train-minibatch smoke: report stable across runs and worker counts"
minibatch() {
  gnnadvisor train-minibatch --scale 0.02 --batch-size 96 --epochs 2 --fanout 6,3 > "$1"
}
check_stable train-minibatch minibatch "total: pipelined" "overlap"

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

echo "CI green."
