#!/usr/bin/env bash
# Perf trajectories committed at the repo root:
#   BENCH_kernels.json       -- micro_kernels with its built-in bit-exactness
#                               self-check (cells/s per kernel x brick size
#                               x path — naive vs scalar-fast vs explicit
#                               SIMD at the dispatched width — plus the
#                               AoSoA field-count axis and a build
#                               provenance block: compiler, flags,
#                               detected width, dispatched vector width
#                               and ISA). The micro_simd differential width
#                               self-check runs first as a gate.
#   BENCH_critical_path.json -- trace_analyze --suite: critical-path
#                               composition, wait states and overlap headroom
#                               for a fixed roster of method x fabric x fault
#                               configurations (virtual-time, so the numbers
#                               are machine-independent and exactly
#                               reproducible)
#   BENCH_transport.json     -- abl_transport: fabric-crossing message
#                               counts and aggregation frame fill under the
#                               flat / shm / shm-agg transport tiers (also
#                               virtual-time-exact)
#   BENCH_overlap.json       -- abl_overlap: communication hidden by the
#                               partitioned dependency scheduler and its
#                               overlap efficiency per method x fabric,
#                               cross-checked against the analyzer's
#                               headroom bound (virtual-time-exact)
#   BENCH_autotune.json      -- abl_autotune: joint (layout x mapping x
#                               brick x page) search over the fig11/fig16
#                               strong-scaling problems — candidates
#                               evaluated, search wall time and throughput
#                               (the only wall-clock numbers here), and the
#                               virtual-time tuned-vs-hand-picked speedup
# Commit the refreshed JSON alongside any kernel / runtime / netsim change
# so the trajectories stay honest.
#
# Usage: scripts/bench_perf.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."
build=${1:-build}

if [[ ! -x "$build/bench/micro_kernels" ]]; then
  echo "bench_perf.sh: $build/bench/micro_kernels not found -- build first:" >&2
  echo "  cmake --preset default && cmake --build --preset default" >&2
  exit 1
fi

if [[ -x "$build/bench/micro_simd" ]]; then
  "$build/bench/micro_simd" --self-check
fi

"$build/bench/micro_kernels" --json-out=BENCH_kernels.json --self-check

echo "bench_perf.sh: wrote BENCH_kernels.json"

if [[ ! -x "$build/tools/trace_analyze" ]]; then
  echo "bench_perf.sh: $build/tools/trace_analyze not found -- build first" >&2
  exit 1
fi

"$build/tools/trace_analyze" --suite BENCH_critical_path.json -d 32

echo "bench_perf.sh: wrote BENCH_critical_path.json"

if [[ ! -x "$build/bench/abl_transport" ]]; then
  echo "bench_perf.sh: $build/bench/abl_transport not found -- build first" >&2
  exit 1
fi

"$build/bench/abl_transport" --json-out=BENCH_transport.json

echo "bench_perf.sh: wrote BENCH_transport.json"

if [[ ! -x "$build/bench/abl_overlap" ]]; then
  echo "bench_perf.sh: $build/bench/abl_overlap not found -- build first" >&2
  exit 1
fi

"$build/bench/abl_overlap" --json-out=BENCH_overlap.json

echo "bench_perf.sh: wrote BENCH_overlap.json"

if [[ ! -x "$build/bench/abl_autotune" ]]; then
  echo "bench_perf.sh: $build/bench/abl_autotune not found -- build first" >&2
  exit 1
fi

"$build/bench/abl_autotune" --json-out=BENCH_autotune.json

echo "bench_perf.sh: wrote BENCH_autotune.json"
