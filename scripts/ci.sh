#!/usr/bin/env bash
# CI entry point: the full tier-1 suite on the default preset, then the
# fast `unit`-labeled tests again under ASan+UBSan plus a bounded fuzz
# sweep, then the shared-state tests under TSan (the sanitizer passes skip
# the slow ctest sweeps to keep wall time bounded; run them by hand with
# `ctest --preset asan-ubsan` when touching the runtime or exchangers).
#
# Usage: scripts/ci.sh [jobs]   (default: nproc)
set -euo pipefail
cd "$(dirname "$0")/.."
jobs=${1:-$(nproc)}

echo "=== default preset: configure + build (warnings are errors) ==="
# The default build is warning-free; keep it so. The flag is passed here,
# not set in CMakePresets.json, so the sanitizer presets and a plain
# `cmake -B build -S .` configure as before.
cmake --preset default -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build --preset default -j "$jobs"

echo "=== default preset: full test suite ==="
ctest --preset default -j "$jobs"

echo "=== default preset: kernel perf smoke ==="
# Fast/naive bit-exactness gate for the kernel engine (perf-labeled;
# redundant with the full suite above but kept as an explicit, named gate
# so kernel regressions fail loudly). The measured trajectory itself is
# refreshed by hand with scripts/bench_perf.sh.
ctest --preset default -L perf

echo "=== default preset: critical-path analyzer gate ==="
# Analyzer contract, named so a broken path identity or a drifted report
# fails loudly: unit tests, the golden text report, and the artifact
# schema check (all also in the full suite above).
ctest --preset default -L analyze

echo "=== default preset: transport tier gate ==="
# On-node transport contract (DESIGN.md §13), named so a broken aggregation
# protocol or delivery regression fails loudly: the Aggregator protocol
# unit tests plus the simmpi shm/shm-agg integration (also in the full
# suite above).
ctest --preset default -L transport

echo "=== default preset: overlap tier gate ==="
# Partitioned-request + dependency-scheduler contract (DESIGN.md §14),
# named so a lifecycle or scheduler regression fails loudly: the simmpi
# partitioned lifecycle tests, the harness scheduler property tests, and
# the abl_overlap golden with its strict comm-on-path decrease and
# headroom-bound self-checks (all also in the full suite above).
ctest --preset default -L overlap

echo "=== default preset: autotuner tier gate ==="
# Joint-autotuner contract (DESIGN.md §15), named so a search, memo-cache
# or artifact regression fails loudly: the mapping property tests, the
# tuner unit tests (including replay of the committed artifact), the
# tuned-config schema + CLI byte-determinism check, and the abl_autotune
# golden with its tuned<=hand-picked and warm-cache self-checks (all also
# in the full suite above).
ctest --preset default -L tune

echo "=== default preset: explicit-SIMD tier gate ==="
# Explicit-SIMD kernel contract (DESIGN.md §16), named so a vectorization
# or AoSoA regression fails loudly: the differential width sweeps and
# alignment-guard unit tests, the kernel-engine suite (clipped tiles over
# every expansion/overlap box shape, the register-blocked array kernel,
# the exec-shaped harness run), the multi-field FieldSet/ArrayFields
# invariance suite, and micro_simd's forced-width differential self-check
# (all also in the full suite above).
ctest --preset default -L simd

echo "=== default preset: AVX2 kernel copy portability gate ==="
# On x86-64 the stencil library also carries an -mavx2 copy of the kernel
# engine, picked at run time on CPUs with AVX2 (DESIGN.md §16). A header
# inline that copy emits out of line (a DVec method, Brick::field_data)
# could be the one the linker keeps for the whole program, and would fault
# on a CPU without AVX2 -- which no test on an AVX2 host can catch. The
# gate disassembles the archive (objdump -d, demangled) and fails if any
# function outside brickx::stencil::avx2 uses %ymm or another AVX2-only
# instruction (also run as the simd_isa_portability ctest).
if [[ "$(uname -m)" == x86_64 ]]; then
  python3 scripts/check_isa_leaks.py build/src/stencil/libbrickx_stencil.a
fi

echo "=== benchmark self-test (perfbench) ==="
# The repository benchmark builds its own package over src/ and is not a
# ctest target, so a library change that breaks its build or its
# correctness gates would otherwise go unnoticed. Runs every workload at
# the shortest length (a few minutes).
python3 perfbench/test_perfbench.py

echo "=== asan-ubsan preset: configure + build ==="
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "$jobs"

echo "=== asan-ubsan preset: unit-, persistent-, analyze-, transport-, overlap-, tune- and simd-labeled tests ==="
ctest --preset asan-ubsan -j "$jobs" -L 'unit|persistent|analyze|transport|overlap|tune|simd'

echo "=== asan-ubsan preset: bounded fuzz sweep ==="
# The exchange engine owns every request handle, including the ones a
# faulted round abandons mid-flight; the fuzzer draws faults, persistent
# and partitioned replay per config, so this is where a lifetime error in
# that path would surface. Sized to about two minutes.
build-asan/src/check/check_fuzz --iters=150 --seed=1

echo "=== tsan preset: configure + build (gpusim, simmpi, harness, result matrix, transport, tune, fabric) ==="
# Thread-sanitizer pass over the state rank threads share: the one
# gpu::Device every rank charges UM page touches to (one lock per message
# or kernel sweep), the runtime mailboxes that hand envelopes between rank
# threads, whole harness runs over both, the shm-agg Aggregator's frame
# sealing, the tuner's worker pool and memo cache, and the fabric's epoch
# solve. The build preset compiles only these test binaries and the test
# preset selects their tests (plus both result-matrix goldens), which keeps
# the pass to a few minutes.
cmake --preset tsan
cmake --build --preset tsan -j "$jobs"

echo "=== tsan preset: gpusim, simmpi, harness, result-matrix, transport, tune and fabric tests ==="
ctest --preset tsan -j "$jobs"

echo "=== forced-scalar build (BRICKX_SIMD_WIDTH=1): simd + perf gates ==="
# The width-1 override must stay a first-class build: every SIMD dispatch
# degenerates to the scalar fast tiles (clipped tiles and the 125-point
# array strips run at width 1), no AVX2 copy is built or dispatched to, and
# all bit-exactness gates still hold. This is the configuration the `fast`
# rows of BENCH_kernels.json model and the fallback the alignment guard
# selects at runtime.
cmake -S . -B build-scalar -G Ninja \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DBRICKX_SIMD_WIDTH=1
cmake --build build-scalar -j "$jobs"
ctest --test-dir build-scalar -j "$jobs" --output-on-failure -L 'simd|perf'

echo "ci.sh: all green"
