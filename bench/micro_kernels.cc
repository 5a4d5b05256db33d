// Real (wall-clock, single-core) microbenchmarks backing the simulation:
// brick vs array stencil kernels (fast-path engine vs naive per-access
// reference), pack/unpack copy throughput, datatype gather throughput, and
// mmap view construction cost. These are the only benches that measure
// this host rather than the virtual clock.
//
// Beyond the google-benchmark registrations, two flag-driven modes back
// the kernel perf trajectory (EXPERIMENTS.md "Real-host microbenchmarks"):
//
//   --self-check           bit-exactness sweep: fast vs naive kernels over
//                          randomized output boxes, every kernel × brick
//                          size × storage family; exits non-zero on any
//                          mismatch (the `perf`-labeled ctest smoke).
//   --json-out=FILE        measure cells/s for every kernel × brick size ×
//                          path and write the BENCH_kernels.json trajectory
//                          point (scripts/bench_perf.sh).
//
// Without either flag the binary behaves as a plain google-benchmark
// suite.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "baseline/array_exchange.h"
#include "common/rng.h"
#include "core/brick.h"
#include "core/cell_array.h"
#include "core/decomp.h"
#include "core/exchange_view.h"
#include "memmap/view.h"
#include "simmpi/cart.h"
#include "stencil/kernel_engine.h"
#include "stencil/stencils.h"

#ifndef BRICKX_BUILD_TYPE
#define BRICKX_BUILD_TYPE "unknown"
#endif
#ifndef BRICKX_CXX_FLAGS
#define BRICKX_CXX_FLAGS "unknown"
#endif

#if defined(__clang__)
#define BRICKX_COMPILER_ID "clang"
#elif defined(__GNUC__)
#define BRICKX_COMPILER_ID "gcc"
#else
#define BRICKX_COMPILER_ID "unknown"
#endif

namespace brickx {
namespace {

struct BrickSetup {
  BrickDecomp<3> dec;
  BrickInfo<3> info;
  BrickStorage in, out;
  BrickSetup(std::int64_t n, std::int64_t b)
      : dec({n, n, n}, b, {b, b, b}, surface3d()),
        info(dec.brick_info()),
        in(dec.allocate(1)),
        out(dec.allocate(1)) {
    Rng rng(0xb71c5);
    for (std::int64_t i = 0; i < dec.total_brick_count(); ++i) {
      double* p = in.brick(i);
      for (std::int64_t e = 0; e < dec.elements_per_brick(); ++e)
        p[e] = rng.uniform() * 2.0 - 1.0;
    }
  }
};

// ---- google-benchmark registrations (interactive use) ----------------------

template <bool Naive>
void BM_Brick7Point(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  BrickSetup s(n, 8);
  Brick<8, 8, 8> bin(&s.info, &s.in, 0), bout(&s.info, &s.out, 0);
  const Box<3> box{{0, 0, 0}, {n, n, n}};
  for (auto _ : state) {
    if (Naive) {
      stencil::apply7_bricks_naive<8, 8, 8>(s.dec, bout, bin, box);
    } else {
      stencil::apply7_bricks<8, 8, 8>(s.dec, bout, bin, box);
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Brick7Point<false>)->Name("BM_Brick7Point/fast")->Arg(32)->Arg(64);
BENCHMARK(BM_Brick7Point<true>)->Name("BM_Brick7Point/naive")->Arg(32)->Arg(64);

void BM_Array7Point(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  CellArray3 in(Box<3>{{-8, -8, -8}, {n + 8, n + 8, n + 8}});
  CellArray3 out(Box<3>{{-8, -8, -8}, {n + 8, n + 8, n + 8}});
  const Box<3> box{{0, 0, 0}, {n, n, n}};
  for (auto _ : state) {
    stencil::apply7_array(in, out, box);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Array7Point)->Arg(32)->Arg(64);

template <bool Naive>
void BM_Brick125Point(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  BrickSetup s(n, 8);
  Brick<8, 8, 8> bin(&s.info, &s.in, 0), bout(&s.info, &s.out, 0);
  const Box<3> box{{0, 0, 0}, {n, n, n}};
  for (auto _ : state) {
    if (Naive) {
      stencil::apply125_bricks_naive<8, 8, 8>(s.dec, bout, bin, box);
    } else {
      stencil::apply125_bricks<8, 8, 8>(s.dec, bout, bin, box);
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Brick125Point<false>)->Name("BM_Brick125Point/fast")->Arg(32);
BENCHMARK(BM_Brick125Point<true>)->Name("BM_Brick125Point/naive")->Arg(32);

void BM_PackUnpack(benchmark::State& state) {
  // The on-node data movement the paper eliminates: pack all 26 surface
  // boxes into staging buffers and unpack back.
  const std::int64_t n = state.range(0);
  const Vec3 N{n, n, n};
  CellArray3 field(Box<3>{{-8, -8, -8}, {n + 8, n + 8, n + 8}});
  const auto dirs = mpi::Cart<3>::all_directions();
  std::vector<int> ranks(dirs.size(), 0);
  baseline::PackExchanger ex(N, 8, dirs, ranks);
  std::size_t bytes = 0;
  for (auto _ : state) {
    bytes += ex.pack(field);
    bytes += ex.unpack(field);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_PackUnpack)->Arg(32)->Arg(64)->Arg(128);

void BM_DatatypeGather(benchmark::State& state) {
  // MPI_Types' internal packing: gather a maximally strided face.
  const std::int64_t n = state.range(0);
  const Vec3 sizes{n + 16, n + 16, n + 16};
  std::vector<double> grid(static_cast<std::size_t>(sizes.prod()));
  auto face = mpi::Datatype::subarray<3>(sizes, {8, n, n}, {8, 8, 8},
                                         sizeof(double));
  std::vector<std::byte> out(face.size());
  std::size_t bytes = 0;
  for (auto _ : state) {
    face.flat().gather(reinterpret_cast<const std::byte*>(grid.data()),
                       out.data());
    bytes += face.size();
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  state.counters["blocks"] = static_cast<double>(face.block_count());
}
BENCHMARK(BM_DatatypeGather)->Arg(32)->Arg(64)->Arg(128);

void BM_ExchangeViewBuild(benchmark::State& state) {
  // Cost of constructing all per-neighbor mmap views (paid once per
  // communication pattern, amortized over every timestep).
  const std::int64_t n = state.range(0);
  BrickDecomp<3> dec({n, n, n}, 8, {8, 8, 8}, surface3d());
  BrickStorage store = dec.mmap_alloc(1);
  std::vector<int> ranks(26, 0);
  for (auto _ : state) {
    ExchangeView<3> ev(dec, store, ranks);
    benchmark::DoNotOptimize(ev.send_byte_count());
  }
  state.SetItemsProcessed(state.iterations() * 2 * 98);  // segments mapped
}
BENCHMARK(BM_ExchangeViewBuild)->Arg(32)->Arg(64);

void BM_MemMapAliasedWrite(benchmark::State& state) {
  // Writing through brick storage is instantly visible in the views: the
  // "pack" of MemMap is literally a no-op; this measures the plain store
  // bandwidth through the canonical mapping for comparison with
  // BM_PackUnpack.
  const std::int64_t n = state.range(0);
  BrickDecomp<3> dec({n, n, n}, 8, {8, 8, 8}, surface3d());
  BrickStorage store = dec.mmap_alloc(1);
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::memset(store.data(), 0x2A, store.bytes());
    bytes += store.bytes();
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_MemMapAliasedWrite)->Arg(32)->Arg(64);

// ---- bit-exactness self-check ----------------------------------------------

template <int B>
bool check_brick_paths(bool use125, std::uint64_t seed) {
  const std::int64_t g = B, r = use125 ? 2 : 1;
  BrickDecomp<3> dec({16, 16, 16}, g, Vec3::fill(B), surface3d());
  BrickInfo<3> info = dec.brick_info();
  BrickStorage sin = dec.allocate(1);
  Rng rng(seed);
  for (std::int64_t i = 0; i < dec.total_brick_count(); ++i) {
    double* p = sin.brick(i);
    for (std::int64_t e = 0; e < dec.elements_per_brick(); ++e)
      p[e] = rng.uniform() * 2.0 - 1.0;
  }
  Brick<B, B, B> bin(&info, &sin, 0);
  std::vector<Box<3>> boxes = {{{0, 0, 0}, {16, 16, 16}},
                               {{B, B, B}, {2 * B, 2 * B, 2 * B}},
                               {{1, 2, 3}, {6, 15, 9}},
                               {{0, 0, 0}, {0, 0, 0}}};
  // Every step of the ghost-cell expansion schedule: clipped and
  // frame-edge bricks at each margin g - (s+1)r.
  for (std::int64_t st = 0; st < stencil::steps_per_exchange(g, r); ++st)
    boxes.push_back(stencil::expansion_output_box<3>({16, 16, 16}, g, r, st));
  for (const Box<3>& box : boxes) {
    BrickStorage fast = dec.allocate(1), naive = dec.allocate(1);
    BrickStorage vec = dec.allocate(1);
    Brick<B, B, B> bf(&info, &fast, 0), bn(&info, &naive, 0);
    Brick<B, B, B> bv(&info, &vec, 0);
    if (use125) {
      stencil::apply125_bricks<B, B, B>(dec, bf, bin, box);
      stencil::apply125_bricks_naive<B, B, B>(dec, bn, bin, box);
      stencil::engine_apply125_simd<B, B, B, simd::kActiveWidth>(dec, bv, bin,
                                                                 box);
    } else {
      stencil::apply7_bricks<B, B, B>(dec, bf, bin, box);
      stencil::apply7_bricks_naive<B, B, B>(dec, bn, bin, box);
      stencil::engine_apply7_simd<B, B, B, simd::kActiveWidth>(dec, bv, bin,
                                                               box);
    }
    if (std::memcmp(vec.data(), naive.data(), vec.bytes()) != 0) {
      std::fprintf(stderr,
                   "self-check FAILED (simd W=%d): brick=%d use125=%d\n",
                   simd::kActiveWidth, B, use125 ? 1 : 0);
      return false;
    }
    if (std::memcmp(fast.data(), naive.data(), fast.bytes()) != 0) {
      std::fprintf(stderr,
                   "self-check FAILED: brick=%d use125=%d box.lo=(%lld,%lld,"
                   "%lld)\n",
                   B, use125 ? 1 : 0, static_cast<long long>(box.lo[0]),
                   static_cast<long long>(box.lo[1]),
                   static_cast<long long>(box.lo[2]));
      return false;
    }
  }
  return true;
}

bool check_array_paths(bool use125) {
  Rng rng(0xa11a7);
  const Box<3> frame{{-4, -4, -4}, {14, 14, 14}};
  CellArray3 in(frame);
  for_each(frame, [&](const Vec3& p) { in.at(p) = rng.uniform() - 0.5; });
  const std::vector<Box<3>> boxes = {{{0, 0, 0}, {10, 10, 10}},
                                     {{-2, -2, -2}, {12, 12, 12}},
                                     {{1, 3, 2}, {7, 5, 11}},
                                     {{0, 0, 0}, {0, 0, 0}}};
  for (const Box<3>& box : boxes) {
    CellArray3 fast(frame), naive(frame);
    if (use125) {
      stencil::apply125_array(in, fast, box);
      stencil::apply125_array_naive(in, naive, box);
    } else {
      stencil::apply7_array(in, fast, box);
      stencil::apply7_array_naive(in, naive, box);
    }
    if (std::memcmp(fast.raw().data(), naive.raw().data(),
                    fast.raw().size() * sizeof(double)) != 0) {
      std::fprintf(stderr, "self-check FAILED: array use125=%d\n",
                   use125 ? 1 : 0);
      return false;
    }
  }
  return true;
}

bool run_self_check() {
  bool ok = true;
  ok = check_brick_paths<4>(false, 11) && ok;
  ok = check_brick_paths<8>(false, 12) && ok;
  ok = check_brick_paths<4>(true, 13) && ok;
  ok = check_brick_paths<8>(true, 14) && ok;
  ok = check_array_paths(false) && ok;
  ok = check_array_paths(true) && ok;
  std::printf("self-check: %s\n", ok ? "pass" : "FAIL");
  return ok;
}

// ---- measured trajectory (--json-out) --------------------------------------

struct KernelPoint {
  const char* kernel;   ///< "7pt" | "125pt"
  const char* storage;  ///< "brick" | "array"
  int brick;            ///< brick extent, 0 for array storage
  const char* path;     ///< "naive" | "fast" | "simd" | "expansion"
  double cells_per_s = 0;
  std::int64_t iters = 0;
  double seconds = 0;
  /// Vector lanes of the measured path: 0 for naive (per-access), 1 for
  /// the scalar fast tiles (and the autovectorized 7-point array rows),
  /// simd::dispatch_width() for the explicit-SIMD tier (brick tiles and
  /// the register-blocked 125-point array kernel) as this process runs it.
  int width = 0;
  /// Coupled AoSoA fields evolved per application (cells scales with it).
  int fields = 1;
};

/// Time `fn` (one full-domain kernel application over `cells` cells),
/// doubling the batch until it runs for at least `min_s` seconds.
template <typename F>
void measure(KernelPoint& pt, std::int64_t cells, F&& fn) {
  using clock = std::chrono::steady_clock;
  constexpr double min_s = 0.15;
  std::int64_t iters = 1;
  for (;;) {
    const auto t0 = clock::now();
    for (std::int64_t i = 0; i < iters; ++i) fn();
    const double s = std::chrono::duration<double>(clock::now() - t0).count();
    if (s >= min_s) {
      pt.iters = iters;
      pt.seconds = s;
      pt.cells_per_s =
          static_cast<double>(cells * iters) / (s > 0 ? s : 1e-12);
      return;
    }
    iters = s > 0 ? std::max<std::int64_t>(
                        iters * 2, static_cast<std::int64_t>(
                                       static_cast<double>(iters) * min_s /
                                       s * 1.2))
                  : iters * 2;
  }
}

template <int B>
void measure_bricks(std::vector<KernelPoint>& out, std::int64_t n) {
  BrickSetup s(n, B);
  Brick<B, B, B> bin(&s.info, &s.in, 0), bout(&s.info, &s.out, 0);
  const Box<3> box{{0, 0, 0}, {n, n, n}};
  const std::int64_t cells = n * n * n;
  // Three paths per kernel: naive per-access, the scalar fast tiles
  // (forced W=1), and the production entry point, which runs the
  // explicit-SIMD tier at the dispatched width (DESIGN.md §16). All three
  // are bit-identical; only throughput differs.
  for (bool use125 : {false, true}) {
    for (const char* path : {"naive", "fast", "simd"}) {
      KernelPoint pt{use125 ? "125pt" : "7pt", "brick", B, path, 0, 0, 0,
                     0,     1};
      const bool naive = std::strcmp(path, "naive") == 0;
      const bool vec = std::strcmp(path, "simd") == 0;
      pt.width = naive ? 0 : (vec ? simd::dispatch_width() : 1);
      measure(pt, cells, [&] {
        if (use125) {
          if (naive) {
            stencil::apply125_bricks_naive<B, B, B>(s.dec, bout, bin, box);
          } else if (vec) {
            stencil::engine_apply125<B, B, B>(s.dec, bout, bin, box);
          } else {
            stencil::engine_apply125_simd<B, B, B, 1>(s.dec, bout, bin, box);
          }
        } else if (naive) {
          stencil::apply7_bricks_naive<B, B, B>(s.dec, bout, bin, box);
        } else if (vec) {
          stencil::engine_apply7<B, B, B>(s.dec, bout, bin, box);
        } else {
          stencil::engine_apply7_simd<B, B, B, 1>(s.dec, bout, bin, box);
        }
        benchmark::ClobberMemory();
      });
      out.push_back(pt);
    }
  }
}

/// The `expansion` rows: one exchange's worth of the harness's ghost-cell
/// expansion schedule — output boxes at margins g - r, g - 2r, ..., 0
/// (ghost g = 8) through the production entry points. Unlike the
/// full-domain rows, nearly every brick here is clipped or sits at the
/// frame edge.
void measure_expansion(std::vector<KernelPoint>& out, std::int64_t n) {
  constexpr int B = 8;
  constexpr std::int64_t g = 8;
  BrickSetup s(n, B);
  Brick<B, B, B> bin(&s.info, &s.in, 0), bout(&s.info, &s.out, 0);
  CellArray3 ain(Box<3>{{-g, -g, -g}, {n + g, n + g, n + g}});
  CellArray3 aout(ain.box());
  Rng rng(0xe9a4d);
  for_each(ain.box(), [&](const Vec3& p) { ain.at(p) = rng.uniform(); });
  for (bool use125 : {false, true}) {
    const std::int64_t r = use125 ? 2 : 1;
    std::vector<Box<3>> boxes;
    std::int64_t cells = 0;
    for (std::int64_t st = 0; st < stencil::steps_per_exchange(g, r); ++st) {
      boxes.push_back(stencil::expansion_output_box<3>({n, n, n}, g, r, st));
      cells += boxes.back().volume();
    }
    for (bool brick : {true, false}) {
      KernelPoint pt{use125 ? "125pt" : "7pt", brick ? "brick" : "array",
                     brick ? B : 0, "expansion", 0, 0, 0,
                     brick || use125 ? simd::dispatch_width() : 1, 1};
      measure(pt, cells, [&] {
        for (const Box<3>& box : boxes) {
          if (brick && use125) {
            stencil::apply125_bricks<B, B, B>(s.dec, bout, bin, box);
          } else if (brick) {
            stencil::apply7_bricks<B, B, B>(s.dec, bout, bin, box);
          } else if (use125) {
            stencil::apply125_array(ain, aout, box);
          } else {
            stencil::apply7_array(ain, aout, box);
          }
        }
        benchmark::ClobberMemory();
      });
      out.push_back(pt);
    }
  }
}

/// The field-count axis: evolve F coupled AoSoA fields per application
/// (brick 8, SIMD path). Cells processed scales with F, so cells/s staying
/// flat means the AoSoA offsets cost nothing over the single-field layout.
void measure_fields(std::vector<KernelPoint>& out, std::int64_t n) {
  constexpr int B = 8;
  // F = 1 is the plain simd row from measure_bricks; only F > 1 is new.
  for (int F : {2, 4}) {
    BrickDecomp<3> dec({n, n, n}, B, {B, B, B}, surface3d());
    BrickInfo<3> info = dec.brick_info();
    BrickStorage in = dec.allocate(F), o = dec.allocate(F);
    Rng rng(0xf1e1d5);
    for (std::int64_t i = 0; i < dec.total_brick_count(); ++i) {
      double* p = in.brick(i);
      for (std::int64_t e = 0; e < dec.elements_per_brick() * F; ++e)
        p[e] = rng.uniform() * 2.0 - 1.0;
    }
    const Box<3> box{{0, 0, 0}, {n, n, n}};
    for (bool use125 : {false, true}) {
      KernelPoint pt{use125 ? "125pt" : "7pt", "brick", B, "simd", 0, 0, 0,
                     simd::dispatch_width(), F};
      measure(pt, n * n * n * F, [&] {
        for (int f = 0; f < F; ++f) {
          const std::int64_t off = f * dec.elements_per_brick();
          Brick<B, B, B> bin(&info, &in, off), bout(&info, &o, off);
          if (use125) {
            stencil::engine_apply125<B, B, B>(dec, bout, bin, box);
          } else {
            stencil::engine_apply7<B, B, B>(dec, bout, bin, box);
          }
        }
        benchmark::ClobberMemory();
      });
      out.push_back(pt);
    }
  }
}

void measure_arrays(std::vector<KernelPoint>& out, std::int64_t n) {
  CellArray3 in(Box<3>{{-8, -8, -8}, {n + 8, n + 8, n + 8}});
  CellArray3 o(Box<3>{{-8, -8, -8}, {n + 8, n + 8, n + 8}});
  Rng rng(0xcafe);
  for_each(in.box(), [&](const Vec3& p) { in.at(p) = rng.uniform(); });
  const Box<3> box{{0, 0, 0}, {n, n, n}};
  const std::int64_t cells = n * n * n;
  for (bool use125 : {false, true}) {
    for (bool naive : {true, false}) {
      KernelPoint pt{use125 ? "125pt" : "7pt", "array", 0,
                     naive ? "naive" : "fast", 0, 0, 0,
                     naive ? 0 : (use125 ? simd::dispatch_width() : 1), 1};
      measure(pt, cells, [&] {
        if (use125) {
          if (naive) {
            stencil::apply125_array_naive(in, o, box);
          } else {
            stencil::apply125_array(in, o, box);
          }
        } else if (naive) {
          stencil::apply7_array_naive(in, o, box);
        } else {
          stencil::apply7_array(in, o, box);
        }
        benchmark::ClobberMemory();
      });
      out.push_back(pt);
    }
  }
}

double find_cells_per_s(const std::vector<KernelPoint>& pts,
                        const char* kernel, const char* storage, int brick,
                        const char* path, int fields = 1) {
  for (const auto& p : pts)
    if (std::strcmp(p.kernel, kernel) == 0 &&
        std::strcmp(p.storage, storage) == 0 && p.brick == brick &&
        std::strcmp(p.path, path) == 0 && p.fields == fields)
      return p.cells_per_s;
  return 0;
}

int write_json(const std::string& file, bool self_check_passed) {
  const std::int64_t n = 32;
  std::vector<KernelPoint> pts;
  measure_bricks<4>(pts, n);
  measure_bricks<8>(pts, n);
  measure_arrays(pts, n);
  measure_fields(pts, n);
  measure_expansion(pts, n);

  FILE* f = std::fopen(file.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "micro_kernels: cannot open %s\n", file.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"micro_kernels\",\n");
  // v2: build provenance block, per-result width/fields axes, the "simd"
  // path, and simd-vs-fast speedup ratios (DESIGN.md §16). v3: the
  // "expansion" path (ghost-cell expansion schedule, clipped bricks). v4:
  // simd_isa / simd_active_width and the simd rows report the dispatched
  // kernel copy (simd::dispatch_isa / dispatch_width); march_native is gone.
  std::fprintf(f, "  \"schema_version\": 4,\n");
  std::fprintf(f, "  \"build_type\": \"%s\",\n", BRICKX_BUILD_TYPE);
  // Provenance: trajectory points are only comparable when the toolchain
  // and vector configuration match — stamp everything that moves cells/s.
  std::fprintf(f, "  \"provenance\": {\n");
  std::fprintf(f, "    \"compiler\": \"%s\",\n", BRICKX_COMPILER_ID);
  std::fprintf(f, "    \"compiler_version\": \"%s\",\n", __VERSION__);
  std::fprintf(f, "    \"cxx_flags\": \"%s\",\n", BRICKX_CXX_FLAGS);
  std::fprintf(f, "    \"simd_isa\": \"%s\",\n", simd::dispatch_isa());
  std::fprintf(f, "    \"simd_detected_width\": %d,\n", simd::kDetectedWidth);
  std::fprintf(f, "    \"simd_active_width\": %d\n", simd::dispatch_width());
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"domain\": %lld,\n", static_cast<long long>(n));
  std::fprintf(f, "  \"self_check\": \"%s\",\n",
               self_check_passed ? "pass" : "not-run");
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const KernelPoint& p = pts[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"storage\": \"%s\", \"brick\": "
                 "%d, \"path\": \"%s\", \"width\": %d, \"fields\": %d, "
                 "\"cells_per_s\": %.6e, \"iters\": %lld, \"seconds\": "
                 "%.4f}%s\n",
                 p.kernel, p.storage, p.brick, p.path, p.width, p.fields,
                 p.cells_per_s, static_cast<long long>(p.iters), p.seconds,
                 i + 1 < pts.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  // Headline ratios of the perf trajectory (ISSUE 5 acceptance: the 8^3
  // 125-point interior fast path must be >= 3x the naive kernel; ISSUE 10:
  // the explicit-SIMD interior must beat the scalar fast path).
  std::fprintf(f, "  \"speedups\": {\n");
  const struct {
    const char* name;
    const char* kernel;
    const char* storage;
    int brick;
  } pairs[] = {{"brick8_125pt", "125pt", "brick", 8},
               {"brick8_7pt", "7pt", "brick", 8},
               {"brick4_125pt", "125pt", "brick", 4},
               {"brick4_7pt", "7pt", "brick", 4},
               {"array_125pt", "125pt", "array", 0},
               {"array_7pt", "7pt", "array", 0}};
  for (const auto& pr : pairs) {
    const double fast =
        find_cells_per_s(pts, pr.kernel, pr.storage, pr.brick, "fast");
    const double naive =
        find_cells_per_s(pts, pr.kernel, pr.storage, pr.brick, "naive");
    std::fprintf(f, "    \"%s\": %.2f,\n", pr.name,
                 naive > 0 ? fast / naive : 0);
  }
  const struct {
    const char* name;
    const char* kernel;
    int brick;
  } simd_pairs[] = {{"simd_vs_fast_brick8_125pt", "125pt", 8},
                    {"simd_vs_fast_brick8_7pt", "7pt", 8},
                    {"simd_vs_fast_brick4_125pt", "125pt", 4},
                    {"simd_vs_fast_brick4_7pt", "7pt", 4}};
  for (std::size_t i = 0; i < std::size(simd_pairs); ++i) {
    const auto& pr = simd_pairs[i];
    const double vec = find_cells_per_s(pts, pr.kernel, "brick", pr.brick,
                                        "simd");
    const double fast = find_cells_per_s(pts, pr.kernel, "brick", pr.brick,
                                         "fast");
    std::fprintf(f, "    \"%s\": %.2f%s\n", pr.name,
                 fast > 0 ? vec / fast : 0,
                 i + 1 < std::size(simd_pairs) ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);

  for (const auto& p : pts)
    std::printf(
        "%-6s %-5s b=%d %-5s W=%d F=%d : %10.3e cells/s  (%lld iters, "
        "%.2fs)\n",
        p.kernel, p.storage, p.brick, p.path, p.width, p.fields,
        p.cells_per_s, static_cast<long long>(p.iters), p.seconds);
  const double headline =
      find_cells_per_s(pts, "125pt", "brick", 8, "fast") /
      find_cells_per_s(pts, "125pt", "brick", 8, "naive");
  std::printf("8^3 125-point fast-path speedup: %.2fx\n", headline);
  const double simd_headline =
      find_cells_per_s(pts, "125pt", "brick", 8, "simd") /
      find_cells_per_s(pts, "125pt", "brick", 8, "fast");
  std::printf("8^3 125-point simd-vs-fast speedup (W=%d): %.2fx\n",
              simd::dispatch_width(), simd_headline);
  std::printf("micro_kernels: wrote %s\n", file.c_str());
  return 0;
}

}  // namespace
}  // namespace brickx

int main(int argc, char** argv) {
  std::string json_out;
  bool self_check = false;
  std::vector<char*> pass;
  pass.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--json-out=", 0) == 0) {
      json_out = a.substr(std::strlen("--json-out="));
    } else if (a == "--self-check") {
      self_check = true;
    } else {
      pass.push_back(argv[i]);
    }
  }
  if (self_check || !json_out.empty()) {
    bool ok = true;
    if (self_check) ok = brickx::run_self_check();
    if (!ok) return 1;
    if (!json_out.empty()) return brickx::write_json(json_out, self_check);
    return 0;
  }
  int bargc = static_cast<int>(pass.size());
  benchmark::Initialize(&bargc, pass.data());
  if (benchmark::ReportUnrecognizedArguments(bargc, pass.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
