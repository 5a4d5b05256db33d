// Differential tests for the fast-path kernel engine (DESIGN.md §10):
// the engine must be bit-identical to the naive per-access kernels over
// every output box shape of stencil_boxes.h — each ghost-cell expansion
// step, the overlap interior and shell, 1-cell slabs, off-lane x clips,
// frame-edge corners, single-brick and empty — for both brick sizes, both
// stencils and 1 or 3 AoSoA fields. Storage buffers are compared
// byte-for-byte, which also proves the engine never writes a cell outside
// the output box.

#include "stencil/kernel_engine.h"

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"
#include "core/brick.h"
#include "core/cell_array.h"
#include "harness/experiment.h"
#include "result_bits.h"
#include "stencil/stencils.h"
#include "stencil_boxes.h"

namespace brickx::stencil {
namespace {

/// Default-dispatch engine vs naive kernel over `box`, computing the last of
/// `fields` AoSoA fields (elem_offset > 0 when fields > 1).
template <int B>
void expect_paths_identical(const Box<3>& box, bool use125, int fields,
                            std::uint64_t seed) {
  const std::int64_t g = B;  // one ghost brick layer
  BrickDecomp<3> dec(Vec3::fill(kTestDomain), g, Vec3::fill(B), surface3d());
  BrickInfo<3> info = dec.brick_info();
  BrickStorage sin = dec.allocate(fields);
  BrickStorage out_fast = dec.allocate(fields),
               out_naive = dec.allocate(fields);
  Rng rng(seed);
  fill_random(dec, sin, rng);
  const std::int64_t off = (fields - 1) * dec.elements_per_brick();
  Brick<B, B, B> bin(&info, &sin, off);
  Brick<B, B, B> bfast(&info, &out_fast, off), bnaive(&info, &out_naive, off);
  if (use125) {
    apply125_bricks<B, B, B>(dec, bfast, bin, box);
    apply125_bricks_naive<B, B, B>(dec, bnaive, bin, box);
  } else {
    apply7_bricks<B, B, B>(dec, bfast, bin, box);
    apply7_bricks_naive<B, B, B>(dec, bnaive, bin, box);
  }
  // Byte-compare whole storages: allocated zeroed, so any write outside
  // the output box or field (pruning or clipping bug) diverges just like
  // a wrong value would.
  EXPECT_EQ(std::memcmp(out_fast.data(), out_naive.data(), out_fast.bytes()),
            0)
      << "B=" << B << " use125=" << use125 << " fields=" << fields
      << " seed=" << seed << " box=[" << box.lo[0] << "," << box.lo[1] << ","
      << box.lo[2] << ")-[" << box.hi[0] << "," << box.hi[1] << ","
      << box.hi[2] << ")";
}

class KernelEngine
    : public ::testing::TestWithParam<std::tuple<bool, int>> {};

TEST_P(KernelEngine, FastMatchesNaiveBitExactly) {
  const bool use125 = std::get<0>(GetParam());
  const int brick = std::get<1>(GetParam());
  std::uint64_t seed = use125 ? 1000 : 2000;
  for (int fields : {1, 3}) {
    if (brick == 4) {
      for (const Box<3>& b : test_boxes<4>(use125, seed))
        expect_paths_identical<4>(b, use125, fields, ++seed);
    } else {
      for (const Box<3>& b : test_boxes<8>(use125, seed))
        expect_paths_identical<8>(b, use125, fields, ++seed);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelEngine,
    ::testing::Combine(::testing::Bool(), ::testing::Values(4, 8)),
    [](const auto& i) {
      return std::string(std::get<0>(i.param) ? "p125" : "p7") + "_b" +
             std::to_string(std::get<1>(i.param));
    });

TEST(BrickGridRange, MatchesExhaustiveScan) {
  BrickDecomp<3> dec({16, 16, 16}, 4, {4, 4, 4}, surface3d());
  const Vec3 B = dec.brick_dims();
  Rng rng(42);
  std::vector<Box<3>> boxes = {
      {{0, 0, 0}, {16, 16, 16}},  {{-4, -4, -4}, {20, 20, 20}},
      {{-3, 1, 5}, {2, 4, 17}},   {{0, 0, 0}, {1, 1, 1}},
      {{0, 0, 0}, {0, 0, 0}},     {{-20, -20, -20}, {-18, -18, -18}},
      {{30, 30, 30}, {40, 40, 40}}};
  for (int t = 0; t < 20; ++t) {
    Box<3> b;
    for (int a = 0; a < 3; ++a) {
      b.lo[a] = -6 + static_cast<std::int64_t>(rng.below(28));
      b.hi[a] = b.lo[a] + static_cast<std::int64_t>(rng.below(12));
    }
    boxes.push_back(b);
  }
  for (const Box<3>& box : boxes) {
    const Box<3> gr = brick_grid_range(dec, box);
    // Every allocated brick intersecting `box` is inside the range, and
    // every brick inside the range intersects `box`.
    for (std::int64_t s = 0; s < dec.total_brick_count(); ++s) {
      const Vec3 g = dec.grid_of(s);
      Box<3> cells{g * B, g * B + B};
      bool overlaps = true;
      for (int a = 0; a < 3; ++a)
        overlaps = overlaps && std::max(cells.lo[a], box.lo[a]) <
                                   std::min(cells.hi[a], box.hi[a]);
      EXPECT_EQ(overlaps, gr.contains(g))
          << "brick " << s << " box lo=" << box.lo[0] << "," << box.lo[1]
          << "," << box.lo[2];
    }
  }
}

TEST(ArrayKernels, FastMatchesNaiveBitExactly) {
  Rng rng(7);
  const Box<3> frame{{-5, -5, -5}, {15, 15, 15}};
  CellArray3 in(frame);
  for_each(frame, [&](const Vec3& p) { in.at(p) = rng.uniform() - 0.5; });
  std::vector<Box<3>> boxes = {{{0, 0, 0}, {10, 10, 10}},
                               {{-3, -3, -3}, {13, 13, 13}},
                               {{1, 2, 3}, {4, 9, 6}},
                               {{0, 0, 0}, {0, 0, 0}}};
  // The register-blocked 125-point kernel runs 8-cell strips over row
  // pairs: x extents below, at and above the strip width (scalar tail
  // only, strips only, both) and odd y extents (an unpaired last row).
  for (std::int64_t nx : {1, 5, 7, 8, 9, 13, 16})
    for (std::int64_t ny : {1, 2, 3, 7}) {
      const std::int64_t x0 = nx == 16 ? -3 : -1;
      boxes.push_back(Box<3>{{x0, 2, -2}, {x0 + nx, 2 + ny, 1}});
    }
  for (int t = 0; t < 10; ++t) {
    Box<3> b;
    for (int a = 0; a < 3; ++a) {
      b.lo[a] = -3 + static_cast<std::int64_t>(rng.below(14));
      b.hi[a] = b.lo[a] + static_cast<std::int64_t>(
                              rng.below(static_cast<std::uint64_t>(
                                  13 - b.lo[a] + 1)));
    }
    boxes.push_back(b);
  }
  const std::size_t bytes = in.raw().size() * sizeof(double);
  for (const Box<3>& box : boxes) {
    for (int use125 = 0; use125 < 2; ++use125) {
      CellArray3 of(frame), on(frame), sf(frame), sn(frame);
      if (use125) {
        apply125_array(in, of, box);
        apply125_array_naive(in, on, box);
        apply125_span(frame, in.raw().data(), sf.raw().data(), box);
        apply125_span_naive(frame, in.raw().data(), sn.raw().data(), box);
      } else {
        apply7_array(in, of, box);
        apply7_array_naive(in, on, box);
        apply7_span(frame, in.raw().data(), sf.raw().data(), box);
        apply7_span_naive(frame, in.raw().data(), sn.raw().data(), box);
      }
      const std::string where =
          "use125=" + std::to_string(use125) + " box=[" +
          std::to_string(box.lo[0]) + "," + std::to_string(box.lo[1]) + "," +
          std::to_string(box.lo[2]) + ")-[" + std::to_string(box.hi[0]) +
          "," + std::to_string(box.hi[1]) + "," + std::to_string(box.hi[2]) +
          ")";
      EXPECT_EQ(std::memcmp(of.raw().data(), on.raw().data(), bytes), 0)
          << "array " << where;
      EXPECT_EQ(std::memcmp(sf.raw().data(), sn.raw().data(), bytes), 0)
          << "span " << where;
      EXPECT_EQ(std::memcmp(of.raw().data(), sn.raw().data(), bytes), 0)
          << "array vs span " << where;
    }
  }
}

TEST(EvolveReference, HoistedScratchMatchesPerStepRebuild) {
  // Re-run the pre-hoist algorithm (fresh padded array + wrap indexing
  // every step) and require bit-equality with the hoisted implementation.
  for (int use125 = 0; use125 < 2; ++use125) {
    const Box<3> box{{0, 0, 0}, {6, 6, 6}};
    const Vec3 ext = box.extent();
    const int r = use125 ? 2 : 1;
    CellArray3 hoisted(box), rebuilt(box);
    Rng rng(99);
    for_each(box, [&](const Vec3& p) {
      hoisted.at(p) = rng.uniform();
    });
    rebuilt.raw() = hoisted.raw();
    const int steps = 5;
    evolve_reference(hoisted, steps, use125 != 0);
    for (int s = 0; s < steps; ++s) {
      CellArray3 padded(
          Box<3>{box.lo - Vec3::fill(r), box.hi + Vec3::fill(r)});
      for_each(padded.box(), [&](const Vec3& p) {
        Vec3 q = p - box.lo;
        for (int a = 0; a < 3; ++a)
          q[a] = ((q[a] % ext[a]) + ext[a]) % ext[a];
        padded.at(p) = rebuilt.at(q + box.lo);
      });
      if (use125) {
        apply125_array_naive(padded, rebuilt, box);
      } else {
        apply7_array_naive(padded, rebuilt, box);
      }
    }
    EXPECT_EQ(std::memcmp(hoisted.raw().data(), rebuilt.raw().data(),
                          hoisted.raw().size() * sizeof(double)),
              0)
        << "use125=" << use125;
  }
}

TEST(HarnessDispatch, NaiveAndFastRunsProduceIdenticalResults) {
  // End-to-end guard: a full harness run (exchange + ghost-cell expansion
  // + validation against the global reference) must be invariant to the
  // kernel path — virtual-time results depend on the model, not on
  // wall-clock kernel speed, and the computed data is bit-identical.
  auto expect_same = [](harness::Config cfg) {
    cfg.validate = true;
    cfg.naive_kernels = false;
    const harness::Result fast = harness::run(cfg);
    cfg.naive_kernels = true;
    const harness::Result naive = harness::run(cfg);
    EXPECT_TRUE(fast.validated);
    EXPECT_TRUE(naive.validated);
    EXPECT_EQ(harness::timing_bits(fast), harness::timing_bits(naive));
  };
  for (bool use125 : {false, true}) {
    SCOPED_TRACE(use125 ? "125pt" : "7pt");
    harness::Config cfg;
    cfg.rank_dims = {2, 1, 1};
    cfg.subdomain = {8, 8, 8};
    cfg.brick = 4;
    cfg.ghost = 4;
    cfg.use125 = use125;
    cfg.method = harness::Method::Layout;
    cfg.timesteps = 4;
    expect_same(cfg);
    // Shaped like the executed benchmark runs: brick 8 with a full ghost
    // brick, 2 AoSoA fields, two ranks per node over shared memory, with
    // the overlap scheduler's interior/shell pieces and without.
    for (bool overlap : {false, true}) {
      SCOPED_TRACE(overlap ? "overlap" : "bulk");
      harness::Config ex;
      ex.rank_dims = {2, 1, 1};
      ex.subdomain = {16, 16, 16};
      ex.brick = 8;
      ex.ghost = 8;
      ex.fields = 2;
      ex.machine.net.ranks_per_node = 2;
      ex.transport = transport::Kind::Shm;
      ex.use125 = use125;
      ex.method = harness::Method::Layout;
      ex.overlap = overlap;
      ex.timesteps = use125 ? 8 : 16;  // two exchange batches
      expect_same(ex);
    }
  }
}

}  // namespace
}  // namespace brickx::stencil
