// Differential property suite for the explicit-SIMD kernel tier
// (DESIGN.md §16): every width in {1, 2, 4, 8}, and the dispatched
// production entry points, must be bit-identical to the naive per-access
// kernels over the stencil_boxes.h matrix (expansion steps, overlap
// interior and shell, slabs, off-lane x clips, frame-edge corners, empty)
// × both stencils × both brick sizes × 1 or 3 AoSoA fields — widths the
// hardware lacks are compiler-emulated, so the whole matrix runs in one
// build. The span kernels run the same box matrix. Plus the ghost-zone
// check at every width, the runtime dispatch width, the alignment guard
// (simd_storage_reason) unit-tested for every width, the BrickStorage
// alignment contract, and the AoSoA per-field dispatch.

#include "stencil/kernel_engine.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/brick.h"
#include "stencil/stencils.h"
#include "stencil_boxes.h"

namespace brickx::stencil {
namespace {

template <int B, int W>
void apply_simd(const BrickDecomp<3>& dec, const Brick<B, B, B>& out,
                const Brick<B, B, B>& in, const Box<3>& box, bool use125) {
  if (use125) {
    engine_apply125_simd<B, B, B, W>(dec, out, in, box);
  } else {
    engine_apply7_simd<B, B, B, W>(dec, out, in, box);
  }
}

/// One box, one field count: the naive kernel's output (last of `fields`
/// AoSoA fields) against every width's, byte-compared over the whole
/// storage (catches stray writes as well as wrong values).
template <int B>
void expect_widths_identical(const Box<3>& box, bool use125, int fields,
                             std::uint64_t seed) {
  const std::int64_t g = B;
  BrickDecomp<3> dec(Vec3::fill(kTestDomain), g, Vec3::fill(B), surface3d());
  BrickInfo<3> info = dec.brick_info();
  BrickStorage sin = dec.allocate(fields), out_naive = dec.allocate(fields);
  Rng rng(seed);
  fill_random(dec, sin, rng);
  const std::int64_t off = (fields - 1) * dec.elements_per_brick();
  Brick<B, B, B> bin(&info, &sin, off), bnaive(&info, &out_naive, off);
  if (use125) {
    apply125_bricks_naive<B, B, B>(dec, bnaive, bin, box);
  } else {
    apply7_bricks_naive<B, B, B>(dec, bnaive, bin, box);
  }
  auto check = [&](int w, auto apply) {
    BrickStorage out = dec.allocate(fields);
    Brick<B, B, B> bout(&info, &out, off);
    apply(bout);
    EXPECT_EQ(std::memcmp(out.data(), out_naive.data(), out.bytes()), 0)
        << "B=" << B << " W=" << w << " use125=" << use125
        << " fields=" << fields << " seed=" << seed << " box=[" << box.lo[0]
        << "," << box.lo[1] << "," << box.lo[2] << ")-[" << box.hi[0] << ","
        << box.hi[1] << "," << box.hi[2] << ")";
  };
  // W = 1 is the scalar fast path; B = 4 at W = 8 exercises the
  // row-not-divisible fallback (4 % 8 != 0) — still bit-identical.
  check(1, [&](auto& o) { apply_simd<B, 1>(dec, o, bin, box, use125); });
  check(2, [&](auto& o) { apply_simd<B, 2>(dec, o, bin, box, use125); });
  check(4, [&](auto& o) { apply_simd<B, 4>(dec, o, bin, box, use125); });
  check(8, [&](auto& o) { apply_simd<B, 8>(dec, o, bin, box, use125); });
  // The production entry point, at the width this process dispatches to
  // (the AVX2 copy on an AVX2 host, else the baseline copy).
  check(simd::dispatch_width(), [&](auto& o) {
    if (use125) {
      engine_apply125<B, B, B>(dec, o, bin, box);
    } else {
      engine_apply7<B, B, B>(dec, o, bin, box);
    }
  });
}

template <int B>
void sweep_widths(bool use125) {
  std::uint64_t seed = use125 ? 5000 : 6000;
  for (const Box<3>& b : test_boxes<B>(use125, seed)) {
    ++seed;
    for (int fields : {1, 3})
      expect_widths_identical<B>(b, use125, fields, seed);
  }
}

class SimdWidths : public ::testing::TestWithParam<std::tuple<bool, int>> {};

TEST_P(SimdWidths, AllWidthsMatchNaiveBitExactly) {
  const bool use125 = std::get<0>(GetParam());
  if (std::get<1>(GetParam()) == 4) {
    sweep_widths<4>(use125);
  } else {
    sweep_widths<8>(use125);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, SimdWidths,
    ::testing::Combine(::testing::Bool(), ::testing::Values(4, 8)),
    [](const auto& i) {
      return std::string(std::get<0>(i.param) ? "p125" : "p7") + "_b" +
             std::to_string(std::get<1>(i.param));
    });

/// The dispatched span kernels against the naive ones over the same box
/// matrix, on a lexicographic frame the size of the bricks' allocated
/// frame (every box's halo stays inside it).
template <int B>
void sweep_spans(bool use125) {
  const std::int64_t g = B;
  const Box<3> frame{Vec3::fill(-g), Vec3::fill(kTestDomain + g)};
  const std::size_t n = static_cast<std::size_t>(frame.volume());
  std::vector<double> in(n);
  Rng rng(use125 ? 7000 : 8000);
  for (double& v : in) v = rng.uniform() * 2.0 - 1.0;
  for (const Box<3>& box : test_boxes<B>(use125, use125 ? 7100 : 8100)) {
    std::vector<double> fast(n), naive(n);
    if (use125) {
      engine_apply125_span(frame, in.data(), fast.data(), box);
      apply125_span_naive(frame, in.data(), naive.data(), box);
    } else {
      engine_apply7_span(frame, in.data(), fast.data(), box);
      apply7_span_naive(frame, in.data(), naive.data(), box);
    }
    EXPECT_EQ(std::memcmp(fast.data(), naive.data(), n * sizeof(double)), 0)
        << "span W=" << simd::dispatch_width() << " use125=" << use125
        << " box=[" << box.lo[0] << "," << box.lo[1] << "," << box.lo[2]
        << ")-[" << box.hi[0] << "," << box.hi[1] << "," << box.hi[2] << ")";
  }
}

TEST(SimdDispatch, SpanKernelsMatchNaiveBitExactly) {
  for (bool use125 : {false, true}) {
    sweep_spans<4>(use125);
    sweep_spans<8>(use125);
  }
}

// The production entry points run 4 lanes exactly when the width is left
// to auto-detection, the baseline build is narrower, and this CPU executes
// AVX2; a forced BRICKX_SIMD_WIDTH (the forced-scalar CI pass) keeps the
// compile-time width.
TEST(SimdDispatch, WidthFollowsHostUnlessForced) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  const bool avx2 = __builtin_cpu_supports("avx2");
#else
  const bool avx2 = false;
#endif
  const bool tier = !simd::kWidthForced && simd::kActiveWidth < 4 && avx2;
  EXPECT_EQ(simd::dispatch_width(), tier ? 4 : simd::kActiveWidth);
  EXPECT_STREQ(simd::dispatch_isa(), tier ? "avx2" : simd::isa_name());
}

/// `f` must raise Brick::at()'s ghost-zone error.
template <typename F>
void expect_ghost_zone_error(F&& f, const std::string& what) {
  try {
    f();
    ADD_FAILURE() << what << ": no error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "stencil reached past the allocated ghost zone"),
              std::string::npos)
        << what << ": " << e.what();
  }
}

/// A box one cell past the margin g - r reads one cell past the allocated
/// frame: every width and the default dispatch must raise the naive
/// kernels' error, whether the overreach is on all axes or on one face.
template <int B>
void expect_ghost_zone_checked(bool use125) {
  const std::int64_t g = B, r = use125 ? 2 : 1, n = kTestDomain;
  BrickDecomp<3> dec(Vec3::fill(n), g, Vec3::fill(B), surface3d());
  BrickInfo<3> info = dec.brick_info();
  BrickStorage sin = dec.allocate(1), sout = dec.allocate(1);
  Brick<B, B, B> bin(&info, &sin, 0), bout(&info, &sout, 0);
  const std::int64_t m = g - r + 1;
  std::vector<Box<3>> boxes = {Box<3>{Vec3::fill(-m), Vec3::fill(n + m)}};
  for (int a = 0; a < 3; ++a) {
    Box<3> lo{{0, 0, 0}, Vec3::fill(n)}, hi = lo;
    lo.lo[a] = -m;
    lo.hi[a] = -m + 1;  // a 1-cell slab on the low face
    hi.hi[a] = n + m;   // the domain grown past the high face
    boxes.push_back(lo);
    boxes.push_back(hi);
  }
  for (const Box<3>& box : boxes) {
    const std::string where =
        "B=" + std::to_string(B) + " use125=" + std::to_string(use125) +
        " box.lo=" + std::to_string(box.lo[0]) + "," +
        std::to_string(box.lo[1]) + "," + std::to_string(box.lo[2]);
    expect_ghost_zone_error(
        [&] { apply_simd<B, 1>(dec, bout, bin, box, use125); }, where + " W=1");
    expect_ghost_zone_error(
        [&] { apply_simd<B, 2>(dec, bout, bin, box, use125); }, where + " W=2");
    expect_ghost_zone_error(
        [&] { apply_simd<B, 4>(dec, bout, bin, box, use125); }, where + " W=4");
    expect_ghost_zone_error(
        [&] { apply_simd<B, 8>(dec, bout, bin, box, use125); }, where + " W=8");
    expect_ghost_zone_error(
        [&] {
          if (use125) {
            apply125_bricks<B, B, B>(dec, bout, bin, box);
          } else {
            apply7_bricks<B, B, B>(dec, bout, bin, box);
          }
        },
        where + " default");
  }
}

TEST(GhostZoneCheck, OneCellPastTheMarginThrowsAtEveryWidth) {
  for (bool use125 : {false, true}) {
    expect_ghost_zone_checked<4>(use125);
    expect_ghost_zone_checked<8>(use125);
  }
}

TEST(SimdWidths, ActiveWidthIsSupported) {
  const int w = simd::kActiveWidth;
  EXPECT_TRUE(w == 1 || w == 2 || w == 4 || w == 8) << w;
  EXPECT_TRUE(simd::kDetectedWidth == 1 || simd::kDetectedWidth == 2 ||
              simd::kDetectedWidth == 4 || simd::kDetectedWidth == 8);
  EXPECT_STRNE(simd::isa_name(), "");
}

// The guard predicate, width by width. A 64-byte-aligned base with
// lane-multiple strides is accepted at every width; each individual
// violation is diagnosed (and width 1 accepts anything — it IS the scalar
// path).
TEST(AlignmentGuard, EveryWidth) {
  alignas(64) static double buf[64];
  for (int w : {1, 2, 4, 8}) {
    SCOPED_TRACE(w);
    // Canonical 8^3 single-field brick geometry: always safe.
    EXPECT_EQ(simd_storage_reason(buf, 8 * 8 * 8 * sizeof(double), 0, 8, 0,
                                  w),
              nullptr);
    if (w == 1) {
      // Width 1 accepts even a misaligned base over a degenerate row.
      EXPECT_EQ(simd_storage_reason(reinterpret_cast<std::byte*>(buf) + 8,
                                    24, 0, 3, 1, w),
                nullptr);
      continue;
    }
    const std::size_t lane = static_cast<std::size_t>(w) * sizeof(double);
    // Brick row not a whole number of lanes (e.g. brick 4 at width 8).
    EXPECT_STREQ(simd_storage_reason(buf, 512, 0, w - 1, 0, w),
                 "brick row not a whole number of lanes");
    // Base misaligned by one double.
    EXPECT_STREQ(simd_storage_reason(reinterpret_cast<std::byte*>(buf) + 8,
                                     512, 0, w, 0, w),
                 "storage base not lane-aligned");
    // Brick stride leaves later bricks unaligned.
    EXPECT_STREQ(simd_storage_reason(buf, lane + 8, 0, w, 0, w),
                 "brick stride not a lane multiple");
    // Page padding granularity leaves later chunks unaligned.
    EXPECT_STREQ(simd_storage_reason(buf, 512, lane + 8, w, 0, w),
                 "chunk padding not a lane multiple");
    // AoSoA field offset inside the brick chunk must also be lane-aligned.
    EXPECT_STREQ(simd_storage_reason(buf, 512, 0, w, 1, w),
                 "field offset not a lane multiple");
  }
}

// Both storage backings must place the buffer base on the 64-byte
// boundary the aligned stores rely on, and 3-D brick geometries make
// every brick (and every AoSoA field slab) lane-aligned by construction.
TEST(AlignmentGuard, StorageContract) {
  for (int fields : {1, 2, 3}) {
    BrickDecomp<3> dec({16, 16, 16}, 8, {8, 8, 8}, surface3d());
    BrickStorage heap = dec.allocate(fields);
    BrickStorage mapped = dec.mmap_alloc(fields, 16384);
    for (BrickStorage* s : {&heap, &mapped}) {
      EXPECT_TRUE(simd::lane_aligned(s->data(), 8));
      EXPECT_EQ(s->brick_bytes() % simd::kAlign, 0u);
      for (std::int64_t b = 0; b < s->brick_count(); ++b)
        EXPECT_TRUE(simd::lane_aligned(s->brick(b), 8)) << b;
      for (int f = 0; f < fields; ++f)
        EXPECT_EQ(simd_storage_reason(s->data(), s->brick_bytes(),
                                      s->page_size(), 8,
                                      f * dec.elements_per_brick(), 8),
                  nullptr)
            << "field " << f;
    }
  }
}

// AoSoA dispatch: computing field f of a multi-field storage through the
// elem_offset accessor must be bit-identical to the same compute over a
// single-field storage, at every width.
TEST(SimdWidths, MultiFieldOffsetsMatchSingleField) {
  constexpr int B = 8;
  constexpr int kFields = 3;
  BrickDecomp<3> dec({16, 16, 16}, B, Vec3::fill(B), surface3d());
  BrickInfo<3> info = dec.brick_info();
  BrickStorage in_multi = dec.allocate(kFields);
  BrickStorage out_multi = dec.allocate(kFields);
  Rng rng(777);
  fill_random(dec, in_multi, rng);
  const Box<3> box{{0, 0, 0}, {16, 16, 16}};
  for (bool use125 : {false, true}) {
    for (int f = 0; f < kFields; ++f) {
      const std::int64_t off = f * dec.elements_per_brick();
      Brick<B, B, B> bin(&info, &in_multi, off);
      Brick<B, B, B> bout(&info, &out_multi, off);
      // Single-field copy of field f.
      BrickStorage in_one = dec.allocate(1), out_one = dec.allocate(1);
      for (std::int64_t b = 0; b < dec.total_brick_count(); ++b)
        std::memcpy(in_one.brick(b), in_multi.brick(b) + off,
                    static_cast<std::size_t>(dec.elements_per_brick()) *
                        sizeof(double));
      Brick<B, B, B> sin(&info, &in_one, 0), sout(&info, &out_one, 0);
      apply_simd<B, 2>(dec, bout, bin, box, use125);
      apply_simd<B, 2>(dec, sout, sin, box, use125);
      for (std::int64_t b = 0; b < dec.total_brick_count(); ++b)
        ASSERT_EQ(std::memcmp(out_multi.brick(b) + off, out_one.brick(b),
                              static_cast<std::size_t>(
                                  dec.elements_per_brick()) *
                                  sizeof(double)),
                  0)
            << "use125=" << use125 << " field=" << f << " brick=" << b;
    }
  }
}

}  // namespace
}  // namespace brickx::stencil
