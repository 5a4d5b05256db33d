#pragma once

// Output-box matrix shared by the kernel-engine differential suites
// (stencil_kernel_test, stencil_simd_test). Domain 16^3, ghost width g = B
// (one ghost brick layer), so the allocated frame is [-g, 16 + g) per axis.
// The boxes cover every shape the harness hands the engine — each ghost-cell
// expansion step, the overlap interior and its shell slabs — plus shapes
// that stress clipping: 1-cell slabs, x clips off lane boundaries,
// frame-edge corners, empty and random boxes.

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/vec.h"
#include "core/decomp.h"
#include "stencil/stencils.h"

namespace brickx::stencil {

inline constexpr std::int64_t kTestDomain = 16;

/// Fill every allocated brick of `store` (all fields) with reproducible
/// pseudo-random values, including the ghost frame.
inline void fill_random(const BrickDecomp<3>& dec, BrickStorage& store,
                        Rng& rng) {
  for (std::int64_t b = 0; b < dec.total_brick_count(); ++b) {
    double* p = store.brick(b);
    for (std::int64_t e = 0; e < dec.elements_per_brick() * store.fields();
         ++e)
      p[e] = rng.uniform() * 2.0 - 1.0;
  }
}

/// Boxes exercising every engine path for brick size `B`. Radius-r reads
/// from cells in a box must stay inside the allocated frame, so no box
/// reaches past the margin g - r.
template <int B>
std::vector<Box<3>> test_boxes(bool use125, std::uint64_t seed) {
  const std::int64_t n = kTestDomain, g = B, r = use125 ? 2 : 1;
  const Vec3 N = Vec3::fill(n);
  const Box<3> domain{{0, 0, 0}, N};
  std::vector<Box<3>> boxes;
  // Full domain: every brick is full and interior.
  boxes.push_back(domain);
  // Every step of the ghost-cell expansion schedule. Step 0 (margin
  // g - r) clips the frame-edge ghost bricks.
  for (std::int64_t s = 0; s < steps_per_exchange(g, r); ++s)
    boxes.push_back(expansion_output_box<3>(N, g, r, s));
  // The overlap scheduler's pieces: interior [r, N - r) and the shell
  // slabs around it inside the step-0 expansion box.
  const Box<3> interior{Vec3::fill(r), N - Vec3::fill(r)};
  boxes.push_back(interior);
  for (const Box<3>& b :
       shell_boxes<3>(expansion_output_box<3>(N, g, r, 0), interior))
    boxes.push_back(b);
  // 1-cell slabs on each axis: mid-brick, on a brick's first and last
  // cell, and on the outermost computable ghost cell.
  for (int a = 0; a < 3; ++a)
    for (std::int64_t c : {std::int64_t{5}, std::int64_t{B},
                           std::int64_t{B - 1}, -(g - r)}) {
      Box<3> slab = domain;
      slab.lo[a] = c;
      slab.hi[a] = c + 1;
      boxes.push_back(slab);
    }
  // x clips whose ends are not lane multiples (widths 2/4/8).
  for (const auto& [lo, hi] :
       {std::pair<std::int64_t, std::int64_t>{1, 7}, {3, 13}, {5, 6},
        {-(g - r), 3}}) {
    Box<3> b = domain;
    b.lo[0] = lo;
    b.hi[0] = hi;
    boxes.push_back(b);
  }
  // Frame-edge corner: one cell at the margin g - r on every axis, and
  // the matching far corner.
  boxes.push_back(Box<3>{Vec3::fill(-(g - r)), Vec3::fill(-(g - r) + 1)});
  boxes.push_back(Box<3>{Vec3::fill(n + g - r - 1), Vec3::fill(n + g - r)});
  // Single brick, interior; single cell (clipped everywhere).
  boxes.push_back(Box<3>{{B, B, B}, {2 * B, 2 * B, 2 * B}});
  boxes.push_back(Box<3>{{3, 5, 7}, {4, 6, 8}});
  // Empty boxes: zero-extent and inverted.
  boxes.push_back(Box<3>{{0, 0, 0}, {0, 0, 0}});
  boxes.push_back(Box<3>{{5, 5, 5}, {5, 9, 9}});
  // Randomized clipped boxes (odd offsets, partial bricks, some reaching
  // into the ghost frame).
  Rng rng(seed);
  for (int t = 0; t < 8; ++t) {
    Box<3> b;
    for (int a = 0; a < 3; ++a) {
      const std::int64_t span = n + 2 * (g - r);
      const std::int64_t lo =
          -(g - r) + static_cast<std::int64_t>(
                         rng.below(static_cast<std::uint64_t>(span)));
      const std::int64_t len = 1 + static_cast<std::int64_t>(rng.below(
                                       static_cast<std::uint64_t>(
                                           n + (g - r) - lo)));
      b.lo[a] = lo;
      b.hi[a] = lo + len;
    }
    boxes.push_back(b);
  }
  return boxes;
}

}  // namespace brickx::stencil
