#include "stencil/kernel_engine.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>

#include "common/error.h"
#include "common/simd.h"
#include "stencil/kernel_engine_avx2.h"
#include "stencil/stencils.h"

namespace brickx::stencil {

#include "stencil/kernel_engine_impl.h"

namespace {

/// Floor division for possibly-negative cell coordinates (ghost cells have
/// negative coordinates; C++ integer division truncates toward zero).
constexpr std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  return a >= 0 ? a / b : -((-a + b - 1) / b);
}

#if BRICKX_AVX2_TIER
/// True when this process runs the engine's AVX2 copy: the CPU executes
/// AVX2 and the build's own width is narrower (simd::dispatch_width,
/// resolved once per process).
bool avx2_cpu() {
  static const bool on = simd::dispatch_width() != simd::kActiveWidth;
  return on;
}

/// The brick entry points also need storage that takes width-4 aligned
/// stores; otherwise the baseline copy runs, exactly as in a build without
/// the AVX2 copy (its own alignment guard and diagnostic included).
template <int BK, int BJ, int BI>
bool avx2_bricks(const Brick<BK, BJ, BI>& out) {
  return avx2_cpu() && simd_brick_reason(out, avx2::kWidth) == nullptr;
}
#endif

/// The array row cores of whichever copy this process runs.
void rows7(const Box<3>& ib, const double* ibase, const Box<3>& ob,
           double* obase, const Box<3>& out_cells) {
#if BRICKX_AVX2_TIER
  if (avx2_cpu()) return avx2::rows7(ib, ibase, ob, obase, out_cells);
#endif
  apply7_rows(ib, ibase, ob, obase, out_cells);
}

void rows125(const Box<3>& ib, const double* ibase, const Box<3>& ob,
             double* obase, const Box<3>& out_cells) {
#if BRICKX_AVX2_TIER
  if (avx2_cpu()) return avx2::rows125(ib, ibase, ob, obase, out_cells);
#endif
  apply125_rows<simd::kActiveWidth>(ib, ibase, ob, obase, out_cells);
}

}  // namespace

Box<3> brick_grid_range(const BrickDecomp<3>& dec, const Box<3>& out_cells) {
  Box<3> r{};
  if (out_cells.empty()) return r;  // default box is empty
  const Vec3& B = dec.brick_dims();
  const Vec3& n = dec.brick_grid();
  const Vec3& gb = dec.ghost_layers();
  for (int a = 0; a < 3; ++a) {
    r.lo[a] = std::max(floor_div(out_cells.lo[a], B[a]), -gb[a]);
    r.hi[a] = std::min(floor_div(out_cells.hi[a] - 1, B[a]) + 1, n[a] + gb[a]);
  }
  return r;
}

const char* simd_storage_reason(const void* base, std::size_t brick_bytes,
                                std::size_t page_bytes,
                                std::int64_t row_elems,
                                std::int64_t elem_offset, int w) {
  if (w == 1) return nullptr;
  const std::size_t lane = static_cast<std::size_t>(w) * sizeof(double);
  if (row_elems % w != 0) return "brick row not a whole number of lanes";
  if (!simd::lane_aligned(base, w)) return "storage base not lane-aligned";
  if (brick_bytes % lane != 0) return "brick stride not a lane multiple";
  if (page_bytes % lane != 0) return "chunk padding not a lane multiple";
  if (elem_offset % w != 0) return "field offset not a lane multiple";
  return nullptr;
}

template <int BK, int BJ, int BI>
void engine_apply7(const BrickDecomp<3>& dec, const Brick<BK, BJ, BI>& out,
                   const Brick<BK, BJ, BI>& in, const Box<3>& out_cells) {
#if BRICKX_AVX2_TIER
  if (avx2_bricks(out))
    return avx2::engine_apply7<BK, BJ, BI>(dec, out, in, out_cells);
#endif
  engine_apply7_simd<BK, BJ, BI, simd::kActiveWidth>(dec, out, in, out_cells);
}

template <int BK, int BJ, int BI>
void engine_apply125(const BrickDecomp<3>& dec, const Brick<BK, BJ, BI>& out,
                     const Brick<BK, BJ, BI>& in, const Box<3>& out_cells) {
#if BRICKX_AVX2_TIER
  if (avx2_bricks(out))
    return avx2::engine_apply125<BK, BJ, BI>(dec, out, in, out_cells);
#endif
  engine_apply125_simd<BK, BJ, BI, simd::kActiveWidth>(dec, out, in,
                                                       out_cells);
}

// Every supported width is instantiated for both brick sizes so one build
// can differentially test widths the dispatch default would never pick.
#define BRICKX_INSTANTIATE_SIMD_W(B, W)                                     \
  template void engine_apply7_simd<B, B, B, W>(                             \
      const BrickDecomp<3>&, const Brick<B, B, B>&, const Brick<B, B, B>&,  \
      const Box<3>&);                                                       \
  template void engine_apply125_simd<B, B, B, W>(                           \
      const BrickDecomp<3>&, const Brick<B, B, B>&, const Brick<B, B, B>&,  \
      const Box<3>&);

#define BRICKX_INSTANTIATE_SIMD(B) \
  BRICKX_INSTANTIATE_SIMD_W(B, 1)  \
  BRICKX_INSTANTIATE_SIMD_W(B, 2)  \
  BRICKX_INSTANTIATE_SIMD_W(B, 4)  \
  BRICKX_INSTANTIATE_SIMD_W(B, 8)

BRICKX_INSTANTIATE_SIMD(4)
BRICKX_INSTANTIATE_SIMD(8)

#undef BRICKX_INSTANTIATE_SIMD
#undef BRICKX_INSTANTIATE_SIMD_W

template void engine_apply7<4, 4, 4>(const BrickDecomp<3>&,
                                     const Brick<4, 4, 4>&,
                                     const Brick<4, 4, 4>&, const Box<3>&);
template void engine_apply7<8, 8, 8>(const BrickDecomp<3>&,
                                     const Brick<8, 8, 8>&,
                                     const Brick<8, 8, 8>&, const Box<3>&);
template void engine_apply125<4, 4, 4>(const BrickDecomp<3>&,
                                       const Brick<4, 4, 4>&,
                                       const Brick<4, 4, 4>&, const Box<3>&);
template void engine_apply125<8, 8, 8>(const BrickDecomp<3>&,
                                       const Brick<8, 8, 8>&,
                                       const Brick<8, 8, 8>&, const Box<3>&);

void engine_apply7_array(const CellArray3& in, CellArray3& out,
                         const Box<3>& out_cells) {
  rows7(in.box(), in.raw().data(), out.box(), out.raw().data(), out_cells);
}

void engine_apply125_array(const CellArray3& in, CellArray3& out,
                           const Box<3>& out_cells) {
  rows125(in.box(), in.raw().data(), out.box(), out.raw().data(), out_cells);
}

void engine_apply7_span(const Box<3>& frame, const double* in, double* out,
                        const Box<3>& out_cells) {
  rows7(frame, in, frame, out, out_cells);
}

void engine_apply125_span(const Box<3>& frame, const double* in, double* out,
                          const Box<3>& out_cells) {
  rows125(frame, in, frame, out, out_cells);
}

}  // namespace brickx::stencil
