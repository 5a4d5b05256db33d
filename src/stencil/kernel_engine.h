#pragma once

#include <cstddef>
#include <cstdint>

#include "common/simd.h"
#include "common/vec.h"
#include "core/brick.h"
#include "core/cell_array.h"
#include "core/decomp.h"

namespace brickx::stencil {

/// The fast-path stencil kernel engine (DESIGN.md §10).
///
/// Three structural optimizations over the naive per-access kernels, all
/// bit-identical to them (the per-cell accumulation order — dz slowest,
/// dx fastest — is preserved exactly):
///
///  1. Brick-range pruning: the brick-grid range intersecting `out_cells`
///     is derived arithmetically, so only overlapping bricks are visited
///     instead of every allocated brick of the decomposition.
///  2. Halo tiles for every brick: each visited brick resolves its
///     neighbor-brick base pointers once (BrickInfo::adjacent), gathers
///     the part of its radius-r halo its stencil footprint reads into a
///     contiguous stack tile, and runs flat `double* __restrict` loops —
///     no proxy chain, no per-access adjacency branch. A brick fully
///     covered by `out_cells` gathers the whole halo and runs constant
///     trip counts. A clipped or frame-edge brick gathers only the rows
///     its clip's footprint reads (y/z rows [lo - r, hi + r), face
///     neighbors only for the 7-point star), runs the same width-W tile
///     compute over the clipped (k, j) rows, and stores only the clipped
///     x range. Every neighbor a footprint needs must be allocated; the
///     gather raises Brick::at()'s ghost-zone error otherwise.
///  3. Row-pointer array kernels: the lexicographic (CellArray3) kernels
///     hoist per-(z, y) row base pointers out of the contiguous x loop;
///     the 125-point one keeps 8-cell × 2-row strips in simd::DVec
///     accumulators across all 125 taps, with a scalar tail in the same
///     tap order.

/// Half-open brick-grid range [lo, hi) of bricks intersecting `out_cells`
/// (cell coordinates; ghost coordinates allowed), clamped to the allocated
/// grid [-gb, n + gb). Empty when `out_cells` is empty or lies entirely
/// outside the allocated frame.
Box<3> brick_grid_range(const BrickDecomp<3>& dec, const Box<3>& out_cells);

/// Fast 7-point / 125-point brick kernels; drop-in replacements for the
/// naive apply7_bricks / apply125_bricks bodies (stencils.cc delegates
/// here). Bit-identical to the naive kernels by construction; verified by
/// tests/stencil_kernel_test.cc. These dispatch every tile to the
/// explicit-SIMD path at simd::dispatch_width(): the engine's AVX2 copy on
/// a CPU with AVX2, else simd::kActiveWidth (DESIGN.md §16). The
/// forced-width *_simd variants below run the baseline copy at every width
/// for differential testing and the width axis of BENCH_kernels.json.
template <int BK, int BJ, int BI>
void engine_apply7(const BrickDecomp<3>& dec, const Brick<BK, BJ, BI>& out,
                   const Brick<BK, BJ, BI>& in, const Box<3>& out_cells);

template <int BK, int BJ, int BI>
void engine_apply125(const BrickDecomp<3>& dec, const Brick<BK, BJ, BI>& out,
                     const Brick<BK, BJ, BI>& in, const Box<3>& out_cells);

/// --- Explicit-SIMD tier (DESIGN.md §16) ---
///
/// Forced-width engine entry points: identical structure to engine_apply7 /
/// engine_apply125, but the tile compute runs tap-outer /
/// lane-inner vector loops of `W` doubles (one output cell per lane, so
/// each cell's dz-dy-dx accumulation order — and therefore every result
/// bit — matches the naive kernels). `W == 1` is exactly the scalar fast
/// path. When the storage cannot support width-W aligned stores
/// (simd_storage_reason below), full bricks fall back to the scalar fast
/// tiles after a one-line diagnostic (once per process) — never UB.
/// Clipped bricks store through an aligned row buffer, so they run at
/// width W regardless (width 1 when W does not divide the brick row).
/// Instantiated for brick sizes {4, 8}^3 at widths {1, 2, 4, 8}; widths
/// the hardware lacks are compiler-emulated, so all are testable anywhere.
template <int BK, int BJ, int BI, int W>
void engine_apply7_simd(const BrickDecomp<3>& dec,
                        const Brick<BK, BJ, BI>& out,
                        const Brick<BK, BJ, BI>& in, const Box<3>& out_cells);

template <int BK, int BJ, int BI, int W>
void engine_apply125_simd(const BrickDecomp<3>& dec,
                          const Brick<BK, BJ, BI>& out,
                          const Brick<BK, BJ, BI>& in,
                          const Box<3>& out_cells);

/// The alignment guard's predicate, exposed for unit tests: why width-`w`
/// vector stores into brick rows of `row_elems` doubles at field element
/// offset `elem_offset` over a buffer at `base` (brick stride
/// `brick_bytes`, chunk padding granularity `page_bytes`, 0 when packed)
/// are NOT safe — or nullptr when they are. `w == 1` is always safe.
const char* simd_storage_reason(const void* base, std::size_t brick_bytes,
                                std::size_t page_bytes,
                                std::int64_t row_elems,
                                std::int64_t elem_offset, int w);

/// Convenience wrapper over a Brick accessor's actual storage.
template <int BK, int BJ, int BI>
const char* simd_brick_reason(const Brick<BK, BJ, BI>& br, int w) {
  return simd_storage_reason(br.storage().data(), br.storage().brick_bytes(),
                             br.storage().page_size(), BI, br.elem_offset(),
                             w);
}

/// Fast lexicographic-array kernels (row-pointer inner loops; the
/// 125-point kernel register-blocked at simd::dispatch_width()). `in` must
/// cover `out_cells` expanded by the stencil radius; `out` must cover
/// `out_cells`.
void engine_apply7_array(const CellArray3& in, CellArray3& out,
                         const Box<3>& out_cells);
void engine_apply125_array(const CellArray3& in, CellArray3& out,
                           const Box<3>& out_cells);

/// Span variants of the array kernels for multi-field slabs (ArrayFields):
/// `in` and `out` are both `frame`-shaped lexicographic buffers (axis 0
/// fastest) that do NOT own their memory — e.g. one field slab of an
/// ArrayFields allocation. Same row-pointer cores as the CellArray3
/// kernels, so bit-identical to them (and to the naive kernels) over the
/// same boxes.
void engine_apply7_span(const Box<3>& frame, const double* in, double* out,
                        const Box<3>& out_cells);
void engine_apply125_span(const Box<3>& frame, const double* in, double* out,
                          const Box<3>& out_cells);

}  // namespace brickx::stencil
