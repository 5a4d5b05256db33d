#pragma once

// Internal to the kernel engine (DESIGN.md §16); not a public header.
//
// Entry points of the engine's AVX2 copy, kernel_engine_avx2.cc: the
// bodies of kernel_engine_impl.h compiled with -mavx2 -ffp-contract=off
// (no FMA), explicit-SIMD tiles at width kWidth. Only kernel_engine.cc
// calls them, and only once the CPU is known to execute AVX2; the public
// entry points of kernel_engine.h are the interface.

#include "common/vec.h"
#include "core/brick.h"
#include "core/decomp.h"

namespace brickx::stencil::avx2 {

/// Doubles per vector of the AVX2 copy's explicit-SIMD tiles.
inline constexpr int kWidth = 4;

/// engine_apply7_simd / engine_apply125_simd at width kWidth. The output
/// storage must pass simd_brick_reason(out, kWidth).
template <int BK, int BJ, int BI>
void engine_apply7(const BrickDecomp<3>& dec, const Brick<BK, BJ, BI>& out,
                   const Brick<BK, BJ, BI>& in, const Box<3>& out_cells);
template <int BK, int BJ, int BI>
void engine_apply125(const BrickDecomp<3>& dec, const Brick<BK, BJ, BI>& out,
                     const Brick<BK, BJ, BI>& in, const Box<3>& out_cells);

/// The array row cores behind engine_apply{7,125}_{array,span}: `ibase` /
/// `obase` are lexicographic slabs over the frames `ib` / `ob`.
void rows7(const Box<3>& ib, const double* ibase, const Box<3>& ob,
           double* obase, const Box<3>& out_cells);
void rows125(const Box<3>& ib, const double* ibase, const Box<3>& ob,
             double* obase, const Box<3>& out_cells);

}  // namespace brickx::stencil::avx2
