// The kernel engine's AVX2 copy (DESIGN.md §16). Built only on x86-64 when
// the SIMD width is left to auto-detection, with -mavx2 -ffp-contract=off
// and no FMA: lanes are cells and AVX2 multiplies and adds round exactly
// like SSE2's, so this copy computes every byte the baseline copy does.
// kernel_engine.cc calls it only after __builtin_cpu_supports("avx2").
//
// Every function this file defines lives in brickx::stencil::avx2. A
// header inline it emits out of line under its own name (a DVec method,
// Brick::field_data) would be a second definition the linker may pick for
// the whole program, and would fault on a CPU without AVX2;
// scripts/check_isa_leaks.py (ctest simd_isa_portability) fails on any.

#include "stencil/kernel_engine_avx2.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>

#include "common/error.h"
#include "common/simd.h"
#include "stencil/kernel_engine.h"
#include "stencil/stencils.h"

#if !defined(__AVX2__) || defined(__FMA__)
#error "kernel_engine_avx2.cc is built with -mavx2 and without FMA"
#endif

namespace brickx::stencil::avx2 {

#include "stencil/kernel_engine_impl.h"

template <int BK, int BJ, int BI>
void engine_apply7(const BrickDecomp<3>& dec, const Brick<BK, BJ, BI>& out,
                   const Brick<BK, BJ, BI>& in, const Box<3>& out_cells) {
  engine_apply7_simd<BK, BJ, BI, kWidth>(dec, out, in, out_cells);
}

template <int BK, int BJ, int BI>
void engine_apply125(const BrickDecomp<3>& dec, const Brick<BK, BJ, BI>& out,
                     const Brick<BK, BJ, BI>& in, const Box<3>& out_cells) {
  engine_apply125_simd<BK, BJ, BI, kWidth>(dec, out, in, out_cells);
}

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

void rows7(const Box<3>& ib, const double* ibase, const Box<3>& ob,
           double* obase, const Box<3>& out_cells) {
  apply7_rows(ib, ibase, ob, obase, out_cells);
}

void rows125(const Box<3>& ib, const double* ibase, const Box<3>& ob,
             double* obase, const Box<3>& out_cells) {
  apply125_rows<kWidth>(ib, ibase, ob, obase, out_cells);
}

}  // namespace brickx::stencil::avx2
