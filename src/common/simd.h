#pragma once

#include <cstddef>
#include <cstdint>

/// Compile-time SIMD width selection (doubles per vector).
///
/// The explicit-SIMD kernel tier (DESIGN.md §16) is built on GCC/Clang
/// vector extensions rather than per-ISA intrinsics: a vector of W doubles
/// compiles on *any* target (the compiler emulates widths the hardware
/// lacks), so every width in {1, 2, 4, 8} is instantiable — and
/// differentially testable — in a single build, on any machine.
///
/// Compile-time width resolution, in priority order:
///   1. `-DBRICKX_SIMD_WIDTH=N` (the CMake cache option of the same name),
///      the forced override the scalar-fallback CI pass uses;
///   2. the target ISA the translation unit is compiled for:
///      AVX-512 -> 8, AVX/AVX2 -> 4, SSE2/NEON -> 2, anything else -> 1.
///
/// The detected width is kept separately from the active one so build
/// provenance (BENCH_kernels.json) can record both. At run time the kernel
/// engine may go wider than kActiveWidth: see dispatch_width().

#if defined(__AVX512F__)
#define BRICKX_SIMD_DETECTED 8
#elif defined(__AVX2__) || defined(__AVX__)
#define BRICKX_SIMD_DETECTED 4
#elif defined(__SSE2__) || defined(__x86_64__) || defined(__aarch64__) || \
    defined(__ARM_NEON)
#define BRICKX_SIMD_DETECTED 2
#else
#define BRICKX_SIMD_DETECTED 1
#endif

#if defined(BRICKX_SIMD_WIDTH)
#define BRICKX_SIMD_FORCED 1
#else
#define BRICKX_SIMD_FORCED 0
#define BRICKX_SIMD_WIDTH BRICKX_SIMD_DETECTED
#endif

static_assert(BRICKX_SIMD_WIDTH == 1 || BRICKX_SIMD_WIDTH == 2 ||
                  BRICKX_SIMD_WIDTH == 4 || BRICKX_SIMD_WIDTH == 8,
              "BRICKX_SIMD_WIDTH must be 1, 2, 4 or 8 (doubles per vector)");

namespace brickx::simd {

/// Doubles per vector the kernel tier dispatches to by default.
inline constexpr int kActiveWidth = BRICKX_SIMD_WIDTH;

/// Width the target ISA natively supports (ignores the override).
inline constexpr int kDetectedWidth = BRICKX_SIMD_DETECTED;

/// True when `-DBRICKX_SIMD_WIDTH` forced kActiveWidth; a forced width
/// also turns runtime dispatch off.
inline constexpr bool kWidthForced = BRICKX_SIMD_FORCED;

/// Storage alignment (bytes) that satisfies every supported width — one
/// AVX-512 vector. BrickStorage heap allocations honor this.
inline constexpr std::size_t kAlign = 64;

/// Name of the vector ISA the baseline build targets (provenance).
const char* isa_name();

/// Doubles per vector the kernel engine's production entry points run at
/// in this process (DESIGN.md §16). 4 when the build carries the engine's
/// AVX2 copy (x86-64, width not forced, baseline narrower than 4) and the
/// CPU executes AVX2; kActiveWidth otherwise. Resolved once per process.
int dispatch_width();

/// ISA of dispatch_width(): "avx2" when the AVX2 copy runs, else
/// isa_name().
const char* dispatch_isa();

/// True when `p` can be the base of width-`w` aligned vector stores.
inline bool lane_aligned(const void* p, int w) {
  return reinterpret_cast<std::uintptr_t>(p) %
             (static_cast<std::size_t>(w) * sizeof(double)) ==
         0;
}

/// A vector of W doubles. Thin wrapper over the compiler vector type; the
/// kernels use it so the 7/125-point expressions keep exactly the shape of
/// their scalar counterparts (same adds, same order, same FMA-contraction
/// opportunities) with one cell per lane.
///
/// Only full specializations exist (widths 1/2/4/8): GCC does not apply a
/// `vector_size` attribute whose operand depends on a template parameter
/// (the typedef silently degrades to plain `double`), so each width's
/// vector typedef must be spelled with a literal byte count.
template <int W>
struct DVec;

/// `V` is the natural (lane-aligned) vector; `VU` the same vector with
/// alignment relaxed to that of a bare double, because the halo-tile rows
/// the kernels read are not lane-aligned (row stride B + 2R). `may_alias`
/// makes the casts from the underlying double arrays well-defined.
#define BRICKX_SIMD_DVEC(W, BYTES)                                        \
  template <>                                                             \
  struct DVec<W> {                                                        \
    typedef double V __attribute__((vector_size(BYTES), may_alias));      \
    typedef double VU __attribute__((vector_size(BYTES),                  \
                                     aligned(alignof(double)),            \
                                     may_alias));                         \
                                                                          \
    V v;                                                                  \
                                                                          \
    static DVec broadcast(double x) {                                     \
      DVec r;                                                             \
      for (int l = 0; l < W; ++l) r.v[l] = x;                             \
      return r;                                                           \
    }                                                                     \
    static DVec zero() { return DVec{V{}}; }                              \
    /* Unaligned load of W consecutive doubles. */                        \
    static DVec loadu(const double* p) {                                  \
      return DVec{*reinterpret_cast<const VU*>(p)};                       \
    }                                                                     \
    /* Aligned store; `p` must satisfy lane_aligned(p, W). */             \
    void store(double* p) const { *reinterpret_cast<V*>(p) = v; }         \
    /* Unaligned store of W consecutive doubles. */                       \
    void storeu(double* p) const { *reinterpret_cast<VU*>(p) = v; }       \
                                                                          \
    double operator[](int l) const { return v[l]; }                       \
    DVec& operator+=(DVec o) {                                            \
      v += o.v;                                                           \
      return *this;                                                       \
    }                                                                     \
    friend DVec operator+(DVec a, DVec b) { return DVec{a.v + b.v}; }     \
    friend DVec operator*(DVec a, DVec b) { return DVec{a.v * b.v}; }     \
  };

BRICKX_SIMD_DVEC(2, 16)
BRICKX_SIMD_DVEC(4, 32)
BRICKX_SIMD_DVEC(8, 64)

#undef BRICKX_SIMD_DVEC

/// Scalar specialization: the same API at width 1, so width-templated
/// kernels degrade to plain scalar code with no masked tail logic.
template <>
struct DVec<1> {
  double v;

  static DVec broadcast(double x) { return DVec{x}; }
  static DVec zero() { return DVec{0.0}; }
  static DVec loadu(const double* p) { return DVec{*p}; }
  void store(double* p) const { *p = v; }
  void storeu(double* p) const { *p = v; }

  double operator[](int) const { return v; }
  DVec& operator+=(DVec o) {
    v += o.v;
    return *this;
  }
  friend DVec operator+(DVec a, DVec b) { return DVec{a.v + b.v}; }
  friend DVec operator*(DVec a, DVec b) { return DVec{a.v * b.v}; }
};

}  // namespace brickx::simd
