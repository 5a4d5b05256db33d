#include "common/simd.h"

namespace brickx::simd {

const char* isa_name() {
#if defined(__AVX512F__)
  return "avx512f";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__AVX__)
  return "avx";
#elif defined(__SSE2__) || defined(__x86_64__)
  return "sse2";
#elif defined(__aarch64__) || defined(__ARM_NEON)
  return "neon";
#else
  return "generic";
#endif
}

int dispatch_width() {
#if BRICKX_AVX2_TIER
  // 4 is the AVX2 copy's width (stencil/kernel_engine_avx2.h). The build
  // defines BRICKX_AVX2_TIER only when the width is not forced.
  static const int w = [] {
    __builtin_cpu_init();
    return kActiveWidth < 4 && __builtin_cpu_supports("avx2") ? 4
                                                              : kActiveWidth;
  }();
  return w;
#else
  return kActiveWidth;
#endif
}

const char* dispatch_isa() {
  return dispatch_width() != kActiveWidth ? "avx2" : isa_name();
}

}  // namespace brickx::simd
