// Per-ISA builds of the fast SAR kernel plus the runtime-dispatch table.
// The kernel bodies live in sar_kernel_impl.inc; each namespace below
// re-compiles them under a different target region:
//
//   kern_scalar   — vectorization disabled: the honest "batched scalar"
//                   fallback and the bench's no-SIMD reference point.
//   kern_base     — whatever the build targets by default (SSE2 on x86-64,
//                   NEON on AArch64, plain scalar elsewhere).
//   kern_avx2     — AVX2 + FMA        (x86 + GCC only; runtime-gated)
//   kern_avx512   — AVX-512 F/DQ + FMA (x86 + GCC only; runtime-gated);
//                   its heatmap rows run in 512-bit registers (rows512)
//
// This translation unit is compiled with -fno-math-errno (so sqrt lowers
// to the hardware instruction) and -ffp-contract=fast (so mul-adds fuse
// where the ISA has FMA); see src/localize/CMakeLists.txt. Neither flag
// touches sar.cpp, whose exact kernel must stay bit-identical to the seed.
#include "localize/sar_kernel.h"

#include <cstdlib>
#include <cstring>

#include "common/simd.h"

#if RFLY_SIMD_X86
#include <immintrin.h>
#endif

namespace rfly::localize {

const char* sar_kernel_name(SarKernel kernel) {
  switch (kernel) {
    case SarKernel::kExact:
      return "exact";
    case SarKernel::kFast:
      return "fast";
  }
  return "exact";
}

bool parse_sar_kernel(const std::string& text, SarKernel& out) {
  if (text == "exact") return out = SarKernel::kExact, true;
  if (text == "fast") return out = SarKernel::kFast, true;
  return false;
}

const char* sar_kernel_replacement(const std::string& text) {
  return text == "auto" ? "fast" : nullptr;
}

const char* sar_search_name(SarSearch search) {
  switch (search) {
    case SarSearch::kExact:
      return "exact";
    case SarSearch::kIncremental:
      return "incremental";
    case SarSearch::kCoarseToFine:
      return "coarse2fine";
  }
  return "exact";
}

bool parse_sar_search(const std::string& text, SarSearch& out) {
  if (text == "exact") return out = SarSearch::kExact, true;
  if (text == "incremental") return out = SarSearch::kIncremental, true;
  if (text == "coarse2fine") return out = SarSearch::kCoarseToFine, true;
  return false;
}

// --- Kernel instantiations -----------------------------------------------

#if defined(__GNUC__) && !defined(__clang__)
#define RFLY_KERNEL_MULTIVERSION 1
#else
#define RFLY_KERNEL_MULTIVERSION 0
#endif

namespace kern_scalar {
#if RFLY_KERNEL_MULTIVERSION
#pragma GCC push_options
#pragma GCC optimize("no-tree-vectorize", "no-tree-slp-vectorize")
#endif
#include "localize/sar_kernel_impl.inc"
#if RFLY_KERNEL_MULTIVERSION
#pragma GCC pop_options
#endif
}  // namespace kern_scalar

namespace kern_base {
#include "localize/sar_kernel_impl.inc"
}  // namespace kern_base

#if RFLY_SIMD_X86 && RFLY_KERNEL_MULTIVERSION
#define RFLY_KERNEL_HAVE_X86_VARIANTS 1

namespace kern_avx2 {
#pragma GCC push_options
#pragma GCC target("avx2", "fma")
#include "localize/sar_kernel_impl.inc"
#pragma GCC pop_options
}  // namespace kern_avx2

namespace kern_avx512 {
#pragma GCC push_options
#pragma GCC target("avx512f", "avx512dq", "fma")
#include "localize/sar_kernel_impl.inc"

// The .inc's rows() leaves each 8-cell block to the SLP vectorizer, which
// GCC splits into two 256-bit halves even here (prefer-vector-width=512
// does not change that). rows512() writes the block as one 512-bit
// vector with the same per-lane operations in the same order, so
// -ffp-contract=fast contracts them alike and every cell keeps its bits
// (pinned against the .inc's rows() by tests/test_sar_rows_avx512.cpp).
// The narrower builds keep the .inc's loop: they have no 512-bit
// registers, so a 512-bit type would be split there again.

/// sincos_core on eight lanes.
RFLY_SIMD_INLINE void sincos512(__m512d x, __m512d& sin_out, __m512d& cos_out) {
  using namespace ::rfly::simd::detail;
  const __m512d nd = (x * kTwoOverPi + kRoundShift) - kRoundShift;
  const __m512i n = __builtin_convertvector(nd, __m512i);
  __m512d r = x - nd * kPio2Hi;
  r -= nd * kPio2Mid;
  r -= nd * kPio2Lo;

  const __m512d r2 = r * r;
  const __m512d sp =
      r + (r * r2) *
              (kS1 + r2 * (kS2 + r2 * (kS3 + r2 * (kS4 + r2 * (kS5 + r2 * kS6)))));
  const __m512d cp =
      1.0 - 0.5 * r2 +
      (r2 * r2) *
          (kC1 + r2 * (kC2 + r2 * (kC3 + r2 * (kC4 + r2 * (kC5 + r2 * kC6)))));

  const __m512i swap = (n & 1) != 0;
  const __m512d s_mag = swap ? cp : sp;
  const __m512d c_mag = swap ? sp : cp;
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d s_sign = (n & 2) != 0 ? -one : one;
  const __m512d c_sign = ((n + 1) & 2) != 0 ? -one : one;
  sin_out = s_mag * s_sign;
  cos_out = c_mag * c_sign;
}

inline void rows512(const SarKernelArgs& args, std::size_t row_begin,
                    std::size_t row_end) {
  const std::size_t count = args.count;
  const std::size_t nx = args.nx;
  double* yz2 = args.scratch;
  for (std::size_t iy = row_begin; iy < row_end; ++iy) {
    const double y = args.ys[iy];
    for (std::size_t l = 0; l < count; ++l) {
      const double dy = y - args.py[l];
      const double dz = args.z - args.pz[l];
      yz2[l] = dy * dy + dz * dz;
    }
    double* row = args.values + iy * nx;
    std::size_t ix = 0;
    while (ix < nx) {
      const std::size_t rem = nx - ix;
      const std::size_t live = rem < kLanes ? rem : kLanes;
      __m512d xv;
      for (std::size_t w = 0; w < kLanes; ++w) {
        xv[w] = args.xs[ix + (w < live ? w : live - 1)];
      }
      __m512d re = _mm512_setzero_pd(), im = _mm512_setzero_pd();
      for (std::size_t l = 0; l < count; ++l) {
        const double hr = args.hre[l];
        const double hi = args.him[l];
        const __m512d dx = xv - args.px[l];
        const __m512d d = _mm512_maskz_sqrt_pd(0xFF, dx * dx + yz2[l]);
        __m512d s, c;
        sincos512(args.k * d, s, c);
        re += hr * c - hi * s;
        im += hr * s + hi * c;
      }
      const __m512d mag = _mm512_maskz_sqrt_pd(0xFF, re * re + im * im);
      for (std::size_t w = 0; w < live; ++w) row[ix + w] = mag[w];
      ix += live;
    }
  }
}

#pragma GCC pop_options
}  // namespace kern_avx512

#else
#define RFLY_KERNEL_HAVE_X86_VARIANTS 0
#endif

// --- Dispatch table -------------------------------------------------------

namespace {

std::vector<SarKernelVariant> build_variants() {
  std::vector<SarKernelVariant> v;
  v.push_back({"scalar", true, &kern_scalar::rows, &kern_scalar::projection,
               &kern_scalar::sincos_batch, &kern_scalar::accumulate_rows,
               &kern_scalar::magnitude_rows});
  v.push_back({simd::baseline_isa_name(), true, &kern_base::rows,
               &kern_base::projection, &kern_base::sincos_batch,
               &kern_base::accumulate_rows, &kern_base::magnitude_rows});
#if RFLY_KERNEL_HAVE_X86_VARIANTS
  v.push_back({"avx2",
               static_cast<bool>(__builtin_cpu_supports("avx2")) &&
                   static_cast<bool>(__builtin_cpu_supports("fma")),
               &kern_avx2::rows, &kern_avx2::projection,
               &kern_avx2::sincos_batch, &kern_avx2::accumulate_rows,
               &kern_avx2::magnitude_rows});
  v.push_back({"avx512",
               static_cast<bool>(__builtin_cpu_supports("avx512f")) &&
                   static_cast<bool>(__builtin_cpu_supports("avx512dq")),
               &kern_avx512::rows512, &kern_avx512::projection,
               &kern_avx512::sincos_batch, &kern_avx512::accumulate_rows,
               &kern_avx512::magnitude_rows});
#endif
  return v;
}

const SarKernelVariant* pick_active(const std::vector<SarKernelVariant>& v) {
  // Debug/bench override: RFLY_SAR_ISA=<name> forces a variant, ignored
  // unless that variant is compiled in and supported by this CPU.
  if (const char* forced = std::getenv("RFLY_SAR_ISA")) {
    for (const auto& variant : v) {
      if (variant.supported && std::strcmp(variant.isa, forced) == 0) {
        return &variant;
      }
    }
  }
  const SarKernelVariant* best = &v.front();
  for (const auto& variant : v) {
    if (variant.supported) best = &variant;  // list is ordered narrow -> wide
  }
  return best;
}

}  // namespace

const std::vector<SarKernelVariant>& sar_kernel_variants() {
  static const std::vector<SarKernelVariant> variants = build_variants();
  return variants;
}

const SarKernelVariant& sar_kernel_active() {
  static const SarKernelVariant* active = pick_active(sar_kernel_variants());
  return *active;
}

}  // namespace rfly::localize
