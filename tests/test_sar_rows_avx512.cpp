// Bit oracle for the AVX-512 heatmap rows (`kernel` label). The dispatched
// avx512 variant runs rows512() (sar_kernel.cpp), which holds each 8-cell
// lane block in one 512-bit register. Its reference is the lane loop every
// narrower build still runs: sar_kernel_impl.inc's rows(), compiled here
// under the same target region as the kernel TU's avx512 namespace and
// with the kernel TU's flags (-fno-math-errno -ffp-contract=fast, set for
// this file in tests/CMakeLists.txt). The two must agree bit for bit on
// every cell, across aperture sizes, ragged last blocks and 1-row grids.
// Skipped on hosts without AVX-512.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "localize/sar_kernel.h"

#if RFLY_SIMD_X86 && defined(__GNUC__) && !defined(__clang__)
#define RFLY_TEST_AVX512_REFERENCE 1
namespace rfly::localize::reference_avx512 {
#pragma GCC push_options
#pragma GCC target("avx512f", "avx512dq", "fma")
#include "localize/sar_kernel_impl.inc"
#pragma GCC pop_options
}  // namespace rfly::localize::reference_avx512
#else
#define RFLY_TEST_AVX512_REFERENCE 0
#endif

namespace rfly::localize {
namespace {

#if RFLY_TEST_AVX512_REFERENCE

const SarKernelVariant* avx512_variant() {
  for (const auto& v : sar_kernel_variants()) {
    if (std::strcmp(v.isa, "avx512") == 0 && v.supported) return &v;
  }
  return nullptr;
}

/// A seeded aperture of `count` samples along a drone pass above a grid of
/// `nx` x `ny` cells, with random channel weights.
struct Case {
  std::vector<double> px, py, pz, hre, him, xs, ys;
  SarKernelArgs args() {
    SarKernelArgs a;
    a.k = 4.0 * 3.14159265358979323846 * 916e6 / 299792458.0;
    a.px = px.data();
    a.py = py.data();
    a.pz = pz.data();
    a.hre = hre.data();
    a.him = him.data();
    a.count = px.size();
    a.xs = xs.data();
    a.nx = xs.size();
    a.ys = ys.data();
    a.z = 0.1;
    return a;
  }
};

Case make_case(std::uint64_t seed, std::size_t count, std::size_t nx,
               std::size_t ny) {
  Rng rng(seed);
  Case c;
  for (std::size_t l = 0; l < count; ++l) {
    c.px.push_back(rng.uniform(0.0, 4.0));
    c.py.push_back(rng.uniform(1.5, 2.5));
    c.pz.push_back(rng.uniform(0.8, 1.6));
    c.hre.push_back(rng.gaussian(0.0, 1e-6));
    c.him.push_back(rng.gaussian(0.0, 1e-6));
  }
  const double x0 = rng.uniform(-0.5, 0.5);
  for (std::size_t ix = 0; ix < nx; ++ix) {
    c.xs.push_back(x0 + 0.05 * static_cast<double>(ix));
  }
  for (std::size_t iy = 0; iy < ny; ++iy) {
    c.ys.push_back(-0.3 + 0.05 * static_cast<double>(iy));
  }
  return c;
}

/// Rows [row_begin, row_end) through `rows`, into a NaN-filled map, so an
/// unwritten cell shows as well as a wrong one.
std::vector<double> run(void (*rows)(const SarKernelArgs&, std::size_t, std::size_t),
                        Case& c, std::size_t row_begin, std::size_t row_end) {
  std::vector<double> values(c.xs.size() * c.ys.size(), std::nan(""));
  std::vector<double> scratch(c.px.size() + 1);
  SarKernelArgs args = c.args();
  args.values = values.data();
  args.scratch = scratch.data();
  rows(args, row_begin, row_end);
  return values;
}

void expect_bitwise_equal(const std::vector<double>& got,
                          const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << what << " cell " << i << ": " << got[i] << " vs " << want[i];
  }
}

TEST(SarRowsAvx512, BitIdenticalToLaneLoopAcrossShapes) {
  const SarKernelVariant* v = avx512_variant();
  if (v == nullptr) GTEST_SKIP() << "no AVX-512 on this host";
  std::vector<std::size_t> widths;
  for (std::size_t nx = 1; nx <= 17; ++nx) widths.push_back(nx);
  widths.push_back(121);
  widths.push_back(129);
  std::uint64_t seed = 1;
  for (std::size_t count : {0u, 1u, 7u, 46u, 160u}) {
    for (std::size_t nx : widths) {
      for (std::size_t ny : {1u, 3u}) {
        Case c = make_case(seed++, count, nx, ny);
        const auto want = run(&reference_avx512::rows, c, 0, ny);
        const auto got = run(v->rows, c, 0, ny);
        expect_bitwise_equal(
            got, want,
            ("L=" + std::to_string(count) + " nx=" + std::to_string(nx) +
             " ny=" + std::to_string(ny))
                .c_str());
      }
    }
  }
}

TEST(SarRowsAvx512, RowRangeWritesOnlyItsRows) {
  const SarKernelVariant* v = avx512_variant();
  if (v == nullptr) GTEST_SKIP() << "no AVX-512 on this host";
  Case c = make_case(77, 46, 29, 5);
  // The middle rows only: rows outside the range stay NaN in both maps.
  const auto want = run(&reference_avx512::rows, c, 1, 4);
  const auto got = run(v->rows, c, 1, 4);
  expect_bitwise_equal(got, want, "rows [1, 4)");
  EXPECT_TRUE(std::isnan(got.front()));
  EXPECT_TRUE(std::isnan(got.back()));
}

#else

TEST(SarRowsAvx512, BitIdenticalToLaneLoopAcrossShapes) {
  GTEST_SKIP() << "no AVX-512 build of the kernel on this compiler or target";
}

#endif

}  // namespace
}  // namespace rfly::localize
