// Golden parity tests for the incremental SAR accumulator (sar.h): the
// streamed per-cell partial sums must be *provably* the batch sweep in a
// different order of calls, not an approximation of it. Pinned here:
//
//   - add-one-at-a-time == whole-batch heatmap, bit-identical, for both
//     kernels and across thread counts (the grouping-invariance argument in
//     sar.h: every grouping replays the same per-cell rounding sequence);
//   - a one-call accumulate + magnitudes round trip reproduces every
//     compiled kernel variant's `rows` output bit-for-bit;
//   - the live per-waypoint estimate sequence is deterministic per seed and
//     carries sane confidence/coverage figures.
//
// Runs under the `kernel` label (TSAN and ASan+UBSan trees).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "drone/trajectory.h"
#include "localize/sar.h"
#include "localize/sar_kernel.h"

namespace rfly::localize {
namespace {

constexpr double kFreq = 916e6;
const unsigned kThreadCounts[] = {1, 2, 8};

/// Same randomized geometry as test_sar_parity.cpp: a jittered linear pass,
/// channels with random magnitude and phase. Deterministic per seed.
DisentangledSet random_set(std::uint64_t seed, std::size_t n_points) {
  Rng rng(seed);
  DisentangledSet set;
  const double x0 = rng.uniform(-1.0, 1.0);
  const double y0 = rng.uniform(1.5, 3.0);
  const auto traj = drone::linear_trajectory(
      {x0, y0, 1.0}, {x0 + rng.uniform(1.5, 3.0), y0 + rng.uniform(-0.2, 0.2), 1.0},
      n_points);
  for (const auto& p : traj) {
    channel::Vec3 jittered{p.x + rng.gaussian(0.0, 0.01),
                           p.y + rng.gaussian(0.0, 0.01),
                           p.z + rng.gaussian(0.0, 0.005)};
    set.positions.push_back(jittered);
    const double mag = std::pow(10.0, rng.uniform(-7.0, -5.0));
    set.channels.push_back(mag * cis(rng.phase()));
  }
  return set;
}

class SarIncremental
    : public ::testing::TestWithParam<std::tuple<int, SarKernel>> {};

TEST_P(SarIncremental, AddOneAtATimeMatchesBatchHeatmapBitwise) {
  const auto [seed, kernel] = GetParam();
  const auto set = random_set(static_cast<std::uint64_t>(seed), 40);
  const GridSpec grid{-1.5, 3.5, -0.5, 2.5, 0.04};
  for (unsigned threads : kThreadCounts) {
    const Heatmap batch = sar_heatmap(set, grid, kFreq, 0.0, threads, kernel);
    SarAccumulator acc(grid, kFreq, 0.0, kernel, threads);
    for (std::size_t i = 0; i < set.channels.size(); ++i) {
      acc.add_measurement(set.positions[i], set.channels[i]);
    }
    EXPECT_EQ(acc.measurement_count(), set.channels.size());
    const Heatmap streamed = acc.finalize();
    ASSERT_EQ(streamed.values.size(), batch.values.size());
    for (std::size_t i = 0; i < batch.values.size(); ++i) {
      ASSERT_EQ(streamed.values[i], batch.values[i])
          << sar_kernel_name(kernel) << " cell " << i << " at " << threads
          << " threads";
    }
  }
}

TEST_P(SarIncremental, CallGroupingDoesNotChangeTheBits) {
  const auto [seed, kernel] = GetParam();
  const auto set = random_set(static_cast<std::uint64_t>(40 + seed), 30);
  const GridSpec grid{-1.0, 3.0, -0.5, 2.0, 0.05};

  SarAccumulator whole(grid, kFreq, 0.0, kernel);
  whole.add_measurements(set);

  SarAccumulator mixed(grid, kFreq, 0.0, kernel);
  const std::size_t half = set.channels.size() / 2;
  DisentangledSet head;
  head.positions.assign(set.positions.begin(), set.positions.begin() + half);
  head.channels.assign(set.channels.begin(), set.channels.begin() + half);
  mixed.add_measurements(head);
  for (std::size_t i = half; i < set.channels.size(); ++i) {
    mixed.add_measurement(set.positions[i], set.channels[i]);
  }

  ASSERT_EQ(whole.partial_re().size(), mixed.partial_re().size());
  for (std::size_t i = 0; i < whole.partial_re().size(); ++i) {
    ASSERT_EQ(whole.partial_re()[i], mixed.partial_re()[i]) << "re cell " << i;
    ASSERT_EQ(whole.partial_im()[i], mixed.partial_im()[i]) << "im cell " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByKernel, SarIncremental,
    ::testing::Combine(::testing::Range(1, 4),
                       ::testing::Values(SarKernel::kExact, SarKernel::kFast)),
    [](const ::testing::TestParamInfo<std::tuple<int, SarKernel>>& info) {
      return std::string("seed") + std::to_string(std::get<0>(info.param)) +
             "_" + sar_kernel_name(std::get<1>(info.param));
    });

// Kernel-variant level: for every compiled ISA, a zeroed accumulate pass +
// magnitudes must reproduce `rows` bit-for-bit — the equivalence the
// dispatch-level tests above build on, checked one variant at a time so a
// regression names the ISA.
TEST(SarIncrementalVariants, AccumulatePlusMagnitudesReproducesRows) {
  const auto set = random_set(7, 32);
  const SarGeometry geo = SarGeometry::from(set, kFreq);
  const GridSpec grid{-1.0, 2.5, -0.5, 2.0, 0.05};
  const std::size_t nx = grid.nx();
  const std::size_t ny = grid.ny();
  std::vector<double> xs(nx), ys(ny);
  for (std::size_t ix = 0; ix < nx; ++ix) xs[ix] = grid.x_at(ix);
  for (std::size_t iy = 0; iy < ny; ++iy) ys[iy] = grid.y_at(iy);

  for (const auto& variant : sar_kernel_variants()) {
    if (!variant.supported) continue;
    ASSERT_NE(variant.accumulate, nullptr) << variant.isa;
    ASSERT_NE(variant.magnitudes, nullptr) << variant.isa;

    std::vector<double> reference(nx * ny, -1.0);
    std::vector<double> streamed(nx * ny, -1.0);
    std::vector<double> acc_re(nx * ny, 0.0), acc_im(nx * ny, 0.0);
    std::vector<double> scratch(geo.size());

    SarKernelArgs args;
    args.k = geo.k;
    args.px = geo.px.data();
    args.py = geo.py.data();
    args.pz = geo.pz.data();
    args.hre = geo.hre.data();
    args.him = geo.him.data();
    args.count = geo.size();
    args.xs = xs.data();
    args.nx = nx;
    args.ys = ys.data();
    args.z = 0.0;
    args.scratch = scratch.data();
    args.values = reference.data();
    variant.rows(args, 0, ny);

    args.values = streamed.data();
    args.acc_re = acc_re.data();
    args.acc_im = acc_im.data();
    variant.accumulate(args, 0, ny);
    variant.magnitudes(args, 0, ny);

    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(streamed[i], reference[i]) << variant.isa << " cell " << i;
    }
  }
}

TEST(SarLiveEstimates, SequenceIsSeedDeterministic) {
  const auto set = random_set(11, 30);
  const GridSpec grid{-1.0, 3.0, -0.5, 2.0, 0.05};
  const auto run = [&] {
    std::vector<LiveEstimate> live;
    SarAccumulator acc(grid, kFreq, 0.0, SarKernel::kExact);
    for (std::size_t i = 0; i < set.channels.size(); ++i) {
      acc.add_measurement(set.positions[i], set.channels[i]);
      live.push_back(acc.estimate(set.channels.size()));
    }
    return live;
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), set.channels.size());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].measurements, i + 1);
    EXPECT_EQ(a[i].x, b[i].x) << "waypoint " << i;
    EXPECT_EQ(a[i].y, b[i].y) << "waypoint " << i;
    EXPECT_EQ(a[i].peak_value, b[i].peak_value) << "waypoint " << i;
    EXPECT_EQ(a[i].confidence, b[i].confidence) << "waypoint " << i;
    EXPECT_GE(a[i].confidence, 0.0);
    EXPECT_LE(a[i].confidence, 1.0);
    EXPECT_DOUBLE_EQ(a[i].coverage, static_cast<double>(i + 1) /
                                        static_cast<double>(a.size()));
  }
  // The final streamed estimate is the batch argmax: same partial sums.
  const Heatmap batch = sar_heatmap(set, grid, kFreq, 0.0, 1, SarKernel::kExact);
  double peak = -1.0;
  std::size_t best = 0;
  for (std::size_t i = 0; i < batch.values.size(); ++i) {
    if (batch.values[i] > peak) {
      peak = batch.values[i];
      best = i;
    }
  }
  EXPECT_EQ(a.back().x, grid.x_at(best % grid.nx()));
  EXPECT_EQ(a.back().y, grid.y_at(best / grid.nx()));
}

TEST(SarLiveEstimates, EmptyAccumulatorReportsNoEvidence) {
  const GridSpec grid{0.0, 1.0, 0.0, 1.0, 0.1};
  const SarAccumulator acc(grid, kFreq);
  const LiveEstimate est = acc.estimate(10);
  EXPECT_EQ(est.measurements, 0u);
  EXPECT_EQ(est.peak_value, 0.0);
  EXPECT_EQ(est.confidence, 0.0);
  EXPECT_EQ(est.coverage, 0.0);
}

}  // namespace
}  // namespace rfly::localize
