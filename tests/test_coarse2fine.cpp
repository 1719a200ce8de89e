// Property tests bounding the coarse-to-fine search against brute force.
// The synthetic sets put a matched-filter peak exactly at a known tag
// (channels = mag * e^{-jkd}, the conjugate of the kernel's steering
// term), so both the brute-force argmax and the localization error have a
// ground truth to be measured against. Pinned properties, per ISSUE:
//
//   - the coarse-to-fine 3D peak lies within half a fine cell of the
//     brute-force argmax on every axis (in practice: the identical cell —
//     refined candidates are true lattice points);
//   - coarse-to-fine never loses more than res/10 of localization accuracy
//     relative to the exact search;
//   - degenerate geometries (single-cell volume, single-row volume, top-K
//     larger than the cell count) neither crash nor miss the peak.
//
// Runs under the `kernel` label (TSAN and ASan+UBSan trees).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "localize/localizer.h"
#include "localize/sar.h"

namespace rfly::localize {
namespace {

constexpr double kFreq = 916e6;
constexpr double kC = 299792458.0;
constexpr double kWavenumber = 2.0 * M_PI * kFreq * 2.0 / kC;

/// Measurements from a jittered two-row aperture whose channels are the
/// exact conjugate steering vector for `tag`: the SAR sum aligns in phase
/// at the tag and nowhere else, so the matched filter peaks there.
MeasurementSet steered_measurements(std::uint64_t seed, const channel::Vec3& tag,
                                    std::size_t n_per_row) {
  Rng rng(seed);
  MeasurementSet m;
  for (double z : {1.2, 1.7}) {
    for (std::size_t i = 0; i < n_per_row; ++i) {
      const double t = static_cast<double>(i) / static_cast<double>(n_per_row - 1);
      channel::Vec3 p{tag.x - 1.2 + 2.4 * t + rng.gaussian(0.0, 0.01),
                      tag.y + 1.6 + rng.gaussian(0.0, 0.01),
                      z + rng.gaussian(0.0, 0.005)};
      const double d = std::sqrt((p.x - tag.x) * (p.x - tag.x) +
                                 (p.y - tag.y) * (p.y - tag.y) +
                                 (p.z - tag.z) * (p.z - tag.z));
      RelayMeasurement meas;
      meas.relay_position = p;
      meas.embedded_channel = {1.0, 0.0};
      meas.target_channel =
          std::pow(10.0, rng.uniform(-7.0, -6.0)) * cis(-kWavenumber * d);
      m.push_back(meas);
    }
  }
  return m;
}

Volume volume_around(const channel::Vec3& tag, double res) {
  Volume vol;
  vol.x_min = tag.x - 0.9;
  vol.x_max = tag.x + 0.9;
  vol.y_min = tag.y - 0.9;
  vol.y_max = tag.y + 0.6;
  vol.z_min = 0.0;
  vol.z_max = 1.0;
  vol.resolution_m = res;
  return vol;
}

class CoarseToFine3d : public ::testing::TestWithParam<int> {};

TEST_P(CoarseToFine3d, PeakWithinHalfCellOfBruteForce) {
  Rng rng(static_cast<std::uint64_t>(1000 + GetParam()));
  const channel::Vec3 tag{rng.uniform(4.0, 6.0), rng.uniform(2.0, 4.0),
                          rng.uniform(0.1, 0.8)};
  const auto measurements = steered_measurements(
      static_cast<std::uint64_t>(GetParam()), tag, 20);
  const Volume vol = volume_around(tag, 0.05);

  Localize3dConfig cfg;
  cfg.freq_hz = kFreq;
  cfg.threads = 1;
  cfg.search = SarSearch::kExact;
  const auto brute = localize_3d(measurements, vol, cfg);
  ASSERT_TRUE(brute.has_value());

  cfg.search = SarSearch::kCoarseToFine;
  const auto c2f = localize_3d(measurements, vol, cfg);
  ASSERT_TRUE(c2f.has_value());

  const double half = vol.resolution_m / 2.0;
  EXPECT_NEAR(c2f->position.x, brute->position.x, half);
  EXPECT_NEAR(c2f->position.y, brute->position.y, half);
  EXPECT_NEAR(c2f->position.z, brute->position.z, half);
  // Refined candidates are true lattice points, so the coarse-to-fine peak
  // can never report more energy than the brute-force maximum.
  EXPECT_LE(c2f->peak_value, brute->peak_value * (1.0 + 1e-12));
}

TEST_P(CoarseToFine3d, ErrorNeverWorseThanExactByMoreThanTenthCell) {
  Rng rng(static_cast<std::uint64_t>(2000 + GetParam()));
  const channel::Vec3 tag{rng.uniform(4.0, 6.0), rng.uniform(2.0, 4.0),
                          rng.uniform(0.1, 0.8)};
  const auto measurements = steered_measurements(
      static_cast<std::uint64_t>(100 + GetParam()), tag, 18);
  const Volume vol = volume_around(tag, 0.05);

  Localize3dConfig cfg;
  cfg.freq_hz = kFreq;
  cfg.threads = 1;
  const auto err = [&](SarSearch search) {
    cfg.search = search;
    const auto result = localize_3d(measurements, vol, cfg);
    EXPECT_TRUE(result.has_value());
    if (!result) return 1e300;
    const auto& p = result->position;
    return std::sqrt((p.x - tag.x) * (p.x - tag.x) +
                     (p.y - tag.y) * (p.y - tag.y) +
                     (p.z - tag.z) * (p.z - tag.z));
  };
  const double exact_err = err(SarSearch::kExact);
  const double c2f_err = err(SarSearch::kCoarseToFine);
  EXPECT_LE(c2f_err, exact_err + vol.resolution_m / 10.0);
  // Sanity: the steered peak really is at the tag (within one cell
  // diagonal), otherwise the bound above is vacuous.
  EXPECT_LE(exact_err, vol.resolution_m * std::sqrt(3.0));
}

TEST_P(CoarseToFine3d, StrideAndTopKKnobsStillCoverTheArgmax) {
  Rng rng(static_cast<std::uint64_t>(3000 + GetParam()));
  const channel::Vec3 tag{rng.uniform(4.0, 6.0), rng.uniform(2.0, 4.0),
                          rng.uniform(0.1, 0.8)};
  const auto measurements = steered_measurements(
      static_cast<std::uint64_t>(200 + GetParam()), tag, 16);
  const Volume vol = volume_around(tag, 0.05);

  Localize3dConfig cfg;
  cfg.freq_hz = kFreq;
  cfg.threads = 1;
  cfg.search = SarSearch::kExact;
  const auto brute = localize_3d(measurements, vol, cfg);
  ASSERT_TRUE(brute.has_value());

  // Strides that keep the coarse spacing at or under the SAR main-lobe
  // width (see Localize3dConfig::coarse_stride): wider strides are a
  // best-effort trade the property suite does not promise to bound.
  cfg.search = SarSearch::kCoarseToFine;
  for (int stride : {2, 3}) {
    for (int top_k : {4, 16}) {
      cfg.coarse_stride = stride;
      cfg.refine_top_k = top_k;
      const auto c2f = localize_3d(measurements, vol, cfg);
      ASSERT_TRUE(c2f.has_value()) << "stride " << stride << " top_k " << top_k;
      EXPECT_NEAR(c2f->position.x, brute->position.x, vol.resolution_m / 2.0)
          << "stride " << stride << " top_k " << top_k;
      EXPECT_NEAR(c2f->position.y, brute->position.y, vol.resolution_m / 2.0)
          << "stride " << stride << " top_k " << top_k;
      EXPECT_NEAR(c2f->position.z, brute->position.z, vol.resolution_m / 2.0)
          << "stride " << stride << " top_k " << top_k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoarseToFine3d, ::testing::Range(1, 7));

TEST(CoarseToFineDegenerate, SingleCellVolume) {
  const channel::Vec3 tag{5.0, 3.0, 0.4};
  const auto measurements = steered_measurements(9, tag, 12);
  Volume vol;
  vol.x_min = vol.x_max = tag.x;
  vol.y_min = vol.y_max = tag.y;
  vol.z_min = vol.z_max = tag.z;
  vol.resolution_m = 0.05;

  Localize3dConfig cfg;
  cfg.freq_hz = kFreq;
  cfg.threads = 1;
  for (SarSearch search : {SarSearch::kExact, SarSearch::kIncremental,
                           SarSearch::kCoarseToFine}) {
    cfg.search = search;
    const auto result = localize_3d(measurements, vol, cfg);
    ASSERT_TRUE(result.has_value()) << sar_search_name(search);
    EXPECT_DOUBLE_EQ(result->position.x, tag.x) << sar_search_name(search);
    EXPECT_DOUBLE_EQ(result->position.y, tag.y) << sar_search_name(search);
    EXPECT_DOUBLE_EQ(result->position.z, tag.z) << sar_search_name(search);
    EXPECT_GT(result->peak_value, 0.0) << sar_search_name(search);
  }
}

TEST(CoarseToFineDegenerate, SingleRowVolumeMatchesBruteForce) {
  const channel::Vec3 tag{5.0, 3.0, 0.4};
  const auto measurements = steered_measurements(10, tag, 14);
  Volume vol;
  vol.x_min = tag.x - 0.9;
  vol.x_max = tag.x + 0.9;
  vol.y_min = vol.y_max = tag.y;  // one y row
  vol.z_min = vol.z_max = tag.z;  // one z slice
  vol.resolution_m = 0.02;

  Localize3dConfig cfg;
  cfg.freq_hz = kFreq;
  cfg.threads = 1;
  cfg.search = SarSearch::kExact;
  const auto brute = localize_3d(measurements, vol, cfg);
  ASSERT_TRUE(brute.has_value());
  cfg.search = SarSearch::kCoarseToFine;
  const auto c2f = localize_3d(measurements, vol, cfg);
  ASSERT_TRUE(c2f.has_value());
  EXPECT_DOUBLE_EQ(c2f->position.x, brute->position.x);
  EXPECT_DOUBLE_EQ(c2f->peak_value, brute->peak_value);
}

TEST(CoarseToFineDegenerate, TopKLargerThanCellCount) {
  const channel::Vec3 tag{5.0, 3.0, 0.2};
  const auto measurements = steered_measurements(11, tag, 12);
  Volume vol;
  vol.x_min = tag.x - 0.1;
  vol.x_max = tag.x + 0.1;
  vol.y_min = tag.y - 0.1;
  vol.y_max = tag.y + 0.1;
  vol.z_min = 0.0;
  vol.z_max = 0.4;
  vol.resolution_m = 0.05;  // a handful of cells per axis

  Localize3dConfig cfg;
  cfg.freq_hz = kFreq;
  cfg.threads = 1;
  cfg.search = SarSearch::kExact;
  const auto brute = localize_3d(measurements, vol, cfg);
  ASSERT_TRUE(brute.has_value());

  cfg.search = SarSearch::kCoarseToFine;
  cfg.refine_top_k = 10000;  // far more candidates than cells
  cfg.coarse_stride = 100;   // stride past every axis: endpoints only
  const auto c2f = localize_3d(measurements, vol, cfg);
  ASSERT_TRUE(c2f.has_value());
  EXPECT_NEAR(c2f->position.x, brute->position.x, vol.resolution_m / 2.0);
  EXPECT_NEAR(c2f->position.y, brute->position.y, vol.resolution_m / 2.0);
  EXPECT_NEAR(c2f->position.z, brute->position.z, vol.resolution_m / 2.0);
}

// 2D: the coarse-to-fine localizer against a single full-resolution exact
// sweep, strongest-peak selection (trajectory-nearest selection compares
// candidate *sets*, which the two searches enumerate differently).
TEST(CoarseToFine2d, HighestPeakMatchesFullSweep) {
  const channel::Vec3 tag{5.0, 3.0, 0.0};
  const auto measurements = steered_measurements(12, tag, 20);

  LocalizerConfig cfg;
  cfg.freq_hz = kFreq;
  cfg.grid = {tag.x - 1.0, tag.x + 1.0, tag.y - 1.0, tag.y + 0.8, 0.01};
  cfg.selection = PeakSelection::kHighest;
  cfg.threads = 1;
  cfg.multires = false;
  cfg.search = SarSearch::kExact;
  const auto full = localize_2d_checked(measurements, cfg);
  ASSERT_TRUE(full.ok());

  cfg.search = SarSearch::kCoarseToFine;
  const auto c2f = localize_2d_checked(measurements, cfg);
  ASSERT_TRUE(c2f.ok());
  EXPECT_NEAR(c2f->x, full->x, cfg.grid.resolution_m / 2.0);
  EXPECT_NEAR(c2f->y, full->y, cfg.grid.resolution_m / 2.0);
  EXPECT_LE(c2f->peak_value, full->peak_value * (1.0 + 1e-12));
}

}  // namespace
}  // namespace rfly::localize
