#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "channel/path_loss.h"
#include "common/rng.h"
#include "drone/trajectory.h"
#include "localize/localizer.h"

namespace rfly::localize {
namespace {

constexpr double kF2 = 916e6;  // f1 + 1 MHz shift

using channel::Vec3;

/// One-way free-space channel between two points.
cdouble one_way(const Vec3& a, const Vec3& b, double f) {
  return channel::propagation_coefficient(a.distance_to(b), f);
}

/// Synthesize measurements for a tag seen through the relay along a
/// trajectory, optionally with a multipath ghost via an image tag.
MeasurementSet synthesize(const std::vector<Vec3>& trajectory, const Vec3& tag,
                          const Vec3& reader, double ghost_gain = 0.0,
                          const Vec3& image_tag = {}, double noise = 0.0,
                          Rng* rng = nullptr) {
  MeasurementSet set;
  const cdouble hw = cis(0.7);  // constant relay hardware phase
  for (const auto& p : trajectory) {
    const cdouble h1 = one_way(reader, p, 915e6);
    cdouble h2 = one_way(p, tag, kF2);
    if (ghost_gain > 0.0) h2 += ghost_gain * one_way(p, image_tag, kF2);
    RelayMeasurement m;
    m.relay_position = p;
    m.embedded_channel = h1 * h1 * 1e-3 * hw;
    m.target_channel = h1 * h1 * h2 * h2 * hw;
    if (noise > 0.0 && rng != nullptr) {
      m.target_channel +=
          std::abs(m.target_channel) * noise *
          cdouble{rng->gaussian(), rng->gaussian()};
    }
    set.push_back(m);
  }
  return set;
}

TEST(Disentangle, RemovesReaderRelayHalfLink) {
  const auto traj = drone::linear_trajectory({4, 3, 1}, {6, 3, 1}, 20);
  const Vec3 tag{5, 0, 0};
  const auto set = synthesize(traj, tag, {0, 0, 1});
  const auto iso = disentangle(set);
  ASSERT_EQ(iso.channels.size(), 20u);
  // The isolated channel must equal h2^2 / 1e-3 : same phase as h2^2.
  for (std::size_t i = 0; i < iso.channels.size(); ++i) {
    const cdouble h2 = one_way(traj[i], tag, kF2);
    EXPECT_NEAR(phase_distance(std::arg(iso.channels[i]), std::arg(h2 * h2)), 0.0,
                1e-6);
  }
}

TEST(Disentangle, DropsWeakEmbeddedMeasurements) {
  MeasurementSet set(3);
  set[0].embedded_channel = {1e-3, 0};
  set[1].embedded_channel = {0.0, 0.0};  // dead
  set[2].embedded_channel = {1e-3, 0};
  const auto iso = disentangle(set);
  EXPECT_EQ(iso.channels.size(), 2u);
}

TEST(GridSpec, Dimensions) {
  GridSpec g;
  g.x_min = 0;
  g.x_max = 1;
  g.y_min = 0;
  g.y_max = 0.5;
  g.resolution_m = 0.1;
  EXPECT_EQ(g.nx(), 11u);
  EXPECT_EQ(g.ny(), 6u);
  EXPECT_NEAR(g.x_at(10), 1.0, 1e-9);
}

TEST(Sar, PeakAtTagLocation) {
  const auto traj = drone::linear_trajectory({4, 3, 1}, {6, 3, 1}, 30);
  const Vec3 tag{5.0, 0.5, 0.0};
  const auto set = synthesize(traj, tag, {0, 0, 1});
  const auto iso = disentangle(set);

  GridSpec grid;
  grid.x_min = 3;
  grid.x_max = 7;
  grid.y_min = -1;
  grid.y_max = 2;
  grid.resolution_m = 0.02;
  const auto map = sar_heatmap(iso, grid, kF2);
  const auto peaks = find_peaks(map, 0.9);
  ASSERT_FALSE(peaks.empty());
  EXPECT_NEAR(peaks.front().x, tag.x, 0.06);
  EXPECT_NEAR(peaks.front().y, tag.y, 0.06);
}

TEST(Sar, ProjectionConsistentWithHeatmap) {
  const auto traj = drone::linear_trajectory({4, 3, 1}, {6, 3, 1}, 10);
  const auto set = synthesize(traj, {5, 0, 0}, {0, 0, 1});
  const auto iso = disentangle(set);
  GridSpec grid;
  grid.x_min = 4.9;
  grid.x_max = 5.1;
  grid.y_min = -0.1;
  grid.y_max = 0.1;
  grid.resolution_m = 0.1;
  const auto map = sar_heatmap(iso, grid, kF2);
  EXPECT_NEAR(map.at(1, 1), sar_projection(iso, {5.0, 0.0, 0.0}, kF2), 1e-9);
}

TEST(Sar, LargerApertureNarrowerPeak) {
  const Vec3 tag{5, 0, 0};
  auto peak_width = [&](double aperture) {
    const auto traj = drone::linear_trajectory({5 - aperture / 2, 3, 1},
                                               {5 + aperture / 2, 3, 1}, 40);
    const auto iso = disentangle(synthesize(traj, tag, {0, 0, 1}));
    // Measure the mainlobe width along x at the tag's y.
    const double peak = sar_projection(iso, tag, kF2);
    double width = 0.0;
    for (double dx = 0.0; dx < 1.0; dx += 0.01) {
      if (sar_projection(iso, {tag.x + dx, tag.y, 0}, kF2) < peak / 2.0) {
        width = dx;
        break;
      }
    }
    return width;
  };
  EXPECT_LT(peak_width(2.0), peak_width(0.5));
}

TEST(Peaks, FindLocalMaxima) {
  // Hand-built heatmap with two bumps.
  GridSpec grid;
  grid.x_min = 0;
  grid.x_max = 1.0;
  grid.y_min = 0;
  grid.y_max = 1.0;
  grid.resolution_m = 0.1;
  Heatmap map;
  map.grid = grid;
  map.values.assign(grid.nx() * grid.ny(), 0.0);
  map.values[3 * grid.nx() + 3] = 1.0;
  map.values[7 * grid.nx() + 8] = 0.8;
  const auto peaks = find_peaks(map, 0.5);
  ASSERT_EQ(peaks.size(), 2u);
  EXPECT_DOUBLE_EQ(peaks[0].value, 1.0);
  EXPECT_DOUBLE_EQ(peaks[1].value, 0.8);
}

TEST(Peaks, ThresholdFiltersWeakMaxima) {
  GridSpec grid;
  grid.x_min = 0;
  grid.x_max = 1.0;
  grid.y_min = 0;
  grid.y_max = 1.0;
  grid.resolution_m = 0.1;
  Heatmap map;
  map.grid = grid;
  map.values.assign(grid.nx() * grid.ny(), 0.0);
  map.values[3 * grid.nx() + 3] = 1.0;
  map.values[7 * grid.nx() + 8] = 0.3;  // below 0.5 threshold
  EXPECT_EQ(find_peaks(map, 0.5).size(), 1u);
}

TEST(Peaks, NearestToTrajectoryRejectsGhost) {
  // Ghost peak is stronger but further from the flight path.
  std::vector<Peak> candidates{{5.0, 4.0, 1.0, 0.0},   // ghost (stronger)
                               {5.0, 1.0, 0.8, 0.0}};  // true tag
  const auto traj = drone::linear_trajectory({4, 0, 1}, {6, 0, 1}, 5);
  const auto highest = select_peak(candidates, PeakSelection::kHighest, traj);
  const auto nearest =
      select_peak(candidates, PeakSelection::kNearestToTrajectory, traj);
  EXPECT_DOUBLE_EQ(highest.y, 4.0);
  EXPECT_DOUBLE_EQ(nearest.y, 1.0);
}

TEST(Peaks, EmptyCandidatesYieldZeroPeak) {
  const auto p = select_peak({}, PeakSelection::kHighest, {});
  EXPECT_DOUBLE_EQ(p.value, 0.0);
}

TEST(Localizer, EndToEndCleanScene) {
  const auto traj = drone::linear_trajectory({4, 2, 1}, {6, 2, 1}, 40);
  const Vec3 tag{5.2, 0.3, 0};
  const auto set = synthesize(traj, tag, {0, 0, 1});

  LocalizerConfig cfg;
  cfg.freq_hz = kF2;
  cfg.grid.x_min = 3;
  cfg.grid.x_max = 7;
  cfg.grid.y_min = -1;
  cfg.grid.y_max = 2;
  cfg.grid.resolution_m = 0.01;
  const auto result = localize_2d_checked(set, cfg);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(std::hypot(result->x - tag.x, result->y - tag.y), 0.0, 0.05);
  EXPECT_EQ(result->measurements_used, 40u);
}

TEST(Localizer, MultipathGhostRejected) {
  // Slightly tilted flight path: a perfectly straight 1D aperture has an
  // exact mirror ambiguity about its ground line, which a real (imperfect)
  // flight breaks.
  const auto traj = drone::linear_trajectory({4, 2.0, 1}, {6, 2.4, 1}, 40);
  const Vec3 tag{5.0, 0.5, 0};
  // Image tag beyond the trajectory (reflection off a far wall), stronger
  // in the heatmap than the direct return (the reciprocal channel squares
  // the path sum, so tag-ghost cross terms dominate): the global maximum
  // of P(x, y) is a ghost/cross lobe, as in paper Fig. 6(b).
  const Vec3 ghost{6.5, 4.5, 0};
  const auto set = synthesize(traj, tag, {0, 0, 1}, /*ghost_gain=*/0.8, ghost);

  LocalizerConfig cfg;
  cfg.freq_hz = kF2;
  cfg.grid.x_min = 3;
  cfg.grid.x_max = 8;
  cfg.grid.y_min = -1;
  cfg.grid.y_max = 7;
  cfg.grid.resolution_m = 0.02;
  cfg.peak_threshold_fraction = 0.35;

  cfg.selection = PeakSelection::kHighest;
  const auto naive = localize_2d_checked(set, cfg);
  cfg.selection = PeakSelection::kNearestToTrajectory;
  const auto rfly = localize_2d_checked(set, cfg);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(rfly.ok());

  const double naive_err = std::hypot(naive->x - tag.x, naive->y - tag.y);
  const double rfly_err = std::hypot(rfly->x - tag.x, rfly->y - tag.y);
  // Highest-peak lands on a multipath lobe, several meters off; the
  // trajectory-nearest rule stays in the true tag's neighbourhood. The
  // residual error reflects the cross-term bias the real system also sees.
  EXPECT_GT(naive_err, 1.5);
  EXPECT_LT(rfly_err, naive_err / 2.0);
  EXPECT_LT(rfly_err, 1.5);
}

TEST(Localizer, MultiresMatchesFullScan) {
  const auto traj = drone::linear_trajectory({4, 2, 1}, {6, 2, 1}, 30);
  const Vec3 tag{5.1, 0.4, 0};
  const auto set = synthesize(traj, tag, {0, 0, 1});

  LocalizerConfig cfg;
  cfg.freq_hz = kF2;
  cfg.grid.x_min = 4;
  cfg.grid.x_max = 6;
  cfg.grid.y_min = -0.5;
  cfg.grid.y_max = 1.5;
  cfg.grid.resolution_m = 0.01;

  cfg.multires = false;
  const auto full = localize_2d_checked(set, cfg);
  cfg.multires = true;
  const auto fast = localize_2d_checked(set, cfg);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(fast.ok());
  EXPECT_NEAR(full->x, fast->x, 0.03);
  EXPECT_NEAR(full->y, fast->y, 0.03);
}

TEST(Localizer, NoMeasurementsReturnsNullopt) {
  EXPECT_FALSE(localize_2d_checked({}, LocalizerConfig{}).ok());
}

TEST(Localizer, RefineCandidatesBelowOneRefineTheStrongestPeak) {
  // Under multires the finish keeps max(refine_candidates, 1) peaks, as the
  // coarse-to-fine finish and localize_refine_cells do. 0 used to report
  // (0, 0) with no candidates, and -1 threw std::length_error.
  const auto traj = drone::linear_trajectory({4, 2, 1}, {6, 2, 1}, 30);
  const auto set = synthesize(traj, {5.1, 0.4, 0}, {0, 0, 1});
  for (SarSearch search : {SarSearch::kExact, SarSearch::kIncremental}) {
    LocalizerConfig cfg;
    cfg.freq_hz = kF2;
    cfg.grid = {4, 6, -0.5, 1.5, 0.01};
    cfg.search = search;
    cfg.refine_candidates = 1;
    const auto one = localize_2d_checked(set, cfg);
    ASSERT_TRUE(one.ok()) << one.status().to_string();
    ASSERT_EQ(one->candidates.size(), 1u);
    EXPECT_NEAR(one->x, 5.1, 0.03);
    for (int n : {0, -1}) {
      cfg.refine_candidates = n;
      const auto got = localize_2d_checked(set, cfg);
      ASSERT_TRUE(got.ok()) << n << ": " << got.status().to_string();
      EXPECT_EQ(got->x, one->x) << n;
      EXPECT_EQ(got->y, one->y) << n;
      EXPECT_EQ(got->peak_value, one->peak_value) << n;
      ASSERT_EQ(got->candidates.size(), 1u) << n;
      EXPECT_EQ(got->candidates[0].prominence, one->candidates[0].prominence) << n;
    }
  }
}

void expect_same_result(const Expected<LocalizationResult>& got,
                        const Expected<LocalizationResult>& want,
                        const std::string& label) {
  ASSERT_EQ(got.ok(), want.ok()) << label;
  if (!want.ok()) {
    EXPECT_EQ(got.status().to_string(), want.status().to_string()) << label;
    return;
  }
  EXPECT_EQ(got->x, want->x) << label;
  EXPECT_EQ(got->y, want->y) << label;
  EXPECT_EQ(got->peak_value, want->peak_value) << label;
  EXPECT_EQ(got->measurements_used, want->measurements_used) << label;
  ASSERT_EQ(got->candidates.size(), want->candidates.size()) << label;
  for (std::size_t i = 0; i < want->candidates.size(); ++i) {
    const Peak& a = got->candidates[i];
    const Peak& b = want->candidates[i];
    EXPECT_EQ(a.x, b.x) << label << " candidate " << i;
    EXPECT_EQ(a.y, b.y) << label << " candidate " << i;
    EXPECT_EQ(a.value, b.value) << label << " candidate " << i;
    EXPECT_EQ(a.prominence, b.prominence) << label << " candidate " << i;
    EXPECT_EQ(a.distance_to_trajectory, b.distance_to_trajectory)
        << label << " candidate " << i;
  }
}

/// The multipath scene's set: a tag plus a stronger ghost, so the finish
/// has several candidates to refine and choose from.
DisentangledSet ghost_scene() {
  const auto traj = drone::linear_trajectory({4, 2.0, 1}, {6, 2.4, 1}, 40);
  return disentangle(synthesize(traj, {5.0, 0.5, 0}, {0, 0, 1}, 0.8, {6.5, 4.5, 0}));
}

TEST(LocalizerSplit, SweepThenFinishEqualsLocalize2dFrom) {
  const DisentangledSet set = ghost_scene();
  for (SarKernel kernel : {SarKernel::kExact, SarKernel::kFast}) {
    for (SarSearch search :
         {SarSearch::kExact, SarSearch::kIncremental, SarSearch::kCoarseToFine}) {
      for (bool multires : {false, true}) {
        const std::string label = std::string(sar_kernel_name(kernel)) + " " +
                                  sar_search_name(search) +
                                  (multires ? " multires" : " single");
        LocalizerConfig cfg;
        cfg.freq_hz = kF2;
        cfg.grid = {3, 8, -1, 7, 0.02};
        cfg.peak_threshold_fraction = 0.35;
        cfg.kernel = kernel;
        cfg.search = search;
        cfg.multires = multires;
        const auto whole = localize_2d_from(set, cfg);
        ASSERT_TRUE(whole.ok()) << label << ": " << whole.status().to_string();
        EXPECT_GT(whole->candidates.size(), 1u) << label;
        const auto map = localize_2d_sweep(set, cfg);
        ASSERT_TRUE(map.ok()) << label;
        EXPECT_EQ(map->values.size(),
                  localize_scan_grid(cfg).nx() * localize_scan_grid(cfg).ny())
            << label;
        expect_same_result(localize_2d_finish(set, cfg, *map), whole, label);
      }
    }
  }
}

TEST(LocalizerSplit, HalvesReportTheSameErrors) {
  LocalizerConfig cfg;
  cfg.freq_hz = kF2;
  cfg.grid = {3, 8, -1, 7, 0.05};
  const auto empty_sweep = localize_2d_sweep({}, cfg);
  ASSERT_FALSE(empty_sweep.ok());
  EXPECT_EQ(empty_sweep.status().code(), StatusCode::kNoReference);
  EXPECT_EQ(localize_2d_from({}, cfg).status().to_string(),
            empty_sweep.status().to_string());

  cfg.grid = {8, 3, -1, 7, 0.05};  // x range inverted
  const DisentangledSet set = ghost_scene();
  const auto inverted_sweep = localize_2d_sweep(set, cfg);
  ASSERT_FALSE(inverted_sweep.ok());
  EXPECT_EQ(inverted_sweep.status().code(), StatusCode::kDegenerateGrid);
  EXPECT_EQ(localize_2d_from(set, cfg).status().to_string(),
            inverted_sweep.status().to_string());
}

TEST(Localizer, NoisyChannelsStillLocalize) {
  Rng rng(99);
  const auto traj = drone::linear_trajectory({4, 2, 1}, {6, 2, 1}, 40);
  const Vec3 tag{5.0, 0.5, 0};
  const auto set =
      synthesize(traj, tag, {0, 0, 1}, 0.0, {}, /*noise=*/0.1, &rng);

  LocalizerConfig cfg;
  cfg.freq_hz = kF2;
  cfg.grid.x_min = 4;
  cfg.grid.x_max = 6;
  cfg.grid.y_min = -0.5;
  cfg.grid.y_max = 1.5;
  const auto result = localize_2d_checked(set, cfg);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(std::hypot(result->x - tag.x, result->y - tag.y), 0.15);
}

TEST(Rssi, DistanceInversionExact) {
  // |h_iso| from a free-space one-way channel squared: d recovered exactly.
  const double f = kF2;
  const double d_true = 3.7;
  const cdouble h2 = channel::propagation_coefficient(d_true, f);
  const double ref =
      std::norm(channel::propagation_coefficient(1.0, f));
  EXPECT_NEAR(rssi_distance(h2 * h2, ref), d_true, 1e-9);
}

TEST(Rssi, LocalizesCoarsely) {
  const auto traj = drone::linear_trajectory({3, 2, 0}, {7, 2, 0}, 30);
  const Vec3 tag{5.0, 0.0, 0};
  MeasurementSet set;
  for (const auto& p : traj) {
    const cdouble h2 = one_way(p, tag, kF2);
    RelayMeasurement m;
    m.relay_position = p;
    m.embedded_channel = {1.0, 0.0};
    m.target_channel = h2 * h2;
    set.push_back(m);
  }
  RssiConfig cfg;
  cfg.reference_magnitude_at_1m = std::norm(channel::propagation_coefficient(1.0, kF2));
  cfg.grid.x_min = 3;
  cfg.grid.x_max = 7;
  cfg.grid.y_min = -2;
  cfg.grid.y_max = 2;
  cfg.grid.resolution_m = 0.05;
  const auto result = rssi_localize(disentangle(set), cfg);
  // Mirror ambiguity across the (z=0) trajectory line is inherent to
  // range-only data; accept either side.
  EXPECT_NEAR(result.x, tag.x, 0.3);
  EXPECT_NEAR(std::abs(result.y - 2.0), 2.0, 0.3);
}

TEST(Localize3d, RecoversHeightWith2dTrajectory) {
  // A two-row trajectory (different altitudes) resolves z (Section 5.2).
  std::vector<Vec3> traj;
  for (double z : {0.8, 1.6}) {
    const auto row = drone::linear_trajectory({4, 2, z}, {6, 2, z}, 15);
    traj.insert(traj.end(), row.begin(), row.end());
  }
  const Vec3 tag{5.0, 0.5, 0.4};
  const auto set = synthesize(traj, tag, {0, 0, 1});

  Volume vol;
  vol.x_min = 4.5;
  vol.x_max = 5.5;
  vol.y_min = 0.0;
  vol.y_max = 1.0;
  vol.z_min = 0.0;
  vol.z_max = 1.0;
  vol.resolution_m = 0.05;
  Localize3dConfig cfg;
  cfg.freq_hz = kF2;
  const auto result = localize_3d(set, vol, cfg);
  ASSERT_TRUE(result.has_value());
  EXPECT_NEAR(result->position.x, tag.x, 0.1);
  EXPECT_NEAR(result->position.y, tag.y, 0.1);
  EXPECT_NEAR(result->position.z, tag.z, 0.15);
}

/// Property sweep: localization error stays small across tag placements.
class SarPlacementProperty : public ::testing::TestWithParam<int> {};

TEST_P(SarPlacementProperty, SubCentimeterOnCleanScenes) {
  Rng rng(static_cast<std::uint64_t>(1000 + GetParam()));
  const Vec3 tag{4.0 + rng.uniform(0, 2), rng.uniform(-0.5, 1.0), 0};
  const auto traj = drone::linear_trajectory({4, 2.5, 1}, {6, 2.5, 1}, 40);
  const auto set = synthesize(traj, tag, {0, 0, 1});

  LocalizerConfig cfg;
  cfg.freq_hz = kF2;
  cfg.grid.x_min = 3;
  cfg.grid.x_max = 7;
  cfg.grid.y_min = -1;
  cfg.grid.y_max = 2;
  const auto result = localize_2d_checked(set, cfg);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(std::hypot(result->x - tag.x, result->y - tag.y), 0.05);
}

INSTANTIATE_TEST_SUITE_P(Placements, SarPlacementProperty, ::testing::Range(0, 6));

}  // namespace
}  // namespace rfly::localize
