#include <gtest/gtest.h>

#include <cmath>

#include "channel/path_loss.h"
#include "drone/trajectory.h"
#include "localize/uncertainty.h"

namespace rfly::localize {
namespace {

using channel::Vec3;

MeasurementSet synthesize(const std::vector<Vec3>& trajectory, const Vec3& tag,
                          double ghost_gain = 0.0, const Vec3& ghost = {}) {
  MeasurementSet set;
  for (const auto& p : trajectory) {
    const cdouble h1 =
        channel::propagation_coefficient(p.distance_to({0, 0, 1}), 915e6);
    cdouble h2 = channel::propagation_coefficient(p.distance_to(tag), 916e6);
    if (ghost_gain > 0.0) {
      h2 += ghost_gain * channel::propagation_coefficient(p.distance_to(ghost), 916e6);
    }
    RelayMeasurement m;
    m.relay_position = p;
    m.embedded_channel = h1 * h1 * 1e-3;
    m.target_channel = h1 * h1 * h2 * h2;
    set.push_back(m);
  }
  return set;
}

LocalizationResult localize(const MeasurementSet& set, const Vec3& tag) {
  LocalizerConfig cfg;
  cfg.freq_hz = 916e6;
  cfg.grid = {tag.x - 3.0, tag.x + 3.0, tag.y - 2.0, tag.y + 1.3, 0.02};
  cfg.peak_threshold_fraction = 0.3;
  const auto result = localize_2d_checked(set, cfg);
  EXPECT_TRUE(result.ok());
  return *result;
}

TEST(Uncertainty, CleanSceneIsReliable) {
  const auto traj = drone::linear_trajectory({4, 2, 1}, {6, 2.2, 1}, 40);
  const Vec3 tag{5, 0.5, 0};
  const auto set = synthesize(traj, tag);
  const auto result = localize(set, tag);
  const auto conf = assess_confidence(set, result, 916e6);
  EXPECT_LT(conf.ambiguity, 0.85);
  EXPECT_LT(conf.halfwidth_x_m, 0.2);
  EXPECT_TRUE(conf.reliable);
}

TEST(Uncertainty, GhostSceneIsAmbiguous) {
  const auto traj = drone::linear_trajectory({4, 2, 1}, {6, 2.2, 1}, 40);
  const Vec3 tag{5, 0.5, 0};
  const auto set = synthesize(traj, tag, 0.8, {6.5, 4.5, 0.0});
  // Open (two-sided) search so the ghost beyond the path is in play.
  LocalizerConfig cfg;
  cfg.freq_hz = 916e6;
  cfg.grid = {3.0, 8.0, -1.0, 7.0, 0.02};
  cfg.peak_threshold_fraction = 0.3;
  const auto result = localize_2d_checked(set, cfg);
  ASSERT_TRUE(result.ok());
  const auto conf = assess_confidence(set, *result, 916e6);
  EXPECT_GT(conf.ambiguity, 0.5);
}

TEST(Uncertainty, WiderApertureTightensPeak) {
  const Vec3 tag{5, 0.5, 0};
  const auto narrow_traj = drone::linear_trajectory({4.75, 2, 1}, {5.25, 2.05, 1}, 30);
  const auto wide_traj = drone::linear_trajectory({3.5, 2, 1}, {6.5, 2.3, 1}, 30);
  const auto narrow_set = synthesize(narrow_traj, tag);
  const auto wide_set = synthesize(wide_traj, tag);
  const auto narrow_conf =
      assess_confidence(narrow_set, localize(narrow_set, tag), 916e6);
  const auto wide_conf =
      assess_confidence(wide_set, localize(wide_set, tag), 916e6);
  EXPECT_LT(wide_conf.halfwidth_x_m, narrow_conf.halfwidth_x_m);
}

TEST(Uncertainty, EmptyMeasurementsUnreliable) {
  LocalizationResult fake;
  fake.peak_value = 1.0;
  const auto conf = assess_confidence({}, fake, 916e6);
  EXPECT_FALSE(conf.reliable);
}

}  // namespace
}  // namespace rfly::localize
