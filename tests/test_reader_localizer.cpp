#include <gtest/gtest.h>

#include <cmath>

#include "channel/path_loss.h"
#include "core/system.h"
#include "drone/flight.h"
#include "drone/trajectory.h"
#include "localize/reader_localizer.h"

namespace rfly::localize {
namespace {

using channel::Vec3;

MeasurementSet synthesize(const std::vector<Vec3>& trajectory, const Vec3& reader) {
  MeasurementSet set;
  const cdouble hw = 2e-3 * cis(0.7);  // constant wire/hardware factor
  for (const auto& p : trajectory) {
    const cdouble h1 =
        channel::propagation_coefficient(p.distance_to(reader), 915e6);
    RelayMeasurement m;
    m.relay_position = p;
    m.embedded_channel = h1 * h1 * hw;
    m.target_channel = {0.0, 0.0};  // unused here
    set.push_back(m);
  }
  return set;
}

TEST(ReaderLocalizer, RecoversReaderPosition) {
  const Vec3 reader{2.0, 4.0, 1.0};
  const auto traj = drone::linear_trajectory({0, 8, 1}, {6, 8.4, 1}, 40);
  const auto set = synthesize(traj, reader);

  ReaderLocalizerConfig cfg;
  cfg.grid = {-1.0, 7.0, 0.0, 7.5, 0.01};
  cfg.z_plane_m = reader.z;
  const auto result = localize_reader_2d(set, cfg);
  ASSERT_TRUE(result.has_value());
  EXPECT_LT(std::hypot(result->x - reader.x, result->y - reader.y), 0.05);
  EXPECT_EQ(result->measurements_used, 40u);
}

TEST(ReaderLocalizer, ConstantHardwareFactorIsHarmless) {
  const Vec3 reader{2.0, 4.0, 1.0};
  const auto traj = drone::linear_trajectory({0, 8, 1}, {6, 8.4, 1}, 30);
  auto set = synthesize(traj, reader);
  for (auto& m : set) m.embedded_channel *= 5.0 * cis(2.2);

  ReaderLocalizerConfig cfg;
  cfg.grid = {-1.0, 7.0, 0.0, 7.5, 0.02};
  cfg.z_plane_m = reader.z;
  const auto result = localize_reader_2d(set, cfg);
  ASSERT_TRUE(result.has_value());
  EXPECT_LT(std::hypot(result->x - reader.x, result->y - reader.y), 0.1);
}

TEST(ReaderLocalizer, EmptyMeasurementsFail) {
  EXPECT_FALSE(localize_reader_2d({}, ReaderLocalizerConfig{}).has_value());
}

TEST(ReaderLocalizer, WorksOnSystemGeneratedMeasurements) {
  // End to end: the channel-level system produces the embedded channels.
  core::SystemConfig sys_cfg;
  sys_cfg.channel_noise = true;
  const Vec3 reader{3.0, 2.0, 1.0};
  core::RflySystem system(sys_cfg, channel::Environment{}, reader);

  Rng rng(71);
  const auto plan = drone::linear_trajectory({0, 7, 1.2}, {7, 7.6, 1.2}, 50);
  const auto flight =
      drone::fly(plan, drone::FlightConfig{}, drone::optitrack_tracking(), rng);
  // Any tag close enough to keep measurements flowing.
  const auto set = system.try_collect_measurements(flight, {3.5, 5.0, 0.0}, rng);
  ASSERT_TRUE(set.ok()) << set.status().to_string();
  ASSERT_GT(set->size(), 10u);

  ReaderLocalizerConfig cfg;
  cfg.grid = {0.0, 7.0, -1.0, 5.0, 0.01};
  cfg.z_plane_m = reader.z;
  const auto result = localize_reader_2d(*set, cfg);
  ASSERT_TRUE(result.has_value());
  EXPECT_LT(std::hypot(result->x - reader.x, result->y - reader.y), 0.2);
}

TEST(ReaderLocalizer, MultiresMatchesFullScan) {
  const Vec3 reader{2.5, 3.5, 1.0};
  const auto traj = drone::linear_trajectory({0, 7, 1}, {5, 7.4, 1}, 30);
  const auto set = synthesize(traj, reader);

  ReaderLocalizerConfig cfg;
  cfg.grid = {0.0, 5.0, 1.0, 6.0, 0.01};
  cfg.z_plane_m = reader.z;
  cfg.multires = false;
  const auto full = localize_reader_2d(set, cfg);
  cfg.multires = true;
  const auto fast = localize_reader_2d(set, cfg);
  ASSERT_TRUE(full.has_value());
  ASSERT_TRUE(fast.has_value());
  EXPECT_NEAR(full->x, fast->x, 0.03);
  EXPECT_NEAR(full->y, fast->y, 0.03);
}

}  // namespace
}  // namespace rfly::localize
