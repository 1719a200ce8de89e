#include <gtest/gtest.h>

#include "core/experiments.h"

namespace rfly::core {
namespace {

TEST(Experiments, CleanLocalizationTrialIsAccurate) {
  LocalizationTrialConfig cfg;
  cfg.shelf_rows = 0;  // line of sight
  const auto result = try_run_localization_trial(cfg, 42);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_LT(result->sar_error_m, 0.3);
  EXPECT_GT(result->measurements, 10u);
}

TEST(Experiments, SarBeatsRssi) {
  // In a realistic (multipath) environment the RSSI baseline collapses —
  // amplitude fades break the free-space inversion — while phase-based SAR
  // holds up. In a sterile free-space scene both are accurate and the
  // comparison is uninformative, so shelves are present here (Fig. 13's
  // 20x gap is measured in the paper's cluttered facility).
  LocalizationTrialConfig cfg;
  cfg.shelf_rows = 2;
  // Reader, flight path, and tag share an aisle between the steel shelf
  // rows (y = 10 and y = 20): strong reflections without total blockage.
  cfg.reader_position = {20.0, 15.0, 1.0};
  cfg.tag_position = {15.0, 12.0, 0.0};
  int sar_wins = 0;
  int trials = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto result = try_run_localization_trial(cfg, seed);
    if (!result) continue;
    ++trials;
    if (result->sar_error_m < result->rssi_error_m) ++sar_wins;
  }
  ASSERT_GE(trials, 4);
  EXPECT_GE(sar_wins, trials - 1);
}

TEST(Experiments, LargerApertureBetterAccuracy) {
  LocalizationTrialConfig narrow;
  narrow.shelf_rows = 0;
  narrow.aperture_m = 0.5;
  LocalizationTrialConfig wide = narrow;
  wide.aperture_m = 2.5;

  double narrow_total = 0.0;
  double wide_total = 0.0;
  int n = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto rn = try_run_localization_trial(narrow, seed);
    const auto rw = try_run_localization_trial(wide, seed);
    if (!rn || !rw) continue;
    narrow_total += rn->sar_error_m;
    wide_total += rw->sar_error_m;
    ++n;
  }
  ASSERT_GE(n, 3);
  EXPECT_LT(wide_total, narrow_total);
}

TEST(Experiments, ReadRateCrossoverAroundTenMeters) {
  ReadRateConfig cfg;
  const auto near = try_run_read_rate_point(cfg, 4.0, 1);
  const auto mid = try_run_read_rate_point(cfg, 15.0, 2);
  const auto far = try_run_read_rate_point(cfg, 50.0, 3);
  ASSERT_TRUE(near && mid && far);

  // Direct reading works close, dies by 15 m (paper Fig. 11: zero at 10 m).
  EXPECT_GT(near->read_rate_no_relay, 0.8);
  EXPECT_LT(mid->read_rate_no_relay, 0.1);
  EXPECT_LT(far->read_rate_no_relay, 0.05);

  // With the relay the read rate stays high out to 50 m.
  EXPECT_GT(mid->read_rate_with_relay, 0.9);
  EXPECT_GT(far->read_rate_with_relay, 0.9);
}

TEST(Experiments, ThroughWallReducesButDoesNotKillRelayRate) {
  ReadRateConfig open;
  ReadRateConfig walled;
  walled.through_wall = true;
  const auto o = try_run_read_rate_point(open, 55.0, 4);
  const auto w = try_run_read_rate_point(walled, 55.0, 4);
  ASSERT_TRUE(o && w);
  EXPECT_LE(w->read_rate_with_relay, o->read_rate_with_relay);
  EXPECT_GT(w->read_rate_with_relay, 0.3);
}

TEST(Experiments, DeterministicGivenSeed) {
  LocalizationTrialConfig cfg;
  const auto a = try_run_localization_trial(cfg, 7);
  const auto b = try_run_localization_trial(cfg, 7);
  // The outcome repeats whole: the same failure, or the same errors.
  ASSERT_EQ(a.ok(), b.ok());
  EXPECT_EQ(a.status().to_string(), b.status().to_string());
  if (!a) return;
  EXPECT_DOUBLE_EQ(a->sar_error_m, b->sar_error_m);
  EXPECT_DOUBLE_EQ(a->rssi_error_m, b->rssi_error_m);
}

}  // namespace
}  // namespace rfly::core
