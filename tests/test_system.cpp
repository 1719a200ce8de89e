#include <gtest/gtest.h>

#include <cmath>

#include "channel/link_budget.h"
#include "common/constants.h"
#include "core/system.h"

namespace rfly::core {
namespace {

RflySystem make_system(SystemConfig cfg = {}) {
  return RflySystem(cfg, channel::Environment{}, Vec3{0, 0, 1});
}

TEST(System, IncidentPowerFallsWithRelayTagDistance) {
  const auto sys = make_system();
  const Vec3 relay{10, 0, 1};
  const double p1 = sys.tag_incident_power_dbm(relay, {12, 0, 0.5});
  const double p2 = sys.tag_incident_power_dbm(relay, {16, 0, 0.5});
  EXPECT_GT(p1, p2);
}

TEST(System, RelayDecouplesPoweringFromReaderDistance) {
  // Key paper claim: with the relay near the tag, incident power at the tag
  // barely depends on the reader distance (the PA output cap dominates).
  const auto sys = make_system();
  const double near_reader =
      sys.tag_incident_power_dbm({5, 0, 1}, {8, 0, 0.5});
  const double far_reader =
      sys.tag_incident_power_dbm({47, 0, 1}, {50, 0, 0.5});
  EXPECT_NEAR(near_reader, far_reader, 6.0);
}

TEST(System, DirectPoweringDiesWithinTenMeters) {
  const auto sys = make_system();
  EXPECT_GT(sys.direct_tag_incident_power_dbm({4, 0, 0.5}),
            sys.config().tag.sensitivity_dbm);
  EXPECT_LT(sys.direct_tag_incident_power_dbm({12, 0, 0.5}),
            sys.config().tag.sensitivity_dbm);
}

TEST(System, RelayExtendsReadableRangeByAnOrderOfMagnitude) {
  const auto sys = make_system();
  Rng rng(1);
  // Direct: unreadable at 15 m.
  int direct_ok = 0;
  int relay_ok = 0;
  for (int t = 0; t < 20; ++t) {
    if (sys.tag_readable_direct({15, 0, 0.5}, rng)) ++direct_ok;
    if (sys.tag_readable({47, 0, 1}, {50, 0, 0.5}, rng)) ++relay_ok;
  }
  EXPECT_EQ(direct_ok, 0);
  EXPECT_GE(relay_ok, 18);
}

TEST(System, PaSaturationCapsEffectiveGain) {
  const auto sys = make_system();
  // Relay 1 m from the reader: receives a very strong signal, so the
  // effective downlink gain must be clamped well below nominal.
  EXPECT_LT(sys.effective_downlink_gain_db({1, 0, 1}),
            sys.config().relay_downlink_gain_db - 30.0);
  // At 50 m the relay is still (usefully) pinned at the PA output cap.
  EXPECT_LT(sys.effective_downlink_gain_db({50, 0, 1}),
            sys.config().relay_downlink_gain_db);
  // Only near the stability-limited edge of the range does the PA unclamp.
  EXPECT_NEAR(sys.effective_downlink_gain_db({200, 0, 1}),
              sys.config().relay_downlink_gain_db, 1.0);
}

TEST(System, MeasuredChannelPhaseTracksHalfLinks) {
  SystemConfig cfg;
  cfg.channel_noise = false;
  cfg.include_direct_path = false;
  const RflySystem sys(cfg, channel::Environment{}, Vec3{0, 0, 1});
  const Vec3 relay{20, 5, 1};
  const Vec3 tag{22, 5, 0};

  const cdouble h_meas = sys.measured_target_channel(relay, tag);
  const cdouble h_emb = sys.measured_embedded_channel(relay);
  const cdouble iso = h_meas / h_emb;

  // The disentangled phase must equal the relay-tag round trip at f2 (up
  // to the real-positive wire/gain ratio factors).
  const cdouble h2 = sys.relay_tag_channel(relay, tag);
  EXPECT_NEAR(phase_distance(std::arg(iso), std::arg(h2 * h2)), 0.0, 1e-6);
}

TEST(System, EmbeddedChannelIndependentOfTagPlacement) {
  SystemConfig cfg;
  cfg.channel_noise = false;
  const RflySystem sys(cfg, channel::Environment{}, Vec3{0, 0, 1});
  // Embedded channel depends only on the relay position.
  const cdouble e1 = sys.measured_embedded_channel({20, 5, 1});
  const cdouble e2 = sys.measured_embedded_channel({20, 5, 1});
  EXPECT_EQ(e1, e2);
}

TEST(System, HardwarePhaseCancelsInDisentanglement) {
  SystemConfig cfg1;
  cfg1.channel_noise = false;
  cfg1.include_direct_path = false;
  SystemConfig cfg2 = cfg1;
  cfg2.relay_hardware_phase_rad = 2.9;  // different board
  const RflySystem s1(cfg1, channel::Environment{}, Vec3{0, 0, 1});
  const RflySystem s2(cfg2, channel::Environment{}, Vec3{0, 0, 1});
  const Vec3 relay{20, 5, 1};
  const Vec3 tag{22, 5, 0};
  const cdouble iso1 = s1.measured_target_channel(relay, tag) /
                       s1.measured_embedded_channel(relay);
  const cdouble iso2 = s2.measured_target_channel(relay, tag) /
                       s2.measured_embedded_channel(relay);
  EXPECT_NEAR(std::abs(iso1 - iso2), 0.0, 1e-9 * std::abs(iso1));
}

TEST(System, CollectSkipsUnpoweredPoints) {
  SystemConfig cfg;
  cfg.channel_noise = false;
  const RflySystem sys(cfg, channel::Environment{}, Vec3{0, 0, 1});
  Rng rng(5);
  // Half the points are too far from the tag to power it.
  std::vector<drone::FlownPoint> flight;
  for (double x : {19.0, 20.0, 21.0, 60.0, 80.0, 100.0}) {
    flight.push_back({{x, 0, 1}, {x, 0, 1}});
  }
  const auto set = sys.try_collect_measurements(flight, {20, 0, 0.5}, rng);
  ASSERT_TRUE(set.ok()) << set.status().to_string();
  EXPECT_EQ(set->size(), 3u);
}

TEST(System, NoiseScalesWithIntegrationTime) {
  SystemConfig cfg;
  cfg.estimate_integration_s = 0.27e-3;
  const auto s1 = make_system(cfg);
  cfg.estimate_integration_s = 2.7e-3;
  const auto s2 = make_system(cfg);
  EXPECT_NEAR(s1.estimate_noise_sigma() / s2.estimate_noise_sigma(),
              std::sqrt(10.0), 1e-9);
}

TEST(System, ReplySnrFallsWithReaderDistance) {
  const auto sys = make_system();
  const double snr_near = sys.reply_snr_db({10, 0, 1}, {13, 0, 0.5});
  const double snr_far = sys.reply_snr_db({40, 0, 1}, {43, 0, 0.5});
  EXPECT_GT(snr_near, snr_far);
}

TEST(System, WallAttenuationReducesRange) {
  channel::Environment env;
  env.add_obstacle({{{10, -5}, {10, 5}}, channel::concrete()});
  SystemConfig cfg;
  const RflySystem walled(cfg, env, Vec3{0, 0, 1});
  const RflySystem open(cfg, channel::Environment{}, Vec3{0, 0, 1});
  EXPECT_LT(walled.reply_snr_db({20, 0, 1}, {23, 0, 0.5}),
            open.reply_snr_db({20, 0, 1}, {23, 0, 0.5}));
}

TEST(System, RssiReferenceMatchesChannelModel) {
  SystemConfig cfg;
  cfg.channel_noise = false;
  cfg.include_direct_path = false;
  const RflySystem sys(cfg, channel::Environment{}, Vec3{0, 0, 1});
  // Place relay exactly 1 m from a tag (free space): |h_iso| should equal
  // the advertised reference magnitude (up to uplink-gain cap effects).
  const Vec3 relay{30, 0, 1};
  const Vec3 tag{30, 1, 1};
  const cdouble iso = sys.measured_target_channel(relay, tag) /
                      sys.measured_embedded_channel(relay);
  EXPECT_NEAR(std::abs(iso) / sys.rssi_reference_magnitude_at_1m(), 1.0, 0.2);
}

}  // namespace
}  // namespace rfly::core
