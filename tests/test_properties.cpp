// Cross-module property suites: invariants that must hold across the whole
// stack, swept over parameters with TEST_P.
#include <gtest/gtest.h>

#include <cmath>

#include "channel/channel_model.h"
#include "channel/link_budget.h"
#include "channel/path_loss.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/system.h"
#include "drone/flight.h"
#include "drone/trajectory.h"
#include "gen2/crc.h"
#include "gen2/pie.h"
#include "localize/localizer.h"
#include "signal/filter.h"
#include "signal/spectrum.h"

namespace rfly {
namespace {

// ---------------------------------------------------------------------------
// Energy conservation: a passive channel never amplifies.

class PassiveChannelProperty : public ::testing::TestWithParam<int> {};

TEST_P(PassiveChannelProperty, ChannelNeverAmplifies) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  channel::Environment env;
  // Random reflectors.
  for (int i = 0; i < GetParam() % 4; ++i) {
    env.add_obstacle({{{rng.uniform(-20, 20), rng.uniform(-20, 20)},
                       {rng.uniform(-20, 20), rng.uniform(-20, 20)}},
                      channel::steel_shelf()});
  }
  for (int trial = 0; trial < 20; ++trial) {
    const channel::Vec3 a{rng.uniform(-10, 10), rng.uniform(-10, 10),
                          rng.uniform(0.2, 3.0)};
    const channel::Vec3 b{rng.uniform(-10, 10), rng.uniform(-10, 10),
                          rng.uniform(0.2, 3.0)};
    if (a.distance_to(b) < 0.5) continue;
    const cdouble h = channel::point_to_point_channel(env, a, b, 915e6);
    // Passive link with isotropic antennas: |h| < 1 always, and bounded by
    // a few times the free-space direct path (constructive multipath).
    EXPECT_LT(std::abs(h), 1.0);
    const double direct =
        std::abs(channel::propagation_coefficient(a.distance_to(b), 915e6));
    EXPECT_LT(std::abs(h), 4.0 * direct + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PassiveChannelProperty, ::testing::Range(1, 7));

// ---------------------------------------------------------------------------
// Reciprocity: h(a->b) == h(b->a) for every environment.

TEST(ChannelProperty, Reciprocity) {
  Rng rng(5);
  channel::Environment env;
  env.add_obstacle({{{0, 5}, {20, 5}}, channel::steel_shelf()});
  env.add_obstacle({{{8, -3}, {8, 8}}, channel::drywall()});
  for (int trial = 0; trial < 30; ++trial) {
    const channel::Vec3 a{rng.uniform(0, 20), rng.uniform(-2, 4), 1.0};
    const channel::Vec3 b{rng.uniform(0, 20), rng.uniform(-2, 4), 1.0};
    const cdouble hab = channel::point_to_point_channel(env, a, b, 915e6);
    const cdouble hba = channel::point_to_point_channel(env, b, a, 915e6);
    EXPECT_NEAR(std::abs(hab - hba), 0.0, 1e-12 + 1e-9 * std::abs(hab));
  }
}

// ---------------------------------------------------------------------------
// Link-budget monotonicity across the system model.

class BudgetMonotonicity : public ::testing::TestWithParam<double> {};

TEST_P(BudgetMonotonicity, MoreDistanceNeverMoreSignal) {
  core::SystemConfig cfg;
  cfg.reader_eirp_dbm = GetParam();
  const core::RflySystem sys(cfg, channel::Environment{}, {0, 0, 1});
  double prev_snr = 1e9;
  for (double d = 10.0; d <= 100.0; d += 10.0) {
    const double snr = sys.reply_snr_db({d, 0, 1}, {d + 2.0, 0, 0.5});
    EXPECT_LE(snr, prev_snr + 1e-9) << "at " << d;
    prev_snr = snr;
  }
}

INSTANTIATE_TEST_SUITE_P(Powers, BudgetMonotonicity,
                         ::testing::Values(20.0, 25.0, 30.0, 36.0));

// ---------------------------------------------------------------------------
// Eq. 3/4 consistency: required isolation and max range invert each other
// across the band.

class IsolationRangeInverse : public ::testing::TestWithParam<double> {};

TEST_P(IsolationRangeInverse, RoundTrip) {
  const double f = GetParam();
  for (double iso = 20.0; iso <= 100.0; iso += 7.0) {
    const double r = channel::max_relay_range_m(iso, f);
    EXPECT_NEAR(channel::required_isolation_db(r, f), iso, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Frequencies, IsolationRangeInverse,
                         ::testing::Values(902e6, 915e6, 928e6));

// ---------------------------------------------------------------------------
// Gen2 frame round trips survive the full PIE waveform layer for every
// command type.

TEST(ProtocolProperty, EveryCommandSurvivesPie) {
  gen2::PieConfig pie;
  pie.sample_rate_hz = 4e6;
  std::vector<gen2::Command> commands = {
      gen2::Command{gen2::QueryCommand{}},
      gen2::Command{gen2::QueryRepCommand{}},
      gen2::Command{gen2::QueryAdjustCommand{}},
      gen2::Command{gen2::AckCommand{0xF0A5}},
      gen2::Command{gen2::NakCommand{}},
      gen2::Command{gen2::SelectCommand{}},
  };
  for (const auto& cmd : commands) {
    const auto bits = gen2::encode_command(cmd);
    const bool with_trcal = std::holds_alternative<gen2::QueryCommand>(cmd);
    const auto env = gen2::pie_encode(bits, pie, with_trcal);
    const auto decoded = gen2::pie_decode(env, pie);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->bits, bits);
    const auto round = gen2::decode_command(decoded->bits);
    EXPECT_TRUE(round.has_value());
  }
}

// ---------------------------------------------------------------------------
// CRC coverage: random payload lengths, every single-bit flip detected.

class CrcSweep : public ::testing::TestWithParam<int> {};

TEST_P(CrcSweep, AllSingleFlipsDetected) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  gen2::Bits payload(static_cast<std::size_t>(8 + GetParam() * 13));
  for (auto& b : payload) b = rng.chance(0.5) ? 1 : 0;
  gen2::Bits frame = payload;
  gen2::append_bits(frame, gen2::crc16(payload), 16);
  ASSERT_TRUE(gen2::crc16_check(frame));
  for (std::size_t i = 0; i < frame.size(); ++i) {
    gen2::Bits corrupted = frame;
    corrupted[i] ^= 1;
    EXPECT_FALSE(gen2::crc16_check(corrupted));
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, CrcSweep, ::testing::Range(0, 6));

// ---------------------------------------------------------------------------
// Filter safety: every designed Butterworth keeps |H| <= ~1 in band
// (no accidental resonance) across orders and cutoffs.

class FilterGainBound
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(FilterGainBound, NoResonance) {
  const auto [order, cutoff] = GetParam();
  const double fs = 4e6;
  const auto lp = signal::butterworth_lowpass(order, cutoff, fs);
  for (double f = 0.0; f < fs / 2.0; f += fs / 256.0) {
    EXPECT_LT(std::abs(lp.response(f, fs)), 1.01)
        << "order " << order << " cutoff " << cutoff << " at " << f;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Designs, FilterGainBound,
    ::testing::Combine(::testing::Values(2, 4, 6, 8),
                       ::testing::Values(50e3, 100e3, 500e3, 1.5e6)));

// ---------------------------------------------------------------------------
// GridSpec sampling invariants: the heatmap grid must cover [min, max]
// without ever sampling past the extent, for any (extent, resolution) pair
// — including extents not divisible by the resolution and degenerate
// single-cell grids.

TEST(GridSpecProperty, ExtentNotDivisibleByResolution) {
  // 1.0 / 0.3 = 3.33..: four samples, last one at 0.9.
  const localize::GridSpec g{0.0, 1.0, 0.0, 1.0, 0.3};
  EXPECT_EQ(g.nx(), 4u);
  EXPECT_EQ(g.ny(), 4u);
  EXPECT_NEAR(g.x_at(g.nx() - 1), 0.9, 1e-12);
  EXPECT_LE(g.x_at(g.nx() - 1), g.x_max + 1e-12);
}

TEST(GridSpecProperty, SingleCellGrid) {
  // Zero extent: exactly one sample, sitting on the lower corner.
  const localize::GridSpec g{2.0, 2.0, -1.0, -1.0, 0.05};
  EXPECT_EQ(g.nx(), 1u);
  EXPECT_EQ(g.ny(), 1u);
  EXPECT_DOUBLE_EQ(g.x_at(0), 2.0);
  EXPECT_DOUBLE_EQ(g.y_at(0), -1.0);
}

TEST(GridSpecProperty, ExtentSmallerThanResolution) {
  const localize::GridSpec g{0.0, 0.01, 0.0, 0.02, 0.05};
  EXPECT_EQ(g.nx(), 1u);
  EXPECT_EQ(g.ny(), 1u);
}

class GridSpecSweep : public ::testing::TestWithParam<int> {};

TEST_P(GridSpecSweep, LastSampleInsideExtent) {
  Rng rng(static_cast<std::uint64_t>(9000 + GetParam()));
  for (int trial = 0; trial < 50; ++trial) {
    localize::GridSpec g;
    g.x_min = rng.uniform(-20.0, 20.0);
    g.x_max = g.x_min + rng.uniform(0.0, 10.0);
    g.y_min = rng.uniform(-20.0, 20.0);
    g.y_max = g.y_min + rng.uniform(0.0, 10.0);
    g.resolution_m = rng.uniform(0.005, 0.75);
    const std::size_t nx = g.nx();
    const std::size_t ny = g.ny();
    ASSERT_GE(nx, 1u);
    ASSERT_GE(ny, 1u);
    // The last sample never oversteps the extent (up to FP slack)...
    const double eps_x = 1e-9 * (std::abs(g.x_max) + g.resolution_m);
    const double eps_y = 1e-9 * (std::abs(g.y_max) + g.resolution_m);
    EXPECT_LE(g.x_at(nx - 1), g.x_max + eps_x);
    EXPECT_LE(g.y_at(ny - 1), g.y_max + eps_y);
    // ...and one more step would: the grid reaches the far edge to within
    // one cell.
    EXPECT_GT(g.x_at(nx), g.x_max - eps_x);
    EXPECT_GT(g.y_at(ny), g.y_max - eps_y);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridSpecSweep, ::testing::Range(0, 4));

// ---------------------------------------------------------------------------
// End-to-end localization invariance: shifting the whole scene by a rigid
// translation shifts the estimate by the same amount.

TEST(LocalizationProperty, TranslationEquivariance) {
  auto run_scene = [](double ox, double oy) {
    core::SystemConfig cfg;
    cfg.channel_noise = false;
    cfg.amplitude_ripple_std_db = 0.0;
    cfg.phase_ripple_std_rad = 0.0;
    const core::RflySystem sys(cfg, channel::Environment{},
                               {ox + 0.0, oy + 0.0, 1.0});
    Rng rng(3);
    const auto plan = drone::linear_trajectory({ox + 9.0, oy + 7.0, 1.0},
                                               {ox + 11.0, oy + 7.2, 1.0}, 30);
    drone::FlightConfig no_jitter;
    no_jitter.position_jitter_std_m = 0.0;
    drone::TrackingConfig perfect;
    perfect.noise_std_m = 0.0;
    const auto flight = drone::fly(plan, no_jitter, perfect, rng);
    const auto set =
        sys.try_collect_measurements(flight, {ox + 10.0, oy + 5.0, 0.0}, rng);
    EXPECT_TRUE(set.ok()) << set.status().to_string();
    localize::LocalizerConfig loc;
    loc.freq_hz = cfg.carrier_hz + cfg.freq_shift_hz;
    loc.grid = {ox + 8.0, ox + 12.0, oy + 3.5, oy + 6.5, 0.01};
    const auto result = localize::localize_2d_checked(set.value_or({}), loc);
    EXPECT_TRUE(result.ok());
    return std::pair<double, double>{result->x - ox, result->y - oy};
  };
  const auto base = run_scene(0.0, 0.0);
  const auto shifted = run_scene(13.0, -6.0);
  EXPECT_NEAR(base.first, shifted.first, 0.02);
  EXPECT_NEAR(base.second, shifted.second, 0.02);
}

// ---------------------------------------------------------------------------
// Disentanglement is invariant to the reader-relay half-link: changing the
// reader position must not change the isolated relay-tag channels.

TEST(LocalizationProperty, DisentanglementRemovesReaderGeometry) {
  core::SystemConfig cfg;
  cfg.channel_noise = false;
  cfg.include_direct_path = false;
  cfg.amplitude_ripple_std_db = 0.0;
  cfg.phase_ripple_std_rad = 0.0;
  const core::RflySystem near_sys(cfg, channel::Environment{}, {1, 0, 1});
  const core::RflySystem far_sys(cfg, channel::Environment{}, {-20, 14, 2});

  Rng rng1(4);
  Rng rng2(4);
  const auto plan = drone::linear_trajectory({9, 7, 1}, {11, 7.2, 1}, 20);
  drone::FlightConfig no_jitter;
  no_jitter.position_jitter_std_m = 0.0;
  drone::TrackingConfig perfect;
  perfect.noise_std_m = 0.0;
  const auto flight = drone::fly(plan, no_jitter, perfect, rng1);
  const auto flight2 = drone::fly(plan, no_jitter, perfect, rng2);

  const auto set_a = near_sys.try_collect_measurements(flight, {10, 5, 0}, rng1);
  const auto set_b = far_sys.try_collect_measurements(flight2, {10, 5, 0}, rng2);
  ASSERT_TRUE(set_a && set_b);
  const auto iso_a = localize::disentangle(*set_a);
  const auto iso_b = localize::disentangle(*set_b);
  ASSERT_EQ(iso_a.channels.size(), iso_b.channels.size());
  for (std::size_t i = 0; i < iso_a.channels.size(); ++i) {
    // Up to the (common) uplink-gain saturation differences, the isolated
    // phase must match exactly.
    EXPECT_NEAR(phase_distance(std::arg(iso_a.channels[i]),
                               std::arg(iso_b.channels[i])),
                0.0, 1e-6);
  }
}

}  // namespace
}  // namespace rfly
