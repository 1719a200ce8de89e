// Measurement-synthesis plane suite (`measure` label), pinned layer by
// layer:
//
//   - Exact plane collect: bit-identical to the seed's per-point collect
//     loop — values, statuses, and rng consumption. The seed loop lives
//     here as the oracle (seed_collect below); the library ships only the
//     plane-backed loop.
//   - RNG draw-order golden: the production collect's documented draw
//     contract (no shadowing; 2 ripple + 4 noise gaussians per surviving
//     point, in flight order; skipped points draw nothing; gated by the
//     ripple stds and the estimate sigma) reconstructed draw by draw from a
//     fresh Rng.
//   - Forward kernels: the one scalar build is listed and active; fast
//     synthesis tracks the exact channels to tight relative tolerance with
//     identical readable sets.
//   - Scenario knob `measure.plane`: names, parse, removed values,
//     serialize/parse round-trip, override.
//   - The full-mission parity matrix: measure.plane=exact reports reproduce
//     the digests the seed loop's missions produced, across {threads 1/2/8}
//     x {batched, per-mission} x {faults on/off}.
//   - The plane's cost contract: each build charges one channel eval per
//     waypoint, and every single-relay mission builds exactly one plane.
//   - The collect loop's skip: the relay→tag magnitude bound it checks
//     before each exact evaluation is an upper bound on seeded random
//     geometry (walls, shelves, degenerate points), the collect stays
//     bit-identical to the seed loop over random environments, flights and
//     link budgets, and the `measure.h2_*` counters tally every
//     tag-waypoint of a warehouse mission.
//
// Run it in the TSAN tree (concurrent missions under the batch runner) and
// the ASan+UBSan tree (kernel pointer arithmetic, SoA tails, per-tag
// tables).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "channel/channel_model.h"
#include "channel/environment.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/forward_kernel.h"
#include "core/forward_plane.h"
#include "core/system.h"
#include "drone/flight.h"
#include "drone/trajectory.h"
#include "localize/measurement.h"
#include "obs/metrics.h"
#include "service/wire.h"
#include "sim/batch.h"

namespace rfly {
namespace {

using channel::Vec3;

// --- Direct-collect fixtures ---------------------------------------------

/// A small warehouse pass: reader in a corner, one aisle flight, tags a
/// meter off the path. Close enough that most points power the tags, far
/// enough that some drop (both skip branches stay exercised).
struct Fixture {
  core::RflySystem system;
  std::vector<drone::FlownPoint> flight;
  std::vector<Vec3> tags;
};

Fixture make_fixture(std::uint64_t seed, core::SystemConfig config = {}) {
  Rng rng(seed);
  const auto plan =
      drone::linear_trajectory({1.0, 3.0, 1.0}, {9.0, 3.0, 1.0}, 40);
  return Fixture{
      core::RflySystem(config, channel::warehouse_environment(12.0, 10.0, 1),
                       {1.0, 1.0, 1.0}),
      drone::fly(plan, {}, drone::optitrack_tracking(), rng),
      {{3.0, 2.0, 0.5}, {5.0, 2.2, 0.8}, {7.0, 1.8, 0.5}}};
}

/// The seed loop's skip conditions, verbatim — the reference for which
/// points survive.
bool point_survives(const core::RflySystem& system, const Vec3& actual,
                    const Vec3& tag) {
  const auto& cfg = system.config();
  return system.tag_incident_power_dbm(actual, tag) >= cfg.tag.sensitivity_dbm &&
         system.reply_snr_db(actual, tag) >= cfg.decode_snr_threshold_db;
}

/// The seed's collect loop, the oracle for the plane: every per-waypoint
/// quantity is re-derived per point per tag through RflySystem's public
/// methods, then the documented ripple and noise draws follow.
Expected<localize::MeasurementSet> seed_collect(
    const core::RflySystem& system, const std::vector<drone::FlownPoint>& flight,
    const Vec3& tag, Rng& rng) {
  if (flight.empty()) {
    return Status{StatusCode::kEmptyFlightPlan,
                  "cannot collect measurements over an empty flight"};
  }
  const auto& cfg = system.config();
  localize::MeasurementSet set;
  const double sigma = system.estimate_noise_sigma();
  for (const auto& point : flight) {
    if (!point_survives(system, point.actual, tag)) continue;
    localize::RelayMeasurement m;
    m.relay_position = point.reported;
    m.target_channel = system.measured_target_channel(point.actual, tag);
    m.embedded_channel = system.measured_embedded_channel(point.actual);
    if (cfg.amplitude_ripple_std_db > 0.0 || cfg.phase_ripple_std_rad > 0.0) {
      m.target_channel *=
          db_to_amplitude(rng.gaussian(0.0, cfg.amplitude_ripple_std_db)) *
          cis(rng.gaussian(0.0, cfg.phase_ripple_std_rad));
    }
    if (sigma > 0.0) {
      m.target_channel += cdouble{rng.gaussian(0.0, sigma / std::sqrt(2.0)),
                                  rng.gaussian(0.0, sigma / std::sqrt(2.0))};
      m.embedded_channel += cdouble{rng.gaussian(0.0, sigma / std::sqrt(2.0)),
                                    rng.gaussian(0.0, sigma / std::sqrt(2.0))};
    }
    set.push_back(m);
  }
  if (set.empty()) {
    return Status{StatusCode::kInsufficientData,
                  "tag unpowered or undecodable at all " +
                      std::to_string(flight.size()) + " flight points"};
  }
  return set;
}

std::size_t surviving_count(const Fixture& f, const Vec3& tag) {
  std::size_t n = 0;
  for (const auto& p : f.flight) {
    if (point_survives(f.system, p.actual, tag)) ++n;
  }
  return n;
}

// --- Exact plane: bit-identity -------------------------------------------

TEST(ExactPlane, CollectIsBitIdenticalToScalar) {
  const auto f = make_fixture(1);
  const auto plane = core::ForwardPlane::build(f.system, f.flight);
  for (const Vec3& tag : f.tags) {
    Rng scalar_rng(7), plane_rng(7);
    const auto scalar = seed_collect(f.system, f.flight, tag, scalar_rng);
    const auto planed =
        f.system.try_collect_measurements(f.flight, tag, plane_rng, plane);
    ASSERT_TRUE(scalar.ok()) << scalar.status().to_string();
    ASSERT_TRUE(planed.ok()) << planed.status().to_string();
    ASSERT_GT(scalar.value().size(), 0u);
    EXPECT_TRUE(localize::bitwise_equal(scalar.value(), planed.value()));
    // Both rngs consumed the exact same draw count: their streams stay in
    // lockstep past the call.
    EXPECT_EQ(scalar_rng.gaussian(), plane_rng.gaussian());
  }
}

TEST(ExactPlane, StatusesMatchScalar) {
  const auto f = make_fixture(2);
  const auto plane = core::ForwardPlane::build(f.system, f.flight);

  Rng ra(1), rb(1);
  const auto scalar_empty = seed_collect(f.system, {}, f.tags[0], ra);
  const core::ForwardPlane empty_plane;
  const auto plane_empty =
      f.system.try_collect_measurements({}, f.tags[0], rb, empty_plane);
  ASSERT_FALSE(scalar_empty.ok());
  ASSERT_FALSE(plane_empty.ok());
  EXPECT_EQ(scalar_empty.status().code(), StatusCode::kEmptyFlightPlan);
  EXPECT_EQ(plane_empty.status().to_string(), scalar_empty.status().to_string());

  // A tag far outside the relay's reach: every point dropped, identical
  // kInsufficientData text (it embeds the flight size).
  const Vec3 unreachable{11.5, 9.5, 0.1};
  const auto scalar_bad = seed_collect(f.system, f.flight, unreachable, ra);
  const auto plane_bad =
      f.system.try_collect_measurements(f.flight, unreachable, rb, plane);
  ASSERT_FALSE(scalar_bad.ok());
  ASSERT_FALSE(plane_bad.ok());
  EXPECT_EQ(scalar_bad.status().code(), StatusCode::kInsufficientData);
  EXPECT_EQ(plane_bad.status().to_string(), scalar_bad.status().to_string());
}

TEST(ExactPlane, HoistsMatchScalarMethodsBitwise) {
  const auto f = make_fixture(3);
  const auto plane = core::ForwardPlane::build(f.system, f.flight);
  ASSERT_EQ(plane.size(), f.flight.size());
  for (std::size_t i = 0; i < f.flight.size(); ++i) {
    const Vec3& a = f.flight[i].actual;
    EXPECT_EQ(plane.px[i], a.x);
    EXPECT_EQ(plane.py[i], a.y);
    EXPECT_EQ(plane.pz[i], a.z);
    const cdouble h1 = f.system.reader_relay_channel(a);
    EXPECT_EQ(plane.h1[i], h1) << i;
    EXPECT_EQ(plane.h1_abs_db[i], amplitude_to_db(std::abs(h1))) << i;
    EXPECT_EQ(plane.g_d_amp[i],
              db_to_amplitude(f.system.effective_downlink_gain_db(a)))
        << i;
    EXPECT_EQ(plane.embedded[i], f.system.measured_embedded_channel(a)) << i;
  }
}

// --- RNG draw-order golden -----------------------------------------------

TEST(DrawOrder, GoldenReplayReconstructsEveryMeasurement) {
  const auto f = make_fixture(4);
  const auto& cfg = f.system.config();
  ASSERT_GT(cfg.amplitude_ripple_std_db, 0.0);  // both gates open by default
  ASSERT_GT(f.system.estimate_noise_sigma(), 0.0);
  const Vec3 tag = f.tags[0];

  Rng collect_rng(99);
  const auto collected = f.system.try_collect_measurements(f.flight, tag, collect_rng);
  ASSERT_TRUE(collected.ok());
  const auto& set = collected.value();
  ASSERT_GT(set.size(), 0u);
  ASSERT_LT(set.size(), f.flight.size());  // some points skipped: gaps in play

  // Replay with a fresh Rng: for each surviving point, exactly two ripple
  // gaussians (amplitude dB, then phase rad) then four noise gaussians
  // (target re/im, embedded re/im); skipped points draw nothing. If the
  // implementation drew anything else — shadowing, draws on skipped points,
  // a different order — the streams would desynchronize and the bitwise
  // comparison below would fail.
  Rng replay(99);
  const double sigma = f.system.estimate_noise_sigma();
  std::size_t idx = 0;
  for (const auto& point : f.flight) {
    if (!point_survives(f.system, point.actual, tag)) continue;
    localize::RelayMeasurement expected;
    expected.relay_position = point.reported;
    expected.target_channel = f.system.measured_target_channel(point.actual, tag);
    expected.embedded_channel = f.system.measured_embedded_channel(point.actual);
    expected.target_channel *=
        db_to_amplitude(replay.gaussian(0.0, cfg.amplitude_ripple_std_db)) *
        cis(replay.gaussian(0.0, cfg.phase_ripple_std_rad));
    expected.target_channel += cdouble{replay.gaussian(0.0, sigma / std::sqrt(2.0)),
                                       replay.gaussian(0.0, sigma / std::sqrt(2.0))};
    expected.embedded_channel +=
        cdouble{replay.gaussian(0.0, sigma / std::sqrt(2.0)),
                replay.gaussian(0.0, sigma / std::sqrt(2.0))};
    ASSERT_LT(idx, set.size());
    EXPECT_TRUE(localize::bitwise_equal(set[idx], expected)) << "point " << idx;
    ++idx;
  }
  EXPECT_EQ(idx, set.size());
  // Both streams end in the same state.
  EXPECT_EQ(collect_rng.gaussian(), replay.gaussian());
}

/// Draw-count golden for the gated configs: after collect, the rng must sit
/// exactly `draws_per_point * survivors` gaussians into its stream.
void expect_draw_count(core::SystemConfig config, std::size_t draws_per_point) {
  const auto f = make_fixture(5, config);
  const Vec3 tag = f.tags[1];
  const std::size_t survivors = surviving_count(f, tag);
  ASSERT_GT(survivors, 0u);

  Rng collect_rng(123);
  const auto collected = f.system.try_collect_measurements(f.flight, tag, collect_rng);
  ASSERT_TRUE(collected.ok());
  ASSERT_EQ(collected.value().size(), survivors);

  Rng counted(123);
  for (std::size_t i = 0; i < draws_per_point * survivors; ++i) counted.gaussian();
  EXPECT_EQ(collect_rng.gaussian(), counted.gaussian());
}

TEST(DrawOrder, RippleGateClosedDrawsOnlyNoise) {
  core::SystemConfig config;
  config.amplitude_ripple_std_db = 0.0;
  config.phase_ripple_std_rad = 0.0;
  expect_draw_count(config, 4);
}

TEST(DrawOrder, NoiseGateClosedDrawsOnlyRipple) {
  core::SystemConfig config;
  config.channel_noise = false;  // estimate sigma = 0
  expect_draw_count(config, 2);
}

TEST(DrawOrder, AllGatesClosedDrawsNothing) {
  core::SystemConfig config;
  config.amplitude_ripple_std_db = 0.0;
  config.phase_ripple_std_rad = 0.0;
  config.channel_noise = false;
  expect_draw_count(config, 0);
}

// --- Forward kernels ----------------------------------------------------

/// Noise- and ripple-free config: channel comparisons below are then pure
/// synthesis, no stochastic term to swamp the tolerance.
core::SystemConfig quiet_config() {
  core::SystemConfig config;
  config.channel_noise = false;
  config.amplitude_ripple_std_db = 0.0;
  config.phase_ripple_std_rad = 0.0;
  return config;
}

void expect_channels_close(const cdouble& a, const cdouble& b,
                           double rel = 1e-9) {
  const double scale = std::max(std::abs(a), std::abs(b));
  EXPECT_NEAR(a.real(), b.real(), rel * scale);
  EXPECT_NEAR(a.imag(), b.imag(), rel * scale);
}

TEST(FastPlane, MatchesExactWithIdenticalReadableSets) {
  const auto f = make_fixture(6, quiet_config());
  const auto plane = core::ForwardPlane::build(f.system, f.flight);
  const auto synth = core::synthesize_forward_channels(f.system, plane, f.tags);
  ASSERT_EQ(synth.size(), f.tags.size());

  for (std::size_t t = 0; t < f.tags.size(); ++t) {
    Rng ra(7), rb(7);
    const auto exact =
        f.system.try_collect_measurements(f.flight, f.tags[t], ra, plane);
    const auto fast =
        f.system.try_collect_measurements(f.flight, rb, plane, synth[t]);
    ASSERT_TRUE(exact.ok()) << exact.status().to_string();
    ASSERT_TRUE(fast.ok()) << fast.status().to_string();
    // The linear-domain power checks are monotone transforms of the dBm
    // checks: same survivors.
    ASSERT_EQ(fast.value().size(), exact.value().size()) << "tag " << t;
    for (std::size_t i = 0; i < exact.value().size(); ++i) {
      const auto& e = exact.value()[i];
      const auto& g = fast.value()[i];
      EXPECT_EQ(g.relay_position.x, e.relay_position.x);
      EXPECT_EQ(g.relay_position.y, e.relay_position.y);
      EXPECT_EQ(g.relay_position.z, e.relay_position.z);
      expect_channels_close(g.target_channel, e.target_channel);
      // The embedded channel comes straight off the plane in both paths.
      EXPECT_EQ(g.embedded_channel, e.embedded_channel);
    }
  }
}

TEST(ForwardKernels, VariantListIsSaneAndDispatchPicksSupported) {
  const auto& variants = core::forward_kernel_variants();
  ASSERT_EQ(variants.size(), 1u);  // the one scalar build
  EXPECT_STREQ(variants[0].isa, "scalar");
  EXPECT_TRUE(variants[0].supported);
  EXPECT_NE(variants[0].distances, nullptr);
  EXPECT_NE(variants[0].phasors, nullptr);
  EXPECT_NE(variants[0].synthesize, nullptr);
  EXPECT_EQ(&core::forward_kernel_active(), &variants[0]);
}

// --- Scenario knob -------------------------------------------------------

TEST(MeasurePlaneKnob, NamesParseAndResolve) {
  using core::MeasurePlane;
  EXPECT_STREQ(core::measure_plane_name(MeasurePlane::kExact), "exact");
  EXPECT_STREQ(core::measure_plane_name(MeasurePlane::kFast), "fast");

  MeasurePlane mode = MeasurePlane::kExact;
  EXPECT_TRUE(core::parse_measure_plane("fast", mode));
  EXPECT_EQ(mode, MeasurePlane::kFast);
  EXPECT_TRUE(core::parse_measure_plane("exact", mode));
  EXPECT_EQ(mode, MeasurePlane::kExact);
  EXPECT_FALSE(core::parse_measure_plane("Fast", mode));
  EXPECT_FALSE(core::parse_measure_plane("", mode));
  // The removed names no longer parse; each names its replacement.
  for (const char* removed : {"off", "auto"}) {
    EXPECT_FALSE(core::parse_measure_plane(removed, mode)) << removed;
    EXPECT_STREQ(core::measure_plane_replacement(removed), "exact") << removed;
  }
  EXPECT_EQ(core::measure_plane_replacement("bogus"), nullptr);
  EXPECT_EQ(mode, MeasurePlane::kExact);  // failed parse leaves `out` alone
}

TEST(MeasurePlaneKnob, ScenarioRoundTripsAndOverrides) {
  auto scenario = *sim::preset("building");
  EXPECT_EQ(scenario.measure_plane, core::MeasurePlane::kExact);
  ASSERT_TRUE(
      sim::apply_override(scenario, "measure.plane", "fast").is_ok());
  EXPECT_EQ(scenario.measure_plane, core::MeasurePlane::kFast);
  const std::string text = sim::serialize(scenario);
  EXPECT_NE(text.find("measure.plane = fast"), std::string::npos);
  const auto parsed = sim::parse_scenario(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().measure_plane, core::MeasurePlane::kFast);
  EXPECT_FALSE(
      sim::apply_override(scenario, "measure.plane", "bogus").is_ok());
}

// --- Full-mission parity matrix ------------------------------------------

sim::Scenario matrix_scenario() {
  auto scenario = *sim::preset("building");
  scenario.grid_resolution_m = 0.05;  // parity is resolution-independent
  return scenario;
}

struct MeasureMatrixCase {
  unsigned threads;
  sim::BatchMode mode;
  bool faults;
};

class ExactPlaneMatrix : public ::testing::TestWithParam<MeasureMatrixCase> {};

/// service::deterministic_digest of each matrix job, recorded from missions
/// that ran the seed's per-point collect loop (identical in every cell).
/// That loop built no plane, so its missions counted one measure-stage
/// invocation fewer; the test takes the plane build back out of the stage
/// trace and demands everything else — every report field, status and
/// fault tally — bit for bit.
struct SeedDigests {
  std::uint64_t seed11;
  std::uint64_t seed12;
};
constexpr SeedDigests kSeedLoopDigests = {0x4a5f9ca73d7a764eull,
                                          0x5ad0736016250c20ull};
constexpr SeedDigests kSeedLoopDigestsFaults = {0xa61a4888229bc960ull,
                                                0x0badf0c6dd5aedb1ull};

TEST_P(ExactPlaneMatrix, BitIdenticalToScalarCollect) {
  const MeasureMatrixCase c = GetParam();
  sim::Scenario scenario = matrix_scenario();
  ASSERT_EQ(scenario.measure_plane, core::MeasurePlane::kExact);
  if (c.faults) scenario.faults.dropout = 0.2;
  const SeedDigests want = c.faults ? kSeedLoopDigestsFaults : kSeedLoopDigests;
  const std::vector<sim::BatchJob> jobs{{scenario, 11}, {scenario, 12}, {scenario, 11}};
  const std::uint64_t expected[] = {want.seed11, want.seed12, want.seed11};

  const auto results = sim::run_batch(jobs, {c.threads, c.mode});
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].status.is_ok()) << results[i].status.to_string();
    sim::BatchResult seed_view = results[i];
    --seed_view.run.trace[static_cast<std::size_t>(sim::Stage::kMeasure)].invocations;
    EXPECT_EQ(service::deterministic_digest(seed_view), expected[i]) << "job " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ExactPlaneMatrix,
    ::testing::ValuesIn([] {
      std::vector<MeasureMatrixCase> cases;
      for (unsigned threads : {1u, 2u, 8u}) {
        for (sim::BatchMode mode :
             {sim::BatchMode::kBatched, sim::BatchMode::kPerMission}) {
          for (bool faults : {false, true}) {
            cases.push_back({threads, mode, faults});
          }
        }
      }
      return cases;
    }()));

TEST(ForwardPlane, BuildCostIsOncePerWaypointAndOncePerMission) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs compiled out";
  auto& evals = obs::counter("measure.plane.channel_evals");
  auto& builds = obs::counter("measure.plane.builds");

  // A build evaluates the reader<->relay channel once per waypoint.
  const auto f = make_fixture(30);
  const std::uint64_t evals_before = evals.value();
  const std::uint64_t builds_before = builds.value();
  core::ForwardPlane::build(f.system, f.flight);
  EXPECT_EQ(evals.value() - evals_before, f.flight.size());
  EXPECT_EQ(builds.value() - builds_before, 1u);

  // Every fault-free single-relay mission builds its own plane exactly
  // once, in both batch modes, even when two of them fly the same flight.
  const std::vector<sim::BatchJob> jobs{
      {matrix_scenario(), 31}, {matrix_scenario(), 31}, {matrix_scenario(), 32}};
  for (sim::BatchMode mode :
       {sim::BatchMode::kBatched, sim::BatchMode::kPerMission}) {
    const std::uint64_t before = builds.value();
    for (const auto& r : sim::run_batch(jobs, {2, mode})) {
      ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
    }
    EXPECT_EQ(builds.value() - before, jobs.size()) << sim::batch_mode_name(mode);
  }
}

TEST(FastPlaneMission, TracksExactReportClosely) {
  // Fast mode is not bit-identical, but on a real mission it must agree on
  // the discovery/localization outcome and land estimates within a small
  // fraction of the grid resolution.
  sim::Scenario exact = matrix_scenario();
  exact.measure_plane = core::MeasurePlane::kExact;
  sim::Scenario fast = matrix_scenario();
  fast.measure_plane = core::MeasurePlane::kFast;

  const auto a = sim::run_scenario(exact, 11);
  const auto b = sim::run_scenario(fast, 11);
  ASSERT_TRUE(a.ok()) << a.status().to_string();
  ASSERT_TRUE(b.ok()) << b.status().to_string();
  const auto& ra = a.value().report;
  const auto& rb = b.value().report;
  EXPECT_EQ(ra.discovered, rb.discovered);
  EXPECT_EQ(ra.localized, rb.localized);
  ASSERT_EQ(ra.items.size(), rb.items.size());
  for (std::size_t i = 0; i < ra.items.size(); ++i) {
    EXPECT_EQ(ra.items[i].localized, rb.items[i].localized) << "item " << i;
    EXPECT_EQ(ra.items[i].measurements, rb.items[i].measurements) << "item " << i;
    if (!ra.items[i].localized) continue;
    EXPECT_NEAR(ra.items[i].estimate.x, rb.items[i].estimate.x, 0.2) << "item " << i;
    EXPECT_NEAR(ra.items[i].estimate.y, rb.items[i].estimate.y, 0.2) << "item " << i;
  }
}

// --- The collect loop's skip: bound, oracle, counters -----------------------

/// 0–8 obstacles of every material at random, finite (shelf-like) or
/// unbounded (wall-like) heights, in and around a 10 m × 8 m room.
channel::Environment random_environment(Rng& rng) {
  const channel::Material materials[] = {channel::drywall(), channel::concrete(),
                                         channel::steel_shelf(), channel::glass()};
  channel::Environment env;
  const auto n = rng.uniform_int(0, 8);
  for (std::int64_t k = 0; k < n; ++k) {
    channel::Obstacle o;
    o.footprint = {{rng.uniform(-1.0, 11.0), rng.uniform(-1.0, 9.0)},
                   {rng.uniform(-1.0, 11.0), rng.uniform(-1.0, 9.0)}};
    o.material = materials[rng.uniform_int(0, 3)];
    if (rng.chance(0.5)) o.height_m = rng.uniform(0.3, 3.0);
    env.add_obstacle(o);
  }
  return env;
}

/// A point in the room, or one of the degenerate placements the geometry
/// must survive: on an obstacle's line (inside or past its footprint), on
/// a footprint endpoint, at `other`'s xy, or outside the room.
Vec3 random_point(Rng& rng, const channel::Environment& env, const Vec3& other,
                  double z_lo, double z_hi) {
  const double z = rng.uniform(z_lo, z_hi);
  const auto& obstacles = env.obstacles();
  switch (rng.uniform_int(0, 5)) {
    case 0:
    case 1:
      if (!obstacles.empty()) {
        const auto& f =
            obstacles[static_cast<std::size_t>(
                          rng.uniform_int(0, static_cast<std::int64_t>(obstacles.size()) - 1))]
                .footprint;
        if (rng.chance(0.3)) return {f.a.x, f.a.y, z};
        const double t = rng.uniform(-0.5, 1.5);
        return {f.a.x + t * (f.b.x - f.a.x), f.a.y + t * (f.b.y - f.a.y), z};
      }
      break;
    case 2:
      return {other.x, other.y, z};
    case 3:
      return {rng.uniform(-10.0, 20.0), rng.uniform(-10.0, 18.0), z};
    default:
      break;
  }
  return {rng.uniform(0.0, 10.0), rng.uniform(0.0, 8.0), z};
}

TEST(H2Bound, BoundsTheExactChannelOnRandomGeometry) {
  Rng rng(2024);
  std::size_t pairs = 0, blocked = 0, bounced = 0;
  double tightest = 0.0;  // max |h| / U seen
  for (int env_case = 0; env_case < 400; ++env_case) {
    const auto env = random_environment(rng);
    const double f_hz = rng.uniform(902e6, 928e6);
    channel::LinkGains gains;
    gains.tx_gain_dbi = rng.uniform(-3.0, 8.0);
    gains.rx_gain_dbi = rng.uniform(-3.0, 8.0);
    const channel::ChannelBound bound(env, f_hz, gains);
    for (int p = 0; p < 25; ++p) {
      const Vec3 a = random_point(rng, env, {5.0, 4.0, 1.0}, 0.0, 3.0);
      const Vec3 b = random_point(rng, env, a, 0.0, 2.0);
      const double h = std::abs(channel::point_to_point_channel(env, a, b, f_hz, gains));
      const double u = bound(a, b);
      ++pairs;
      if (env.obstruction_loss_db(a, b) > 0.0) ++blocked;
      if (env.paths_between(a, b).size() > 1) ++bounced;
      tightest = std::max(tightest, h / u);
      // Rounding may put U a few ulps under |h|; the collect loop's skip
      // margin is 1e-6 dB (1.15e-7 relative), far wider than this check.
      ASSERT_LE(h, u * (1.0 + 1e-12))
          << "env " << env_case << " pair " << p << ": a=(" << a.x << ", " << a.y
          << ", " << a.z << ") b=(" << b.x << ", " << b.y << ", " << b.z << ")";
    }
  }
  // The cases that make the bound matter all occurred.
  EXPECT_GT(blocked, pairs / 10);
  EXPECT_GT(bounced, pairs / 10);
  EXPECT_GT(tightest, 0.5);
}

TEST(H2Bound, CollectSkipIsBitIdenticalToSeedLoop) {
  auto& evals = obs::counter("measure.h2_evals");
  auto& skipped = obs::counter("measure.h2_skipped");
  const std::uint64_t evals_before = evals.value();
  const std::uint64_t skipped_before = skipped.value();
  Rng rng(77);
  std::size_t points = 0, kept = 0, ok_sets = 0;
  for (int c = 0; c < 60; ++c) {
    auto env = random_environment(rng);
    core::SystemConfig config;
    config.tag.sensitivity_dbm = rng.uniform(-30.0, -5.0);
    config.tag.antenna_gain_dbi = rng.uniform(-2.0, 6.0);
    config.relay_downlink_gain_db = rng.uniform(35.0, 75.0);
    config.relay_antenna_gain_dbi = rng.uniform(-2.0, 6.0);
    config.relay_downlink_p1db_dbm = rng.uniform(15.0, 32.0);
    const Vec3 reader = random_point(rng, env, {0.5, 0.5, 1.0}, 0.5, 2.5);
    const core::RflySystem system(config, env, reader);
    const Vec3 start = random_point(rng, env, reader, 0.5, 3.0);
    const Vec3 end = random_point(rng, env, start, 0.5, 3.0);
    const auto plan = drone::linear_trajectory(
        start, end, static_cast<std::size_t>(rng.uniform_int(1, 60)));
    const auto flight = drone::fly(plan, {}, drone::optitrack_tracking(), rng);
    const auto plane = core::ForwardPlane::build(system, flight);
    for (int t = 0; t < 4; ++t) {
      const Vec3 tag = random_point(
          rng, env, flight[static_cast<std::size_t>(rng.uniform_int(
                        0, static_cast<std::int64_t>(flight.size()) - 1))]
                        .actual,
          0.0, 2.0);
      const std::uint64_t draw_seed = rng.uniform_int(0, 1 << 30);
      Rng seed_rng(draw_seed), prod_rng(draw_seed);
      const auto want = seed_collect(system, flight, tag, seed_rng);
      const auto got = system.try_collect_measurements(flight, tag, prod_rng, plane);
      points += flight.size();
      ASSERT_EQ(got.ok(), want.ok()) << "case " << c << " tag " << t;
      if (want.ok()) {
        ++ok_sets;
        kept += want.value().size();
        ASSERT_TRUE(localize::bitwise_equal(got.value(), want.value()))
            << "case " << c << " tag " << t;
      } else {
        EXPECT_EQ(got.status().to_string(), want.status().to_string());
      }
      ASSERT_EQ(prod_rng.gaussian(), seed_rng.gaussian()) << "case " << c << " tag " << t;
    }
  }
  // Both sides of the gate were exercised.
  EXPECT_GT(ok_sets, 20u);
  EXPECT_GT(kept, points / 20);
  EXPECT_LT(kept, points / 2);
  if (obs::kEnabled) {
    EXPECT_EQ(evals.value() - evals_before + skipped.value() - skipped_before, points);
    EXPECT_GT(skipped.value() - skipped_before, points / 10);
  }
}

TEST(H2Bound, WarehouseMissionCountsEveryTagWaypoint) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs compiled out";
  auto& evals = obs::counter("measure.h2_evals");
  auto& skipped = obs::counter("measure.h2_skipped");
  auto& plane_evals = obs::counter("measure.plane.channel_evals");
  auto& builds = obs::counter("measure.plane.builds");
  const std::uint64_t evals_before = evals.value();
  const std::uint64_t skipped_before = skipped.value();
  const std::uint64_t plane_evals_before = plane_evals.value();
  const std::uint64_t builds_before = builds.value();

  const auto run = sim::run_scenario(*sim::preset("warehouse"), 1);
  ASSERT_TRUE(run.ok()) << run.status().to_string();
  // One plane per mission, one reader↔relay evaluation per waypoint: the
  // plane's eval count is the flight size. Each discovered tag collects
  // once over the whole flight.
  ASSERT_EQ(builds.value() - builds_before, 1u);
  const std::uint64_t flight_size = plane_evals.value() - plane_evals_before;
  const std::uint64_t collects = run.value().report.discovered;
  ASSERT_GT(collects, 0u);
  const std::uint64_t evaluated = evals.value() - evals_before;
  const std::uint64_t bound_skipped = skipped.value() - skipped_before;
  EXPECT_EQ(evaluated + bound_skipped, flight_size * collects);
  EXPECT_GT(bound_skipped, 0u);
}

}  // namespace
}  // namespace rfly
