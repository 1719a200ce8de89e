// Fleet subsystem: the energy-aware trajectory planner (sim/fleet_plan.h),
// the fleet mission assembly (sim/fleet.h), the `fleet.*` scenario keys,
// and the determinism contract the subsystem rides on — a fleet mission is
// bit-identical across {thread counts} x {batch modes} x {faults on/off},
// whether executed directly, through run_batch, or through a live rflyd
// daemon over its loopback socket; and a cap-hitting shared Gen2 round
// pinned to digests of the seed's broadcast inventory. Also the tier-1
// CLI smoke: the fleet_warehouse preset must run end-to-end through
// scenario_runner with a checked exit code and a strict-JSON-valid --out
// artifact.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "service/client.h"
#include "service/server.h"
#include "service/wire.h"
#include "sim/batch.h"
#include "obs/metrics.h"
#include "sim/fleet.h"
#include "sim/fleet_plan.h"
#include "sim/pipeline.h"
#include "sim/scenario.h"
#include "strict_json.h"

namespace rfly {
namespace {

using channel::Vec3;

// --- Planner: information-per-joule waypoint selection ---------------------

/// One straight leg along x: `count` waypoints spaced `spacing_m` apart.
sim::FleetPlanLeg straight_leg(std::size_t count, double spacing_m,
                               double y = 0.0) {
  sim::FleetPlanLeg leg;
  for (std::size_t i = 0; i < count; ++i) {
    leg.waypoints.push_back({spacing_m * static_cast<double>(i), y, 1.5});
  }
  return leg;
}

/// Dwell-dominated energy model: hover 150 W for 0.5 s per dwell (75 J)
/// against 100 J/m of travel — redundant dwells are what the budget bleeds
/// on, which is exactly the regime the greedy planner is for.
sim::FleetPlanConfig dwell_heavy_config() {
  sim::FleetPlanConfig config;
  config.energy.hover_power_w = 150.0;
  config.energy.travel_power_w = 200.0;
  config.energy.speed_mps = 2.0;
  config.energy.dwell_s = 0.5;
  return config;
}

TEST(FleetPlanner, GreedyBeatsUniformUnderABindingBudget) {
  // 80 waypoints 0.05 m apart: 4x denser than the lambda/2 redundancy cap,
  // so 3 of every 4 uniform dwells buy almost no aperture information.
  const std::vector<sim::FleetPlanLeg> legs{straight_leg(80, 0.05)};

  sim::FleetPlanConfig config = dwell_heavy_config();
  config.battery_j = 800.0;

  config.planner = sim::FleetPlanner::kGreedy;
  const sim::FleetPlan greedy = sim::plan_fleet_route(legs, config);
  config.planner = sim::FleetPlanner::kUniform;
  const sim::FleetPlan uniform = sim::plan_fleet_route(legs, config);

  EXPECT_TRUE(greedy.exhausted);
  EXPECT_TRUE(uniform.exhausted);
  EXPECT_LE(greedy.energy_spent_j, config.battery_j);
  EXPECT_LE(uniform.energy_spent_j, config.battery_j);
  // Same joules, materially more aperture information: the greedy planner
  // skips sub-cap dwells and spends the savings extending the aperture.
  EXPECT_GT(greedy.covered_info_m, 1.5 * uniform.covered_info_m);
  EXPECT_GT(greedy.coverage, uniform.coverage);
  // Selections are strictly increasing global indices (flight order).
  for (std::size_t i = 1; i < greedy.selected.size(); ++i) {
    EXPECT_LT(greedy.selected[i - 1], greedy.selected[i]);
  }
}

TEST(FleetPlanner, UnlimitedBudgetCoversASparsePlanCompletely) {
  // Spacing above the redundancy cap: every planned waypoint carries fresh
  // information, so the greedy planner dwells at all of them and covers the
  // full plan; battery 0 = unlimited.
  const std::vector<sim::FleetPlanLeg> legs{straight_leg(40, 0.3),
                                            straight_leg(25, 0.3, 5.0)};
  sim::FleetPlanConfig config = dwell_heavy_config();
  config.battery_j = 0.0;
  config.planner = sim::FleetPlanner::kGreedy;

  const sim::FleetPlan plan = sim::plan_fleet_route(legs, config);
  EXPECT_FALSE(plan.exhausted);
  EXPECT_EQ(plan.selected.size(), 65u);
  // Covered and planned information are the same sum accumulated in a
  // different order — equal to rounding, not bitwise.
  EXPECT_NEAR(plan.coverage, 1.0, 1e-12);
  EXPECT_EQ(plan.replans, 0u);
  EXPECT_NEAR(plan.covered_info_m, plan.planned_info_m, 1e-9);
}

TEST(FleetPlanner, WindReplansAndShortensTheRoute) {
  const std::vector<sim::FleetPlanLeg> legs{straight_leg(40, 0.3)};
  sim::FleetPlanConfig config = dwell_heavy_config();
  config.planner = sim::FleetPlanner::kGreedy;
  // Budget that covers roughly half the leg in calm air.
  config.battery_j = 1500.0;

  const sim::FleetPlan calm = sim::plan_fleet_route(legs, config);
  config.wind_sigma_m = 0.5;  // powers x2 via the wind drag penalty
  const sim::FleetPlan windy = sim::plan_fleet_route(legs, config);

  EXPECT_EQ(calm.replans, 0u);
  EXPECT_GE(windy.replans, 1u);
  // The gust-inflated model affords fewer dwells; the windy route is what
  // flies, within the same budget.
  EXPECT_LT(windy.selected.size(), calm.selected.size());
  EXPECT_LE(windy.energy_spent_j, config.battery_j);
  EXPECT_LT(windy.coverage, calm.coverage);
}

// --- Scenario keys: round-trip, validation, preset -------------------------

TEST(FleetScenario, FleetKeysRoundTripThroughSerialize) {
  const auto scenario = sim::preset("fleet_warehouse");
  ASSERT_TRUE(scenario.ok()) << scenario.status().to_string();
  ASSERT_TRUE(scenario->fleet.enabled);
  EXPECT_EQ(scenario->fleet.n_relays, 2);
  ASSERT_EQ(scenario->fleet.readers.size(), 2u);

  const std::string text = sim::serialize(*scenario);
  const auto reparsed = sim::parse_scenario(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().to_string();
  EXPECT_EQ(sim::serialize(*reparsed), text);
  EXPECT_TRUE(reparsed->fleet.enabled);
  EXPECT_EQ(reparsed->fleet.n_relays, scenario->fleet.n_relays);
  EXPECT_EQ(reparsed->fleet.readers.size(), 2u);
  EXPECT_DOUBLE_EQ(reparsed->fleet.battery_j, scenario->fleet.battery_j);
}

TEST(FleetScenario, ValidationRejectsInconsistentFleets) {
  auto scenario = *sim::preset("fleet_warehouse");
  scenario.fleet.n_relays = 0;
  EXPECT_EQ(sim::validate(scenario).code(), StatusCode::kInvalidArgument);

  scenario = *sim::preset("fleet_warehouse");
  scenario.fleet.speed_mps = 0.0;
  EXPECT_EQ(sim::validate(scenario).code(), StatusCode::kInvalidArgument);

  // fleet.reader lines on a non-fleet scenario are a config mistake, not a
  // silently ignored leftover.
  scenario = *sim::preset("fleet_warehouse");
  scenario.fleet.enabled = false;
  EXPECT_EQ(sim::validate(scenario).code(), StatusCode::kInvalidArgument);

  scenario.fleet.readers.clear();
  EXPECT_TRUE(sim::validate(scenario).is_ok());
}

TEST(FleetScenario, FleetReaderOverrideAppends) {
  auto scenario = *sim::preset("warehouse");
  ASSERT_TRUE(sim::apply_override(scenario, "fleet.enabled", "true").is_ok());
  ASSERT_TRUE(sim::apply_override(scenario, "fleet.reader", "1 2 3").is_ok());
  ASSERT_TRUE(sim::apply_override(scenario, "fleet.reader", "4 5 6").is_ok());
  ASSERT_EQ(scenario.fleet.readers.size(), 2u);
  EXPECT_DOUBLE_EQ(scenario.fleet.readers[1].x, 4.0);
  EXPECT_EQ(sim::apply_override(scenario, "fleet.reader", "nope").code(),
            StatusCode::kParseError);
}

// --- Fleet mission: end-to-end through the pipeline ------------------------

TEST(FleetMission, FleetWarehouseRunsEndToEnd) {
  const auto scenario = *sim::preset("fleet_warehouse");
  const auto run = sim::run_scenario(scenario);
  ASSERT_TRUE(run.ok()) << run.status().to_string();

  // The battery in the preset covers the whole plan: nominal health, full
  // planner coverage, most of the population localized.
  EXPECT_TRUE(run->health.is_ok()) << run->health.to_string();
  ASSERT_EQ(run->report.items.size(), scenario.tags.size());
  EXPECT_GE(run->report.localized, 7u);
  // SAR accuracy here is aperture-limited, not chain-limited: tags near a
  // leg's start see a one-sided powered aperture and their peaks smear a
  // couple of metres along the flight direction (the single-relay
  // `warehouse` preset is worse at the same seed — up to 4.6 m on its edge
  // tags). Bound every estimate by the edge-case smear and require at
  // least one mid-aperture tag at the paper's sub-decimetre accuracy.
  double best_error_m = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < run->report.items.size(); ++i) {
    const auto& item = run->report.items[i];
    if (!item.localized) continue;
    const Vec3& truth = scenario.tags[i].position;
    EXPECT_NEAR(item.estimate.x, truth.x, 3.0) << "item " << i;
    EXPECT_NEAR(item.estimate.y, truth.y, 3.0) << "item " << i;
    best_error_m = std::min(
        best_error_m, std::hypot(item.estimate.x - truth.x,
                                 item.estimate.y - truth.y));
  }
  EXPECT_LT(best_error_m, 0.1);

  // The per-chain breakdown: two readers, each with one static hover relay
  // (n_relays 2 = 1 static + the flying terminal) and a shifted carrier.
  sim::FleetRun detail;
  const sim::MissionInputs inputs = sim::materialize(scenario);
  const auto direct = sim::run_fleet_mission(inputs, scenario.seed, &detail);
  ASSERT_TRUE(direct.ok()) << direct.status().to_string();
  ASSERT_EQ(detail.chains.size(), 2u);
  for (const auto& chain : detail.chains) {
    EXPECT_EQ(chain.static_relays.size(), 1u);
    EXPECT_TRUE(chain.stable);
    EXPECT_DOUBLE_EQ(chain.effective_carrier_hz,
                     scenario.system.carrier_hz +
                         scenario.fleet.per_hop_shift_hz);
    EXPECT_FALSE(chain.tag_indices.empty());
    EXPECT_FALSE(chain.leg_indices.empty());
  }
  EXPECT_DOUBLE_EQ(detail.planner_coverage, 1.0);
  EXPECT_EQ(detail.exhausted_chains, 0u);

  // run_scenario's fleet dispatch is the same code path.
  ASSERT_EQ(direct->report.items.size(), run->report.items.size());
  for (std::size_t i = 0; i < run->report.items.size(); ++i) {
    EXPECT_EQ(std::memcmp(&direct->report.items[i].estimate,
                          &run->report.items[i].estimate,
                          sizeof(Vec3)),
              0)
        << "item " << i;
  }
}

TEST(FleetMission, TinyBatteryDegradesWithCoverageAccounting) {
  auto scenario = *sim::preset("fleet_warehouse");
  scenario.fleet.battery_j = 300.0;  // a few meters of flying per chain

  sim::FleetRun detail;
  const auto run =
      sim::run_fleet_mission(sim::materialize(scenario), scenario.seed, &detail);
  ASSERT_TRUE(run.ok()) << run.status().to_string();
  EXPECT_EQ(run->health.code(), StatusCode::kDegraded);
  EXPECT_NE(run->health.to_string().find("battery-exhausted"), std::string::npos)
      << run->health.to_string();
  EXPECT_GE(detail.exhausted_chains, 1u);
  EXPECT_LT(detail.planner_coverage, 1.0);
  EXPECT_LT(run->aperture_coverage, 1.0);

  // Tags the truncated apertures could not serve still appear in the
  // report, with a fleet-specific reason.
  ASSERT_EQ(run->report.items.size(), scenario.tags.size());
  bool fleet_reason_seen = false;
  for (const auto& item : run->report.items) {
    if (item.localized) continue;
    const std::string text = item.status.to_string();
    if (text.find("fleet") != std::string::npos ||
        text.find("battery") != std::string::npos ||
        text.find("measurements") != std::string::npos) {
      fleet_reason_seen = true;
    }
  }
  EXPECT_TRUE(fleet_reason_seen);
}

TEST(FleetMission, UndiscoveredItemsNameTheSharedRound) {
  // Park one tag far outside every chain's reach: it must lose the shared
  // contention round and say so.
  auto scenario = *sim::preset("fleet_warehouse");
  scenario.tags.push_back({9, {400.0, 400.0, 0.0}, "unreachable pallet"});
  const auto run = sim::run_scenario(scenario);
  ASSERT_TRUE(run.ok()) << run.status().to_string();
  const auto& item = run->report.items.back();
  EXPECT_FALSE(item.discovered);
  EXPECT_EQ(item.status.code(), StatusCode::kUndecodablePopulation);
  EXPECT_NE(item.status.to_string().find("shared inventory"), std::string::npos)
      << item.status.to_string();
}

// --- Determinism: {threads} x {batch mode} x {faults} ----------------------

void expect_results_identical(const sim::BatchResult& a,
                              const sim::BatchResult& b, const char* cell) {
  EXPECT_EQ(service::deterministic_digest(a), service::deterministic_digest(b))
      << cell;
  EXPECT_EQ(a.status.to_string(), b.status.to_string()) << cell;
  ASSERT_EQ(a.run.report.items.size(), b.run.report.items.size()) << cell;
  EXPECT_EQ(a.run.report.discovered, b.run.report.discovered) << cell;
  EXPECT_EQ(a.run.report.localized, b.run.report.localized) << cell;
  EXPECT_EQ(a.run.health.to_string(), b.run.health.to_string()) << cell;
  // Bit compare, not EXPECT_DOUBLE_EQ: the contract is identical bits.
  EXPECT_EQ(std::memcmp(&a.run.aperture_coverage, &b.run.aperture_coverage,
                        sizeof(double)),
            0)
      << cell;
  for (std::size_t i = 0; i < a.run.report.items.size(); ++i) {
    const auto& ia = a.run.report.items[i];
    const auto& ib = b.run.report.items[i];
    EXPECT_EQ(ia.discovered, ib.discovered) << cell << " item " << i;
    EXPECT_EQ(ia.localized, ib.localized) << cell << " item " << i;
    EXPECT_EQ(std::memcmp(&ia.estimate, &ib.estimate, sizeof ia.estimate), 0)
        << cell << " item " << i;
    EXPECT_EQ(ia.measurements, ib.measurements) << cell << " item " << i;
    EXPECT_EQ(ia.status.to_string(), ib.status.to_string())
        << cell << " item " << i;
  }
}

TEST(FleetDeterminism, BitIdenticalAcrossThreadsBatchModesAndFaults) {
  for (const bool faulty : {false, true}) {
    auto scenario = *sim::preset("fleet_warehouse");
    if (faulty) {
      scenario.faults.wind_jitter_std_m = 0.03;
      scenario.faults.dropout = 0.05;
    }
    const std::vector<sim::BatchJob> jobs{{scenario, 29}, {scenario, 30}};

    // Reference cell: serial, per-mission.
    const auto reference =
        sim::run_batch(jobs, {1, sim::BatchMode::kPerMission});
    ASSERT_EQ(reference.size(), jobs.size());
    for (const auto& result : reference) {
      ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();
    }

    for (const unsigned threads : {1u, 2u, 8u}) {
      for (const auto mode :
           {sim::BatchMode::kPerMission, sim::BatchMode::kBatched}) {
        const auto cell = sim::run_batch(jobs, {threads, mode});
        ASSERT_EQ(cell.size(), jobs.size());
        char label[64];
        std::snprintf(label, sizeof label, "faults=%d threads=%u mode=%s",
                      faulty ? 1 : 0, threads, sim::batch_mode_name(mode));
        for (std::size_t j = 0; j < jobs.size(); ++j) {
          expect_results_identical(cell[j], reference[j], label);
        }
      }
    }
  }
}

// --- A cap-hitting shared round, pinned to the broadcast loop's digests ------

/// bench/fleet_sweep.cpp's population generator (0.1 m grid, 1.5 m
/// half-width) with the fast kernel, coarse-to-fine search and one thread.
sim::Scenario fleet_population(std::uint32_t n_tags, std::uint64_t seed) {
  sim::Scenario s = *sim::preset("fleet_warehouse");
  s.grid_resolution_m = 0.1;
  s.search_halfwidth_m = 1.5;
  s.sar_kernel = localize::SarKernel::kFast;
  s.sar_search = localize::SarSearch::kCoarseToFine;
  s.localize_threads = 1;
  s.tags.clear();
  Rng placement(seed);
  for (std::uint32_t i = 0; i < n_tags; ++i) {
    const double aisle_y = 5.0 + 10.0 * static_cast<double>(i % 3);
    s.tags.push_back({i,
                      {placement.uniform(8.0, 32.0),
                       aisle_y + placement.uniform(-1.0, 1.0), 0.0},
                      "tag " + std::to_string(i)});
  }
  return s;
}

TEST(FleetInventory, CapHittingRoundMatchesBroadcastDigests) {
  // 500 tags, some powered but too weak to ever decode: their
  // collisions hold Q high and every round of the shared Gen2 round stops
  // at the 16,384-slot cap. The digests were recorded from the seed's
  // broadcast inventory loop (every command to every tag).
  const sim::Scenario scenario = fleet_population(500, 1);
  const auto invariant_violations = [] {
    for (const auto& c : obs::snapshot().counters) {
      if (c.name == "gen2.invariant_violations") return c.value;
    }
    return std::uint64_t{0};
  };
  const std::uint64_t violations = invariant_violations();
  const struct {
    std::uint64_t seed;
    std::uint64_t digest;
  } pinned[] = {{2, 0x95b80f96c2241cf3ull}, {3, 0x23f3837c8a0867b1ull}};
  for (const auto& p : pinned) {
    const auto results =
        sim::run_batch({{scenario, p.seed}}, {1, sim::BatchMode::kBatched});
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].status.is_ok()) << results[0].status.to_string();
    EXPECT_EQ(service::deterministic_digest(results[0]), p.digest)
        << "seed " << p.seed;
  }

  // The round behind the seed-2 digest, with the broadcast loop's tallies.
  sim::FleetRun detail;
  const auto run =
      sim::run_fleet_mission(sim::materialize(scenario), 2, &detail);
  ASSERT_TRUE(run.ok()) << run.status().to_string();
  EXPECT_EQ(detail.inventory.rounds, 8);
  EXPECT_EQ(detail.inventory.capped_rounds, 8);
  EXPECT_EQ(detail.inventory.slots, 8 * (1 << 14));
  EXPECT_EQ(detail.inventory.collisions, 43344);
  EXPECT_EQ(detail.inventory.epcs.size(), 423u);
  EXPECT_EQ(invariant_violations(), violations);
}

// --- rflyd: fleet jobs flow through the daemon unchanged --------------------

// The validator's work ceilings leave at least 100x headroom over the
// benchmark's 5000-tag fleet: it validates as is and with 100x the
// waypoints or 100x the scan cells, while 5000 tags on a 20 m half-width
// window exceed the tags x scan cells ceiling.
TEST(FleetScenario, WorkCeilingsLeaveHeadroomAt5000Tags) {
  const sim::Scenario fleet = fleet_population(5000, 1);
  EXPECT_TRUE(sim::validate(fleet).is_ok()) << sim::validate(fleet).to_string();
  sim::Scenario longer = fleet;
  for (auto& leg : longer.legs) leg.points *= 100;
  EXPECT_TRUE(sim::validate(longer).is_ok()) << sim::validate(longer).to_string();
  sim::Scenario wider = fleet;
  wider.search_halfwidth_m *= 10.0;  // 5000 tags x 151 x 74 coarse cells
  EXPECT_TRUE(sim::validate(wider).is_ok()) << sim::validate(wider).to_string();

  sim::Scenario over = fleet;
  over.search_halfwidth_m = 20.0;  // 5000 tags x 201 x 99
  const Status status = sim::validate(over);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.to_string().find(
                "5000 tags x 19899 scan cells = 99495000 exceed the limit of 67108864"),
            std::string::npos)
      << status.to_string();
}

TEST(FleetService, LoopbackResultBitIdenticalToDirectRunBatch) {
  const auto scenario = *sim::preset("fleet_warehouse");
  const std::uint64_t seed = 29;
  const auto direct = sim::run_batch({{scenario, seed}}, {1});
  ASSERT_EQ(direct.size(), 1u);
  ASSERT_TRUE(direct[0].status.is_ok()) << direct[0].status.to_string();

  service::ServiceConfig config;
  config.workers = 1;
  config.job_threads = 1;
  service::MissionService daemon(config);
  ASSERT_TRUE(daemon.start().is_ok());
  auto client = service::Client::connect(daemon.port());
  ASSERT_TRUE(client.ok()) << client.status().to_string();

  auto ack = client->submit(sim::serialize(scenario), seed);
  ASSERT_TRUE(ack.ok()) << ack.status().to_string();
  auto result = client->result(ack->job_id);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  expect_results_identical(*result, direct[0], "rflyd loopback");

  EXPECT_TRUE(client->shutdown().is_ok());
  daemon.wait();
}

// --- Tier-1 CLI smoke: scenario_runner + strict JSON ------------------------

#ifdef RFLY_SCENARIO_RUNNER_PATH
TEST(FleetSmoke, ScenarioRunnerFleetWarehouseEmitsStrictJson) {
  const std::string out =
      ::testing::TempDir() + "/fleet_warehouse_smoke.json";
  const std::string command = std::string(RFLY_SCENARIO_RUNNER_PATH) +
                              " --scenario fleet_warehouse --trials 1 --out " +
                              out + " > /dev/null";
  ASSERT_EQ(std::system(command.c_str()), 0) << command;

  std::ifstream in(out, std::ios::binary);
  ASSERT_TRUE(in.good()) << out;
  std::ostringstream buf;
  buf << in.rdbuf();

  testjson::JsonValue doc;
  std::string error;
  ASSERT_TRUE(testjson::parse_strict(buf.str(), doc, &error)) << error;
  ASSERT_EQ(doc.kind, testjson::JsonValue::Kind::kObject);
  const auto* failed = doc.find("failed");
  ASSERT_NE(failed, nullptr);
  EXPECT_DOUBLE_EQ(failed->number, 0.0);
  const auto* jobs = doc.find("jobs");
  ASSERT_NE(jobs, nullptr);
  EXPECT_DOUBLE_EQ(jobs->number, 1.0);
  std::remove(out.c_str());
}
#endif

}  // namespace
}  // namespace rfly
