// Fleet extension (paper Sections 4.3 / 9): how the system scales when the
// relays are daisy chained and the missions are flown as a fleet. Three
// sweeps, one JSON artifact (BENCH_fleet.json via --out):
//
//   1. Read range vs relay count 1..8 with a chain-tuned uplink — the
//      geometric-window sweep resolves multi-km chains instead of
//      saturating at the historical 2 km grid.
//   2. Fleet mission throughput vs tag population 100..5000 on a coarse
//      localization grid (0.1 m cells, 1.5 m half-width) — the whole
//      staged pipeline per mission: shared Gen2 inventory round,
//      per-chain disentanglement, SAR.
//   3. Greedy vs uniform trajectory planning at equal battery: dense
//      sub-wavelength waypoints where skipping redundant dwells buys
//      real aperture.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/daisy_chain.h"
#include "sim/batch.h"
#include "sim/fleet_plan.h"
#include "sim/scenario.h"

using namespace rfly;

namespace {

/// fleet_warehouse preset with `n_tags` random tags along its three aisles
/// and a coarse SAR grid so the large-population points finish in seconds.
sim::Scenario fleet_population(std::uint32_t n_tags, std::uint64_t seed) {
  sim::Scenario s = *sim::preset("fleet_warehouse");
  s.grid_resolution_m = 0.1;
  s.search_halfwidth_m = 1.5;
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

}  // namespace

int main(int argc, char** argv) {
  bench::CliOptions options;
  options.trials = 2;  // fleet missions per throughput point
  if (!options.parse(argc, argv)) return 2;
  bench::header("Ext. fleet sweep",
                "chain range, fleet throughput, planner coverage");
  bench::Metrics metrics;

  // --- 1. Chain read range vs relay count -------------------------------
  core::DaisyChainConfig chain_cfg;
  chain_cfg.system.relay_uplink_gain_db = 54.0;  // chain-tuned re-amp
  std::printf("chain read range (uplink %.0f dB, Eq. 3 at %.0f dB)\n",
              chain_cfg.system.relay_uplink_gain_db,
              chain_cfg.stability_isolation_db);
  std::printf("  relays   read_range_m\n");
  double range_1 = 0.0;
  for (int n = 1; n <= 8; ++n) {
    const double range_m =
        core::chain_read_range_m(chain_cfg, n, 2.0, options.threads);
    if (n == 1) range_1 = range_m;
    const bool saturated = range_m >= core::kChainRangeCeilingM;
    std::printf("  %6d   %12.0f%s\n", n, range_m,
                saturated ? "  (sweep ceiling)" : "");
    metrics.add("chain_range_m_relays_" + std::to_string(n), range_m);
  }

  // --- 2. Fleet mission throughput vs tag population --------------------
  std::printf("\nfleet throughput (%d missions per point, coarse grid)\n",
              options.trials);
  std::printf("  tags     missions_per_sec   localized_frac\n");
  for (const std::uint32_t n_tags : {100u, 500u, 1000u, 5000u}) {
    const sim::Scenario scenario = fleet_population(n_tags, options.seed);
    std::vector<sim::BatchJob> jobs;
    for (int t = 0; t < options.trials; ++t) {
      jobs.push_back({scenario, stream_seed(options.seed, t)});
    }
    const auto start = std::chrono::steady_clock::now();
    const auto results = sim::run_batch(
        jobs, {options.threads, options.batch_mode});
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    std::size_t localized = 0;
    bool failed = false;
    for (const auto& r : results) {
      if (!r.status.is_ok()) failed = true;
      localized += r.run.report.localized;
    }
    if (failed) {
      std::fprintf(stderr, "fleet mission failed at %u tags\n", n_tags);
      return 1;
    }
    const double missions_per_sec =
        seconds > 0.0 ? static_cast<double>(jobs.size()) / seconds : 0.0;
    const double localized_frac =
        static_cast<double>(localized) /
        static_cast<double>(jobs.size() * n_tags);
    std::printf("  %5u   %16.2f   %14.3f\n", n_tags, missions_per_sec,
                localized_frac);
    metrics.add("missions_per_sec_tags_" + std::to_string(n_tags),
                missions_per_sec);
    metrics.add("localized_frac_tags_" + std::to_string(n_tags),
                localized_frac);
  }

  // --- 3. Greedy vs uniform planner at equal battery --------------------
  // One long aisle sampled every 5 cm (well under the lambda/2 cap) with
  // expensive dwells: the uniform baseline burns the battery hovering at
  // redundant samples; greedy skips them and extends the aperture.
  sim::FleetPlanConfig plan_cfg;
  plan_cfg.energy.hover_power_w = 150.0;
  plan_cfg.energy.travel_power_w = 200.0;
  plan_cfg.energy.speed_mps = 2.0;
  plan_cfg.energy.dwell_s = 0.5;
  plan_cfg.battery_j = 2000.0;
  std::vector<sim::FleetPlanLeg> legs(1);
  for (int i = 0; i < 400; ++i) {
    legs[0].waypoints.push_back({0.05 * static_cast<double>(i), 0.0, 1.2});
  }
  plan_cfg.planner = sim::FleetPlanner::kGreedy;
  const sim::FleetPlan greedy = sim::plan_fleet_route(legs, plan_cfg);
  plan_cfg.planner = sim::FleetPlanner::kUniform;
  const sim::FleetPlan uniform = sim::plan_fleet_route(legs, plan_cfg);
  std::printf("\nplanner coverage at %.0f J (%zu planned waypoints)\n",
              plan_cfg.battery_j, legs[0].waypoints.size());
  std::printf("  greedy  %6.3f  (%zu dwells, %.0f J)\n", greedy.coverage,
              greedy.selected.size(), greedy.energy_spent_j);
  std::printf("  uniform %6.3f  (%zu dwells, %.0f J)\n", uniform.coverage,
              uniform.selected.size(), uniform.energy_spent_j);
  metrics.add("planner_coverage_greedy", greedy.coverage);
  metrics.add("planner_coverage_uniform", uniform.coverage);
  metrics.add("planner_coverage_ratio",
              uniform.coverage > 0.0 ? greedy.coverage / uniform.coverage
                                     : 0.0);

  bench::paper_vs_ours("chaining (Sec. 4.3/9)", "future work",
                       core::chain_read_range_m(chain_cfg, 3) /
                           (range_1 > 0.0 ? range_1 : 1.0),
                       "x range with 3 relays");
  bench::paper_vs_ours("planner coverage vs uniform", "n/a (extension)",
                       greedy.coverage / (uniform.coverage > 0.0
                                              ? uniform.coverage
                                              : 1.0),
                       "x");
  if (!bench::finish_observability(options, metrics)) return 1;
  return metrics.write(options.out) ? 0 : 1;
}
