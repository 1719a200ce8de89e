// Google-benchmark microbenchmarks of the system's hot kernels: the SAR
// grid projection (localization inner loop), peak extraction, the relay's
// per-sample chain, the FM0 decoder, the RNG draw and the shared Gen2
// round. These bound how fast the full experiments can run.
#include <benchmark/benchmark.h>

#include <cmath>
#include <string>
#include <vector>

#include "channel/channel_model.h"
#include "channel/environment.h"
#include "channel/path_loss.h"
#include "core/forward_plane.h"
#include "core/inventory.h"
#include "core/system.h"
#include "drone/flight.h"
#include "drone/trajectory.h"
#include "gen2/fm0.h"
#include "localize/localizer.h"
#include "relay/coupling.h"
#include "relay/rfly_relay.h"
#include "sim/pipeline.h"
#include "sim/scenario.h"

using namespace rfly;

namespace {

localize::DisentangledSet make_set(std::size_t n_points) {
  const auto traj =
      drone::linear_trajectory({4, 2, 1}, {6, 2, 1}, n_points);
  localize::DisentangledSet set;
  for (const auto& p : traj) {
    set.positions.push_back(p);
    const cdouble h2 = channel::propagation_coefficient(p.distance_to({5, 0, 0}), 916e6);
    set.channels.push_back(h2 * h2);
  }
  return set;
}

void BM_SarHeatmap(benchmark::State& state) {
  const auto set = make_set(static_cast<std::size_t>(state.range(0)));
  const auto threads = static_cast<unsigned>(state.range(1));
  const auto kernel = static_cast<localize::SarKernel>(state.range(2));
  localize::GridSpec grid{4.0, 6.0, -0.5, 1.5, 0.05};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        localize::sar_heatmap(set, grid, 916e6, 0.0, threads, kernel));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(grid.nx() * grid.ny() *
                                                    set.channels.size()));
}
// Second arg: SAR engine threads (1 = legacy serial path). Third: kernel
// (0 = exact libm loop, 1 = fast SIMD kernel) — the 1-thread pairs are the
// headline exact-vs-fast speedup for EXPERIMENTS.md.
BENCHMARK(BM_SarHeatmap)
    ->ArgsProduct({{10, 40, 160}, {1, 2, 8}, {0, 1}})
    ->ArgNames({"points", "threads", "kernel"});

void BM_SarProjection(benchmark::State& state) {
  const auto set = make_set(static_cast<std::size_t>(state.range(0)));
  const auto kernel = static_cast<localize::SarKernel>(state.range(1));
  const auto geo = localize::SarGeometry::from(set, 916e6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        localize::sar_projection(geo, {5.0, 0.1, 0.0}, kernel));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(set.channels.size()));
}
// The refine_peak / localize_3d inner call (lanes across samples).
BENCHMARK(BM_SarProjection)
    ->ArgsProduct({{40, 160}, {0, 1}})
    ->ArgNames({"points", "kernel"});

void BM_RelayStep(benchmark::State& state) {
  auto relay_hw = relay::make_rfly_relay(relay::RflyRelayConfig{}, 1);
  Rng rng(2);
  const auto coupling = relay::draw_coupling(relay::rfly_flight_coupling(), rng);
  relay::CoupledRelay loop(*relay_hw, coupling);
  const cdouble drive{1e-4, 0.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(loop.step(drive, cdouble{0.0, 0.0}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RelayStep);

void BM_Fm0Decode(benchmark::State& state) {
  const std::size_t n_bits = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  gen2::Bits bits(n_bits);
  for (auto& b : bits) b = rng.chance(0.5) ? 1 : 0;
  const auto levels = gen2::fm0_levels(bits);
  const double spb = 4.0;
  std::vector<cdouble> x(
      static_cast<std::size_t>(spb * static_cast<double>(levels.size())) + 64,
      cdouble{1e-3, 0.0});
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto k = std::min(static_cast<std::size_t>(static_cast<double>(i) / spb),
                            levels.size() - 1);
    x[i] += 1e-6 * static_cast<double>(levels[k]);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen2::fm0_decode(x, spb, n_bits));
  }
}
BENCHMARK(BM_Fm0Decode)->Arg(16)->Arg(128);

void BM_PointToPointChannel(benchmark::State& state) {
  const auto env = channel::warehouse_environment(40.0, 30.0, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        channel::point_to_point_channel(env, {1, 1, 1}, {30, 20, 0.5}, 915e6));
  }
}
BENCHMARK(BM_PointToPointChannel);

void BM_SincosLibm(benchmark::State& state) {
  constexpr std::size_t kN = 4096;
  std::vector<double> x(kN), s(kN), c(kN);
  Rng rng(11);
  for (auto& v : x) v = rng.uniform(-1e4, 1e4);
  for (auto _ : state) {
    for (std::size_t i = 0; i < kN; ++i) {
      s[i] = std::sin(x[i]);
      c[i] = std::cos(x[i]);
    }
    benchmark::DoNotOptimize(s.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kN));
}

// The exact measure stage of one `warehouse` mission: the flight's plane
// build plus one collect per tag (9 tags over 420 waypoints), as the
// pipeline runs them. Each iteration replays the same draws.
void BM_ExactCollect(benchmark::State& state) {
  const sim::MissionInputs in = sim::materialize(*sim::preset("warehouse"));
  const core::RflySystem system(in.config.system, in.environment, in.reader_position);
  Rng fly_rng(1);
  const auto flight = drone::fly(in.plan, in.config.flight, in.config.tracking, fly_rng);
  for (auto _ : state) {
    const auto plane = core::ForwardPlane::build(system, flight);
    Rng rng(2);
    for (const auto& tag : in.tags) {
      benchmark::DoNotOptimize(
          system.try_collect_measurements(flight, tag.position, rng, plane));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(in.tags.size() * flight.size()));
}
BENCHMARK(BM_ExactCollect)->Unit(benchmark::kMillisecond);

// localize_3d per search strategy (0 exact, 1 incremental, 2 coarse2fine)
// on a two-altitude aperture, fast kernel, 1 thread: the algorithmic
// speedup over the brute-force volume scan, with no thread help.
void BM_Localize3d(benchmark::State& state) {
  const core::SystemConfig sys_cfg;
  const core::RflySystem system(sys_cfg, channel::Environment{}, {0, 0, 1});
  Rng rng(34);
  const channel::Vec3 tag{12.0, 6.0, 0.4};
  std::vector<channel::Vec3> plan;
  for (double z : {1.2, 1.8}) {
    const auto row = drone::linear_trajectory({tag.x - 1.2, 8.0, z},
                                              {tag.x + 1.2, 8.15, z}, 25);
    plan.insert(plan.end(), row.begin(), row.end());
  }
  const auto flight = drone::fly(plan, {}, drone::optitrack_tracking(), rng);
  const auto measurements = system.try_collect_measurements(flight, tag, rng);
  if (!measurements) return state.SkipWithError("collection failed");
  const localize::Volume volume{.x_min = tag.x - 1.5, .x_max = tag.x + 1.5,
                                .y_min = tag.y - 1.5, .y_max = tag.y + 1.2,
                                .z_min = 0.0, .z_max = 1.2, .resolution_m = 0.05};
  localize::Localize3dConfig cfg;
  cfg.freq_hz = sys_cfg.carrier_hz + sys_cfg.freq_shift_hz;
  cfg.threads = 1;
  cfg.kernel = localize::SarKernel::kFast;
  cfg.search = static_cast<localize::SarSearch>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(localize::localize_3d(*measurements, volume, cfg));
  }
}
BENCHMARK(BM_Localize3d)->DenseRange(0, 2)->ArgName("search")->Unit(
    benchmark::kMillisecond);

/// The scan map of one deferred warehouse tag, as warehouse_sweep's batch
/// phase 2 sweeps it: fast kernel, the task's own scan grid.
localize::Heatmap warehouse_scan_map() {
  sim::Scenario scenario = *sim::preset("warehouse");
  scenario.sar_kernel = localize::SarKernel::kFast;
  const sim::MissionInputs in = sim::materialize(scenario);
  std::vector<sim::DeferredLocalize> deferred;
  const auto run = sim::run_mission_pipeline(in.config, in.environment, in.reader_position,
                                             in.plan, in.tags, in.db, 1, in.faults,
                                             &deferred);
  if (!run || deferred.empty()) return {};
  const sim::DeferredLocalize& task = deferred.front();
  return localize::sar_heatmap(task.half_link, localize::localize_scan_grid(task.config),
                               task.config.freq_hz, task.config.z_plane_m, 1,
                               task.config.kernel);
}

// Peak extraction (watershed prominence sweep) on map 0, make_set's
// free-space tag, and map 1, a warehouse scan map (multipath ridges and
// ghosts); both about 6,600 cells.
void BM_FindPeaks(benchmark::State& state) {
  const localize::Heatmap map =
      state.range(0) == 0
          ? localize::sar_heatmap(make_set(40), {4.0, 6.0, -0.5, 1.5, 0.025}, 916e6,
                                  0.0, 1, localize::SarKernel::kFast)
          : warehouse_scan_map();
  if (map.values.empty()) return state.SkipWithError("no deferred warehouse task");
  for (auto _ : state) benchmark::DoNotOptimize(localize::find_peaks(map));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(map.values.size()));
}
BENCHMARK(BM_FindPeaks)->Arg(0)->Arg(1)->ArgName("map")->Unit(benchmark::kMicrosecond);

// One uniform_int draw (a slot redraw's call) from one engine (engines:1),
// or from 650 engines taken round-robin (engines:650, about the live tags
// a fleet_5000 QueryAdjust redraws), so each draw meets a cold engine.
void BM_RngDraw(benchmark::State& state) {
  std::vector<Rng> engines;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    engines.emplace_back(stream_seed(7, static_cast<std::uint64_t>(i)));
  }
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engines[next].uniform_int(0, 1023));
    if (++next == engines.size()) next = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RngDraw)->Arg(1)->Arg(650)->ArgName("engines");

// One shared Gen2 round (run_inventory) over `tags` tags placed and
// configured as fleet_5000 places them (Select included): the slot
// machinery alone, conditions precomputed. Each tag's conditions are drawn
// as the inventory differential tests draw them: 1 in 5 unpowered, 1 in 10
// powered but never decodable, 1 in 4 marginal, the rest clean. The tag
// machines are rebuilt outside the timed region; the counters report the
// round's slots, collisions and reads.
void BM_SharedInventory(benchmark::State& state) {
  const auto n_tags = static_cast<std::uint32_t>(state.range(0));
  sim::Scenario scenario = *sim::preset("fleet_warehouse");
  scenario.tags.clear();
  Rng placement(1);
  for (std::uint32_t i = 0; i < n_tags; ++i) {
    const double aisle_y = 5.0 + 10.0 * static_cast<double>(i % 3);
    scenario.tags.push_back({i,
                             {placement.uniform(8.0, 32.0),
                              aisle_y + placement.uniform(-1.0, 1.0), 0.0},
                             "tag " + std::to_string(i)});
  }
  const sim::MissionInputs in = sim::materialize(scenario);
  std::vector<core::TagAgent> conditions(in.tags.size());
  Rng gen(2);
  for (auto& c : conditions) {
    const double u = gen.uniform(0.0, 1.0);
    c.incident_power_dbm = u < 0.2 ? -40.0 : gen.uniform(-14.0, -2.0);
    c.reply_snr_db = u < 0.3 ? -30.0 : u < 0.55 ? gen.uniform(0.0, 6.0) : 20.0;
  }
  constexpr std::uint64_t kSeed = 2;
  core::InventoryRoundConfig round = in.config.inventory;
  if (in.config.use_select) round.sel_target = gen2::SelTarget::kSl;
  const gen2::Command select{in.config.select};
  core::InventoryOutcome outcome;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<gen2::Tag> machines;
    machines.reserve(in.tags.size());
    std::vector<core::TagAgent> agents;
    for (std::size_t i = 0; i < in.tags.size(); ++i) {
      machines.emplace_back(in.tags[i].config, kSeed + 100 + i);
      agents.push_back({&machines[i], conditions[i].incident_power_dbm,
                        conditions[i].reply_snr_db});
      if (in.config.use_select) {
        gen2::CommandContext ctx;
        ctx.incident_power_dbm = agents[i].incident_power_dbm;
        machines[i].on_command(select, ctx);
      }
    }
    reader::QAlgorithm q_algo(static_cast<double>(in.config.inventory.q));
    Rng rng(kSeed);
    state.ResumeTiming();
    outcome = core::run_inventory(agents, round, q_algo, rng);
    benchmark::DoNotOptimize(outcome);
  }
  state.counters["slots"] = outcome.slots;
  state.counters["collisions"] = outcome.collisions;
  state.counters["reads"] = static_cast<double>(outcome.epcs.size());
}
BENCHMARK(BM_SharedInventory)->Arg(1000)->Arg(5000)->ArgName("tags")->Unit(
    benchmark::kMillisecond);

void BM_SincosVariant(benchmark::State& state,
                      const localize::SarKernelVariant* variant) {
  constexpr std::size_t kN = 4096;
  std::vector<double> x(kN), s(kN), c(kN);
  Rng rng(11);
  for (auto& v : x) v = rng.uniform(-1e4, 1e4);
  for (auto _ : state) {
    variant->sincos(x.data(), s.data(), c.data(), kN);
    benchmark::DoNotOptimize(s.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kN));
}

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): the sincos variant list is a
// runtime property of the host CPU (AVX-512 benches only make sense where
// the dispatcher could pick them), so the per-ISA benches are registered
// dynamically next to the static ones above.
int main(int argc, char** argv) {
  benchmark::RegisterBenchmark("BM_Sincos/impl:libm", BM_SincosLibm);
  for (const auto& variant : localize::sar_kernel_variants()) {
    if (!variant.supported) continue;
    benchmark::RegisterBenchmark(
        (std::string("BM_Sincos/impl:") + variant.isa).c_str(),
        BM_SincosVariant, &variant);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
