// Fig. 6 — P(x, y) localization heatmaps: (a) line-of-sight, (b) strong
// multipath from steel shelves. Rendered as ASCII intensity maps with the
// true tag (T), the chosen estimate (X), and the flight path (=) marked.
//
// Also sweeps the SAR engine's thread count on the fig06-sized problem and
// writes BENCH_sar.json (format documented in EXPERIMENTS.md) so the perf
// trajectory of the hottest kernel is tracked from run to run.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/system.h"
#include "drone/flight.h"
#include "drone/trajectory.h"
#include "localize/localizer.h"

using namespace rfly;
using namespace rfly::core;

namespace {

void run_scene(const char* title, int shelf_rows, std::uint64_t seed,
               double paper_error_hint_m) {
  std::printf("\n--- %s ---\n", title);

  SystemConfig sys_cfg;
  channel::Environment env;
  if (shelf_rows > 0) {
    // Steel shelf rows flanking the scene (strong reflectors).
    env.add_obstacle({{{-2.0, -1.2}, {5.0, -1.2}}, channel::steel_shelf()});
    env.add_obstacle({{{-2.0, 2.6}, {5.0, 2.6}}, channel::steel_shelf()});
  }
  const Vec3 reader_pos{-8.0, 1.0, 1.0};
  RflySystem system(sys_cfg, env, reader_pos);

  const Vec3 tag{1.4, 0.9, 0.0};
  Rng rng(seed);
  const auto plan = drone::linear_trajectory({0.0, -0.4, 1.0}, {2.8, -0.35, 1.0}, 50);
  const auto flight =
      drone::fly(plan, drone::FlightConfig{}, drone::optitrack_tracking(), rng);
  const auto collected = system.try_collect_measurements(flight, tag, rng);
  if (!collected) {
    std::printf("collection failed: %s\n", collected.status().to_string().c_str());
    return;
  }
  const localize::MeasurementSet& measurements = *collected;
  std::printf("measurements: %zu\n", measurements.size());

  localize::LocalizerConfig loc;
  loc.freq_hz = sys_cfg.carrier_hz + sys_cfg.freq_shift_hz;
  loc.grid = {-0.5, 3.0, -0.5, 2.0, 0.02};
  loc.multires = false;
  loc.peak_threshold_fraction = 0.4;
  const auto result = localize::localize_2d_checked(measurements, loc);
  if (!result) {
    std::printf("localization failed\n");
    return;
  }
  const double err = std::hypot(result->x - tag.x, result->y - tag.y);

  // Render the heatmap.
  const auto iso = localize::disentangle(measurements);
  localize::GridSpec render = loc.grid;
  render.resolution_m = 0.07;
  const auto map = localize::sar_heatmap(iso, render, loc.freq_hz);
  const double peak = map.max_value();
  static const char kShades[] = " .:-=+*#%@";
  for (std::size_t iy = render.ny(); iy-- > 0;) {
    std::printf("  ");
    for (std::size_t ix = 0; ix < render.nx(); ++ix) {
      const double x = render.x_at(ix);
      const double y = render.y_at(iy);
      char c = kShades[static_cast<int>(9.0 * map.at(ix, iy) / peak)];
      if (std::abs(y - (-0.4)) < 0.05 && x >= 0.0 && x <= 2.8) c = '=';
      if (std::hypot(x - tag.x, y - tag.y) < 0.06) c = 'T';
      if (std::hypot(x - result->x, y - result->y) < 0.06) c = 'X';
      std::putchar(c);
    }
    std::printf("\n");
  }
  std::printf("legend: T true tag, X estimate, = flight path; error %.3f m\n", err);
  std::printf("candidate peaks considered: %zu\n", result->candidates.size());
  bench::paper_vs_ours("localization error in this scene [m]",
                       shelf_rows > 0 ? "(sub-meter, nearest-peak)" : "<0.07",
                       err, "m");
  (void)paper_error_hint_m;
}

/// Time the batched polynomial sincos of every compiled kernel variant
/// against scalar libm on the same arguments, reporting ns/op and the max
/// absolute error vs long-double references. Returns the JSON array body
/// for BENCH_sar.json's "sincos" key.
std::string sincos_sweep() {
  std::printf("\n--- sincos microbench (batched polynomial vs libm) ---\n");
  constexpr std::size_t kN = 4096;
  constexpr int kReps = 200;
  std::vector<double> x(kN), s(kN), c(kN);
  Rng rng(117);
  // SAR-shaped arguments: k*d for the fig06 geometry stays well inside the
  // [-1e4, 1e4] band; the accuracy sweep in tests/test_sar_kernel.cpp
  // covers |x| <= 1e6.
  for (auto& v : x) v = rng.uniform(-1e4, 1e4);

  const auto time_ns_per_op = [&](auto&& body) {
    double best = 1e300;
    for (int outer = 0; outer < 3; ++outer) {
      const auto t0 = std::chrono::steady_clock::now();
      for (int rep = 0; rep < kReps; ++rep) body();
      const auto t1 = std::chrono::steady_clock::now();
      best = std::min(best, std::chrono::duration<double, std::nano>(t1 - t0)
                                .count() /
                                (kReps * kN));
    }
    return best;
  };
  const auto max_err = [&]() {
    double worst = 0.0;
    for (std::size_t i = 0; i < kN; ++i) {
      worst = std::max(worst, std::abs(s[i] - static_cast<double>(sinl(
                                                  static_cast<long double>(x[i])))));
      worst = std::max(worst, std::abs(c[i] - static_cast<double>(cosl(
                                                  static_cast<long double>(x[i])))));
    }
    return worst;
  };

  // JSON fragments go through the shared emitters (common/json.h): strings
  // escaped, non-finite values (a sincos variant returning NaN would make
  // max_abs_err NaN) serialized as null instead of the invalid `nan` token.
  std::string json;
  const double libm_ns = time_ns_per_op([&] {
    for (std::size_t i = 0; i < kN; ++i) {
      s[i] = std::sin(x[i]);
      c[i] = std::cos(x[i]);
    }
  });
  std::printf("  %-10s %10.2f ns/op   max abs err %.3g\n", "libm", libm_ns,
              max_err());
  json += "    {\"impl\": \"libm\", \"ns_per_op\": " + json_number(libm_ns) +
          ", \"max_abs_err\": " + json_number(max_err()) + "},\n";

  const auto& variants = localize::sar_kernel_variants();
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const auto& v = variants[i];
    if (!v.supported) continue;
    const double ns =
        time_ns_per_op([&] { v.sincos(x.data(), s.data(), c.data(), kN); });
    v.sincos(x.data(), s.data(), c.data(), kN);
    const double err = max_err();
    std::printf("  %-10s %10.2f ns/op   max abs err %.3g   (%.1fx vs libm)\n",
                v.isa, ns, err, libm_ns / ns);
    json += "    {\"impl\": " + json_quote(v.isa) +
            ", \"ns_per_op\": " + json_number(ns) +
            ", \"max_abs_err\": " + json_number(err) + "}" +
            (i + 1 < variants.size() ? "," : "") + "\n";
  }
  if (!json.empty() && json[json.size() - 2] == ',') {
    json.erase(json.size() - 2, 1);  // trailing comma if last variant skipped
  }
  return json;
}

/// Time localize_3d at each search strategy (brute-force exact, incremental
/// accumulator, coarse-to-fine) on a two-altitude aperture, verifying that
/// every strategy lands on the same volume cell before reporting speed.
/// Returns the JSON object body for BENCH_sar.json's "localize_3d" key.
std::string search_sweep_3d(std::uint64_t seed) {
  std::printf("\n--- localize_3d search-strategy sweep (two-row aperture) ---\n");

  SystemConfig sys_cfg;
  const RflySystem system(sys_cfg, channel::Environment{}, {0, 0, 1});
  Rng rng(seed);
  const Vec3 tag{12.0, 6.0, 0.4};
  std::vector<Vec3> plan;
  for (double z : {1.2, 1.8}) {
    const auto row = drone::linear_trajectory({tag.x - 1.2, 8.0, z},
                                              {tag.x + 1.2, 8.15, z}, 25);
    plan.insert(plan.end(), row.begin(), row.end());
  }
  const auto flight =
      drone::fly(plan, drone::FlightConfig{}, drone::optitrack_tracking(), rng);
  const auto collected = system.try_collect_measurements(flight, tag, rng);
  if (!collected) {
    std::printf("collection failed: %s\n", collected.status().to_string().c_str());
    return "null";
  }
  const localize::MeasurementSet& measurements = *collected;

  localize::Volume vol;
  vol.x_min = tag.x - 1.5;
  vol.x_max = tag.x + 1.5;
  vol.y_min = tag.y - 1.5;
  vol.y_max = tag.y + 1.2;
  vol.z_min = 0.0;
  vol.z_max = 1.2;
  vol.resolution_m = 0.05;

  localize::Localize3dConfig cfg;
  cfg.freq_hz = sys_cfg.carrier_hz + sys_cfg.freq_shift_hz;
  cfg.threads = 1;  // serial on every path: algorithmic speedup, not threads
  cfg.kernel = localize::SarKernel::kFast;

  const auto time_ms = [&](localize::SarSearch search) {
    cfg.search = search;
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      const auto result = localize::localize_3d(measurements, vol, cfg);
      const auto t1 = std::chrono::steady_clock::now();
      if (!result) std::printf("unexpected localize_3d failure\n");
      best = std::min(best,
                      std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    return best;
  };
  const auto position = [&](localize::SarSearch search) {
    cfg.search = search;
    const auto result = localize::localize_3d(measurements, vol, cfg);
    return result ? result->position : Vec3{};
  };

  const auto exact_pos = position(localize::SarSearch::kExact);
  const double exact_ms = time_ms(localize::SarSearch::kExact);
  std::string json = "{\n";
  const localize::SarSearch searches[] = {localize::SarSearch::kExact,
                                          localize::SarSearch::kIncremental,
                                          localize::SarSearch::kCoarseToFine};
  std::printf("  %-12s %12s %10s %22s\n", "search", "best [ms]", "speedup",
              "max |pos diff| vs exact");
  for (std::size_t i = 0; i < std::size(searches); ++i) {
    const auto search = searches[i];
    const double ms =
        search == localize::SarSearch::kExact ? exact_ms : time_ms(search);
    const auto pos = position(search);
    const double diff = std::max({std::abs(pos.x - exact_pos.x),
                                  std::abs(pos.y - exact_pos.y),
                                  std::abs(pos.z - exact_pos.z)});
    std::printf("  %-12s %12.3f %9.2fx %22.3g\n",
                localize::sar_search_name(search), ms, exact_ms / ms, diff);
    json += "    " + json_quote(localize::sar_search_name(search)) +
            ": {\"best_ms\": " + json_number(ms) +
            ", \"speedup\": " + json_number(exact_ms / ms) +
            ", \"max_pos_diff_vs_exact\": " + json_number(diff) + "}" +
            (i + 1 < std::size(searches) ? "," : "") + "\n";
  }
  json += "  }";
  bench::paper_vs_ours("localize_3d coarse2fine speedup, 1 thread", "(n/a: ours)",
                       exact_ms / time_ms(localize::SarSearch::kCoarseToFine),
                       "x");
  return json;
}

/// Time the SAR engine at each kernel x thread-count point on the
/// fig06-sized grid and emit BENCH_sar.json. Parity against the serial
/// exact heatmap is checked on every run so a perf regression can never
/// hide a correctness one: exact must match bit-for-bit at every thread
/// count, fast within a tight absolute band.
void kernel_thread_sweep(std::uint64_t seed) {
  std::printf("\n--- SAR engine kernel x thread sweep (fig06-sized grid) ---\n");

  SystemConfig sys_cfg;
  const Vec3 reader_pos{-8.0, 1.0, 1.0};
  RflySystem system(sys_cfg, channel::Environment{}, reader_pos);
  const Vec3 tag{1.4, 0.9, 0.0};
  Rng rng(seed);
  const auto plan = drone::linear_trajectory({0.0, -0.4, 1.0}, {2.8, -0.35, 1.0}, 50);
  const auto flight =
      drone::fly(plan, drone::FlightConfig{}, drone::optitrack_tracking(), rng);
  const auto collected = system.try_collect_measurements(flight, tag, rng);
  if (!collected) {
    std::printf("collection failed: %s\n", collected.status().to_string().c_str());
    return;
  }
  const auto iso = localize::disentangle(*collected);
  const double freq = sys_cfg.carrier_hz + sys_cfg.freq_shift_hz;
  const localize::GridSpec grid{-0.5, 3.0, -0.5, 2.0, 0.02};

  const auto time_ms = [&](unsigned threads, localize::SarKernel kernel) {
    double best = 1e300;
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      const auto map = localize::sar_heatmap(iso, grid, freq, 0.0, threads, kernel);
      const auto t1 = std::chrono::steady_clock::now();
      best = std::min(best, std::chrono::duration<double, std::milli>(t1 - t0).count());
      if (map.values.empty()) std::printf("unexpected empty heatmap\n");
    }
    return best;
  };

  const auto serial_map =
      localize::sar_heatmap(iso, grid, freq, 0.0, 1, localize::SarKernel::kExact);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned sweep[] = {1, 2, 4, 8};
  const localize::SarKernel kernels[] = {localize::SarKernel::kExact,
                                         localize::SarKernel::kFast};
  const double serial_exact_ms = time_ms(1, localize::SarKernel::kExact);

  const std::string sincos_json = sincos_sweep();
  const std::string search_json = search_sweep_3d(seed + 1);

  FILE* json = std::fopen("BENCH_sar.json", "w");
  if (json) {
    std::fprintf(json,
                 "{\n  \"bench\": \"sar_heatmap\",\n"
                 "  \"grid\": {\"nx\": %zu, \"ny\": %zu, \"cells\": %zu},\n"
                 "  \"measurements\": %zu,\n"
                 "  \"hardware_concurrency\": %u,\n"
                 "  \"active_isa\": %s,\n"
                 "  \"results\": [\n",
                 grid.nx(), grid.ny(), grid.nx() * grid.ny(), iso.channels.size(),
                 hw, json_quote(localize::sar_kernel_active().isa).c_str());
  }
  std::printf("\n  %-7s %-8s %12s %10s %26s\n", "kernel", "threads", "best [ms]",
              "speedup", "max |diff| vs serial exact");
  double fast_serial_ms = serial_exact_ms;
  for (std::size_t ki = 0; ki < std::size(kernels); ++ki) {
    const localize::SarKernel kernel = kernels[ki];
    const bool exact = kernel == localize::SarKernel::kExact;
    for (std::size_t i = 0; i < std::size(sweep); ++i) {
      const unsigned threads = sweep[i];
      const double ms = (exact && threads == 1) ? serial_exact_ms
                                                : time_ms(threads, kernel);
      if (!exact && threads == 1) fast_serial_ms = ms;
      const auto map = localize::sar_heatmap(iso, grid, freq, 0.0, threads, kernel);
      double max_diff = 0.0;
      for (std::size_t c = 0; c < map.values.size(); ++c) {
        max_diff = std::max(max_diff, std::abs(map.values[c] - serial_map.values[c]));
      }
      const double speedup = serial_exact_ms / ms;
      std::printf("  %-7s %-8u %12.3f %9.2fx %26.3g\n",
                  localize::sar_kernel_name(kernel), threads, ms, speedup, max_diff);
      if (json) {
        std::fprintf(json, "    {\"kernel\": %s, \"threads\": %u, \"best_ms\": %s, "
                     "\"speedup\": %s, \"max_abs_diff_vs_serial\": %s}%s\n",
                     json_quote(localize::sar_kernel_name(kernel)).c_str(),
                     threads, json_number(ms).c_str(), json_number(speedup).c_str(),
                     json_number(max_diff).c_str(),
                     ki + 1 < std::size(kernels) || i + 1 < std::size(sweep) ? ","
                                                                             : "");
      }
    }
  }
  if (json) {
    // The obs snapshot rides along so machine readers see how much work the
    // sweep did (sar.cells, kernel dispatch counts, chunk latency buckets).
    // Empty objects under RFLY_OBS=OFF.
    std::fprintf(json,
                 "  ],\n  \"sincos\": [\n%s  ],\n  \"localize_3d\": %s,\n"
                 "  \"metrics\": %s\n}\n",
                 sincos_json.c_str(), search_json.c_str(),
                 obs::metrics_to_json(obs::snapshot()).c_str());
    std::fclose(json);
    std::printf("wrote BENCH_sar.json\n");
  }
  bench::paper_vs_ours("SAR fast-kernel speedup, 1 thread", "(n/a: ours)",
                       serial_exact_ms / fast_serial_ms, "x");
}

}  // namespace

int main(int argc, char** argv) {
  bench::CliOptions options;
  if (!options.parse(argc, argv)) return 1;
  bench::header("Fig. 6", "P(x,y) heatmaps: line-of-sight vs strong multipath");
  run_scene("(a) line of sight", 0, 31, 0.07);
  run_scene("(b) strong multipath (steel shelves)", 2, 32, 0.2);
  kernel_thread_sweep(33);
  return 0;
}
