// Robustness sweep — graceful degradation under injected faults. Runs the
// warehouse preset through the fault layer (sim/faults.h) along two axes —
// measurement dropout rate and wind trajectory jitter — and reports the
// localization-error CDF at every point, for both the exact and fast SAR
// kernels. The paper's deployments (Section 7.3) survive real-world sway,
// lost reads, and residual relay phase error; this bench shows the
// reproduction degrades smoothly instead of falling over: at 20% dropout
// every mission still completes (DEGRADED, never FAILED) and the median
// error grows gently with the fault intensity.
//
//   robustness_sweep --trials 6 --threads 0 --kernel exact
//   robustness_sweep --set faults.max_attempts=5 --out BENCH_robustness.json
//
// The per-trial engine seeds come from the batch runner's splitmix64 stream,
// so every sweep point runs the SAME missions (paired comparison) and the
// JSON is reproducible bit-for-bit at any --threads setting.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sim/batch.h"

using namespace rfly;

namespace {

struct SweepPoint {
  const char* fault;  // FaultConfig field being swept
  double value;
};

/// One (kernel, fault, value) cell of the sweep.
struct PointResult {
  std::string kernel;
  std::string fault;
  double value = 0.0;
  std::size_t missions = 0;
  std::size_t failed = 0;
  std::size_t degraded = 0;
  double mean_coverage = 0.0;
  double median_cm = 0.0;  // 0 when nothing localized (NaN breaks the JSON)
  double p90_cm = 0.0;
  std::vector<double> errors_cm;  // sorted ascending; localized items only
};

/// Shared emitters (common/json.h): strings escaped, NaN/Inf -> null.
void append_double(std::string& out, double v) { out += json_number(v); }

std::string sweep_to_json(const std::vector<PointResult>& points) {
  std::string out = "[";
  bool first_point = true;
  for (const auto& p : points) {
    if (!first_point) out += ", ";
    first_point = false;
    out += "{\"kernel\": " + json_quote(p.kernel) +
           ", \"fault\": " + json_quote(p.fault) + ", \"value\": ";
    append_double(out, p.value);
    out += ", \"missions\": " + std::to_string(p.missions);
    out += ", \"failed\": " + std::to_string(p.failed);
    out += ", \"degraded\": " + std::to_string(p.degraded);
    out += ", \"mean_coverage\": ";
    append_double(out, p.mean_coverage);
    out += ", \"median_cm\": ";
    append_double(out, p.median_cm);
    out += ", \"p90_cm\": ";
    append_double(out, p.p90_cm);
    out += ", \"errors_cm\": [";
    bool first_err = true;
    for (double e : p.errors_cm) {
      if (!first_err) out += ", ";
      first_err = false;
      append_double(out, e);
    }
    out += "]}";
  }
  out += "]";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::CliOptions opts;
  opts.trials = 6;
  opts.out = "BENCH_robustness.json";
  if (!opts.parse(argc, argv)) return 2;

  bench::header("Robustness", "localization error vs fault intensity (warehouse)");

  auto loaded = sim::preset("warehouse");
  if (!loaded) {
    std::fprintf(stderr, "%s\n", loaded.status().to_string().c_str());
    return 1;
  }
  sim::Scenario base = std::move(loaded.value());
  for (const auto& [key, value] : opts.overrides) {
    if (Status status = sim::apply_override(base, key, value);
        !status.is_ok()) {
      std::fprintf(stderr, "%s\n", status.to_string().c_str());
      bench::CliOptions::usage(argv[0]);
      return 2;
    }
  }

  const std::uint64_t first_seed = opts.seed_explicit ? opts.seed : base.seed;
  const std::size_t trials =
      opts.trials > 0 ? static_cast<std::size_t>(opts.trials) : 1;

  // Dropout sweeps past the 20% acceptance point; jitter covers calm air
  // through the paper's centimeter-scale sway. Each axis is swept alone so
  // a point isolates one impairment.
  const SweepPoint kPoints[] = {
      {"dropout", 0.0},  {"dropout", 0.05}, {"dropout", 0.1},
      {"dropout", 0.2},  {"dropout", 0.3},  {"dropout", 0.4},
      {"wind_jitter_std_m", 0.0}, {"wind_jitter_std_m", 0.02},
      {"wind_jitter_std_m", 0.05},
  };
  std::vector<localize::SarKernel> kernels;
  if (opts.kernel_explicit) {
    kernels = {opts.kernel};
  } else {
    kernels = {localize::SarKernel::kExact, localize::SarKernel::kFast};
  }

  std::vector<PointResult> points;
  for (const auto kernel : kernels) {
    std::printf("kernel %s (%zu trial(s)/point, base seed %llu):\n",
                localize::sar_kernel_name(kernel), trials,
                static_cast<unsigned long long>(first_seed));
    std::printf("  %-20s %7s  %4s %4s %4s  %9s  %10s %10s\n", "fault", "value",
                "runs", "fail", "degr", "coverage", "median", "p90");
    for (const auto& point : kPoints) {
      sim::Scenario scenario = base;
      scenario.sar_kernel = kernel;
      scenario.faults = base.faults;  // --set faults.* overrides carry over
      if (std::string(point.fault) == "dropout") {
        scenario.faults.dropout = point.value;
      } else {
        scenario.faults.wind_jitter_std_m = point.value;
      }

      const auto batch =
          sim::run_seed_sweep(scenario, first_seed, trials, {opts.threads});
      const auto summary = sim::summarize(batch);

      PointResult pr;
      pr.kernel = localize::sar_kernel_name(kernel);
      pr.fault = point.fault;
      pr.value = point.value;
      pr.missions = summary.jobs;
      pr.failed = summary.failed;
      pr.degraded = summary.degraded;
      pr.mean_coverage = summary.mean_coverage;
      for (const auto& result : batch) {
        if (!result.status.is_ok()) continue;
        const auto& items = result.run.report.items;
        // Report items are in tag-population order, so items[i] answers for
        // scenario.tags[i]; error is the 2D (floor-plane) distance.
        const std::size_t n = std::min(items.size(), scenario.tags.size());
        for (std::size_t i = 0; i < n; ++i) {
          if (!items[i].localized) continue;
          const double dx = items[i].estimate.x - scenario.tags[i].position.x;
          const double dy = items[i].estimate.y - scenario.tags[i].position.y;
          pr.errors_cm.push_back(100.0 * std::hypot(dx, dy));
        }
      }
      std::sort(pr.errors_cm.begin(), pr.errors_cm.end());
      if (!pr.errors_cm.empty()) {
        pr.median_cm = median(pr.errors_cm);
        pr.p90_cm = percentile(pr.errors_cm, 90);
      }

      std::printf("  %-20s %7.3f  %4zu %4zu %4zu  %8.1f%%  %8.1fcm %8.1fcm\n",
                  pr.fault.c_str(), pr.value, pr.missions, pr.failed,
                  pr.degraded, pr.mean_coverage * 100.0, pr.median_cm,
                  pr.p90_cm);
      points.push_back(std::move(pr));
    }
    std::printf("\n");
  }

  bench::Metrics metrics;
  metrics.add("trials_per_point", static_cast<double>(trials));
  metrics.add_json("sweep", sweep_to_json(points));
  if (!bench::finish_observability(opts, metrics)) return 1;
  if (!metrics.write(opts.out)) return 1;
  return 0;
}
