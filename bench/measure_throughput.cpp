// Measure-stage throughput: channel-measurement synthesis over the
// warehouse preset's flight as the tag population grows 1 -> 2000. The
// stage's two production paths at each size, both timed with the plane
// build included:
//
//   exact — the hoisted ForwardPlane: the per-waypoint half is computed
//     once per flight and shared across tags; the per-(point, tag) work
//     shrinks to one relay→tag channel. Bit-identical to the seed loop.
//   fast  — plane + the forward kernels (synthesize_forward_channels);
//     the synthesis inner loop is also timed alone.
//
//   bench_measure_throughput                       # full ladder
//   bench_measure_throughput --trials 5            # timing repetitions
//   bench_measure_throughput --out BENCH_measure.json
//
// The headline metric is fast_over_exact_1000 (fast ms over exact ms at
// 1000 tags) plus channel_evals_per_flight, which pins that the plane
// evaluates the reader↔relay channel once per waypoint per flight — not
// once per tag.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/forward_plane.h"
#include "core/system.h"
#include "drone/flight.h"
#include "obs/metrics.h"
#include "sim/scenario.h"

using namespace rfly;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

std::vector<channel::Vec3> spread_tags(const sim::Scenario& scenario,
                                       std::size_t count) {
  std::vector<channel::Vec3> tags;
  tags.reserve(count);
  Rng rng(17);
  const double w = scenario.environment.width_m;
  const double h = scenario.environment.height_m;
  for (std::size_t i = 0; i < count; ++i) {
    tags.push_back({rng.uniform(0.5, w - 0.5), rng.uniform(0.5, h - 0.5),
                    rng.uniform(0.2, 1.5)});
  }
  return tags;
}

/// Best-of-`reps` wall time for one measure-stage pass over all tags.
/// Both modes consume the same rng stream shape, so the timed work is
/// comparable; the plane build is timed inside each mode — it is part of
/// the stage cost the hoist amortizes.
struct ModeTimes {
  double exact_s = 0.0;
  double fast_s = 0.0;
};

ModeTimes time_modes(const core::RflySystem& system,
                     const std::vector<drone::FlownPoint>& flight,
                     const std::vector<channel::Vec3>& tags, int reps) {
  ModeTimes best{1e300, 1e300};
  std::size_t sink = 0;
  for (int r = 0; r < reps; ++r) {
    {
      Rng rng(99);
      const auto start = std::chrono::steady_clock::now();
      const auto plane = core::ForwardPlane::build(system, flight);
      for (const auto& tag : tags) {
        const auto set = system.try_collect_measurements(flight, tag, rng, plane);
        if (set.ok()) sink += set.value().size();
      }
      best.exact_s = std::min(best.exact_s, seconds_since(start));
    }
    {
      Rng rng(99);
      const auto start = std::chrono::steady_clock::now();
      const auto plane = core::ForwardPlane::build(system, flight);
      const auto synth = core::synthesize_forward_channels(system, plane, tags);
      for (std::size_t i = 0; i < tags.size(); ++i) {
        const auto set =
            system.try_collect_measurements(flight, rng, plane, synth[i]);
        if (set.ok()) sink += set.value().size();
      }
      best.fast_s = std::min(best.fast_s, seconds_since(start));
    }
  }
  if (sink == 0) std::fprintf(stderr, "warning: no measurements collected\n");
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bench::CliOptions opts;
  opts.trials = 3;  // timing repetitions per point (best-of)
  if (!opts.parse(argc, argv)) return 2;
  const int reps = opts.trials > 0 ? opts.trials : 3;

  auto loaded = sim::preset("warehouse");
  if (!loaded) {
    std::fprintf(stderr, "%s\n", loaded.status().to_string().c_str());
    return 1;
  }
  const sim::Scenario scenario = std::move(loaded.value());

  const channel::Environment env = scenario.environment.build();
  const core::RflySystem system(scenario.system, env, scenario.reader_position);
  Rng fly_rng(opts.seed);
  const auto flight = drone::fly(sim::flight_plan(scenario), scenario.flight,
                                 scenario.tracking, fly_rng);

  bench::header("BENCH measure", "measurement-synthesis plane throughput");
  std::printf(
      "warehouse preset flight (%zu waypoints), best of %d; times are the\n"
      "whole measure stage (plane build + per-tag collect)\n\n",
      flight.size(), reps);

  bench::Metrics metrics;
  metrics.add("flight_points", static_cast<double>(flight.size()));

  // The once-per-flight contract: building a plane evaluates the
  // reader<->relay channel exactly flight.size() times, no matter how many
  // tags the stage will serve.
  if (obs::kEnabled) {
    auto& evals = obs::counter("measure.plane.channel_evals");
    const auto before = evals.value();
    const auto probe = core::ForwardPlane::build(system, flight);
    const double per_flight = static_cast<double>(evals.value() - before);
    metrics.add("channel_evals_per_flight", per_flight);
    std::printf("plane build: %.0f channel evals for %zu waypoints%s\n\n",
                per_flight, flight.size(),
                per_flight == static_cast<double>(flight.size())
                    ? " (once per waypoint)"
                    : "  ** EXPECTED once per waypoint **");
  }

  std::printf("%8s %12s %12s %12s\n", "tags", "exact ms", "fast ms",
              "fast/exact");
  const std::vector<std::size_t> ladder{1, 10, 100, 1000, 2000};
  for (std::size_t n : ladder) {
    const auto tags = spread_tags(scenario, n);
    const ModeTimes t = time_modes(system, flight, tags, reps);
    const double ratio = t.exact_s > 0.0 ? t.fast_s / t.exact_s : 0.0;
    std::printf("%8zu %12.2f %12.2f %12.2f\n", n, t.exact_s * 1e3,
                t.fast_s * 1e3, ratio);
    const std::string suffix = std::to_string(n);
    metrics.add("exact_ms_" + suffix, t.exact_s * 1e3);
    metrics.add("fast_ms_" + suffix, t.fast_s * 1e3);
    metrics.add("fast_over_exact_" + suffix, ratio);
  }

  // The synthesis inner loop alone (the part the forward kernels own), at
  // the top of the ladder.
  {
    const auto tags = spread_tags(scenario, ladder.back());
    const auto plane = core::ForwardPlane::build(system, flight);
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
      const auto start = std::chrono::steady_clock::now();
      const auto synth = core::synthesize_forward_channels(system, plane, tags);
      best = std::min(best, seconds_since(start));
      if (synth.size() != tags.size()) return 1;
    }
    std::printf("\nsynthesis kernel, %zu tags x %zu waypoints: %.2f ms\n",
                ladder.back(), flight.size(), best * 1e3);
    metrics.add("synthesis_ms", best * 1e3);
  }

  if (!bench::finish_observability(opts, metrics)) return 1;
  if (!metrics.write(opts.out)) return 1;
  return 0;
}
