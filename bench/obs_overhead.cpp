// Observability overhead bench: times the instrumented SAR hot path and the
// raw probe primitives, writing BENCH_obs.json. One binary cannot compare
// RFLY_OBS=ON against OFF directly — build both trees and run this in each;
// the "obs_enabled" key tells the two files apart and the acceptance bar is
// the ON sar_heatmap time within 5% of the OFF one (see DESIGN.md for the
// measured number).
//
//   obs_overhead [--seed N] [--trials N] [--out FILE]   (--out defaults to
//   BENCH_obs.json)
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "core/system.h"
#include "drone/flight.h"
#include "drone/trajectory.h"
#include "localize/localizer.h"

using namespace rfly;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Best-of-N wall time of `body` in milliseconds.
template <typename F>
double best_ms(int reps, F&& body) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    body();
    best = std::min(best, seconds_since(t0) * 1e3);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bench::CliOptions opts;
  opts.seed = 33;
  opts.trials = 5;
  opts.out = "BENCH_obs.json";
  if (!opts.parse(argc, argv)) return 2;

  bench::header("obs overhead",
                obs::kEnabled ? "probes compiled IN (RFLY_OBS=ON)"
                              : "probes compiled OUT (RFLY_OBS=OFF)");

  // The fig06-sized SAR problem: the workload whose hot loop carries the
  // chunk-granularity probes.
  core::SystemConfig sys_cfg;
  core::RflySystem system(sys_cfg, channel::Environment{}, {-8.0, 1.0, 1.0});
  Rng rng(opts.seed);
  const auto plan =
      drone::linear_trajectory({0.0, -0.4, 1.0}, {2.8, -0.35, 1.0}, 50);
  const auto flight =
      drone::fly(plan, drone::FlightConfig{}, drone::optitrack_tracking(), rng);
  const auto measurements =
      system.try_collect_measurements(flight, {1.4, 0.9, 0.0}, rng);
  if (!measurements) {
    std::fprintf(stderr, "%s\n", measurements.status().to_string().c_str());
    return 1;
  }
  const auto iso = localize::disentangle(*measurements);
  const double freq = sys_cfg.carrier_hz + sys_cfg.freq_shift_hz;
  const localize::GridSpec grid{-0.5, 3.0, -0.5, 2.0, 0.02};

  const double sar_ms = best_ms(opts.trials, [&] {
    const auto map = localize::sar_heatmap(iso, grid, freq, 0.0, 1);
    if (map.values.empty()) std::printf("unexpected empty heatmap\n");
  });
  std::printf("sar_heatmap (serial, %zux%zu):  %10.3f ms best of %d\n",
              grid.nx(), grid.ny(), sar_ms, opts.trials);

  // Raw probe costs, amortized over a tight loop. These are the primitives
  // the hot paths pay per event. In an OFF build the no-op loops fold to
  // nothing and the per-op numbers read ~0 — which is the honest answer.
  constexpr int kProbeReps = 1'000'000;
  auto& counter = obs::counter("bench.probe_counter");
  auto& hist =
      obs::histogram("bench.probe_hist", obs::HistogramSpec::duration_seconds());
  const double counter_ns = best_ms(3, [&] {
                              for (int i = 0; i < kProbeReps; ++i) counter.inc();
                            }) *
                            1e6 / kProbeReps;
  const double hist_ns = best_ms(3, [&] {
                           for (int i = 0; i < kProbeReps; ++i) {
                             hist.observe(1e-5);
                           }
                         }) *
                         1e6 / kProbeReps;
  constexpr int kSpanReps = 100'000;
  const double span_ns = best_ms(3, [&] {
                           for (int i = 0; i < kSpanReps; ++i) {
                             obs::Span span("bench.probe_span");
                           }
                         }) *
                         1e6 / kSpanReps;
  // Spans accumulate in the thread buffer; drain so repeated runs in one
  // process don't hit the cap and report drops.
  const auto trace = obs::drain_trace();

  std::printf("counter.inc:                  %10.2f ns/op\n", counter_ns);
  std::printf("histogram.observe:            %10.2f ns/op\n", hist_ns);
  std::printf("span open+close:              %10.2f ns/op\n", span_ns);
  std::printf("spans drained: %zu (dropped %llu)\n", trace.spans.size(),
              static_cast<unsigned long long>(trace.dropped));

  bench::Metrics metrics;
  metrics.add("obs_enabled", obs::kEnabled ? 1.0 : 0.0);
  metrics.add("sar_heatmap_serial_ms", sar_ms);
  metrics.add("counter_inc_ns", counter_ns);
  metrics.add("histogram_observe_ns", hist_ns);
  metrics.add("span_ns", span_ns);
  if (!bench::finish_observability(opts, metrics)) return 1;
  if (!metrics.write(opts.out)) return 1;
  std::printf("wrote %s\n", opts.out.c_str());
  return 0;
}
