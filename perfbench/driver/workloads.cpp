#include "workloads.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "common/rng.h"
#include "localize/sar_kernel.h"
#include "service/client.h"
#include "service/server.h"
#include "service/wire.h"
#include "sim/batch.h"
#include "sim/pipeline.h"

namespace perfbench {

namespace sim = rfly::sim;
namespace service = rfly::service;
namespace obs = rfly::obs;
using rfly::stream_seed;

namespace {

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 5;
/// Missions per warehouse_sweep batch call (the 64-seed sweep).
constexpr std::size_t kSweepMissions = 64;
/// Missions the oracle reruns through the reference path per run.
constexpr std::size_t kOracleSamples = 4;
/// rflyd_mix offered load (requests/s) and its floor on requests per run,
/// so that p99 has at least ten samples beyond it.
constexpr double kRflydRateHz = 25.0;
constexpr std::size_t kRflydMinRequests = 1000;
/// Share of rflyd_mix requests that repeat an earlier (scenario, seed), and
/// how long after the original's due time a repeat may be sent at the
/// earliest (far beyond one mission, so the original has completed).
constexpr double kRepeatShare = 0.25;
constexpr double kRepeatMinAgeS = 2.0;
/// Repeats pick among this many most recent eligible originals, well inside
/// the ResultCache capacity.
constexpr std::size_t kRepeatWindow = 64;
/// A request not answered within this is counted as timed out.
constexpr double kRequestTimeoutS = 10.0;
/// Generator lateness beyond which a run is flagged as not open-loop.
constexpr double kLagLimitMs = 20.0;

constexpr std::array<const char*, sim::kStageCount> kStageNames = {
    "plan", "fly", "inventory", "measure", "disentangle", "localize", "report"};

/// Everything the per-layer metrics are computed from. Fields a workload
/// does not exercise stay zero.
struct LayerFigures {
  // Mission-side sums over the measured window.
  std::size_t missions = 0;
  std::array<double, sim::kStageCount> stage_s{};
  double mission_s = 0.0;
  std::vector<double> mission_ms;  // each mission's wall time
  std::uint64_t measurements = 0;
  double batch_wall_s = 0.0;  // summed wall of the benchmark's batch calls
  unsigned threads = 1;
  double materialize_s = 0.0;
  double fold_s = 0.0;    // benchmark-side tracing work
  double window_s = 0.0;  // measured window
  SpanTotals spans;
  ObsSnapshot window_before;
  ObsSnapshot window_after;
  // Counts over the counted unit (repeatable for a fixed seed).
  ObsSnapshot unit_before;
  ObsSnapshot unit_after;
  // Service side (rflyd_mix only).
  double submit_rtt_ms_p50 = 0.0;
  double result_rtt_ms_p50 = 0.0;
  double hit_latency_ms_p50 = 0.0;
  double result_bytes = 0.0;
  double encode_us = 0.0;
  double decode_us = 0.0;
  double lag_ms_p99 = 0.0;
  double latency_ms_p99 = 0.0;
};

void add_mission(LayerFigures& f, const sim::BatchResult& r) {
  ++f.missions;
  for (std::size_t s = 0; s < sim::kStageCount && s < r.run.trace.size(); ++s) {
    f.stage_s[s] += r.run.trace[s].seconds;
  }
  f.mission_s += r.run.total_seconds;
  f.mission_ms.push_back(1e3 * r.run.total_seconds);
  for (const auto& item : r.run.report.items) f.measurements += item.measurements;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void emit_layers(MetricSet& m, const LayerFigures& f, const char* workload) {
  const double per_mission = f.missions > 0 ? 1.0 / static_cast<double>(f.missions) : 0.0;
  const auto unit = [&](const std::string& name) {
    return static_cast<double>(counter_delta(f.unit_before, f.unit_after, name));
  };
  const auto window = [&](const std::string& name) {
    return static_cast<double>(counter_delta(f.window_before, f.window_after, name));
  };

  // sim
  double staged = 0.0;
  for (std::size_t s = 0; s < sim::kStageCount; ++s) {
    m.add(std::string("sim.stage.") + kStageNames[s] + "_s", f.stage_s[s] * per_mission, "s");
    staged += f.stage_s[s];
  }
  m.add("sim.unstaged_frac", f.mission_s > 0.0 ? 1.0 - staged / f.mission_s : 0.0,
        "ratio");
  m.add("sim.batch.plane_s", f.spans.total("batch.plane") * per_mission, "s");
  m.add("sim.batch.parallel_eff",
        ratio(f.spans.total("batch.job"), f.threads * f.batch_wall_s), "ratio");
  m.add("sim.materialize_s", f.materialize_s, "s");
  m.add("sim.mission_ms_p99", quantile(f.mission_ms, 0.99), "ms");

  // core/gen2
  m.add("gen2.slots", unit("gen2.slots"), "count");
  m.add("gen2.rounds", unit("gen2.rounds"), "count");
  m.add("gen2.collisions", unit("gen2.collisions"), "count");
  m.add("gen2.epcs_read", unit("gen2.epcs_read"), "count");
  m.add("gen2.slots_per_round", ratio(window("gen2.slots"), window("gen2.rounds")),
        "slots");
  m.add("gen2.read_yield", ratio(window("gen2.epcs_read"), window("gen2.slots")),
        "ratio");

  // core measure
  m.add("measure.plane.builds", unit("measure.plane.builds"), "count");
  m.add("measure.plane.channel_evals", unit("measure.plane.channel_evals"), "count");
  m.add("forward_plane_cache.hits", unit("forward_plane_cache.hits"), "count");
  m.add("forward_plane_cache.misses", unit("forward_plane_cache.misses"), "count");
  m.add("measure.ns_per_tag_waypoint",
        1e9 * ratio(f.stage_s[static_cast<std::size_t>(sim::Stage::kMeasure)],
                    static_cast<double>(f.measurements)),
        "ns");

  // localize
  const double heatmap_s =
      f.spans.total("sar.heatmap") + f.spans.total("sar.heatmap_multi");
  m.add("sar.cells", unit("sar.cells"), "count");
  m.add("sar.ns_per_cell", 1e9 * ratio(heatmap_s, window("sar.cells")), "ns");
  m.add("localize.post_s",
        std::max(0.0, f.stage_s[static_cast<std::size_t>(sim::Stage::kLocalize)] -
                          heatmap_s) *
            per_mission,
        "s");
  m.add("geometry_cache.hits", unit("geometry_cache.hits"), "count");
  m.add("geometry_cache.misses", unit("geometry_cache.misses"), "count");
  const auto refined = histogram_delta(f.unit_before, f.unit_after, "sar.c2f.refined_cells");
  m.add("sar.c2f.refined_cells", refined.sum, "count");

  // common
  m.add("pool.jobs", unit("pool.jobs"), "count");
  m.add("pool.chunks", unit("pool.chunks"), "count");
  m.add("pool.serial_jobs", unit("pool.serial_jobs"), "count");
  m.add("pool.job_s", f.spans.total("pool.job") * per_mission, "s");
  m.add("arena.high_water_bytes", f.window_after.gauge("arena.high_water_bytes"),
        "bytes");

  // service
  m.add("service.submit_rtt_ms_p50", f.submit_rtt_ms_p50, "ms");
  m.add("service.result_rtt_ms_p50", f.result_rtt_ms_p50, "ms");
  m.add("service.hit_latency_ms_p50", f.hit_latency_ms_p50, "ms");
  m.add("wire.result_bytes", f.result_bytes, "bytes");
  m.add("wire.encode_us", f.encode_us, "us");
  m.add("wire.decode_us", f.decode_us, "us");
  m.add("service.queue_wait_ms_p99",
        1e3 * histogram_quantile(histogram_delta(f.window_before, f.window_after,
                                                 "service.queue_wait_seconds"),
                                 0.99),
        "ms");
  m.add("service.job_ms_p50",
        1e3 * histogram_quantile(histogram_delta(f.window_before, f.window_after,
                                                 "service.job_seconds"),
                                 0.5),
        "ms");
  const double hits = window("service.cache.hits");
  m.add("service.cache.hit_ratio", ratio(hits, hits + window("service.cache.misses")),
        "ratio");
  m.add("service.rejected", window("service.rejected"), "count");
  m.add("loadgen.lag_ms_p99", f.lag_ms_p99, "ms");
  m.add("loadgen.latency_ms_p99", f.latency_ms_p99, "ms");

  // obs
  m.add("obs.trace_overhead_frac", ratio(f.fold_s, f.window_s), "ratio");
  m.add("obs.unattributed_frac", print_attribution(workload, f.spans), "ratio");
}

/// Tail latency is a per-layer figure (loadgen.latency_ms_p99,
/// sim.mission_ms_p99), not an end-to-end one: on a shared host its run-to-
/// run spread follows the neighbours and exceeds any bound the benchmark may
/// set.
void emit_end_to_end(MetricSet& m, double missions_per_s, double p50_ms,
                     const std::vector<double>& setup_s, double rss_mb) {
  m.add("missions_per_s", missions_per_s, "1/s");
  m.add("latency_ms_p50", p50_ms, "ms");
  m.add("setup_s", median(setup_s), "s");
  m.add("peak_rss_mb", rss_mb, "MB");
}

/// Per batch call figures of a batch workload. A noisy neighbour stalls
/// whole calls, so the run reports medians over calls rather than pooling
/// every mission of the window.
struct CallStats {
  std::vector<double> rates;    // good missions / call wall
  std::vector<double> p50s_ms;  // per-call median of mission wall time

  void add(std::size_t good, double wall_s, const std::vector<double>& latencies_ms) {
    rates.push_back(ratio(static_cast<double>(good), wall_s));
    p50s_ms.push_back(median(latencies_ms));
  }
  void emit(MetricSet& m, const std::vector<double>& setup_s, double rss_mb) const {
    emit_end_to_end(m, median(rates), median(p50s_ms), setup_s, rss_mb);
  }
};

/// Drain the program's spans; fold them into `f` only on traced runs, so
/// both run kinds leave the span buffers in the same state.
void collect_spans(const RunOptions& options, LayerFigures& f) {
  const auto start = Clock::now();
  obs::Trace trace = obs::drain_trace();
  if (options.trace) {
    f.spans.fold(trace);
    f.fold_s += seconds_since(start);
  }
}

/// Time validate + materialize of `scenario` (the scenario build itself is
/// timed by the caller as part of set-up).
double time_materialize(const sim::Scenario& scenario, bool* ok) {
  const auto start = Clock::now();
  obs::Span span("bench.materialize");
  *ok = sim::validate(scenario).is_ok();
  const sim::MissionInputs inputs = sim::materialize(scenario);
  *ok = *ok && inputs.tags.size() == scenario.tags.size();
  return seconds_since(start);
}

std::vector<MissionAnswer> answers_of(const std::vector<sim::BatchResult>& results) {
  std::vector<MissionAnswer> out;
  out.reserve(results.size());
  for (const auto& r : results) out.push_back(answer_of(r));
  return out;
}

/// Compare sampled measured missions with the exact-kernel reference and
/// re-run them per-mission on one thread with the measured kernel: that
/// rerun must reproduce the deterministic digest bit for bit. Fleet jobs
/// skip the rerun: they never defer, so both modes run the same code, and a
/// 5000-tag rerun would cost a whole mission. Returns the number of
/// mismatching missions.
std::size_t check_samples(const std::vector<sim::BatchJob>& jobs,
                          const std::vector<sim::BatchResult>& measured,
                          double tolerance_m) {
  if (jobs.empty()) return 0;
  const std::vector<MissionAnswer> reference = reference_answers(jobs);
  std::vector<sim::BatchJob> rerun_jobs;
  for (const auto& job : jobs) {
    if (!job.scenario.fleet.enabled) rerun_jobs.push_back(job);
  }
  const auto rerun = sim::run_batch(rerun_jobs, {1, sim::BatchMode::kPerMission});
  std::size_t misses = 0;
  for (std::size_t i = 0, r = 0; i < jobs.size(); ++i) {
    std::string why;
    bool ok = answers_match(answer_of(measured[i]), reference[i], tolerance_m, &why);
    if (!jobs[i].scenario.fleet.enabled &&
        service::deterministic_digest(rerun[r++]) !=
            service::deterministic_digest(measured[i]) &&
        ok) {
      ok = false;
      why = "per-mission rerun digest differs from the measured result";
    }
    if (!ok) {
      std::fprintf(stderr, "oracle: mission seed %llu: %s\n",
                   static_cast<unsigned long long>(jobs[i].seed), why.c_str());
      ++misses;
    }
  }
  return misses;
}

std::size_t check_golden_set(const GoldenSet& golden, const RunOptions& options) {
  if (options.golden == nullptr) return 0;
  const auto results = sim::run_batch(golden.jobs, {golden.threads});
  return check_golden(golden, answers_of(results), *options.golden);
}

bool mission_ok(const sim::BatchResult& r) {
  return r.status.is_ok() && r.run.health.is_ok() && !r.run.report.items.empty();
}

}  // namespace

unsigned host_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

sim::Scenario warehouse_fast_scenario() {
  sim::Scenario s = *sim::preset("warehouse");
  s.sar_kernel = rfly::localize::SarKernel::kFast;
  s.sar_search = rfly::localize::SarSearch::kExact;
  return s;
}

sim::Scenario fleet_scenario(std::uint32_t n_tags, std::uint64_t seed) {
  sim::Scenario s = *sim::preset("fleet_warehouse");
  s.grid_resolution_m = 0.1;
  s.search_halfwidth_m = 1.5;
  s.sar_kernel = rfly::localize::SarKernel::kFast;
  s.sar_search = rfly::localize::SarSearch::kCoarseToFine;
  s.localize_threads = 1;
  s.tags.clear();
  rfly::Rng placement(seed);
  for (std::uint32_t i = 0; i < n_tags; ++i) {
    const double aisle_y = 5.0 + 10.0 * static_cast<double>(i % 3);
    s.tags.push_back({i,
                      {placement.uniform(8.0, 32.0),
                       aisle_y + placement.uniform(-1.0, 1.0), 0.0},
                      "tag " + std::to_string(i)});
  }
  return s;
}

// --- batch workloads ---------------------------------------------------------

namespace {

/// What distinguishes warehouse_sweep from fleet_5000; the timed window, the
/// oracle and the metrics are shared.
struct BatchWorkload {
  const char* name = "";
  unsigned threads = 1;  // threads of the batch calls (attribution only)
  /// Scenario of this run, rebuilt in every set-up repetition.
  std::function<sim::Scenario()> build;
  /// Warm-up missions of one set-up repetition.
  std::function<std::vector<sim::BatchResult>(const sim::Scenario&, int rep)> warm;
  /// Batch call `k` of the window: fills `jobs` with what it ran.
  std::function<std::vector<sim::BatchResult>(const sim::Scenario&, std::uint64_t k,
                                              std::vector<sim::BatchJob>& jobs)>
      call;
  /// Oracle samples taken from each call (its first missions), and in all.
  std::size_t samples_per_call = 1;
  std::size_t max_samples = kOracleSamples;
  GoldenSet golden;
};

RunResult run_batch_workload(const RunOptions& options, const BatchWorkload& w) {
  RunResult out;
  LayerFigures f;
  f.threads = w.threads;

  sim::Scenario scenario;
  std::vector<double> setup_s;
  std::vector<double> materialize_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto start = Clock::now();
    scenario = w.build();
    bool ok = false;
    materialize_s.push_back(time_materialize(scenario, &ok));
    for (const auto& r : w.warm(scenario, rep)) ok = ok && mission_ok(r);
    if (!ok) out.correct = false;
    setup_s.push_back(seconds_since(start));
  }
  f.materialize_s = median(materialize_s);
  obs::drain_trace();

  CallStats calls;
  std::vector<sim::BatchJob> sample_jobs;
  std::vector<sim::BatchResult> sample_results;
  f.window_before = ObsSnapshot::take();
  const auto window_start = Clock::now();
  for (std::uint64_t k = 0;; ++k) {
    if (k > 0) {
      // Stop before a call that would overrun the window (at least one).
      const double elapsed = seconds_since(window_start);
      if (options.smoke || elapsed + elapsed / static_cast<double>(k) > options.seconds) {
        break;
      }
    }
    if (k == 0 && options.trace) f.unit_before = ObsSnapshot::take();
    std::vector<sim::BatchJob> jobs;
    const auto start = Clock::now();
    const std::vector<sim::BatchResult> results = w.call(scenario, k, jobs);
    const double wall = seconds_since(start);
    f.batch_wall_s += wall;
    if (k == 0 && options.trace) f.unit_after = ObsSnapshot::take();
    std::vector<double> latencies_ms;
    for (const auto& r : results) {
      ++out.attempted;
      if (!mission_ok(r)) {
        ++out.failed;
        continue;
      }
      latencies_ms.push_back(1e3 * r.run.total_seconds);
      add_mission(f, r);
    }
    calls.add(latencies_ms.size(), wall, latencies_ms);
    for (std::size_t i = 0; i < results.size() && i < w.samples_per_call &&
                            sample_jobs.size() < w.max_samples;
         ++i) {
      sample_jobs.push_back(jobs[i]);
      sample_results.push_back(results[i]);
    }
    collect_spans(options, f);
  }
  f.window_s = seconds_since(window_start);
  f.window_after = ObsSnapshot::take();
  const double rss = peak_rss_mb();

  const std::size_t wrong =
      check_samples(sample_jobs, sample_results, scenario.grid_resolution_m / 10.0) +
      check_golden_set(w.golden, options);
  out.failed += wrong;
  if (out.failed > 0) out.correct = false;

  if (options.trace) {
    emit_layers(out.metrics, f, w.name);
  } else {
    calls.emit(out.metrics, setup_s, rss);
  }
  return out;
}

}  // namespace

RunResult run_warehouse_sweep(const RunOptions& options) {
  // One hardware thread is left to the system: on a shared 4-vCPU host,
  // sweeps on every thread wait for whichever one was preempted; in
  // interleaved runs their rate swung by 30%, on nproc - 1 by 4%.
  const unsigned threads = std::max(1u, host_threads() - 1);
  const sim::BatchConfig config{threads, sim::BatchMode::kBatched};
  const std::size_t per_call = options.smoke ? kOracleSamples : kSweepMissions;
  BatchWorkload w;
  w.name = "warehouse_sweep";
  w.threads = threads;
  w.build = warehouse_fast_scenario;
  // One mission per thread warms the pool, the caches and the allocator.
  w.warm = [&](const sim::Scenario& s, int rep) {
    return sim::run_seed_sweep(s, stream_seed(options.seed, 1000 + rep), threads, config);
  };
  // Distinct first seeds per call: run_seed_sweep hashes (first, i), so no
  // two missions of a run share a flight.
  w.call = [&](const sim::Scenario& s, std::uint64_t k, std::vector<sim::BatchJob>& jobs) {
    const std::uint64_t first_seed = stream_seed(options.seed, k);
    for (std::size_t i = 0; i < per_call; ++i) jobs.push_back({s, stream_seed(first_seed, i)});
    obs::Span span("bench.sweep");
    return sim::run_seed_sweep(s, first_seed, per_call, config);
  };
  w.samples_per_call = options.smoke ? kOracleSamples : 1;
  w.golden = warehouse_golden_set();
  return run_batch_workload(options, w);
}

RunResult run_fleet(const RunOptions& options) {
  const sim::BatchConfig config{1, sim::BatchMode::kBatched};
  const std::uint32_t n_tags = options.smoke ? 150 : 5000;
  BatchWorkload w;
  w.name = "fleet_5000";
  w.build = [&] { return fleet_scenario(n_tags, options.seed); };
  w.golden = fleet_golden_set();
  // The small golden fleet warms up (a 5000-tag warm-up would cost a
  // mission), flown with seeds the window never uses.
  w.warm = [&](const sim::Scenario&, int rep) {
    return sim::run_batch({{w.golden.jobs.front().scenario, stream_seed(options.seed, 1000 + rep)}},
                          config);
  };
  w.call = [&](const sim::Scenario& s, std::uint64_t k, std::vector<sim::BatchJob>& jobs) {
    jobs.push_back({s, stream_seed(options.seed, k)});
    obs::Span span("bench.fleet_mission");
    return sim::run_batch(jobs, config);
  };
  // The exact-kernel reference costs a whole mission: check the first.
  w.max_samples = 1;
  return run_batch_workload(options, w);
}

// --- rflyd_mix ---------------------------------------------------------------

namespace {

/// One scheduled request of the open-loop generator.
struct Request {
  double due_s = 0.0;             // offset from the schedule start
  std::uint64_t seed = 0;
  std::ptrdiff_t repeat_of = -1;  // original request index for repeats
};

/// Poisson arrivals at `rate_hz`, conditioned on exactly `count` arrivals in
/// count / rate_hz seconds (sorted uniform times), so every run offers the
/// same load. A share of requests repeats one of the most recent originals
/// that are at least kRepeatMinAgeS old: old enough to have completed,
/// recent enough to still be in the daemon's ResultCache. Pure function of
/// `seed`.
std::vector<Request> make_schedule(std::uint64_t seed, std::size_t count,
                                   double rate_hz) {
  rfly::Rng rng(stream_seed(seed, 0x6c6f6164));  // "load"
  std::vector<Request> schedule(count);
  std::vector<std::size_t> originals;
  std::size_t eligible = 0;  // originals[0, eligible) are old enough
  const double span_s = static_cast<double>(count) / rate_hz;
  for (auto& request : schedule) request.due_s = rng.uniform(0.0, span_s);
  std::sort(schedule.begin(), schedule.end(),
            [](const Request& a, const Request& b) { return a.due_s < b.due_s; });
  for (std::size_t i = 0; i < count; ++i) {
    const double t = schedule[i].due_s;
    while (eligible < originals.size() &&
           schedule[originals[eligible]].due_s <= t - kRepeatMinAgeS) {
      ++eligible;
    }
    if (rng.uniform(0.0, 1.0) < kRepeatShare && eligible > 0) {
      const std::size_t lo = eligible > kRepeatWindow ? eligible - kRepeatWindow : 0;
      const std::size_t pick = originals[static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::int64_t>(lo), static_cast<std::int64_t>(eligible) - 1))];
      schedule[i].seed = schedule[pick].seed;
      schedule[i].repeat_of = static_cast<std::ptrdiff_t>(pick);
    } else {
      schedule[i].seed = stream_seed(seed, i);
      originals.push_back(i);
    }
  }
  return schedule;
}

/// What the generator observed for one request.
struct Outcome {
  bool answered = false;
  bool cached = false;
  double lag_s = 0.0;
  double latency_s = 0.0;
  double submit_rtt_s = 0.0;
  double result_rtt_s = 0.0;
  std::string bytes;
};

struct Daemon {
  std::unique_ptr<service::MissionService> service;
  std::vector<service::Client> clients;
};

/// Start a daemon and connect `connections` clients; each client runs one
/// warm-up mission. False on any failure.
bool start_daemon(Daemon& d, unsigned workers, unsigned connections,
                  const std::string& text, std::uint64_t warm_seed) {
  service::ServiceConfig config;
  config.workers = workers;
  config.job_threads = 1;
  d.service = std::make_unique<service::MissionService>(config);
  if (!d.service->start().is_ok()) return false;
  for (unsigned c = 0; c < connections; ++c) {
    auto client = service::Client::connect(d.service->port());
    if (!client) return false;
    d.clients.push_back(std::move(client.value()));
  }
  std::vector<std::thread> warmers;
  std::atomic<bool> ok{true};
  for (unsigned c = 0; c < connections; ++c) {
    warmers.emplace_back([&, c] {
      auto r = d.clients[c].run(text, stream_seed(warm_seed, c));
      if (!r || !mission_ok(*r)) ok = false;
    });
  }
  for (auto& t : warmers) t.join();
  return ok;
}

void stop_daemon(Daemon& d) {
  d.clients.clear();
  if (d.service) {
    d.service->request_shutdown(/*drain=*/false);
    d.service->wait();
    d.service.reset();
  }
}

/// Fetch one result and time it from the request's due time.
void collect(service::Client& client, std::uint64_t job_id,
             Clock::time_point due, Clock::time_point acked, Outcome& o) {
  rfly::Expected<std::string> bytes = [&] {
    obs::Span span("bench.result");
    return client.result_bytes(job_id, /*wait=*/true);
  }();
  const auto done = Clock::now();
  if (!bytes) return;
  o.answered = true;
  o.result_rtt_s = std::chrono::duration<double>(done - acked).count();
  o.latency_s = std::chrono::duration<double>(done - due).count();
  o.bytes = std::move(*bytes);
}

/// Open-loop generator over the daemon's connections. Connection 0 submits
/// every request at its due time and fetches cache hits at once (they are
/// born done); the other connections wait for the simulated results, in
/// submission order. Refused submissions are failures and are not retried.
void generate(Daemon& daemon, const std::string& text,
              const std::vector<Request>& schedule, std::vector<Outcome>& outcomes,
              Clock::time_point start) {
  struct Pending {
    std::size_t index = 0;
    std::uint64_t job_id = 0;
    Clock::time_point acked;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> pending;
  bool submitted_all = false;
  const auto due_of = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(schedule[i].due_s));
  };

  std::vector<std::thread> collectors;
  for (std::size_t c = 1; c < daemon.clients.size(); ++c) {
    collectors.emplace_back([&, c] {
      for (;;) {
        Pending p;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return !pending.empty() || submitted_all; });
          if (pending.empty()) return;
          p = pending.front();
          pending.pop_front();
        }
        collect(daemon.clients[c], p.job_id, due_of(p.index), p.acked,
                outcomes[p.index]);
      }
    });
  }

  service::Client& submitter = daemon.clients.front();
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const auto due = due_of(i);
    std::this_thread::sleep_until(due);
    Outcome& o = outcomes[i];
    const auto sent = Clock::now();
    o.lag_s = std::chrono::duration<double>(sent - due).count();
    rfly::Expected<service::Client::SubmitAck> ack = [&] {
      obs::Span span("bench.submit");
      return submitter.submit(text, schedule[i].seed);
    }();
    const auto acked = Clock::now();
    o.submit_rtt_s = std::chrono::duration<double>(acked - sent).count();
    if (!ack) continue;
    o.cached = ack->cached;
    if (ack->cached) {
      collect(submitter, ack->job_id, due, acked, o);
    } else {
      std::lock_guard<std::mutex> lock(mu);
      pending.push_back({i, ack->job_id, acked});
      cv.notify_one();
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    submitted_all = true;
  }
  cv.notify_all();
  for (auto& t : collectors) t.join();
}

}  // namespace

RunResult run_rflyd_mix(const RunOptions& options) {
  RunResult out;
  const unsigned threads = host_threads();
  // One submitting and at least one collecting connection.
  const unsigned connections = std::max(2u, threads);
  const std::size_t count =
      options.smoke ? 100
                    : std::max(kRflydMinRequests,
                               static_cast<std::size_t>(std::ceil(kRflydRateHz * options.seconds)));
  const sim::Scenario scenario = warehouse_fast_scenario();
  const std::string text = sim::serialize(scenario);
  LayerFigures f;
  f.threads = threads;

  // Set-up: daemon start, client connections, one warm-up mission per
  // connection. The last daemon serves the measured window.
  Daemon daemon;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stop_daemon(daemon);
    const auto start = Clock::now();
    if (!start_daemon(daemon, threads, connections, text,
                      stream_seed(options.seed, 1000 + rep))) {
      std::fprintf(stderr, "rflyd_mix: daemon set-up failed\n");
      stop_daemon(daemon);
      out.correct = false;
      out.attempted = 1;
      out.failed = 1;
      return out;
    }
    setup_s.push_back(seconds_since(start));
  }
  {
    bool ok = false;
    f.materialize_s = time_materialize(scenario, &ok);
  }
  obs::drain_trace();

  const std::vector<Request> schedule = make_schedule(options.seed, count, kRflydRateHz);
  std::vector<Outcome> outcomes(count);
  f.window_before = ObsSnapshot::take();
  f.unit_before = f.window_before;
  const auto window_start = Clock::now();
  generate(daemon, text, schedule, outcomes, window_start);
  f.window_s = seconds_since(window_start);
  f.window_after = ObsSnapshot::take();
  f.unit_after = f.window_after;
  const double rss = peak_rss_mb();
  collect_spans(options, f);

  // Decode every answer, time the codec both ways, and check each reply.
  std::vector<double> latencies_ms;
  std::vector<double> lags_ms;
  std::vector<double> submit_ms;
  std::vector<double> hit_result_ms;
  std::vector<double> hit_latency_ms;
  std::vector<double> encode_us;
  std::vector<double> decode_us;
  double bytes_total = 0.0;
  double last_done_s = 0.0;
  std::size_t good = 0;
  std::size_t wrong = 0;
  std::vector<sim::BatchResult> decoded(count);
  std::vector<bool> decoded_ok(count, false);
  std::vector<sim::BatchJob> sample_jobs;
  std::vector<sim::BatchResult> sample_results;
  for (std::size_t i = 0; i < count; ++i) {
    const Outcome& o = outcomes[i];
    if (!o.answered) continue;
    const auto t0 = Clock::now();
    service::WireReader reader(o.bytes);
    decoded_ok[i] = service::decode_batch_result(reader, decoded[i]) && reader.exhausted();
    decode_us.push_back(1e6 * seconds_since(t0));
  }
  for (std::size_t i = 0; i < count; ++i) {
    const Outcome& o = outcomes[i];
    const Request& req = schedule[i];
    ++out.attempted;
    lags_ms.push_back(1e3 * o.lag_s);
    if (!o.answered || o.latency_s > kRequestTimeoutS) {
      ++out.failed;  // refused, errored or timed out: misses any limit
      latencies_ms.push_back(1e3 * std::max(o.latency_s, kRequestTimeoutS));
      continue;
    }
    latencies_ms.push_back(1e3 * o.latency_s);
    submit_ms.push_back(1e3 * o.submit_rtt_s);
    last_done_s = std::max(last_done_s, req.due_s + o.latency_s);
    if (req.repeat_of >= 0) hit_latency_ms.push_back(1e3 * o.latency_s);
    if (o.cached) hit_result_ms.push_back(1e3 * o.result_rtt_s);
    bytes_total += static_cast<double>(o.bytes.size());

    const auto t0 = Clock::now();
    service::WireWriter writer;
    service::encode_batch_result(writer, decoded[i]);
    encode_us.push_back(1e6 * seconds_since(t0));

    std::string why;
    if (!decoded_ok[i] || writer.bytes() != o.bytes) {
      why = "codec round trip is not byte-exact";
    } else if (!mission_ok(decoded[i])) {
      why = "mission failed: " + decoded[i].status.to_string();
    } else if (o.cached) {
      // A warm reply is the stored bytes of a cold run of the same pair.
      bool matched = false;
      for (std::size_t j = 0; j < count && !matched; ++j) {
        matched = !outcomes[j].cached && outcomes[j].answered &&
                  schedule[j].seed == req.seed && outcomes[j].bytes == o.bytes;
      }
      if (!matched) why = "warm reply matches no cold reply of the same mission";
    } else if (req.repeat_of >= 0) {
      // A repeat that missed the cache simulated again: same content.
      const auto first = static_cast<std::size_t>(req.repeat_of);
      if (outcomes[first].answered && decoded_ok[first] &&
          service::deterministic_digest(decoded[first]) !=
              service::deterministic_digest(decoded[i])) {
        why = "repeat result differs from the original";
      }
    } else if (sample_jobs.size() < kOracleSamples) {
      sample_jobs.push_back({scenario, req.seed});
      sample_results.push_back(decoded[i]);
    }
    if (!why.empty()) {
      std::fprintf(stderr, "oracle: request %zu (seed %llu): %s\n", i,
                   static_cast<unsigned long long>(req.seed), why.c_str());
      ++wrong;
      continue;
    }
    ++good;
    if (!o.cached) add_mission(f, decoded[i]);
  }

  // Served results must equal direct in-process runs of the same jobs (and
  // the exact-kernel reference); the golden seeds go through the socket.
  wrong += check_samples(sample_jobs, sample_results, scenario.grid_resolution_m / 10.0);
  if (options.golden != nullptr) {
    const GoldenSet golden = warehouse_golden_set();
    std::vector<MissionAnswer> got;
    for (const auto& job : golden.jobs) {
      auto r = daemon.clients.front().run(sim::serialize(job.scenario), job.seed);
      got.push_back(r ? answer_of(*r) : MissionAnswer{});
    }
    wrong += check_golden(golden, got, *options.golden);
  }
  stop_daemon(daemon);
  out.failed += wrong;
  if (wrong > 0) out.correct = false;

  f.lag_ms_p99 = quantile(lags_ms, 0.99);
  if (f.lag_ms_p99 > kLagLimitMs) {
    std::printf("# WARNING rflyd_mix: generator lag p99 %.2f ms exceeds the %.0f ms "
                "limit; the offered load was not open-loop\n",
                f.lag_ms_p99, kLagLimitMs);
  }

  if (options.trace) {
    f.batch_wall_s = f.window_s;
    f.submit_rtt_ms_p50 = median(submit_ms);
    f.result_rtt_ms_p50 = median(hit_result_ms);
    f.hit_latency_ms_p50 = median(hit_latency_ms);
    f.latency_ms_p99 = quantile(latencies_ms, 0.99);
    f.result_bytes = ratio(bytes_total, static_cast<double>(good));
    f.encode_us = median(encode_us);
    f.decode_us = median(decode_us);
    emit_layers(out.metrics, f, "rflyd_mix");
  } else {
    emit_end_to_end(out.metrics, ratio(static_cast<double>(good), last_done_s),
                    median(latencies_ms), setup_s, rss);
  }
  return out;
}

}  // namespace perfbench
