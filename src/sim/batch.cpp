#include "sim/batch.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "common/thread_pool.h"
#include "localize/localizer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/fleet.h"

namespace rfly::sim {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Batch telemetry: job throughput and per-job latency. A job is a whole
// mission, so these probes are far off any hot path.
obs::Counter& batch_jobs() {
  static obs::Counter& c = obs::counter("batch.jobs");
  return c;
}
obs::Counter& batch_failed() {
  static obs::Counter& c = obs::counter("batch.jobs_failed");
  return c;
}
obs::Histogram& batch_job_seconds() {
  static obs::Histogram& h =
      obs::histogram("batch.job_seconds", obs::HistogramSpec::duration_seconds());
  return h;
}

/// Phase 2: localize every deferred task and fold each result back into its
/// own mission, in (job, item) order. Tasks go in windows of `window`: the
/// window's tasks are swept one after another, each on the whole pool, then
/// the window finishes in one parallel_for, one task per chunk; a finish
/// running inside that parallel region refines serially. A task's time is
/// its own sweep plus its own finish. The window's heatmaps are dropped
/// before the next window sweeps.
void run_deferred(const std::vector<std::vector<DeferredLocalize>>& tasks,
                  std::vector<BatchResult>& results, unsigned window) {
  obs::Span plane_span("batch.plane");
  struct Slot {
    std::size_t job;
    const DeferredLocalize* task;
  };
  std::vector<Slot> slots;
  for (std::size_t job = 0; job < tasks.size(); ++job) {
    for (const DeferredLocalize& task : tasks[job]) slots.push_back({job, &task});
  }
  for (std::size_t first = 0; first < slots.size(); first += window) {
    const std::size_t count = std::min<std::size_t>(window, slots.size() - first);
    std::vector<Expected<localize::Heatmap>> maps;
    std::vector<std::optional<Expected<localize::LocalizationResult>>> found(count);
    std::vector<double> seconds(count, 0.0);
    for (std::size_t i = 0; i < count; ++i) {
      const DeferredLocalize& task = *slots[first + i].task;
      const auto start = Clock::now();
      maps.push_back(localize::localize_2d_sweep(task.half_link, task.config));
      seconds[i] = seconds_since(start);
    }
    parallel_for(
        0, count, 1,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            const DeferredLocalize& task = *slots[first + i].task;
            const auto start = Clock::now();
            found[i] = maps[i] ? localize::localize_2d_finish(task.half_link, task.config,
                                                              *maps[i])
                               : Expected<localize::LocalizationResult>(maps[i].status());
            seconds[i] += seconds_since(start);
          }
        },
        window);
    for (std::size_t i = 0; i < count; ++i) {
      const Slot& slot = slots[first + i];
      apply_deferred_result(results[slot.job].run, slot.task->item_index,
                            slot.task->tag_index, *found[i], seconds[i]);
    }
  }
}

}  // namespace

const char* batch_mode_name(BatchMode mode) {
  switch (mode) {
    case BatchMode::kPerMission:
      return "per-mission";
    case BatchMode::kBatched:
      return "batched";
  }
  return "batched";
}

bool parse_batch_mode(const std::string& text, BatchMode& out) {
  if (text == "per-mission") return out = BatchMode::kPerMission, true;
  if (text == "batched") return out = BatchMode::kBatched, true;
  return false;
}

std::vector<BatchResult> run_batch(const std::vector<BatchJob>& jobs,
                                   const BatchConfig& config,
                                   BatchRunInfo* info) {
  obs::Span batch_span("batch.run");
  const auto batch_start = Clock::now();
  const bool batched = config.mode == BatchMode::kBatched;

  // --- Phase 1 (parallel): validate, materialize and run every mission.
  // Batched mode hands each fault-free pipeline its own deferral list; its
  // localize stages come back as tasks[i].
  std::vector<BatchResult> results(jobs.size());
  std::vector<std::vector<DeferredLocalize>> tasks(jobs.size());
  // Grain 1: jobs are coarse (a whole mission each), so one job per chunk
  // balances best. Each body writes only results[i] and tasks[i] — disjoint
  // outputs, so any thread count produces the same vectors.
  parallel_for(
      0, jobs.size(), 1,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          obs::Span job_span("batch.job");
          BatchResult& out = results[i];
          out.scenario_name = jobs[i].scenario.name;
          out.seed = jobs[i].seed;
          const std::string job_context =
              "job " + std::to_string(i) + " seed " + std::to_string(jobs[i].seed);
          if (Status valid = validate(jobs[i].scenario); !valid.is_ok()) {
            // Same contexts the per-job run_scenario path produced.
            out.status = std::move(valid).with_context("run_scenario").with_context(
                job_context);
            batch_failed().inc();
          } else {
            const MissionInputs inputs = materialize(jobs[i].scenario);
            // Fleet jobs run whole (their sub-missions localize inline and
            // never defer), so batched and per-mission modes are trivially
            // bit-identical for them.
            auto run =
                inputs.fleet.enabled
                    ? run_fleet_mission(inputs, jobs[i].seed)
                    : run_mission_pipeline(inputs.config, inputs.environment,
                                           inputs.reader_position, inputs.plan,
                                           inputs.tags, inputs.db, jobs[i].seed,
                                           inputs.faults,
                                           batched ? &tasks[i] : nullptr);
            if (!run) {
              out.status = run.status()
                               .with_context("scenario '" + inputs.scenario_name + "'")
                               .with_context(job_context);
              tasks[i].clear();
              batch_failed().inc();
            } else {
              out.run = std::move(run.value());
            }
          }
          batch_jobs().inc();
          if constexpr (obs::kEnabled) {
            batch_job_seconds().observe(job_span.elapsed_seconds());
          }
        }
      },
      clamp_thread_count(config.threads));

  // --- Phase 2 (coordinator): deferred localization + write-back.
  std::size_t deferred = 0;
  for (const auto& job_tasks : tasks) deferred += job_tasks.size();
  if (info) {
    *info = BatchRunInfo{};
    info->deferred_tasks = deferred;
  }
  if (deferred > 0) run_deferred(tasks, results, clamp_thread_count(config.threads));

  if (info) info->wall_seconds = seconds_since(batch_start);
  return results;
}

std::vector<BatchResult> run_seed_sweep(const Scenario& scenario,
                                        std::uint64_t first_seed,
                                        std::size_t count,
                                        const BatchConfig& config,
                                        BatchRunInfo* info) {
  std::vector<BatchJob> jobs;
  jobs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    // Independent per-trial engine: splitmix64 hash of (first_seed, trial).
    // Raw `first_seed + i` made overlapping sweeps rerun the same missions
    // and correlated trial streams with the pipeline's internal seed
    // offsets; the hash decorrelates all of them (see batch.h).
    jobs.push_back({scenario, stream_seed(first_seed, i)});
  }
  return run_batch(jobs, config, info);
}

BatchSummary summarize(const std::vector<BatchResult>& results) {
  BatchSummary summary;
  summary.jobs = results.size();
  std::size_t succeeded = 0;
  for (const auto& result : results) {
    if (!result.status.is_ok()) {
      ++summary.failed;
      continue;
    }
    ++succeeded;
    if (result.run.health.code() == StatusCode::kDegraded) ++summary.degraded;
    summary.mean_discovered += static_cast<double>(result.run.report.discovered);
    summary.mean_localized += static_cast<double>(result.run.report.localized);
    summary.mean_coverage += result.run.aperture_coverage;
    summary.total_seconds += result.run.total_seconds;
  }
  if (succeeded > 0) {
    summary.mean_discovered /= static_cast<double>(succeeded);
    summary.mean_localized /= static_cast<double>(succeeded);
    summary.mean_coverage /= static_cast<double>(succeeded);
  }
  return summary;
}

BatchSummary summarize(const std::vector<BatchResult>& results,
                       const BatchRunInfo& info) {
  BatchSummary summary = summarize(results);
  if (info.wall_seconds > 0.0) {
    summary.missions_per_second =
        static_cast<double>(summary.jobs) / info.wall_seconds;
  }
  return summary;
}

}  // namespace rfly::sim
