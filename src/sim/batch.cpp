#include "sim/batch.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "common/arena.h"
#include "common/digest.h"
#include "common/thread_pool.h"
#include "localize/sar.h"
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
/// Peak bytes the shared measurement plane's arena held during the latest
/// batched run.
obs::Gauge& arena_high_water() {
  static obs::Gauge& g = obs::gauge("arena.high_water_bytes");
  return g;
}

bool bits_eq(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool grids_eq(const localize::GridSpec& a, const localize::GridSpec& b) {
  return bits_eq(a.x_min, b.x_min) && bits_eq(a.x_max, b.x_max) &&
         bits_eq(a.y_min, b.y_min) && bits_eq(a.y_max, b.y_max) &&
         bits_eq(a.resolution_m, b.resolution_m);
}

bool configs_eq(const localize::LocalizerConfig& a,
                const localize::LocalizerConfig& b) {
  return grids_eq(a.grid, b.grid) && bits_eq(a.freq_hz, b.freq_hz) &&
         a.selection == b.selection &&
         bits_eq(a.peak_threshold_fraction, b.peak_threshold_fraction) &&
         a.multires == b.multires &&
         bits_eq(a.coarse_resolution_m, b.coarse_resolution_m) &&
         a.refine_candidates == b.refine_candidates &&
         bits_eq(a.z_plane_m, b.z_plane_m) && a.threads == b.threads &&
         a.kernel == b.kernel && a.search == b.search;
}

bool sets_eq(const localize::DisentangledSet& a,
             const localize::DisentangledSet& b) {
  const std::size_t n = a.positions.size();
  if (b.positions.size() != n || a.channels.size() != b.channels.size()) {
    return false;
  }
  return (n == 0 || std::memcmp(a.positions.data(), b.positions.data(),
                                n * sizeof(channel::Vec3)) == 0) &&
         (a.channels.empty() ||
          std::memcmp(a.channels.data(), b.channels.data(),
                      a.channels.size() * sizeof(cdouble)) == 0);
}

std::uint64_t digest_grid_spec(std::uint64_t state,
                               const localize::GridSpec& grid) {
  state = digest_double(state, grid.x_min);
  state = digest_double(state, grid.x_max);
  state = digest_double(state, grid.y_min);
  state = digest_double(state, grid.y_max);
  return digest_double(state, grid.resolution_m);
}

std::uint64_t digest_positions(std::uint64_t state,
                               const std::vector<channel::Vec3>& positions) {
  state = digest_word(state, positions.size());
  for (const auto& p : positions) {
    state = digest_double(state, p.x);
    state = digest_double(state, p.y);
    state = digest_double(state, p.z);
  }
  return state;
}

/// Content digest of one deferred localize task: full config plus the
/// half-link set's bit patterns. A hint for the dedup registry — matches
/// are verified with configs_eq/sets_eq before tasks share an entry.
std::uint64_t task_digest(const DeferredLocalize& task) {
  const localize::LocalizerConfig& c = task.config;
  std::uint64_t state = digest_word(0x6261'7463'6874'736bull, 0);  // "batchtsk"
  state = digest_grid_spec(state, c.grid);
  state = digest_double(state, c.freq_hz);
  state = digest_word(state, static_cast<std::uint64_t>(c.selection));
  state = digest_double(state, c.peak_threshold_fraction);
  state = digest_word(state, c.multires ? 1 : 0);
  state = digest_double(state, c.coarse_resolution_m);
  state = digest_word(state, static_cast<std::uint64_t>(c.refine_candidates));
  state = digest_double(state, c.z_plane_m);
  state = digest_word(state, c.threads);
  state = digest_word(state, static_cast<std::uint64_t>(c.kernel));
  state = digest_word(state, static_cast<std::uint64_t>(c.search));
  state = digest_positions(state, task.half_link.positions);
  for (const auto& h : task.half_link.channels) {
    state = digest_double(state, h.real());
    state = digest_double(state, h.imag());
  }
  return state;
}

/// One job's slot in the per-scenario hoist: each distinct scenario text is
/// validated and materialized exactly once per batch; every job of that
/// scenario runs off the shared inputs.
struct ScenarioGroup {
  std::string text;  // serialize(scenario) — the verified dedup key
  Status validation = Status::ok();
  MissionInputs inputs;  // meaningful only when validation is OK
};

/// Where one deferred task's result belongs. An entry may have many owners
/// (identical tasks across identical jobs dedup to one evaluation).
struct TaskOwner {
  std::size_t job = 0;
  std::size_t item = 0;  // index into that job's report.items
  std::size_t tag = 0;   // tag ordinal, for the "tag N" error context
};

/// One *distinct* deferred localize task: the representative inputs, every
/// owner awaiting the result, and (after phase 2) the shared outcome.
struct TaskEntry {
  std::uint64_t digest = 0;
  localize::DisentangledSet set;
  localize::LocalizerConfig config;
  std::vector<TaskOwner> owners;
  std::optional<Expected<localize::LocalizationResult>> result;
  double seconds = 0.0;  // localize cost attributed to each owner
};

/// Content-dedup registry for deferred tasks. Workers fold whole jobs in
/// under one lock; duplicate tasks drop their measurement set immediately,
/// so a 10k-job sweep of identical missions holds one set per distinct
/// task, not one per job. Deque: entries must not move once published.
class TaskRegistry {
 public:
  void fold(std::vector<DeferredLocalize>&& tasks, std::size_t job) {
    std::vector<std::uint64_t> digests(tasks.size());
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      digests[t] = task_digest(tasks[t]);
    }
    std::lock_guard<std::mutex> lock(mu_);
    deferred_ += tasks.size();
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      DeferredLocalize& task = tasks[t];
      auto& bucket = index_[digests[t]];
      std::size_t entry = entries_.size();
      for (std::size_t candidate : bucket) {
        if (configs_eq(entries_[candidate].config, task.config) &&
            sets_eq(entries_[candidate].set, task.half_link)) {
          entry = candidate;
          break;
        }
      }
      if (entry == entries_.size()) {
        TaskEntry fresh;
        fresh.digest = digests[t];
        fresh.set = std::move(task.half_link);
        fresh.config = task.config;
        entries_.push_back(std::move(fresh));
        bucket.push_back(entry);
      }
      entries_[entry].owners.push_back({job, task.item_index, task.tag_index});
    }
  }

  std::deque<TaskEntry>& entries() { return entries_; }
  std::size_t deferred_total() const { return deferred_; }

 private:
  std::mutex mu_;
  std::deque<TaskEntry> entries_;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> index_;
  std::size_t deferred_ = 0;
};

/// Entries whose heatmaps live on one shared plane: same trajectory, scan
/// grid, frequency, z plane, and kernel — one blocked multi-tag sweep
/// serves them all.
struct PlaneGroup {
  std::uint64_t digest = 0;
  std::vector<std::size_t> members;  // TaskEntry indices, deterministic order
};

std::uint64_t plane_digest(const TaskEntry& entry,
                           const localize::GridSpec& scan_grid) {
  std::uint64_t state = digest_word(0x706c'616e'6567'7270ull, 0);  // "planegrp"
  state = digest_positions(state, entry.set.positions);
  state = digest_grid_spec(state, scan_grid);
  state = digest_double(state, entry.config.freq_hz);
  state = digest_double(state, entry.config.z_plane_m);
  return digest_word(state, static_cast<std::uint64_t>(entry.config.kernel));
}

bool planes_eq(const TaskEntry& a, const TaskEntry& b) {
  return grids_eq(localize::localize_scan_grid(a.config),
                  localize::localize_scan_grid(b.config)) &&
         bits_eq(a.config.freq_hz, b.config.freq_hz) &&
         bits_eq(a.config.z_plane_m, b.config.z_plane_m) &&
         a.config.kernel == b.config.kernel &&
         a.set.positions.size() == b.set.positions.size() &&
         (a.set.positions.empty() ||
          std::memcmp(a.set.positions.data(), b.set.positions.data(),
                      a.set.positions.size() * sizeof(channel::Vec3)) == 0);
}

/// Phase 2: evaluate every distinct deferred task — grouped multi-tag
/// sweeps over arena planes for the plane-eligible ones, the ordinary
/// localize_2d_from path for degenerate ones — then write results back to
/// every owner. Coordinator-serial except the sweeps/completions, which
/// parallelize internally; every arena access happens on this thread, so the
/// arena's high-water mark is thread-count-invariant.
void run_deferred_plane(std::deque<TaskEntry>& entries,
                        std::vector<BatchResult>& results,
                        const BatchConfig& config, BatchRunInfo* info) {
  obs::Span plane_span("batch.plane");

  // Deterministic entry order: each entry is keyed by its first owner in
  // (job, item) order — content-determined, however threads raced during
  // registration. Everything downstream (grouping, sweeps, write-back)
  // follows this order.
  for (auto& entry : entries) {
    std::sort(entry.owners.begin(), entry.owners.end(),
              [](const TaskOwner& a, const TaskOwner& b) {
                return a.job != b.job ? a.job < b.job : a.item < b.item;
              });
  }
  std::vector<std::size_t> order(entries.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const TaskOwner& oa = entries[a].owners.front();
    const TaskOwner& ob = entries[b].owners.front();
    return oa.job != ob.job ? oa.job < ob.job : oa.item < ob.item;
  });

  // Group plane-eligible entries by verified plane key; run the degenerate
  // ones (empty set, invalid grid) through the unbatched entry point so
  // their error statuses stay string-identical to the inline stage.
  std::vector<PlaneGroup> groups;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> group_index;
  for (std::size_t ei : order) {
    TaskEntry& entry = entries[ei];
    const bool eligible = !entry.set.channels.empty() &&
                          localize::validate_grid(entry.config.grid).is_ok();
    if (!eligible) {
      const auto start = Clock::now();
      entry.result = localize::localize_2d_from(entry.set, entry.config);
      entry.seconds = seconds_since(start);
      continue;
    }
    const localize::GridSpec scan_grid = localize::localize_scan_grid(entry.config);
    const std::uint64_t digest = plane_digest(entry, scan_grid);
    auto& bucket = group_index[digest];
    std::size_t group = groups.size();
    for (std::size_t candidate : bucket) {
      if (planes_eq(entries[groups[candidate].members.front()], entry)) {
        group = candidate;
        break;
      }
    }
    if (group == groups.size()) {
      groups.push_back({digest, {}});
      bucket.push_back(group);
    }
    groups[group].members.push_back(ei);
  }
  if (info) info->plane_groups = groups.size();

  Arena arena;
  for (const PlaneGroup& group : groups) {
    const TaskEntry& rep = entries[group.members.front()];
    const localize::GridSpec scan_grid = localize::localize_scan_grid(rep.config);
    const auto trajectory = localize::SharedTrajectory::from(rep.set.positions);
    const auto shared_grid = localize::SharedGrid::from(scan_grid);
    const std::size_t L = trajectory.size();
    const std::size_t cells = scan_grid.nx() * scan_grid.ny();
    const std::size_t count = group.members.size();

    // Per-entry weight vectors and output planes on the arena; freed as a
    // unit when the group's results have been extracted.
    std::vector<localize::MultiTagSlot> slots(count);
    for (std::size_t m = 0; m < count; ++m) {
      const TaskEntry& entry = entries[group.members[m]];
      double* hre = arena.alloc_array<double>(L);
      double* him = arena.alloc_array<double>(L);
      for (std::size_t l = 0; l < L; ++l) {
        hre[l] = entry.set.channels[l].real();
        him[l] = entry.set.channels[l].imag();
      }
      slots[m] = {hre, him, arena.alloc_array<double>(cells)};
    }

    const auto sweep_start = Clock::now();
    sar_heatmap_multi(trajectory, shared_grid, rep.config.freq_hz,
                      rep.config.z_plane_m, slots.data(), count,
                      clamp_thread_count(rep.config.threads), rep.config.kernel);
    const double sweep_share = seconds_since(sweep_start) / static_cast<double>(count);

    // Finish each member off its plane slice. Disjoint slots, deterministic
    // at any thread count; the refine pass inside runs serially when nested.
    parallel_for(
        0, count, 1,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t m = begin; m < end; ++m) {
            TaskEntry& entry = entries[group.members[m]];
            const auto start = Clock::now();
            localize::Heatmap map;
            map.grid = scan_grid;
            map.values.assign(slots[m].values, slots[m].values + cells);
            entry.result =
                localize::localize_2d_with_plane(entry.set, entry.config, map);
            entry.seconds = sweep_share + seconds_since(start);
          }
        },
        clamp_thread_count(config.threads));
    arena.reset();
  }

  if (info) info->arena_high_water_bytes = arena.high_water_bytes();
  arena_high_water().set(static_cast<double>(arena.high_water_bytes()));

  // Serial write-back in deterministic entry/owner order: duplicates of one
  // distinct task all receive the same result object and cost.
  for (std::size_t ei : order) {
    const TaskEntry& entry = entries[ei];
    for (const TaskOwner& owner : entry.owners) {
      apply_deferred_result(results[owner.job].run, owner.item, owner.tag,
                            *entry.result, entry.seconds);
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

  // --- Phase 0 (serial): hoist scenario parsing. Each distinct scenario
  // text is validated and materialized once; seed sweeps and repeated-job
  // batches stop paying per-trial validation. Digest-keyed, verified by
  // full text compare.
  std::vector<ScenarioGroup> groups;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> group_index;
  std::vector<std::size_t> job_group(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    std::string text = serialize(jobs[i].scenario);
    auto& bucket = group_index[digest_string(0, text)];
    std::size_t group = groups.size();
    for (std::size_t candidate : bucket) {
      if (groups[candidate].text == text) {
        group = candidate;
        break;
      }
    }
    if (group == groups.size()) {
      ScenarioGroup fresh;
      fresh.text = std::move(text);
      fresh.validation = validate(jobs[i].scenario);
      if (fresh.validation.is_ok()) fresh.inputs = materialize(jobs[i].scenario);
      groups.push_back(std::move(fresh));
      bucket.push_back(group);
    }
    job_group[i] = group;
  }
  if (info) {
    *info = BatchRunInfo{};
    info->scenario_groups = groups.size();
  }

  // --- Phase 1 (parallel): run every mission. Batched mode hands each
  // fault-free pipeline a deferral vector; its localize stages come back as
  // tasks and fold into the dedup registry.
  TaskRegistry registry;
  std::vector<BatchResult> results(jobs.size());
  // Grain 1: jobs are coarse (a whole mission each), so one job per chunk
  // balances best. Each body writes only results[i] — disjoint outputs, so
  // any thread count produces the same vector.
  parallel_for(
      0, jobs.size(), 1,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          obs::Span job_span("batch.job");
          BatchResult& out = results[i];
          out.scenario_name = jobs[i].scenario.name;
          out.seed = jobs[i].seed;
          const ScenarioGroup& group = groups[job_group[i]];
          if (!group.validation.is_ok()) {
            // Same contexts the per-job run_scenario path produced.
            out.status = group.validation.with_context("run_scenario")
                             .with_context("job " + std::to_string(i) + " seed " +
                                           std::to_string(jobs[i].seed));
            batch_failed().inc();
          } else {
            const MissionInputs& inputs = group.inputs;
            std::vector<DeferredLocalize> tasks;
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
                                           batched ? &tasks : nullptr);
            if (!run) {
              out.status =
                  run.status()
                      .with_context("scenario '" + inputs.scenario_name + "'")
                      .with_context("job " + std::to_string(i) + " seed " +
                                    std::to_string(jobs[i].seed));
              batch_failed().inc();
            } else {
              out.run = std::move(run.value());
              if (!tasks.empty()) registry.fold(std::move(tasks), i);
            }
          }
          batch_jobs().inc();
          if constexpr (obs::kEnabled) {
            batch_job_seconds().observe(job_span.elapsed_seconds());
          }
        }
      },
      clamp_thread_count(config.threads));

  // --- Phase 2 (coordinator): shared-plane evaluation + write-back.
  if (batched && !registry.entries().empty()) {
    run_deferred_plane(registry.entries(), results, config, info);
  }

  if (info) {
    info->deferred_tasks = registry.deferred_total();
    info->distinct_tasks = registry.entries().size();
    info->wall_seconds = seconds_since(batch_start);
  }
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
  summary.arena_high_water_bytes = info.arena_high_water_bytes;
  return summary;
}

}  // namespace rfly::sim
