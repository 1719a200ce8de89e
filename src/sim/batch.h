// Batch runner: execute many (scenario, seed) jobs concurrently on the
// shared deterministic thread pool. Outer parallelism composes with the
// inner SAR parallelism — a worker already inside parallel_for runs nested
// ranges serially — so a sweep saturates the machine whether it is one
// scenario with a huge grid or a hundred small seeds. Results land at the
// job's own index, so the output is identical at any thread count.
//
// Two execution modes (see DESIGN.md "Batched execution & memory plane"):
//
//   kPerMission — every job validates, materializes and runs its whole
//     pipeline independently, exactly as run_scenario would.
//
//   kBatched (default) — additionally, fault-free jobs defer their localize
//     stages; once every mission has run, the runner localizes the deferred
//     tags in (job, item) order, in windows of `threads` tags: it sweeps
//     each tag of a window on the whole pool, one after another, then
//     finishes the whole window (peak extraction, refinement, selection) in
//     one parallel_for, one tag per thread. A window holds at most
//     `threads` heatmaps, threads x kMaxScanCells x 8 bytes, and drops them
//     before the next. Nothing a run builds outlives it. Behaviorally
//     invisible: every BatchResult is bit-identical to the per-mission mode
//     at any thread count (pinned by tests/test_batch_parity.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/pipeline.h"
#include "sim/scenario.h"

namespace rfly::sim {

struct BatchJob {
  Scenario scenario;
  /// Engine seed the mission runs with. Hand-built jobs pick any value;
  /// run_seed_sweep derives decorrelated per-trial seeds (see below).
  std::uint64_t seed = 1;
};

/// Outcome of one job. `status` is the mission-level outcome; `run` holds
/// the report and stage trace when it is OK.
struct BatchResult {
  std::string scenario_name;
  std::uint64_t seed = 0;
  Status status = Status::ok();
  MissionRun run;
};

enum class BatchMode : std::uint8_t {
  kPerMission,  // independent pipelines, no cross-mission sharing
  kBatched,     // deferred localize: tags swept on the whole pool, finished in windows
};

/// Stable lower-case token ("per-mission" / "batched"), used by --batch.
const char* batch_mode_name(BatchMode mode);
bool parse_batch_mode(const std::string& text, BatchMode& out);

struct BatchConfig {
  /// Jobs in flight at once: 0 = hardware concurrency, 1 = serial. Also the
  /// number of deferred tags batched mode finishes at once.
  /// (First member — callers aggregate-initialize as BatchConfig{threads}.)
  unsigned threads = 0;
  BatchMode mode = BatchMode::kBatched;
};

/// Instrumentation from one batch run. Purely observational: none of it
/// feeds back into results.
struct BatchRunInfo {
  double wall_seconds = 0.0;
  std::size_t deferred_tasks = 0;  // localize stages hoisted out of missions
};

/// Run every job; never throws away work — a failed job is a BatchResult
/// with its Status, in the same position as its job. `info`, when non-null,
/// receives the run's deferral/throughput instrumentation.
std::vector<BatchResult> run_batch(const std::vector<BatchJob>& jobs,
                                   const BatchConfig& config = {},
                                   BatchRunInfo* info = nullptr);

/// Convenience: one scenario across `count` trials. Trial i runs with the
/// engine seed stream_seed(first_seed, i) — a splitmix64 hash of
/// (first_seed, trial_index) — NOT first_seed + i: the Rng is not
/// thread-safe and trials must not share stochastic state, but raw
/// adjacent seeds do exactly that across sweeps (sweep 40's trial 1 and
/// sweep 41's trial 0 were the same mission, and both collided with the
/// pipeline's `seed + 100 + i` tag streams). The hashed streams are
/// independent, so batch output is a pure function of (first_seed, i):
/// thread-count- and order-invariant, pinned bit-for-bit by test_batch.
std::vector<BatchResult> run_seed_sweep(const Scenario& scenario,
                                        std::uint64_t first_seed,
                                        std::size_t count,
                                        const BatchConfig& config = {},
                                        BatchRunInfo* info = nullptr);

/// Fraction of jobs whose mission succeeded, and mean localized count over
/// successful jobs (0 when none) — the headline numbers a sweep prints.
struct BatchSummary {
  std::size_t jobs = 0;
  std::size_t failed = 0;
  /// Successful missions whose health came back kDegraded (fault injection
  /// disrupted them but they completed). Disjoint from `failed`.
  std::size_t degraded = 0;
  double mean_discovered = 0.0;
  double mean_localized = 0.0;
  /// Mean aperture coverage over successful jobs (1 when faults are off).
  double mean_coverage = 0.0;
  /// Sum of *successful* jobs' wall clock. A failed job produces no
  /// MissionRun (Expected carries only the Status), so there is no per-job
  /// time to include — callers printing this figure must label it
  /// "successful jobs", not "all jobs".
  double total_seconds = 0.0;
  /// Batch throughput — populated by the BatchRunInfo overload, zero
  /// otherwise.
  double missions_per_second = 0.0;  // jobs / batch wall clock
};

BatchSummary summarize(const std::vector<BatchResult>& results);
BatchSummary summarize(const std::vector<BatchResult>& results,
                       const BatchRunInfo& info);

}  // namespace rfly::sim
