// Batched-execution parity suite: the batched mission runner's "behaviorally
// invisible" contract. Batched vs per-mission runs across thread counts,
// kernels, searches, faults on/off and a repeated job are bit-identical,
// with equal error contexts; a mission whose tags all defer localizes each
// of them in phase 2, whose last window of finishes may be short; and no
// state survives a call (A, then an unrelated B, then A again reproduces A
// exactly).
//
// Runs under the `batch` label: include it in the TSAN tree (phase 1 jobs
// on the pool, phase 2 sweeps and windows of finishes on the pool) and the
// ASan+UBSan tree.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "localize/sar_kernel.h"
#include "sim/batch.h"

namespace rfly::sim {
namespace {

void expect_reports_identical(const core::ScanReport& a, const core::ScanReport& b) {
  EXPECT_EQ(a.discovered, b.discovered);
  EXPECT_EQ(a.localized, b.localized);
  ASSERT_EQ(a.items.size(), b.items.size());
  for (std::size_t i = 0; i < a.items.size(); ++i) {
    EXPECT_EQ(a.items[i].discovered, b.items[i].discovered) << "item " << i;
    EXPECT_EQ(a.items[i].localized, b.items[i].localized) << "item " << i;
    EXPECT_EQ(a.items[i].measurements, b.items[i].measurements) << "item " << i;
    EXPECT_EQ(a.items[i].estimate.x, b.items[i].estimate.x) << "item " << i;
    EXPECT_EQ(a.items[i].estimate.y, b.items[i].estimate.y) << "item " << i;
    EXPECT_EQ(a.items[i].status.code(), b.items[i].status.code()) << "item " << i;
    EXPECT_EQ(a.items[i].status.to_string(), b.items[i].status.to_string())
        << "item " << i;
  }
}

void expect_results_identical(const std::vector<BatchResult>& a,
                              const std::vector<BatchResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed) << "job " << i;
    EXPECT_EQ(a[i].scenario_name, b[i].scenario_name) << "job " << i;
    EXPECT_EQ(a[i].status.to_string(), b[i].status.to_string()) << "job " << i;
    if (!a[i].status.is_ok()) continue;
    EXPECT_EQ(a[i].run.health.code(), b[i].run.health.code()) << "job " << i;
    EXPECT_EQ(a[i].run.health.to_string(), b[i].run.health.to_string()) << "job " << i;
    EXPECT_EQ(a[i].run.aperture_coverage, b[i].run.aperture_coverage) << "job " << i;
    EXPECT_EQ(a[i].run.faults.dropouts, b[i].run.faults.dropouts) << "job " << i;
    EXPECT_EQ(a[i].run.faults.retries, b[i].run.faults.retries) << "job " << i;
    expect_reports_identical(a[i].run.report, b[i].run.report);
  }
}

/// Every BatchRunInfo figure but the wall clock.
void expect_infos_equal(const BatchRunInfo& a, const BatchRunInfo& b) {
  EXPECT_EQ(a.deferred_tasks, b.deferred_tasks);
}

/// The matrix scenario: the building preset with a coarser grid so the
/// 36-case matrix stays fast. Parity is resolution-independent.
Scenario matrix_scenario() {
  auto scenario = *preset("building");
  scenario.grid_resolution_m = 0.05;
  return scenario;
}

/// Duplicate-heavy job list: two identical jobs, a distinct seed on the
/// same scenario, and a second distinct scenario text.
std::vector<BatchJob> matrix_jobs(const Scenario& scenario) {
  Scenario other = scenario;
  other.name = "building-fine";
  other.grid_resolution_m = 0.04;
  return {{scenario, 11}, {scenario, 12}, {scenario, 11}, {other, 11}};
}

struct MatrixCase {
  unsigned threads;
  localize::SarKernel kernel;
  localize::SarSearch search;
  bool faults;
};

/// "threads8_fast_coarse2fine_faults": the case's test name, and what gtest
/// prints for it (the default printer dumps the struct's bytes, padding
/// included, and ctest puts that dump in the test name).
std::string case_name(const MatrixCase& c) {
  return "threads" + std::to_string(c.threads) + "_" +
         localize::sar_kernel_name(c.kernel) + "_" +
         localize::sar_search_name(c.search) + (c.faults ? "_faults" : "_clean");
}

void PrintTo(const MatrixCase& c, std::ostream* os) { *os << case_name(c); }

class BatchedVsPerMission : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(BatchedVsPerMission, BitIdenticalAcrossTheMatrix) {
  const MatrixCase c = GetParam();
  Scenario scenario = matrix_scenario();
  scenario.sar_kernel = c.kernel;
  scenario.sar_search = c.search;
  if (c.faults) scenario.faults.dropout = 0.2;
  const auto jobs = matrix_jobs(scenario);

  const auto batched = run_batch(jobs, {c.threads, BatchMode::kBatched});
  const auto reference = run_batch(jobs, {c.threads, BatchMode::kPerMission});
  expect_results_identical(batched, reference);

  // Ground truth: each per-mission slot equals a lone run_scenario call.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto solo = run_scenario(jobs[i].scenario, jobs[i].seed);
    ASSERT_TRUE(solo.ok()) << solo.status().to_string();
    ASSERT_TRUE(batched[i].status.is_ok()) << batched[i].status.to_string();
    expect_reports_identical(batched[i].run.report, solo.value().report);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, BatchedVsPerMission,
    ::testing::ValuesIn([] {
      std::vector<MatrixCase> cases;
      for (unsigned threads : {1u, 2u, 8u}) {
        for (localize::SarKernel kernel :
             {localize::SarKernel::kExact, localize::SarKernel::kFast}) {
          for (localize::SarSearch search :
               {localize::SarSearch::kExact, localize::SarSearch::kIncremental,
                localize::SarSearch::kCoarseToFine}) {
            for (bool faults : {false, true}) {
              cases.push_back({threads, kernel, search, faults});
            }
          }
        }
      }
      return cases;
    }()),
    [](const ::testing::TestParamInfo<MatrixCase>& info) {
      return case_name(info.param);
    });

TEST(BatchParity, ThroughWallDefersEveryTag) {
  // through_wall flies one pass over three tags and every tag is read, so
  // each mission defers all three localize stages: five seeds make 15
  // tasks, and localizing them in phase 2 reproduces per-mission runs.
  // Phase 2 finishes them in windows of the batch's thread count; 15 tasks
  // leave a short last window at 2 threads (7 x 2 + 1) and, on a 4-core
  // host, at 4.
  const auto loaded = preset("through_wall");
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  const auto reference = run_seed_sweep(*loaded, 7, 5, {1, BatchMode::kPerMission});
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    BatchRunInfo info;
    const auto batched =
        run_seed_sweep(*loaded, 7, 5, {threads, BatchMode::kBatched}, &info);
    expect_results_identical(batched, reference);
    EXPECT_EQ(info.deferred_tasks, 15u) << threads;
  }
}

TEST(BatchParity, RunsCarryNoStateBetweenCalls) {
  // A, then an unrelated B, then A again: nothing a batch run builds may
  // outlive it, so the second A reproduces the first bit for bit, and so
  // does every instrumentation figure but the wall clock.
  const Scenario scenario = matrix_scenario();
  const std::vector<BatchJob> a(3, {scenario, 31});
  const std::vector<BatchJob> b = matrix_jobs(scenario);
  const unsigned threads = 2;

  BatchRunInfo first_info;
  const auto first = run_batch(a, {threads, BatchMode::kBatched}, &first_info);
  BatchRunInfo b_info;
  run_batch(b, {threads, BatchMode::kBatched}, &b_info);
  BatchRunInfo again_info;
  const auto again = run_batch(a, {threads, BatchMode::kBatched}, &again_info);

  expect_results_identical(first, again);
  expect_infos_equal(first_info, again_info);
}

TEST(BatchParity, FailedJobContextsMatchPerMissionExactly) {
  // A job that fails validation must carry the same status text in both
  // modes — the contexts the per-job run_scenario nesting produced,
  // character for character.
  const Scenario good = matrix_scenario();
  Scenario bad = good;
  bad.name = "clipped";
  bad.grid_margin_to_path_m = bad.search_halfwidth_m + 1.0;

  const std::vector<BatchJob> jobs{{good, 5}, {bad, 5}, {bad, 6}};
  const auto batched = run_batch(jobs, {2, BatchMode::kBatched});
  const auto reference = run_batch(jobs, {2, BatchMode::kPerMission});
  ASSERT_EQ(batched.size(), 3u);
  EXPECT_TRUE(batched[0].status.is_ok());
  EXPECT_EQ(batched[1].status.code(), StatusCode::kDegenerateGrid);
  EXPECT_EQ(batched[2].status.code(), StatusCode::kDegenerateGrid);
  // Different seeds produce different job contexts on the same root cause.
  EXPECT_NE(batched[1].status.to_string(), batched[2].status.to_string());
  expect_results_identical(batched, reference);
}

TEST(BatchParity, SeedSweepHonorsBothModes) {
  const Scenario scenario = matrix_scenario();
  BatchRunInfo info;
  const auto batched = run_seed_sweep(scenario, 40, 3, {2, BatchMode::kBatched}, &info);
  const auto reference = run_seed_sweep(scenario, 40, 3, {2, BatchMode::kPerMission});
  expect_results_identical(batched, reference);

  const auto summary = summarize(batched, info);
  EXPECT_EQ(summary.jobs, 3u);
  EXPECT_GT(summary.missions_per_second, 0.0);
}

TEST(BatchParity, ModeNamesRoundTrip) {
  EXPECT_STREQ(batch_mode_name(BatchMode::kBatched), "batched");
  EXPECT_STREQ(batch_mode_name(BatchMode::kPerMission), "per-mission");
  BatchMode mode = BatchMode::kBatched;
  EXPECT_TRUE(parse_batch_mode("per-mission", mode));
  EXPECT_EQ(mode, BatchMode::kPerMission);
  EXPECT_TRUE(parse_batch_mode("batched", mode));
  EXPECT_EQ(mode, BatchMode::kBatched);
  EXPECT_FALSE(parse_batch_mode("Batched", mode));
  EXPECT_FALSE(parse_batch_mode("", mode));
  EXPECT_EQ(mode, BatchMode::kBatched);  // failed parse leaves `out` alone
}

}  // namespace
}  // namespace rfly::sim
