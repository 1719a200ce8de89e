// Batched-execution parity suite: the batched mission runner's "behaviorally
// invisible" contract, pinned layer by layer. From the bottom up:
//
//   - rows_multi: every compiled ISA variant's blocked multi-tag sweep is
//     bit-identical to per-tag `rows` calls, including ragged tails.
//   - sar_heatmap_multi: the public multi-tag sweep matches per-tag
//     sar_heatmap bitwise for both kernels at any thread count.
//   - localize_2d_with_plane: handing the localizer a precomputed scan
//     plane reproduces localize_2d_from bitwise for all three searches.
//   - run_batch: the full matrix — batched vs per-mission, thread counts,
//     kernels, searches, faults on/off, duplicate jobs — every cell
//     bit-identical, every error context equal; the tags of one mission
//     share one plane group; and no state survives a call (A, then an
//     unrelated B, then A again reproduces A exactly).
//
// Runs under the `batch` label: include it in the TSAN tree (coordinator /
// worker handoff) and the ASan+UBSan tree (multi-tag tail handling).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "drone/trajectory.h"
#include "localize/localizer.h"
#include "localize/sar.h"
#include "localize/sar_kernel.h"
#include "sim/batch.h"

namespace rfly::sim {
namespace {

constexpr double kFreq = 916e6;

// --- Multi-tag kernel sweeps ---------------------------------------------

/// Randomized measurement geometry (same construction as the kernel and
/// thread-parity suites): jittered linear pass, random channel weights.
localize::DisentangledSet random_set(std::uint64_t seed, std::size_t n_points) {
  Rng rng(seed);
  localize::DisentangledSet set;
  const double x0 = rng.uniform(-1.0, 1.0);
  const double y0 = rng.uniform(1.5, 3.0);
  const auto traj = drone::linear_trajectory(
      {x0, y0, 1.0}, {x0 + rng.uniform(1.5, 3.0), y0 + rng.uniform(-0.2, 0.2), 1.0},
      n_points);
  for (const auto& p : traj) {
    channel::Vec3 jittered{p.x + rng.gaussian(0.0, 0.01),
                           p.y + rng.gaussian(0.0, 0.01),
                           p.z + rng.gaussian(0.0, 0.005)};
    set.positions.push_back(jittered);
    const double mag = std::pow(10.0, rng.uniform(-7.0, -5.0));
    set.channels.push_back(mag * cis(rng.phase()));
  }
  return set;
}

TEST(RowsMulti, EveryVariantMatchesPerTagRowsBitwise) {
  // The blocked multi-tag entry point must reproduce per-tag `rows` calls
  // bit-for-bit on every compiled ISA — same per-term expressions, same
  // order — including ragged tails (nx % lane width != 0, odd L).
  const auto base = random_set(900, 37);  // odd L: scalar tail in play
  const localize::GridSpec grid{0.0, 0.12, 0.0, 0.06, 0.01};  // nx=13, ny=7
  const std::size_t nx = grid.nx(), ny = grid.ny();
  ASSERT_EQ(nx, 13u);
  ASSERT_NE(nx % 8, 0u);
  std::vector<double> xs(nx), ys(ny);
  for (std::size_t ix = 0; ix < nx; ++ix) xs[ix] = grid.x_at(ix);
  for (std::size_t iy = 0; iy < ny; ++iy) ys[iy] = grid.y_at(iy);

  const auto geo = localize::SarGeometry::from(base, kFreq);
  for (std::size_t ntags = 1; ntags <= 4; ++ntags) {
    // Distinct channel weights per tag over the one shared trajectory.
    std::vector<std::vector<double>> hre(ntags), him(ntags);
    Rng rng(1000 + ntags);
    for (std::size_t t = 0; t < ntags; ++t) {
      for (std::size_t l = 0; l < geo.size(); ++l) {
        const cdouble h =
            std::pow(10.0, rng.uniform(-7.0, -5.0)) * cis(rng.phase());
        hre[t].push_back(h.real());
        him[t].push_back(h.imag());
      }
    }

    for (const auto& v : localize::sar_kernel_variants()) {
      if (!v.supported) continue;
      ASSERT_NE(v.rows_multi, nullptr) << v.isa;
      std::vector<double> scratch(geo.size() + 2 * ntags * 64, 0.0);

      localize::SarKernelArgs args;
      args.k = geo.k;
      args.px = geo.px.data();
      args.py = geo.py.data();
      args.pz = geo.pz.data();
      args.count = geo.size();
      args.xs = xs.data();
      args.nx = nx;
      args.ys = ys.data();
      args.z = 0.0;
      args.scratch = scratch.data();

      // Reference: one `rows` sweep per tag.
      std::vector<std::vector<double>> expected(ntags,
                                                std::vector<double>(nx * ny, 0.0));
      for (std::size_t t = 0; t < ntags; ++t) {
        args.hre = hre[t].data();
        args.him = him[t].data();
        args.values = expected[t].data();
        v.rows(args, 0, ny);
      }

      // Blocked: all tags in one pass.
      std::vector<std::vector<double>> actual(ntags,
                                              std::vector<double>(nx * ny, 0.0));
      std::vector<const double*> hre_ptrs, him_ptrs;
      std::vector<double*> out_ptrs;
      for (std::size_t t = 0; t < ntags; ++t) {
        hre_ptrs.push_back(hre[t].data());
        him_ptrs.push_back(him[t].data());
        out_ptrs.push_back(actual[t].data());
      }
      args.hre = nullptr;
      args.him = nullptr;
      args.values = nullptr;
      args.hre_tags = hre_ptrs.data();
      args.him_tags = him_ptrs.data();
      args.values_tags = out_ptrs.data();
      args.tags = ntags;
      v.rows_multi(args, 0, ny);

      for (std::size_t t = 0; t < ntags; ++t) {
        for (std::size_t i = 0; i < nx * ny; ++i) {
          ASSERT_EQ(actual[t][i], expected[t][i])
              << v.isa << " tags=" << ntags << " tag " << t << " cell " << i;
        }
      }
    }
  }
}

class MultiHeatmap
    : public ::testing::TestWithParam<std::tuple<localize::SarKernel, unsigned>> {};

TEST_P(MultiHeatmap, MatchesPerTagHeatmapBitwise) {
  const auto [kernel, threads] = GetParam();
  const auto base = random_set(42, 45);
  const localize::GridSpec grid{-1.0, 2.3, -0.5, 1.7, 0.04};
  const auto trajectory = localize::SharedTrajectory::from(base.positions);
  const auto shared_grid = localize::SharedGrid::from(grid);

  constexpr std::size_t kTags = 3;
  std::vector<localize::DisentangledSet> sets;
  for (std::size_t t = 0; t < kTags; ++t) {
    auto set = random_set(100 + t, 45);
    set.positions = base.positions;  // shared flight, per-tag channels
    sets.push_back(std::move(set));
  }

  const std::size_t cells = grid.nx() * grid.ny();
  std::vector<std::vector<double>> planes(kTags, std::vector<double>(cells, 0.0));
  std::vector<std::vector<double>> hre(kTags), him(kTags);
  std::vector<localize::MultiTagSlot> slots(kTags);
  for (std::size_t t = 0; t < kTags; ++t) {
    for (const cdouble h : sets[t].channels) {
      hre[t].push_back(h.real());
      him[t].push_back(h.imag());
    }
    slots[t] = {hre[t].data(), him[t].data(), planes[t].data()};
  }
  localize::sar_heatmap_multi(trajectory, shared_grid, kFreq, 0.0, slots.data(),
                              kTags, threads, kernel);

  for (std::size_t t = 0; t < kTags; ++t) {
    const auto solo = localize::sar_heatmap(sets[t], grid, kFreq, 0.0, threads, kernel);
    ASSERT_EQ(solo.values.size(), cells);
    for (std::size_t i = 0; i < cells; ++i) {
      ASSERT_EQ(planes[t][i], solo.values[i]) << "tag " << t << " cell " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndThreads, MultiHeatmap,
    ::testing::Combine(::testing::Values(localize::SarKernel::kExact,
                                         localize::SarKernel::kFast),
                       ::testing::Values(1u, 2u, 8u)));

// --- localize_2d_with_plane ----------------------------------------------

class PlaneSubstitution
    : public ::testing::TestWithParam<std::tuple<localize::SarKernel, localize::SarSearch>> {};

TEST_P(PlaneSubstitution, ReproducesLocalize2dFromBitwise) {
  const auto [kernel, search] = GetParam();
  const auto set = random_set(77, 40);

  localize::LocalizerConfig config;
  config.freq_hz = kFreq;
  config.grid = {-1.0, 3.0, -0.5, 2.5, 0.02};
  config.threads = 1;
  config.kernel = kernel;
  config.search = search;

  const auto direct = localize::localize_2d_from(set, config);
  ASSERT_TRUE(direct.ok()) << direct.status().to_string();

  // The plane a batched runner would precompute: the scan grid this config
  // actually sweeps, evaluated by the same kernel.
  const localize::GridSpec scan = localize::localize_scan_grid(config);
  const localize::Heatmap plane = localize::sar_heatmap(
      set, scan, config.freq_hz, config.z_plane_m, config.threads, config.kernel);
  const auto planed = localize::localize_2d_with_plane(set, config, plane);
  ASSERT_TRUE(planed.ok()) << planed.status().to_string();

  EXPECT_EQ(planed.value().x, direct.value().x);
  EXPECT_EQ(planed.value().y, direct.value().y);
  EXPECT_EQ(planed.value().peak_value, direct.value().peak_value);
  EXPECT_EQ(planed.value().measurements_used, direct.value().measurements_used);
  ASSERT_EQ(planed.value().candidates.size(), direct.value().candidates.size());
  for (std::size_t i = 0; i < direct.value().candidates.size(); ++i) {
    EXPECT_EQ(planed.value().candidates[i].x, direct.value().candidates[i].x) << i;
    EXPECT_EQ(planed.value().candidates[i].y, direct.value().candidates[i].y) << i;
    EXPECT_EQ(planed.value().candidates[i].value, direct.value().candidates[i].value) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndSearches, PlaneSubstitution,
    ::testing::Combine(::testing::Values(localize::SarKernel::kExact,
                                         localize::SarKernel::kFast),
                       ::testing::Values(localize::SarSearch::kExact,
                                         localize::SarSearch::kIncremental,
                                         localize::SarSearch::kCoarseToFine)));

// --- Full batch parity ---------------------------------------------------

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
  EXPECT_EQ(a.plane_groups, b.plane_groups);
  EXPECT_EQ(a.deferred_tasks, b.deferred_tasks);
}

/// The matrix scenario: the building preset with a coarser grid so the
/// 24-cell sweep stays fast. Parity is resolution-independent.
Scenario matrix_scenario() {
  auto scenario = *preset("building");
  scenario.grid_resolution_m = 0.05;
  return scenario;
}

/// Duplicate-heavy job list: two identical jobs (their tasks share plane
/// groups), a distinct seed on the same scenario, and a second distinct
/// scenario text.
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
               {localize::SarSearch::kExact, localize::SarSearch::kIncremental}) {
            for (bool faults : {false, true}) {
              cases.push_back({threads, kernel, search, faults});
            }
          }
        }
      }
      return cases;
    }()));

TEST(BatchParity, PlaneGroupsShareOneMissionsTags) {
  // through_wall flies one pass over three tags: each mission's three
  // deferred tasks share its trajectory, so two seeds make two plane
  // groups of three, and the grouped sweeps reproduce per-mission runs.
  const auto loaded = preset("through_wall");
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  for (unsigned threads : {1u, 8u}) {
    BatchRunInfo info;
    const auto batched =
        run_seed_sweep(*loaded, 7, 2, {threads, BatchMode::kBatched}, &info);
    const auto reference =
        run_seed_sweep(*loaded, 7, 2, {threads, BatchMode::kPerMission});
    expect_results_identical(batched, reference);
    EXPECT_EQ(info.deferred_tasks, 6u) << threads;
    EXPECT_EQ(info.plane_groups, 2u) << threads;
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
