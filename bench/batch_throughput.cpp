// Batched-execution throughput: missions/sec on the warehouse preset as the
// batch grows 1 -> 10k identical (scenario, seed) jobs. Batched mode defers
// every localize stage and sweeps each shared plane once with the multi-tag
// kernel, so identical jobs share their SAR sweeps; each job still finishes
// its own localization. The runner keeps no content dedup of identical jobs:
// no caller sends them (a sweep varies the seed, and rflyd's ResultCache
// answers repeats before they reach the runner), so this ladder is the
// worst case of that choice (EXPERIMENTS.md records it). The per-mission
// reference points pin what the legacy path costs at the same sizes.
//
//   bench_batch_throughput                      # full ladder, both kernels
//   bench_batch_throughput --trials 100         # cap the largest batch
//   bench_batch_throughput --out BENCH_batch.json
//
// Single-threaded by default (the amortization claim is algorithmic, not a
// parallelism artifact); --threads widens both modes.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sim/batch.h"

using namespace rfly;

namespace {

struct Point {
  std::size_t batch = 0;
  double missions_per_second = 0.0;
  sim::BatchRunInfo info;
};

Point run_point(const sim::Scenario& scenario, std::size_t batch,
                sim::BatchMode mode, const bench::CliOptions& opts) {
  std::vector<sim::BatchJob> jobs(batch, {scenario, scenario.seed});
  sim::BatchRunInfo info;
  const sim::BatchConfig config{opts.threads, mode};
  const auto results = sim::run_batch(jobs, config, &info);
  const auto summary = sim::summarize(results, info);
  if (summary.failed != 0) {
    std::fprintf(stderr, "batch of %zu: %zu job(s) FAILED\n", batch,
                 summary.failed);
  }
  return {batch, summary.missions_per_second, info};
}

}  // namespace

int main(int argc, char** argv) {
  bench::CliOptions opts;
  opts.threads = 1;  // see header comment; acceptance measures single-thread
  if (!opts.parse(argc, argv)) return 2;

  auto loaded = sim::preset("warehouse");
  if (!loaded) {
    std::fprintf(stderr, "%s\n", loaded.status().to_string().c_str());
    return 1;
  }
  sim::Scenario scenario = std::move(loaded.value());
  if (opts.seed_explicit) scenario.seed = opts.seed;
  if (opts.search_explicit) scenario.sar_search = opts.search;
  scenario.localize_threads = opts.threads;

  std::vector<std::size_t> sizes{1, 10, 100, 1000, 10000};
  if (opts.trials > 0) {
    // --trials N caps the ladder (smoke runs); N joins it when absent so
    // `--trials 100` still ends exactly at 100.
    const auto cap = static_cast<std::size_t>(opts.trials);
    std::erase_if(sizes, [&](std::size_t s) { return s > cap; });
    if (sizes.empty() || sizes.back() != cap) sizes.push_back(cap);
  }
  const std::vector<std::size_t> reference_sizes{1, sizes.back() < 100 ? sizes.back() : 100};

  bench::header("BENCH batch", "cross-mission batched execution throughput");
  std::printf("warehouse preset, seed %llu, %u thread(s); identical jobs per batch\n\n",
              static_cast<unsigned long long>(scenario.seed), opts.threads);

  bench::Metrics metrics;
  for (const localize::SarKernel kernel :
       {localize::SarKernel::kExact, localize::SarKernel::kFast}) {
    scenario.sar_kernel = kernel;
    const std::string kname = localize::sar_kernel_name(kernel);

    std::printf("kernel %-5s  %-12s %10s %14s\n", kname.c_str(), "mode",
                "batch", "missions/s");
    double batched_mps_1 = 0.0, batched_mps_ref = 0.0;
    for (std::size_t batch : sizes) {
      const Point p = run_point(scenario, batch, sim::BatchMode::kBatched, opts);
      std::printf("              %-12s %10zu %14.2f\n", "batched", p.batch,
                  p.missions_per_second);
      metrics.add("batched_" + kname + "_mps_" + std::to_string(batch),
                  p.missions_per_second);
      if (batch == 1) batched_mps_1 = p.missions_per_second;
      if (batch == reference_sizes.back()) batched_mps_ref = p.missions_per_second;
      if (batch == sizes.back()) {
        metrics.add(kname + "_deferred_tasks",
                    static_cast<double>(p.info.deferred_tasks));
      }
    }
    for (std::size_t batch : reference_sizes) {
      const Point p = run_point(scenario, batch, sim::BatchMode::kPerMission, opts);
      std::printf("              %-12s %10zu %14.2f\n", "per-mission", p.batch,
                  p.missions_per_second);
      metrics.add("per_mission_" + kname + "_mps_" + std::to_string(batch),
                  p.missions_per_second);
    }
    const double speedup =
        batched_mps_1 > 0.0 ? batched_mps_ref / batched_mps_1 : 0.0;
    std::printf("  batch %zu vs batch 1 (batched): %.2fx\n\n",
                reference_sizes.back(), speedup);
    metrics.add("speedup_" + kname + "_batch" +
                    std::to_string(reference_sizes.back()) + "_vs_1",
                speedup);
  }

  if (!bench::finish_observability(opts, metrics)) return 1;
  if (!metrics.write(opts.out)) return 1;
  return 0;
}
