// The benchmark's workloads. Each runs its set-up, measures for the
// requested time through public APIs only, checks its answers with the
// oracle and fills one result line.
#pragma once

#include <cstdint>
#include <string>

#include "layers.h"
#include "oracle.h"
#include "sim/scenario.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// One small unit of work instead of a timed window (the benchmark's own
  /// tests): schema, oracle and counter repeatability, not speed.
  bool smoke = false;
  const GoldenBook* golden = nullptr;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricSet metrics;
};

/// `warehouse` preset, fast SAR kernel, exact search.
rfly::sim::Scenario warehouse_fast_scenario();

/// `fleet_warehouse` preset with `n_tags` tags placed from `seed` along its
/// three aisles (the generator of bench/fleet_sweep.cpp), a 0.1 m grid of
/// 1.5 m half-width, fast kernel with coarse-to-fine search, serial.
rfly::sim::Scenario fleet_scenario(std::uint32_t n_tags, std::uint64_t seed);

/// Threads the benchmark may use: the host's hardware concurrency.
unsigned host_threads();

RunResult run_warehouse_sweep(const RunOptions& options);
RunResult run_fleet(const RunOptions& options);
RunResult run_rflyd_mix(const RunOptions& options);

}  // namespace perfbench
