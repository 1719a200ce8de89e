// RFly benchmark driver: runs one workload for a fixed time and prints, as
// its last line, {"correct", "attempted", "failed", "metrics"}. Untraced
// runs report end-to-end metrics, traced runs per-layer ones. Normally
// started through perfbench/run.py, which builds it first.
//
//   rfly_perfbench --workload warehouse_sweep|fleet_5000|rflyd_mix
//                  --seed N --seconds S --trace 0|1
//                  [--smoke] [--reference FILE] [--commit ID]
//   rfly_perfbench --write-reference FILE
//   rfly_perfbench --list-isas
//
// Exit status: 0 when every answer checked out, 1 on a wrong answer or a
// failed operation, 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/json.h"
#include "core/forward_kernel.h"
#include "localize/sar_kernel.h"
#include "obs/metrics.h"
#include "workloads.h"

namespace {

using perfbench::GoldenBook;
using perfbench::RunOptions;
using perfbench::RunResult;

int usage() {
  std::fprintf(stderr,
               "usage: rfly_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--reference FILE] [--commit ID]\n"
               "       rfly_perfbench --write-reference FILE\n"
               "       rfly_perfbench --list-isas\n");
  return 2;
}

/// Variants both kernel families can be forced to on this CPU.
void list_isas() {
  for (const auto& sar : rfly::localize::sar_kernel_variants()) {
    if (!sar.supported) continue;
    for (const auto& fwd : rfly::core::forward_kernel_variants()) {
      if (fwd.supported && std::strcmp(fwd.isa, sar.isa) == 0) {
        std::printf("%s\n", sar.isa);
      }
    }
  }
}

int write_reference(const std::string& path) {
  GoldenBook book;
  for (const auto& golden :
       {perfbench::warehouse_golden_set(), perfbench::fleet_golden_set()}) {
    const auto answers = perfbench::reference_answers(golden.jobs);
    for (std::size_t i = 0; i < answers.size(); ++i) {
      book.put(golden.keys[i], answers[i]);
    }
  }
  if (!book.save(path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return 0;
}

void print_environment(const RunOptions& options, const std::string& commit) {
  std::printf(
      "# env {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
      "\"smoke\": %s, \"nproc\": %u, \"sar_isa\": %s, \"forward_isa\": %s, "
      "\"build_type\": %s, \"rfly_obs\": %s, \"commit\": %s}\n",
      rfly::json_quote(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed),
      rfly::json_number(options.seconds).c_str(), options.trace ? 1 : 0,
      options.smoke ? "true" : "false", perfbench::host_threads(),
      rfly::json_quote(rfly::localize::sar_kernel_active().isa).c_str(),
      rfly::json_quote(rfly::core::forward_kernel_active().isa).c_str(),
      rfly::json_quote(RFLY_BENCH_BUILD_TYPE).c_str(),
      rfly::obs::kEnabled ? "\"ON\"" : "\"OFF\"", rfly::json_quote(commit).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string reference_path;
  std::string commit = "unknown";
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--list-isas") {
      list_isas();
      return 0;
    } else if (arg == "--write-reference" && has_value) {
      return write_reference(argv[++i]);
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = options.seconds > 0.0;
    } else if (arg == "--trace" && has_value) {
      const std::string value = argv[++i];
      if (value != "0" && value != "1") return usage();
      options.trace = value == "1";
      have_trace = true;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--reference" && has_value) {
      reference_path = argv[++i];
    } else if (arg == "--commit" && has_value) {
      commit = argv[++i];
    } else {
      return usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace) return usage();

  RunResult (*run)(const RunOptions&) = nullptr;
  if (options.workload == "warehouse_sweep") run = perfbench::run_warehouse_sweep;
  if (options.workload == "fleet_5000") run = perfbench::run_fleet;
  if (options.workload == "rflyd_mix") run = perfbench::run_rflyd_mix;
  if (run == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return usage();
  }

  GoldenBook golden;
  if (!reference_path.empty()) {
    std::string error;
    if (!golden.load(reference_path, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    options.golden = &golden;
  }

  print_environment(options, commit);
  const RunResult result = run(options);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              result.metrics.to_json().c_str());
  std::fflush(stdout);
  return result.correct && result.failed == 0 ? 0 : 1;
}
