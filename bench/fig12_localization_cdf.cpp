// Fig. 12 — CDF of localization error over 100 trials spread across the
// 30 x 40 m facility, mixing line-of-sight and shelf-multipath placements.
// Paper: median 19 cm, 90th percentile 53 cm.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/experiments.h"

using namespace rfly;
using namespace rfly::core;

int main(int argc, char** argv) {
  bench::CliOptions opts;
  opts.trials = 100;  // the paper's 100 trials
  opts.seed = 99;     // placement stream; per-trial seeds derive from 5000+t
  if (!opts.parse(argc, argv)) return 2;

  bench::header("Fig. 12", "localization error CDF across the facility");
  const int kTrials = opts.trials;

  std::vector<double> errors;
  int failed = 0;
  Rng placement_rng(opts.seed);
  for (int t = 0; t < kTrials; ++t) {
    LocalizationTrialConfig cfg;
    // Random placement over the floor; a third of the trials sit among
    // shelf rows (multipath / NLoS), like the paper's mixed environments.
    cfg.shelf_rows = (t % 3 == 0) ? 2 : 0;
    cfg.tag_position = {placement_rng.uniform(6.0, 34.0),
                        placement_rng.uniform(4.0, 26.0), 0.0};
    cfg.reader_position = {placement_rng.uniform(0.5, 3.0),
                           placement_rng.uniform(0.5, 3.0), 1.0};
    cfg.aperture_m = 2.0;
    cfg.flight_offset_y_m = placement_rng.uniform(1.2, 2.2);
    cfg.sar_kernel = opts.kernel;
    cfg.sar_search = opts.search;
    const auto result =
        try_run_localization_trial(cfg, 5000 + static_cast<std::uint64_t>(t));
    if (!result) {
      ++failed;
      continue;
    }
    errors.push_back(result->sar_error_m);
  }

  std::printf("trials: %d, localized: %zu, failed: %d\n\n", kTrials, errors.size(),
              failed);
  bench::print_cdf("localization error", errors, "m");
  bench::summary_line("SAR through-relay", errors, "m");
  bench::paper_vs_ours("median localization error [cm]", "19",
                       100.0 * median(errors), "cm");
  bench::paper_vs_ours("90th percentile error [cm]", "53",
                       100.0 * percentile(errors, 90), "cm");

  bench::Metrics metrics;
  metrics.add("trials", kTrials);
  metrics.add("failed", failed);
  metrics.add("median_error_m", median(errors));
  metrics.add("p90_error_m", percentile(errors, 90));
  if (!bench::finish_observability(opts, metrics)) return 1;
  if (!metrics.write(opts.out)) return 1;
  return 0;
}
