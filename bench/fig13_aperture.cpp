// Fig. 13 — Localization accuracy vs flight-path aperture, SAR vs the
// RSSI baseline. Methodology per paper Section 7.3(a): 20 experiments per
// point, relay on a ground robot ~5 m from the reader, fixed average
// relay-tag distance, aperture swept 0.5-2.5 m.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/experiments.h"

using namespace rfly;
using namespace rfly::core;

int main(int argc, char** argv) {
  bench::CliOptions opts;
  opts.trials = 20;  // per aperture point, as in the paper
  opts.seed = 777;   // placement stream
  if (!opts.parse(argc, argv)) return 2;

  bench::header("Fig. 13", "localization error vs aperture (SAR vs RSSI)");
  const int kTrialsPerPoint = opts.trials;

  std::printf(
      "  aperture_m   sar_p10   sar_med   sar_p90   rssi_p10  rssi_med  rssi_p90\n");
  double sar_at_half = 0.0;
  double sar_at_1 = 0.0;
  double rssi_at_25 = 0.0;
  double sar_at_25 = 0.0;
  for (double aperture : {0.5, 1.0, 1.5, 2.0, 2.5}) {
    std::vector<double> sar;
    std::vector<double> rssi;
    Rng placement(opts.seed);
    for (int t = 0; t < kTrialsPerPoint; ++t) {
      LocalizationTrialConfig cfg;
      cfg.shelf_rows = 2;  // the robot experiments ran amid lab clutter
      cfg.reader_position = {20.0, 15.0, 1.0};
      // Relay trajectory center ~5 m from the reader; tag near the path,
      // all inside the aisle between the shelf rows (y = 10 and 20).
      cfg.tag_position = {15.0 + placement.uniform(-0.5, 0.5),
                          13.5 + placement.uniform(-0.5, 0.5), 0.0};
      cfg.aperture_m = aperture;
      cfg.flight_offset_y_m = 1.5;
      cfg.flight_altitude_m = 0.3;  // iRobot Create, not a drone
      cfg.tracking = drone::optitrack_tracking();
      cfg.sar_kernel = opts.kernel;
      cfg.sar_search = opts.search;
      const auto result = try_run_localization_trial(
          cfg, 6000 + static_cast<std::uint64_t>(t) * 31 +
                   static_cast<std::uint64_t>(aperture * 10));
      if (!result) continue;
      sar.push_back(result->sar_error_m);
      rssi.push_back(result->rssi_error_m);
    }
    std::printf("  %10.1f   %7.3f   %7.3f   %7.3f   %8.3f  %8.3f  %8.3f\n",
                aperture, percentile(sar, 10), median(sar), percentile(sar, 90),
                percentile(rssi, 10), median(rssi), percentile(rssi, 90));
    if (aperture == 0.5) sar_at_half = median(sar);
    if (aperture == 1.0) sar_at_1 = median(sar);
    if (aperture == 2.5) {
      rssi_at_25 = median(rssi);
      sar_at_25 = median(sar);
    }
  }

  std::printf("\n");
  bench::paper_vs_ours("SAR median error at 0.5 m aperture [cm]", "22",
                       100.0 * sar_at_half, "cm");
  bench::paper_vs_ours("SAR median error at 1 m aperture [cm]", "<5",
                       100.0 * sar_at_1, "cm");
  bench::paper_vs_ours("RSSI median error at 2.5 m aperture [m]", "~1",
                       rssi_at_25, "m");
  bench::paper_vs_ours("SAR advantage at 2.5 m aperture [x]", "20",
                       rssi_at_25 / (sar_at_25 > 0 ? sar_at_25 : 1e-9), "x");

  bench::Metrics metrics;
  metrics.add("sar_median_at_0p5m", sar_at_half);
  metrics.add("sar_median_at_1m", sar_at_1);
  metrics.add("rssi_median_at_2p5m", rssi_at_25);
  if (!bench::finish_observability(opts, metrics)) return 1;
  if (!metrics.write(opts.out)) return 1;
  return 0;
}
