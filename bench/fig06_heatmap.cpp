// Fig. 6 — P(x, y) localization heatmaps: (a) line-of-sight, (b) strong
// multipath from steel shelves. Rendered as ASCII intensity maps with the
// true tag (T), the chosen estimate (X), and the flight path (=) marked.
//
// SAR engine timings are bench_micro_kernels' (BM_SarHeatmap, BM_Sincos,
// BM_Localize3d); kernel x thread parity is the `kernel` and `parallel`
// test labels.
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "core/system.h"
#include "drone/flight.h"
#include "drone/trajectory.h"
#include "localize/localizer.h"

using namespace rfly;
using namespace rfly::core;

namespace {

void run_scene(const char* title, int shelf_rows, std::uint64_t seed,
               double paper_error_hint_m) {
  std::printf("\n--- %s ---\n", title);

  SystemConfig sys_cfg;
  channel::Environment env;
  if (shelf_rows > 0) {
    // Steel shelf rows flanking the scene (strong reflectors).
    env.add_obstacle({{{-2.0, -1.2}, {5.0, -1.2}}, channel::steel_shelf()});
    env.add_obstacle({{{-2.0, 2.6}, {5.0, 2.6}}, channel::steel_shelf()});
  }
  const Vec3 reader_pos{-8.0, 1.0, 1.0};
  RflySystem system(sys_cfg, env, reader_pos);

  const Vec3 tag{1.4, 0.9, 0.0};
  Rng rng(seed);
  const auto plan = drone::linear_trajectory({0.0, -0.4, 1.0}, {2.8, -0.35, 1.0}, 50);
  const auto flight =
      drone::fly(plan, drone::FlightConfig{}, drone::optitrack_tracking(), rng);
  const auto collected = system.try_collect_measurements(flight, tag, rng);
  if (!collected) {
    std::printf("collection failed: %s\n", collected.status().to_string().c_str());
    return;
  }
  const localize::MeasurementSet& measurements = *collected;
  std::printf("measurements: %zu\n", measurements.size());

  localize::LocalizerConfig loc;
  loc.freq_hz = sys_cfg.carrier_hz + sys_cfg.freq_shift_hz;
  loc.grid = {-0.5, 3.0, -0.5, 2.0, 0.02};
  loc.multires = false;
  loc.peak_threshold_fraction = 0.4;
  const auto result = localize::localize_2d_checked(measurements, loc);
  if (!result) {
    std::printf("localization failed\n");
    return;
  }
  const double err = std::hypot(result->x - tag.x, result->y - tag.y);

  // Render the heatmap.
  const auto iso = localize::disentangle(measurements);
  localize::GridSpec render = loc.grid;
  render.resolution_m = 0.07;
  const auto map = localize::sar_heatmap(iso, render, loc.freq_hz);
  const double peak = map.max_value();
  static const char kShades[] = " .:-=+*#%@";
  for (std::size_t iy = render.ny(); iy-- > 0;) {
    std::printf("  ");
    for (std::size_t ix = 0; ix < render.nx(); ++ix) {
      const double x = render.x_at(ix);
      const double y = render.y_at(iy);
      char c = kShades[static_cast<int>(9.0 * map.at(ix, iy) / peak)];
      if (std::abs(y - (-0.4)) < 0.05 && x >= 0.0 && x <= 2.8) c = '=';
      if (std::hypot(x - tag.x, y - tag.y) < 0.06) c = 'T';
      if (std::hypot(x - result->x, y - result->y) < 0.06) c = 'X';
      std::putchar(c);
    }
    std::printf("\n");
  }
  std::printf("legend: T true tag, X estimate, = flight path; error %.3f m\n", err);
  std::printf("candidate peaks considered: %zu\n", result->candidates.size());
  bench::paper_vs_ours("localization error in this scene [m]",
                       shelf_rows > 0 ? "(sub-meter, nearest-peak)" : "<0.07",
                       err, "m");
  (void)paper_error_hint_m;
}

}  // namespace

int main(int argc, char** argv) {
  bench::CliOptions options;
  if (!options.parse(argc, argv)) return 1;
  bench::header("Fig. 6", "P(x,y) heatmaps: line-of-sight vs strong multipath");
  run_scene("(a) line of sight", 0, 31, 0.07);
  run_scene("(b) strong multipath (steel shelves)", 2, 32, 0.2);
  return 0;
}
