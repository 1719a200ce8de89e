// Multipath localization walkthrough (paper Fig. 6): shows the SAR heatmap
// in a clean scene and in a scene with a strong reflector, and why RFly
// picks the peak *nearest the trajectory* instead of the highest one.
#include <cmath>
#include <cstdio>

#include "channel/path_loss.h"
#include "drone/trajectory.h"
#include "localize/localizer.h"

using namespace rfly;
using namespace rfly::localize;
using channel::Vec3;

namespace {

MeasurementSet synthesize(const std::vector<Vec3>& trajectory, const Vec3& tag,
                          double ghost_gain, const Vec3& ghost) {
  MeasurementSet set;
  for (const auto& p : trajectory) {
    const cdouble h1 =
        channel::propagation_coefficient(p.distance_to({0, 0, 1}), 915e6);
    cdouble h2 = channel::propagation_coefficient(p.distance_to(tag), 916e6);
    if (ghost_gain > 0.0) {
      h2 += ghost_gain * channel::propagation_coefficient(p.distance_to(ghost), 916e6);
    }
    RelayMeasurement m;
    m.relay_position = p;
    m.embedded_channel = h1 * h1 * 1e-3;
    m.target_channel = h1 * h1 * h2 * h2;
    set.push_back(m);
  }
  return set;
}

void render(const Heatmap& map, const Vec3& tag, double est_x, double est_y) {
  static const char kShades[] = " .:-=+*#%@";
  const double peak = map.max_value();
  for (std::size_t iy = map.grid.ny(); iy-- > 0;) {
    std::printf("  ");
    for (std::size_t ix = 0; ix < map.grid.nx(); ++ix) {
      const double x = map.grid.x_at(ix);
      const double y = map.grid.y_at(iy);
      char c = kShades[static_cast<int>(9.0 * map.at(ix, iy) / peak)];
      if (std::hypot(x - tag.x, y - tag.y) < 0.12) c = 'T';
      if (std::hypot(x - est_x, y - est_y) < 0.12) c = 'X';
      std::putchar(c);
    }
    std::printf("\n");
  }
}

void scene(const char* title, double ghost_gain) {
  std::printf("\n=== %s ===\n", title);
  const auto traj = drone::linear_trajectory({4.0, 2.0, 1.0}, {6.0, 2.4, 1.0}, 40);
  const Vec3 tag{5.0, 0.5, 0.0};
  const Vec3 ghost{6.5, 4.5, 0.0};
  const auto set = synthesize(traj, tag, ghost_gain, ghost);

  LocalizerConfig cfg;
  cfg.freq_hz = 916e6;
  cfg.grid = {3.0, 8.0, -1.0, 7.0, 0.02};
  cfg.peak_threshold_fraction = 0.35;

  cfg.selection = PeakSelection::kHighest;
  const auto naive = localize_2d_checked(set, cfg);
  cfg.selection = PeakSelection::kNearestToTrajectory;
  const auto rfly = localize_2d_checked(set, cfg);

  GridSpec render_grid{3.0, 8.0, -1.0, 7.0, 0.12};
  const auto map = sar_heatmap(disentangle(set), render_grid, cfg.freq_hz);
  render(map, tag, rfly ? rfly->x : 0, rfly ? rfly->y : 0);

  if (naive && rfly) {
    std::printf("highest peak        -> (%.2f, %.2f), error %.2f m\n", naive->x,
                naive->y, std::hypot(naive->x - tag.x, naive->y - tag.y));
    std::printf("nearest to path (X) -> (%.2f, %.2f), error %.2f m\n", rfly->x,
                rfly->y, std::hypot(rfly->x - tag.x, rfly->y - tag.y));
    std::printf("candidates above threshold: %zu (value / distance-to-path)\n",
                rfly->candidates.size());
    for (const auto& p : rfly->candidates) {
      std::printf("   (%.2f, %.2f)  value %.3g  dist %.2f m\n", p.x, p.y, p.value,
                  p.distance_to_trajectory);
    }
  }
}

}  // namespace

int main() {
  std::printf("RFly multipath localization (paper Fig. 6)\n");
  std::printf("T = true tag, X = RFly estimate, brighter = higher P(x,y)\n");
  scene("(a) line of sight: single sharp peak at the tag", 0.0);
  scene("(b) strong multipath: ghost lobes appear beyond the tag", 0.8);
  std::printf("\nGhost lobes come from a reflection with a *longer* path, so they\n"
              "always sit further from the flight path than the true tag — the\n"
              "nearest-peak rule (Section 5.2) exploits exactly that.\n");
  return 0;
}
