#include "localize/peak.h"

#include <algorithm>
#include <numeric>

#include "obs/trace.h"

namespace rfly::localize {

namespace {

/// Union-find over grid cells for the watershed prominence sweep.
class DisjointSets {
 public:
  explicit DisjointSets(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }

  std::size_t find(std::size_t i) {
    while (parent_[i] != i) {
      parent_[i] = parent_[parent_[i]];
      i = parent_[i];
    }
    return i;
  }

  void unite_into(std::size_t child_root, std::size_t parent_root) {
    parent_[child_root] = parent_root;
  }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

std::vector<Peak> find_peaks(const Heatmap& map, double threshold_fraction,
                             double prominence_fraction) {
  obs::Span span("localize.peaks");
  const std::size_t nx = map.grid.nx();
  const std::size_t ny = map.grid.ny();
  const std::size_t n = nx * ny;
  if (n == 0) return {};
  const double global_max = map.max_value();
  if (global_max <= 0.0) return {};

  // Cells sorted by descending value; the sweep activates them in order.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return map.values[a] > map.values[b];
  });

  DisjointSets sets(n);
  std::vector<bool> active(n, false);
  // Per-root bookkeeping: the component's peak cell and value.
  std::vector<std::size_t> peak_cell(n, 0);
  std::vector<double> peak_value(n, 0.0);
  std::vector<double> prominence(n, -1.0);  // finalized per peak cell

  auto neighbors = [&](std::size_t cell, auto&& visit) {
    const std::size_t ix = cell % nx;
    const std::size_t iy = cell / nx;
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        if (dx == 0 && dy == 0) continue;
        const auto jx = static_cast<long>(ix) + dx;
        const auto jy = static_cast<long>(iy) + dy;
        if (jx < 0 || jy < 0 || jx >= static_cast<long>(nx) ||
            jy >= static_cast<long>(ny)) {
          continue;
        }
        visit(static_cast<std::size_t>(jy) * nx + static_cast<std::size_t>(jx));
      }
    }
  };

  for (std::size_t cell : order) {
    const double v = map.values[cell];
    // Collect distinct neighboring components.
    std::vector<std::size_t> roots;
    neighbors(cell, [&](std::size_t nb) {
      if (!active[nb]) return;
      const std::size_t r = sets.find(nb);
      if (std::find(roots.begin(), roots.end(), r) == roots.end()) {
        roots.push_back(r);
      }
    });

    active[cell] = true;
    if (roots.empty()) {
      // A fresh summit.
      peak_cell[cell] = cell;
      peak_value[cell] = v;
      continue;
    }

    // Merge everything into the component with the highest peak; every
    // other component dies here, and `v` is its saddle.
    std::size_t best = roots.front();
    for (std::size_t r : roots) {
      if (peak_value[r] > peak_value[best]) best = r;
    }
    for (std::size_t r : roots) {
      if (r == best) continue;
      prominence[peak_cell[r]] = peak_value[r] - v;
      sets.unite_into(r, best);
    }
    sets.unite_into(cell, best);
  }

  // The global maximum's component never merged into anything: its
  // prominence is its own height.
  const std::size_t global_root = sets.find(order.front());
  prominence[peak_cell[global_root]] = peak_value[global_root];

  const double value_floor = threshold_fraction * global_max;
  std::vector<Peak> peaks;
  for (std::size_t cell = 0; cell < n; ++cell) {
    if (prominence[cell] < 0.0) continue;  // not a summit
    const double v = map.values[cell];
    if (v < value_floor || prominence[cell] < prominence_fraction * v) continue;
    Peak p;
    p.x = map.grid.x_at(cell % nx);
    p.y = map.grid.y_at(cell / nx);
    p.value = v;
    p.prominence = prominence[cell];
    peaks.push_back(p);
  }
  std::sort(peaks.begin(), peaks.end(),
            [](const Peak& a, const Peak& b) { return a.value > b.value; });
  return peaks;
}

void annotate_distances(std::vector<Peak>& peaks,
                        const std::vector<channel::Vec3>& trajectory) {
  for (auto& p : peaks) {
    p.distance_to_trajectory =
        drone::distance_to_trajectory(trajectory, {p.x, p.y, 0.0});
  }
}

Peak select_peak(std::vector<Peak> candidates, PeakSelection strategy,
                 const std::vector<channel::Vec3>& trajectory) {
  if (candidates.empty()) return {};
  annotate_distances(candidates, trajectory);
  if (strategy == PeakSelection::kHighest) {
    return *std::max_element(candidates.begin(), candidates.end(),
                             [](const Peak& a, const Peak& b) {
                               return a.value < b.value;
                             });
  }
  return *std::min_element(candidates.begin(), candidates.end(),
                           [](const Peak& a, const Peak& b) {
                             return a.distance_to_trajectory <
                                    b.distance_to_trajectory;
                           });
}

}  // namespace rfly::localize
