#include "localize/peak.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "obs/trace.h"

namespace rfly::localize {

namespace {

/// Parent of a cell the sweep has not activated, and of the padding ring.
constexpr std::uint32_t kInactive = std::numeric_limits<std::uint32_t>::max();

/// Root of `cell`'s component, halving the path on the way. A component's
/// root is always its summit: a new component starts at its own (highest)
/// cell, and a merge hangs every other root under the survivor's.
std::uint32_t find_root(std::vector<std::uint32_t>& parent, std::uint32_t cell) {
  while (parent[cell] != cell) {
    parent[cell] = parent[parent[cell]];
    cell = parent[cell];
  }
  return cell;
}

struct Summit {
  std::uint32_t cell = 0;  // padded index
  double prominence = 0.0;
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
  const double value_floor = threshold_fraction * global_max;
  // Negated comparisons: a NaN fraction rejects nothing.
  auto reaches_floor = [&](double v) { return !(v < value_floor); };
  auto reportable = [&](double v, double prominence) {
    return reaches_floor(v) && !(prominence < prominence_fraction * v);
  };

  // The sweep works on the grid padded with one inactive ring, so the
  // 8-neighbour loop needs no bounds tests.
  const std::size_t w = nx + 2;
  const std::size_t padded = w * (ny + 2);
  if (padded >= kInactive) throw std::length_error("find_peaks: heatmap too large");
  const auto row = static_cast<std::ptrdiff_t>(w);
  // Neighbours in (dy, dx) order, the order that breaks ties between equal
  // summits.
  const std::array<std::ptrdiff_t, 8> offsets{-row - 1, -row,    -row + 1, -1,
                                              1,        row - 1, row,      row + 1};
  std::vector<double> value(padded, 0.0);

  // Value buckets: a cell of value v goes to floor(v * (n / max)), clamped
  // to [0, n-1]. Multiplication and truncation are monotone, so the
  // buckets hold disjoint value ranges in order; cells go in by ascending
  // index, and a bucket is sorted only when the sweep reaches it.
  // bucket_begin[k] ends up as bucket k's first slot, bucket_begin[n] == n.
  std::vector<std::uint32_t> bucket(n);
  std::vector<std::uint32_t> bucket_begin(n + 1, 0);
  const double scale = static_cast<double>(n) / global_max;
  const double top_bucket = static_cast<double>(n - 1);
  std::size_t above_floor = 0;  // cells a reported summit may sit on
  for (std::size_t iy = 0, i = 0; iy < ny; ++iy) {
    for (std::size_t ix = 0; ix < nx; ++ix, ++i) {
      const double v = map.values[i];
      value[(iy + 1) * w + ix + 1] = v;
      // Truncation equals floor on the positive side; everything else
      // (negative, zero, NaN) clamps to bucket 0.
      const double b = v * scale;
      bucket[i] = b >= top_bucket ? static_cast<std::uint32_t>(n - 1)
                  : b > 0.0       ? static_cast<std::uint32_t>(b)
                                  : 0u;
      ++bucket_begin[bucket[i]];
      above_floor += reaches_floor(v);
    }
  }
  if (above_floor == 0) return {};
  for (std::size_t k = 1; k <= n; ++k) bucket_begin[k] += bucket_begin[k - 1];
  std::vector<std::uint32_t> order(n);
  for (std::size_t iy = ny; iy-- > 0;) {
    for (std::size_t ix = nx; ix-- > 0;) {
      const std::size_t i = iy * nx + ix;
      order[--bucket_begin[bucket[i]]] =
          static_cast<std::uint32_t>((iy + 1) * w + ix + 1);
    }
  }

  // Descending watershed sweep in (value descending, index ascending)
  // order. It stops once every cell at or above the floor is active and at
  // most one component whose summit reaches the floor is alive: a summit's
  // prominence is fixed when its component dies, summits below the floor
  // are never reported, and the one live component holds the global
  // maximum, whose prominence is its own height.
  std::vector<std::uint32_t> parent(padded, kInactive);
  std::vector<Summit> summits;
  std::size_t live_above = 0;  // live components whose summit reaches the floor
  auto activate = [&](std::uint32_t cell) {
    const double v = value[cell];
    // Distinct neighbouring components, in (dy, dx) order.
    std::array<std::uint32_t, 8> roots{};
    std::size_t n_roots = 0;
    for (const std::ptrdiff_t offset : offsets) {
      const auto nb = static_cast<std::uint32_t>(static_cast<std::ptrdiff_t>(cell) + offset);
      if (parent[nb] == kInactive) continue;
      const std::uint32_t r = find_root(parent, nb);
      if (std::find(roots.begin(), roots.begin() + n_roots, r) == roots.begin() + n_roots) {
        roots[n_roots++] = r;
      }
    }
    if (n_roots == 0) {
      // A fresh summit.
      parent[cell] = cell;
      live_above += reaches_floor(v);
      return;
    }
    // Merge everything into the component with the highest summit (the
    // first such root on a tie); every other component dies here, and `v`
    // is its saddle.
    std::uint32_t best = roots[0];
    for (std::size_t j = 1; j < n_roots; ++j) {
      if (value[roots[j]] > value[best]) best = roots[j];
    }
    for (std::size_t j = 0; j < n_roots; ++j) {
      const std::uint32_t r = roots[j];
      if (r == best) continue;
      if (reaches_floor(value[r])) {
        --live_above;
        if (reportable(value[r], value[r] - v)) summits.push_back({r, value[r] - v});
      }
      parent[r] = best;
    }
    parent[cell] = best;
  };
  auto higher = [&](std::uint32_t a, std::uint32_t b) {
    return value[a] > value[b] || (value[a] == value[b] && a < b);
  };
  std::uint32_t first_cell = kInactive;  // the global maximum
  std::size_t activated = 0;
  bool swept = false;
  for (std::size_t k = n; k-- > 0 && !swept;) {
    const auto first = order.begin() + bucket_begin[k];
    const auto last = order.begin() + bucket_begin[k + 1];
    if (last - first > 1) std::sort(first, last, higher);
    for (auto it = first; it != last && !swept; ++it) {
      if (activated == 0) first_cell = *it;
      activate(*it);
      swept = ++activated >= above_floor && live_above <= 1;
    }
  }

  // The global maximum's component never dies: its prominence is its own
  // height.
  const std::uint32_t top = find_root(parent, first_cell);
  if (reportable(value[top], value[top])) summits.push_back({top, value[top]});

  std::sort(summits.begin(), summits.end(), [&](const Summit& a, const Summit& b) {
    return higher(a.cell, b.cell);
  });
  std::vector<Peak> peaks;
  peaks.reserve(summits.size());
  for (const Summit& s : summits) {
    Peak p;
    p.x = map.grid.x_at(s.cell % w - 1);
    p.y = map.grid.y_at(s.cell / w - 1);
    p.value = value[s.cell];
    p.prominence = s.prominence;
    peaks.push_back(p);
  }
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
