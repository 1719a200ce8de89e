// Peak extraction against its oracle. find_peaks builds its sweep order
// lazily from value buckets and stops as soon as no reported figure can
// change; reference_find_peaks below is the full-sort sweep it replaced,
// kept here as the reference. The two must agree bit for bit (count,
// order, x, y, value and prominence) on seeded SAR maps and random-valued
// maps over several grids, thresholds and prominence fractions. The tie
// rule peak.h documents is pinned separately on plateau maps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "channel/path_loss.h"
#include "common/rng.h"
#include "drone/trajectory.h"
#include "localize/peak.h"
#include "localize/sar.h"

namespace rfly::localize {
namespace {

constexpr double kFreq = 916e6;

/// The full-sort watershed sweep find_peaks replaced: sort every cell, sweep
/// to the last one, then scan the whole grid for summits. The one change is
/// the tie-break: the replaced code left equal values to std::sort, this
/// sorts them by index (find_peaks' documented rule) and lists equal peaks
/// stably. Neither changes anything on a map without two equal values.
std::vector<Peak> reference_find_peaks(const Heatmap& map, double threshold_fraction,
                                       double prominence_fraction) {
  const std::size_t nx = map.grid.nx();
  const std::size_t ny = map.grid.ny();
  const std::size_t n = nx * ny;
  if (n == 0) return {};
  const double global_max = map.max_value();
  if (global_max <= 0.0) return {};

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return map.values[a] > map.values[b] ||
           (map.values[a] == map.values[b] && a < b);
  });

  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  auto find = [&](std::size_t i) {
    while (parent[i] != i) {
      parent[i] = parent[parent[i]];
      i = parent[i];
    }
    return i;
  };
  std::vector<bool> active(n, false);
  std::vector<std::size_t> peak_cell(n, 0);
  std::vector<double> peak_value(n, 0.0);
  std::vector<double> prominence(n, -1.0);

  for (std::size_t cell : order) {
    const double v = map.values[cell];
    std::vector<std::size_t> roots;
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
        const std::size_t nb =
            static_cast<std::size_t>(jy) * nx + static_cast<std::size_t>(jx);
        if (!active[nb]) continue;
        const std::size_t r = find(nb);
        if (std::find(roots.begin(), roots.end(), r) == roots.end()) roots.push_back(r);
      }
    }
    active[cell] = true;
    if (roots.empty()) {
      peak_cell[cell] = cell;
      peak_value[cell] = v;
      continue;
    }
    std::size_t best = roots.front();
    for (std::size_t r : roots) {
      if (peak_value[r] > peak_value[best]) best = r;
    }
    for (std::size_t r : roots) {
      if (r == best) continue;
      prominence[peak_cell[r]] = peak_value[r] - v;
      parent[r] = best;
    }
    parent[cell] = best;
  }
  const std::size_t global_root = find(order.front());
  prominence[peak_cell[global_root]] = peak_value[global_root];

  const double value_floor = threshold_fraction * global_max;
  std::vector<Peak> peaks;
  for (std::size_t cell = 0; cell < n; ++cell) {
    if (prominence[cell] < 0.0) continue;
    const double v = map.values[cell];
    if (v < value_floor || prominence[cell] < prominence_fraction * v) continue;
    Peak p;
    p.x = map.grid.x_at(cell % nx);
    p.y = map.grid.y_at(cell / nx);
    p.value = v;
    p.prominence = prominence[cell];
    peaks.push_back(p);
  }
  std::stable_sort(peaks.begin(), peaks.end(),
                   [](const Peak& a, const Peak& b) { return a.value > b.value; });
  return peaks;
}

void expect_same_peaks(const std::vector<Peak>& got, const std::vector<Peak>& want,
                       const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].x, want[i].x) << label << " peak " << i;
    EXPECT_EQ(got[i].y, want[i].y) << label << " peak " << i;
    EXPECT_EQ(got[i].value, want[i].value) << label << " peak " << i;
    EXPECT_EQ(got[i].prominence, want[i].prominence) << label << " peak " << i;
  }
}

/// An nx x ny grid of `res` cells with its corner at (x0, y0).
GridSpec grid_of(std::size_t nx, std::size_t ny, double x0, double y0, double res) {
  return {x0, x0 + static_cast<double>(nx - 1) * res, y0,
          y0 + static_cast<double>(ny - 1) * res, res};
}

/// A random half-link set along a jittered straight pass. `tag` selects the
/// channel model: a free-space tag plus a weaker ghost (a few smooth lobes),
/// or random weights (speckle: many small maxima and saddles).
DisentangledSet random_set(std::uint64_t seed, std::size_t n_points, bool tag) {
  Rng rng(seed);
  const double x0 = rng.uniform(-1.0, 1.0);
  const double y0 = rng.uniform(1.5, 3.0);
  const auto traj = drone::linear_trajectory(
      {x0, y0, 1.0}, {x0 + rng.uniform(1.5, 3.0), y0 + rng.uniform(-0.2, 0.2), 1.0},
      n_points);
  const channel::Vec3 source{rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 1.0), 0.0};
  const channel::Vec3 ghost{source.x + rng.uniform(-1.0, 1.0), source.y - 1.5, 0.0};
  DisentangledSet set;
  for (const auto& p : traj) {
    const channel::Vec3 jittered{p.x + rng.gaussian(0.0, 0.01),
                                 p.y + rng.gaussian(0.0, 0.01),
                                 p.z + rng.gaussian(0.0, 0.005)};
    set.positions.push_back(jittered);
    if (tag) {
      cdouble h2 = channel::propagation_coefficient(jittered.distance_to(source), kFreq);
      h2 += 0.6 * channel::propagation_coefficient(jittered.distance_to(ghost), kFreq);
      set.channels.push_back(h2 * h2);
    } else {
      set.channels.push_back(std::pow(10.0, rng.uniform(-7.0, -5.0)) * cis(rng.phase()));
    }
  }
  return set;
}

struct Shape {
  std::size_t nx, ny;
};

// 1x1, single rows and columns, and 2D grids up to a few thousand cells.
const std::vector<Shape> kShapes{{1, 1}, {1, 9},  {9, 1},   {2, 2},
                                 {7, 5}, {23, 17}, {61, 41}, {1, 120}};
const std::vector<double> kThresholds{0.05, 0.5, 0.9, 1.0, 1.5};
const std::vector<double> kProminences{0.0, 0.4, 1.0};

void expect_matches_reference(const Heatmap& map, const std::string& label) {
  for (double threshold : kThresholds) {
    for (double prominence : kProminences) {
      expect_same_peaks(find_peaks(map, threshold, prominence),
                        reference_find_peaks(map, threshold, prominence),
                        label + " threshold " + std::to_string(threshold) +
                            " prominence " + std::to_string(prominence));
    }
  }
}

TEST(PeaksOracle, SarMapsMatchTheFullSortSweepBitForBit) {
  std::size_t reported = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (bool tag : {true, false}) {
      const auto set = random_set(seed, 24 + 7 * seed, tag);
      for (const Shape& shape : kShapes) {
        // About 4 m x 3 m around the pass, whatever the cell count.
        const double res = 3.0 / static_cast<double>(std::max(shape.nx, shape.ny));
        const GridSpec grid = grid_of(shape.nx, shape.ny, -1.5, -1.0, res);
        ASSERT_EQ(grid.nx(), shape.nx);
        ASSERT_EQ(grid.ny(), shape.ny);
        const Heatmap map = sar_heatmap(set, grid, kFreq, 0.0, 1);
        expect_matches_reference(map, "seed " + std::to_string(seed) +
                                          (tag ? " tag " : " speckle ") +
                                          std::to_string(shape.nx) + "x" +
                                          std::to_string(shape.ny));
        reported += find_peaks(map, 0.05, 0.0).size();
      }
    }
  }
  // The maps have real structure: many summits pass the lowest filter.
  EXPECT_GT(reported, 500u);
}

TEST(PeaksOracle, RandomValuedMapsMatchTheFullSortSweepBitForBit) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(100 + seed);
    for (const Shape& shape : kShapes) {
      Heatmap map;
      map.grid = grid_of(shape.nx, shape.ny, 0.5, -2.0, 0.1);
      ASSERT_EQ(map.grid.nx() * map.grid.ny(), shape.nx * shape.ny);
      map.values.resize(shape.nx * shape.ny);
      for (double& v : map.values) v = rng.uniform(0.0, 1.0);
      auto sorted = map.values;
      std::sort(sorted.begin(), sorted.end());
      ASSERT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
          << "values must be distinct";
      expect_matches_reference(map, "seed " + std::to_string(seed) + " " +
                                        std::to_string(shape.nx) + "x" +
                                        std::to_string(shape.ny));
    }
  }
}

/// A zero map on a 6 x 5 grid of 0.1 m cells at the origin.
Heatmap flat_map(double value) {
  Heatmap map;
  map.grid = grid_of(6, 5, 0.0, 0.0, 0.1);
  map.values.assign(30, value);
  return map;
}

TEST(PeaksTieRule, AdjacentEqualMaximaReportTheLowerIndex) {
  // Horizontal, vertical and diagonal neighbours: cell 8 is (2, 1).
  for (std::size_t other : {9u, 14u, 15u}) {
    Heatmap map = flat_map(0.0);
    map.values[8] = 1.0;
    map.values[other] = 1.0;
    const auto peaks = find_peaks(map, 0.5, 0.4);
    ASSERT_EQ(peaks.size(), 1u) << other;
    EXPECT_EQ(peaks[0].x, map.grid.x_at(2)) << other;
    EXPECT_EQ(peaks[0].y, map.grid.y_at(1)) << other;
    EXPECT_EQ(peaks[0].prominence, 1.0) << other;
    expect_same_peaks(peaks, reference_find_peaks(map, 0.5, 0.4), "cell 8 and " +
                                                                      std::to_string(other));
  }
}

TEST(PeaksTieRule, EqualSummitsMeetingAtASaddleKeepTheFirstNeighbour) {
  // One row: A = 1 at x0, saddle 0.5, B = 1 at x2, saddle 0.2, C = 2 at x4.
  // At the first saddle A (the dx = -1 neighbour) survives and B dies with
  // prominence 0.5; A then dies into C with prominence 0.8.
  Heatmap map;
  map.grid = grid_of(5, 1, 0.0, 0.0, 0.1);
  map.values = {1.0, 0.5, 1.0, 0.2, 2.0};
  const auto peaks = find_peaks(map, 0.4, 0.0);
  ASSERT_EQ(peaks.size(), 3u);
  EXPECT_EQ(peaks[0].x, map.grid.x_at(4));
  EXPECT_EQ(peaks[0].prominence, 2.0);
  EXPECT_EQ(peaks[1].x, map.grid.x_at(0));
  EXPECT_EQ(peaks[1].prominence, 1.0 - 0.2);
  EXPECT_EQ(peaks[2].x, map.grid.x_at(2));
  EXPECT_EQ(peaks[2].prominence, 1.0 - 0.5);
  expect_same_peaks(peaks, reference_find_peaks(map, 0.4, 0.0), "saddle tie");
}

TEST(PeaksTieRule, AllEqualMapReportsItsFirstCell) {
  const Heatmap map = flat_map(0.7);
  const auto peaks = find_peaks(map, 0.5, 0.4);
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_EQ(peaks[0].x, map.grid.x_at(0));
  EXPECT_EQ(peaks[0].y, map.grid.y_at(0));
  EXPECT_EQ(peaks[0].value, 0.7);
  EXPECT_EQ(peaks[0].prominence, 0.7);
}

TEST(PeaksTieRule, AllZeroMapHasNoPeaks) {
  EXPECT_TRUE(find_peaks(flat_map(0.0), 0.0, 0.0).empty());
  EXPECT_TRUE(find_peaks(flat_map(0.0), 0.5, 0.4).empty());
}

TEST(PeaksTieRule, EqualSeparateMaximaListByAscendingIndex) {
  // 20 isolated equal summits (more than std::sort leaves to its stable
  // insertion sort) on a 12 x 10 grid, each 1 above the zero floor.
  Heatmap map;
  map.grid = grid_of(12, 10, 0.0, 0.0, 0.1);
  map.values.assign(120, 0.0);
  std::vector<std::size_t> cells;
  for (std::size_t iy = 0; iy < 10; iy += 2) {
    for (std::size_t ix = 0; ix < 12; ix += 3) cells.push_back(iy * 12 + ix);
  }
  for (std::size_t cell : cells) map.values[cell] = 1.0;
  const auto peaks = find_peaks(map, 0.5, 0.4);
  ASSERT_EQ(peaks.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(peaks[i].x, map.grid.x_at(cells[i] % 12)) << i;
    EXPECT_EQ(peaks[i].y, map.grid.y_at(cells[i] / 12)) << i;
    EXPECT_EQ(peaks[i].prominence, 1.0) << i;
  }
  expect_same_peaks(peaks, reference_find_peaks(map, 0.5, 0.4), "equal summits");
}

TEST(Peaks, ThresholdAboveOneReturnsNothing) {
  const auto set = random_set(9, 40, true);
  const Heatmap map = sar_heatmap(set, grid_of(40, 30, -1.5, -1.0, 0.1), kFreq, 0.0, 1);
  EXPECT_TRUE(find_peaks(map, 1.5, 0.4).empty());
  EXPECT_TRUE(find_peaks(map, std::nextafter(1.0, 2.0), 0.0).empty());
  // At exactly 1 the global maximum alone qualifies.
  const auto top = find_peaks(map, 1.0, 0.4);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].value, map.max_value());
  EXPECT_EQ(top[0].prominence, map.max_value());
}

}  // namespace
}  // namespace rfly::localize
