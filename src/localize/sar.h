// Non-linear SAR projection (paper Eq. 11-12): the matched filter
//   P(x, y) = | sum_l h_l * e^{+j 2 pi f (2 d_l(x,y)) / c} |
// evaluated over a 2D grid, where d_l is the distance from trajectory point
// l to the candidate location and h_l is the isolated relay->tag half-link
// channel. The conjugate phase compensates the round-trip delay, so P peaks
// where the hypothesized location explains every measurement coherently.
//
// Two kernels evaluate P (see sar_kernel.h): `exact` is the seed's libm
// loop, kept bit-identical as the golden reference; `fast` is the blocked
// SIMD kernel (batched polynomial sincos, runtime ISA dispatch) that must
// reproduce the same argmax cell and sub-resolution peaks within tolerance.
#pragma once

#include <cstddef>
#include <vector>

#include "localize/disentangle.h"
#include "localize/sar_kernel.h"

namespace rfly::localize {

/// Number of sample points on one grid axis spanning [lo, hi] at `res`:
/// floor((hi-lo)/res) + 1, with a few ULPs of forgiveness so an extent
/// that is an exact multiple of the resolution keeps its last cell even
/// when the division lands at 99.999...96 (0.3/0.1 in doubles is below 3;
/// the naive floor would drop the final sample).
std::size_t grid_axis_cells(double lo, double hi, double res);

struct GridSpec {
  double x_min = 0.0, x_max = 1.0;
  double y_min = 0.0, y_max = 1.0;
  double resolution_m = 0.01;

  std::size_t nx() const;
  std::size_t ny() const;
  double x_at(std::size_t ix) const { return x_min + static_cast<double>(ix) * resolution_m; }
  double y_at(std::size_t iy) const { return y_min + static_cast<double>(iy) * resolution_m; }
};

/// Row-major heatmap of P(x, y) values.
struct Heatmap {
  GridSpec grid;
  std::vector<double> values;  // ny rows of nx

  double at(std::size_t ix, std::size_t iy) const { return values[iy * grid.nx() + ix]; }
  double max_value() const;
};

/// Per-antenna SoA precompute for the SAR inner loop: the round-trip
/// wavenumber plus trajectory positions and channel weights laid out as
/// flat contiguous arrays, hoisted once per heatmap so the per-cell loop
/// streams cache lines instead of chasing Vec3/complex structs.
struct SarGeometry {
  double k = 0.0;  // 2*pi*f*2/c (round trip)
  std::vector<double> px, py, pz;    // trajectory positions
  std::vector<double> hre, him;      // channel weights, split re/im
  std::size_t size() const { return px.size(); }
  static SarGeometry from(const DisentangledSet& set, double freq_hz);
};

/// Evaluate P over the grid at plane height `z` (tags on the floor: z=0).
/// `freq_hz` is the relay-tag half-link carrier f2 — the paper notes f is
/// an acceptable stand-in since (f - f2)/f < 0.01.
///
/// `threads`: 0 = shared pool at hardware concurrency, 1 = serial on the
/// calling thread, n = at most n threads. The grid is sharded by row and
/// each cell accumulates its own sum in a fixed order, so the heatmap is
/// bit-identical for every thread count — with either kernel
/// (tests/test_sar_parity.cpp covers the threads x kernel matrix).
///
/// `kernel`: kExact reproduces the seed output bit-for-bit; kFast runs
/// the SIMD kernel (identical argmax, values within ~1e-12 relative).
Heatmap sar_heatmap(const DisentangledSet& set, const GridSpec& grid, double freq_hz,
                    double z_plane = 0.0, unsigned threads = 0,
                    SarKernel kernel = SarKernel::kExact);

/// Evaluate P at a single 3D point (used by peak refinement, the 3D
/// extension and tests). The exact path is the seed loop, bit-identical.
double sar_projection(const DisentangledSet& set, const channel::Vec3& p,
                      double freq_hz, SarKernel kernel = SarKernel::kExact);

/// Same, over a prebuilt geometry — the fast path for refinement loops
/// that evaluate many points against one measurement set (hoists the SoA
/// conversion out of the point loop). Exact here still means the libm
/// sincos in sequential sample order.
double sar_projection(const SarGeometry& geo, const channel::Vec3& p,
                      SarKernel kernel = SarKernel::kExact);

/// A position estimate emitted while the aperture is still being collected
/// (incremental search): the current heatmap argmax plus how much evidence
/// backs it. This is what a live mission display — or a trajectory
/// replanner — consumes per waypoint.
struct LiveEstimate {
  std::size_t measurements = 0;  // samples folded in when this was emitted
  double x = 0.0, y = 0.0;       // current heatmap argmax
  double peak_value = 0.0;
  /// Peak-to-mean contrast of the current partial heatmap, in [0, 1]:
  /// 0 = flat (no evidence), -> 1 as the peak dominates the grid.
  double confidence = 0.0;
  /// measurements / expected aperture size (1.0 when no expectation given).
  double coverage = 0.0;
};

/// Incremental SAR accumulator: the per-cell complex partial sums of
/// Eq. 12, grown measurement-by-measurement so the heatmap exists *as the
/// drone flies* instead of being recomputed over the full aperture at
/// mission end.
///
/// Equivalence contract (pinned by tests/test_sar_incremental.cpp):
///   - Adding a measurement sequence in any call grouping — whole aperture
///     at once, one waypoint at a time, or mixed — produces bit-identical
///     planes: every grouping replays the same left-to-right rounding
///     sequence per cell (each add folds its batch in registers, and the
///     plane update `acc += block` re-rounds exactly where the batch loop
///     would have).
///   - With the exact kernel, finalize() is bit-identical to sar_heatmap()
///     over the same set; with the fast kernel it reproduces the same
///     argmax (values within the documented fast-kernel tolerance).
///
/// `threads` as in sar_heatmap: rows shard, results identical at every
/// setting. Not thread-safe itself: one writer at a time.
class SarAccumulator {
 public:
  SarAccumulator(const GridSpec& grid, double freq_hz, double z_plane = 0.0,
                 SarKernel kernel = SarKernel::kExact, unsigned threads = 1);

  const GridSpec& grid() const { return grid_; }
  std::size_t measurement_count() const { return count_; }

  /// Fold a batch of disentangled measurements into the partial sums.
  void add_measurements(const DisentangledSet& set);
  /// Single-sample convenience — the per-waypoint streaming path.
  void add_measurement(const channel::Vec3& position, cdouble channel);

  /// Snapshot the current heatmap: |partial sum| per cell.
  Heatmap finalize() const;

  /// Current argmax (first strict maximum in row-major y-then-x order,
  /// matching the batch localizer's tie rule) with confidence/coverage.
  /// `expected_measurements` sizes the coverage denominator; 0 means "no
  /// expectation" and reports 1.0 once anything has been added.
  LiveEstimate estimate(std::size_t expected_measurements = 0) const;

  /// Raw partial-sum planes, row-major like Heatmap::values — the test
  /// surface for the call-grouping guarantee.
  const std::vector<double>& partial_re() const { return re_; }
  const std::vector<double>& partial_im() const { return im_; }

 private:
  GridSpec grid_;
  double freq_hz_ = 915e6;
  double z_plane_ = 0.0;
  SarKernel kernel_ = SarKernel::kExact;
  unsigned threads_ = 1;
  std::vector<double> xs_, ys_;  // hoisted cell coordinates, as sar_heatmap
  std::vector<double> re_, im_;  // per-cell partial sums, row-major
  std::size_t count_ = 0;
};

}  // namespace rfly::localize
