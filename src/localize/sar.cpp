#include "localize/sar.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/constants.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rfly::localize {

namespace {
// SAR telemetry. The heatmap loop is the hottest code in the system, so the
// probes sit at chunk granularity: a chunk covers `grain` rows (thousands of
// sincos calls), making the two clock reads + one histogram update noise.
// Chunk timing is split per kernel so a dispatch change shows up in the
// latency buckets, and the dispatch counters record which kernel ran.
obs::Counter& sar_cells() {
  static obs::Counter& c = obs::counter("sar.cells");
  return c;
}
obs::Counter& sar_kernel_exact_calls() {
  static obs::Counter& c = obs::counter("sar.kernel.exact");
  return c;
}
obs::Counter& sar_kernel_fast_calls() {
  static obs::Counter& c = obs::counter("sar.kernel.fast");
  return c;
}
obs::Histogram& sar_chunk_seconds_exact() {
  static obs::Histogram& h = obs::histogram(
      "sar.row_chunk_seconds", obs::HistogramSpec::duration_seconds());
  return h;
}
obs::Histogram& sar_chunk_seconds_fast() {
  static obs::Histogram& h = obs::histogram(
      "sar.row_chunk_seconds.fast", obs::HistogramSpec::duration_seconds());
  return h;
}
// Incremental-search telemetry: samples folded into accumulators and live
// estimates emitted. Both update at batch granularity, never per cell.
obs::Counter& sar_accumulator_samples() {
  static obs::Counter& c = obs::counter("sar.accumulator.samples");
  return c;
}
obs::Counter& sar_live_estimates() {
  static obs::Counter& c = obs::counter("sar.live.estimates");
  return c;
}
}  // namespace

std::size_t grid_axis_cells(double lo, double hi, double res) {
  const double q = (hi - lo) / res;
  // Forgive a few ULPs below an integer quotient: 6.0/0.02 style divisions
  // land at N - epsilon and the naive floor would drop the final sample.
  // The slack is relative (4 eps), so 299.9 still truncates to 299 and only
  // genuine exact-multiple extents are pulled up.
  const double slack =
      4.0 * std::numeric_limits<double>::epsilon() * std::max(std::fabs(q), 1.0);
  return static_cast<std::size_t>(std::floor(q + slack)) + 1;
}

std::size_t GridSpec::nx() const {
  return grid_axis_cells(x_min, x_max, resolution_m);
}

std::size_t GridSpec::ny() const {
  return grid_axis_cells(y_min, y_max, resolution_m);
}

double Heatmap::max_value() const {
  double best = 0.0;
  for (double v : values) best = std::max(best, v);
  return best;
}

double sar_projection(const DisentangledSet& set, const channel::Vec3& p,
                      double freq_hz, SarKernel kernel) {
  if (kernel == SarKernel::kFast) {
    return sar_projection(SarGeometry::from(set, freq_hz), p, SarKernel::kFast);
  }
  // Exact kernel: the seed loop, bit-identical — sequential sample order,
  // libm sincos through cis().
  const double k = kTwoPi * freq_hz * 2.0 / kSpeedOfLight;  // round trip
  cdouble acc{0.0, 0.0};
  for (std::size_t l = 0; l < set.channels.size(); ++l) {
    const double d = set.positions[l].distance_to(p);
    acc += set.channels[l] * cis(k * d);
  }
  return std::abs(acc);
}

double sar_projection(const SarGeometry& geo, const channel::Vec3& p,
                      SarKernel kernel) {
  if (kernel == SarKernel::kFast) {
    SarKernelArgs args;
    args.k = geo.k;
    args.px = geo.px.data();
    args.py = geo.py.data();
    args.pz = geo.pz.data();
    args.hre = geo.hre.data();
    args.him = geo.him.data();
    args.count = geo.size();
    return sar_kernel_active().projection(args, p.x, p.y, p.z);
  }
  // Same arithmetic as the set-based exact path: distance through
  // Vec3::distance_to and a complex multiply-accumulate, so the two exact
  // overloads agree bit-for-bit.
  cdouble acc{0.0, 0.0};
  for (std::size_t l = 0; l < geo.size(); ++l) {
    const channel::Vec3 pos{geo.px[l], geo.py[l], geo.pz[l]};
    const double d = pos.distance_to(p);
    acc += cdouble{geo.hre[l], geo.him[l]} * cis(geo.k * d);
  }
  return std::abs(acc);
}

SarGeometry SarGeometry::from(const DisentangledSet& set, double freq_hz) {
  SarGeometry geo;
  geo.k = kTwoPi * freq_hz * 2.0 / kSpeedOfLight;
  const std::size_t n = set.channels.size();
  geo.px.reserve(n);
  geo.py.reserve(n);
  geo.pz.reserve(n);
  geo.hre.reserve(n);
  geo.him.reserve(n);
  for (std::size_t l = 0; l < n; ++l) {
    geo.px.push_back(set.positions[l].x);
    geo.py.push_back(set.positions[l].y);
    geo.pz.push_back(set.positions[l].z);
    geo.hre.push_back(set.channels[l].real());
    geo.him.push_back(set.channels[l].imag());
  }
  return geo;
}

Heatmap sar_heatmap(const DisentangledSet& set, const GridSpec& grid, double freq_hz,
                    double z_plane, unsigned threads, SarKernel kernel) {
  obs::Span heatmap_span("sar.heatmap");
  const bool fast = kernel == SarKernel::kFast;
  (fast ? sar_kernel_fast_calls() : sar_kernel_exact_calls()).inc();

  Heatmap map;
  map.grid = grid;
  const std::size_t nx = grid.nx();
  const std::size_t ny = grid.ny();
  map.values.assign(nx * ny, 0.0);
  const SarGeometry geo = SarGeometry::from(set, freq_hz);
  const std::size_t L = geo.size();

  // Hoisted cell coordinates, shared by both kernels: xs was previously
  // recomputed per cell (grid.x_at in the inner loop); the array holds the
  // identical x_min + ix*res values, so the exact kernel stays bit-exact.
  std::vector<double> xs(nx), ys(ny);
  for (std::size_t ix = 0; ix < nx; ++ix) xs[ix] = grid.x_at(ix);
  for (std::size_t iy = 0; iy < ny; ++iy) ys[iy] = grid.y_at(iy);

  // Row shards: each cell's sum over l runs in a fixed order and lands in
  // its own slot, so any sharding of the rows yields the same heatmap —
  // with either kernel. Grain of a few rows keeps chunks ~10x the thread
  // count for balance without queue churn.
  const std::size_t grain = std::max<std::size_t>(1, ny / 64);
  parallel_for(
      0, ny, grain,
      [&](std::size_t row_begin, std::size_t row_end) {
        std::uint64_t chunk_start_ns = 0;
        if constexpr (obs::kEnabled) chunk_start_ns = obs::monotonic_ns();
        if (fast) {
          // Per-worker scratch for the row's dy^2+dz^2 partials; sized by
          // trajectory length, allocated once per chunk (a chunk covers
          // grain rows of nx cells, so the alloc is noise).
          std::vector<double> scratch(L);
          SarKernelArgs args;
          args.k = geo.k;
          args.px = geo.px.data();
          args.py = geo.py.data();
          args.pz = geo.pz.data();
          args.hre = geo.hre.data();
          args.him = geo.him.data();
          args.count = L;
          args.xs = xs.data();
          args.nx = nx;
          args.ys = ys.data();
          args.z = z_plane;
          args.values = map.values.data();
          args.scratch = scratch.data();
          sar_kernel_active().rows(args, row_begin, row_end);
        } else {
          for (std::size_t iy = row_begin; iy < row_end; ++iy) {
            const double y = ys[iy];
            double* row = map.values.data() + iy * nx;
            for (std::size_t ix = 0; ix < nx; ++ix) {
              const double x = xs[ix];
              double re = 0.0, im = 0.0;
              for (std::size_t l = 0; l < L; ++l) {
                const double dx = x - geo.px[l];
                const double dy = y - geo.py[l];
                const double dz = z_plane - geo.pz[l];
                const double d = std::sqrt(dx * dx + dy * dy + dz * dz);
                // sincos is the innermost cost of the whole system; the SoA
                // operand streams let the surrounding arithmetic vectorize.
                const double c = std::cos(geo.k * d);
                const double s = std::sin(geo.k * d);
                re += geo.hre[l] * c - geo.him[l] * s;
                im += geo.hre[l] * s + geo.him[l] * c;
              }
              row[ix] = std::abs(cdouble{re, im});
            }
          }
        }
        if constexpr (obs::kEnabled) {
          (fast ? sar_chunk_seconds_fast() : sar_chunk_seconds_exact())
              .observe(static_cast<double>(obs::monotonic_ns() - chunk_start_ns) *
                       1e-9);
        }
        sar_cells().add((row_end - row_begin) * nx);
      },
      threads);
  return map;
}

SarAccumulator::SarAccumulator(const GridSpec& grid, double freq_hz,
                               double z_plane, SarKernel kernel,
                               unsigned threads)
    : grid_(grid),
      freq_hz_(freq_hz),
      z_plane_(z_plane),
      kernel_(kernel),
      threads_(threads) {
  const std::size_t nx = grid_.nx();
  const std::size_t ny = grid_.ny();
  xs_.resize(nx);
  ys_.resize(ny);
  for (std::size_t ix = 0; ix < nx; ++ix) xs_[ix] = grid_.x_at(ix);
  for (std::size_t iy = 0; iy < ny; ++iy) ys_[iy] = grid_.y_at(iy);
  re_.assign(nx * ny, 0.0);
  im_.assign(nx * ny, 0.0);
}

void SarAccumulator::add_measurements(const DisentangledSet& set) {
  if (set.channels.empty()) return;
  const SarGeometry geo = SarGeometry::from(set, freq_hz_);
  const std::size_t L = geo.size();
  const std::size_t nx = xs_.size();
  const std::size_t ny = ys_.size();
  const unsigned threads = clamp_thread_count(threads_);
  const bool fast = kernel_ == SarKernel::kFast;
  // Same row sharding as sar_heatmap: each cell's fold runs whole, in a
  // fixed order, into its own slot, so the planes are bit-identical at
  // every thread count.
  const std::size_t grain = std::max<std::size_t>(1, ny / 64);
  parallel_for(
      0, ny, grain,
      [&](std::size_t row_begin, std::size_t row_end) {
        if (fast) {
          std::vector<double> scratch(L);
          SarKernelArgs args;
          args.k = geo.k;
          args.px = geo.px.data();
          args.py = geo.py.data();
          args.pz = geo.pz.data();
          args.hre = geo.hre.data();
          args.him = geo.him.data();
          args.count = L;
          args.xs = xs_.data();
          args.nx = nx;
          args.ys = ys_.data();
          args.z = z_plane_;
          args.scratch = scratch.data();
          args.acc_re = re_.data();
          args.acc_im = im_.data();
          sar_kernel_active().accumulate(args, row_begin, row_end);
        } else {
          // The batch exact loop's arithmetic, term for term: the batch
          // folds in registers and updates each cell's plane once,
          // acc += block, so any grouping of adds replays the batch loop's
          // rounding sequence.
          for (std::size_t iy = row_begin; iy < row_end; ++iy) {
            const double y = ys_[iy];
            double* acc_re = re_.data() + iy * nx;
            double* acc_im = im_.data() + iy * nx;
            for (std::size_t ix = 0; ix < nx; ++ix) {
              const double x = xs_[ix];
              double re = 0.0, im = 0.0;
              for (std::size_t l = 0; l < L; ++l) {
                const double dx = x - geo.px[l];
                const double dy = y - geo.py[l];
                const double dz = z_plane_ - geo.pz[l];
                const double d = std::sqrt(dx * dx + dy * dy + dz * dz);
                const double c = std::cos(geo.k * d);
                const double s = std::sin(geo.k * d);
                re += geo.hre[l] * c - geo.him[l] * s;
                im += geo.hre[l] * s + geo.him[l] * c;
              }
              acc_re[ix] += re;
              acc_im[ix] += im;
            }
          }
        }
        sar_cells().add((row_end - row_begin) * nx);
      },
      threads);
  sar_accumulator_samples().add(L);
  count_ += L;
}

void SarAccumulator::add_measurement(const channel::Vec3& position,
                                     cdouble channel) {
  DisentangledSet one;
  one.positions.push_back(position);
  one.channels.push_back(channel);
  add_measurements(one);
}

Heatmap SarAccumulator::finalize() const {
  Heatmap map;
  map.grid = grid_;
  const std::size_t nx = xs_.size();
  const std::size_t ny = ys_.size();
  map.values.assign(nx * ny, 0.0);
  if (kernel_ == SarKernel::kFast) {
    SarKernelArgs args;
    args.nx = nx;
    args.values = map.values.data();
    args.acc_re = const_cast<double*>(re_.data());
    args.acc_im = const_cast<double*>(im_.data());
    sar_kernel_active().magnitudes(args, 0, ny);
  } else {
    // Same expression as the batch exact loop's store, on the same bits.
    for (std::size_t i = 0; i < map.values.size(); ++i) {
      map.values[i] = std::abs(cdouble{re_[i], im_[i]});
    }
  }
  return map;
}

LiveEstimate SarAccumulator::estimate(std::size_t expected_measurements) const {
  LiveEstimate est;
  est.measurements = count_;
  const std::size_t nx = xs_.size();
  const std::size_t cells = re_.size();
  if (cells == 0) return est;
  // First strict maximum in row-major (y then x) order — the batch
  // localizer's tie rule — plus the running sum for the contrast figure.
  double peak = -1.0;
  std::size_t best = 0;
  double sum = 0.0;
  for (std::size_t i = 0; i < cells; ++i) {
    const double v = std::abs(cdouble{re_[i], im_[i]});
    sum += v;
    if (v > peak) {
      peak = v;
      best = i;
    }
  }
  est.x = xs_[best % nx];
  est.y = ys_[best / nx];
  est.peak_value = peak;
  if (peak > 0.0) {
    const double mean = sum / static_cast<double>(cells);
    est.confidence = std::max(0.0, 1.0 - mean / peak);
  }
  if (expected_measurements > 0) {
    est.coverage = std::min(
        1.0, static_cast<double>(count_) /
                 static_cast<double>(expected_measurements));
  } else {
    est.coverage = count_ > 0 ? 1.0 : 0.0;
  }
  sar_live_estimates().inc();
  return est;
}

}  // namespace rfly::localize
