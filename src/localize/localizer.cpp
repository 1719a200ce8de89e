#include "localize/localizer.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rfly::localize {

namespace {

/// Fine-lattice cells evaluated per coarse-to-fine refinement pass — the
/// refine-depth distribution. Counts layout: window sizes are small
/// integers times the candidate count.
obs::Histogram& c2f_refined_cells() {
  static obs::Histogram& h =
      obs::histogram("sar.c2f.refined_cells", obs::HistogramSpec::counts());
  return h;
}

/// Refine a peak by evaluating the projection on a fine grid patch around
/// it. Works on the prebuilt geometry so the SoA conversion is hoisted out
/// of the patch loop (and shared by every candidate).
Peak refine_peak(const SarGeometry& geo, const Peak& coarse, double fine_res,
                 double patch_half_width, double z_plane, SarKernel kernel) {
  Peak best = coarse;
  for (double y = coarse.y - patch_half_width; y <= coarse.y + patch_half_width;
       y += fine_res) {
    for (double x = coarse.x - patch_half_width; x <= coarse.x + patch_half_width;
         x += fine_res) {
      const double v = sar_projection(geo, {x, y, z_plane}, kernel);
      if (v > best.value) {
        best.value = v;
        best.x = x;
        best.y = y;
      }
    }
  }
  return best;
}

/// Coarse-to-fine refinement on the *fine lattice*: map a coarse sample
/// back to fine indices and scan its +/-(stride+1) neighborhood of true
/// grid points, first-strict-max in y-then-x order. The refined candidate
/// is a brute-force lattice point, so whenever some window covers the
/// global argmax cell the coarse-to-fine answer IS the brute-force answer.
Peak refine_lattice_peak(const SarGeometry& geo, const GridSpec& fine,
                         const Peak& coarse, std::size_t stride, double z_plane,
                         SarKernel kernel, std::size_t* cells_scanned) {
  const long nx = static_cast<long>(fine.nx());
  const long ny = static_cast<long>(fine.ny());
  const long jx0 = std::lround((coarse.x - fine.x_min) / fine.resolution_m);
  const long jy0 = std::lround((coarse.y - fine.y_min) / fine.resolution_m);
  const long w = static_cast<long>(stride) + 1;
  const long x_lo = std::max(0L, jx0 - w);
  const long x_hi = std::min(nx - 1, jx0 + w);
  const long y_lo = std::max(0L, jy0 - w);
  const long y_hi = std::min(ny - 1, jy0 + w);
  Peak best;
  best.value = -1.0;
  for (long jy = y_lo; jy <= y_hi; ++jy) {
    const double y = fine.y_at(static_cast<std::size_t>(jy));
    for (long jx = x_lo; jx <= x_hi; ++jx) {
      const double x = fine.x_at(static_cast<std::size_t>(jx));
      const double v = sar_projection(geo, {x, y, z_plane}, kernel);
      if (v > best.value) {
        best.value = v;
        best.x = x;
        best.y = y;
      }
    }
  }
  *cells_scanned = static_cast<std::size_t>((x_hi - x_lo + 1) * (y_hi - y_lo + 1));
  return best;
}

/// Coarse sampling step in fine cells for a configured coarse resolution,
/// never below 2 (stride 1 would be the full sweep).
std::size_t coarse_stride_cells(double coarse_resolution_m, double fine_res) {
  const long stride = std::lround(coarse_resolution_m / fine_res);
  return stride < 2 ? 2 : static_cast<std::size_t>(stride);
}

/// Coarse-to-fine finish over a precomputed coarse heatmap (`cmap` spans
/// the stride-widened grid localize_scan_grid() reports for this config).
Expected<LocalizationResult> localize_2d_coarse2fine(const DisentangledSet& set,
                                                     const LocalizerConfig& config,
                                                     const Heatmap& cmap,
                                                     unsigned threads) {
  const GridSpec& fine = config.grid;
  const std::size_t stride =
      coarse_stride_cells(config.coarse_resolution_m, fine.resolution_m);
  std::vector<Peak> peaks = find_peaks(cmap, config.peak_threshold_fraction);
  if (peaks.empty()) {
    return Status{StatusCode::kNoPeaks,
                  "no coarse heatmap peak reached " +
                      std::to_string(config.peak_threshold_fraction) +
                      " of the maximum"};
  }
  const int n = std::min<int>(std::max(config.refine_candidates, 1),
                              static_cast<int>(peaks.size()));
  peaks.resize(static_cast<std::size_t>(n));
  const SarGeometry geo = SarGeometry::from(set, config.freq_hz);
  std::vector<std::size_t> cells(peaks.size(), 0);
  parallel_for(
      0, peaks.size(), 1,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          peaks[i] = refine_lattice_peak(geo, fine, peaks[i], stride,
                                         config.z_plane_m, config.kernel,
                                         &cells[i]);
        }
      },
      threads);
  c2f_refined_cells().observe(static_cast<double>(
      std::accumulate(cells.begin(), cells.end(), std::size_t{0})));
  std::sort(peaks.begin(), peaks.end(),
            [](const Peak& a, const Peak& b) { return a.value > b.value; });
  annotate_distances(peaks, set.positions);
  const Peak chosen = select_peak(peaks, config.selection, set.positions);

  LocalizationResult result;
  result.x = chosen.x;
  result.y = chosen.y;
  result.peak_value = chosen.value;
  result.candidates = std::move(peaks);
  result.measurements_used = set.channels.size();
  return result;
}

/// Post-processing for the exact/incremental searches: peak finding,
/// optional multires refinement, selection. `map` spans the scan grid
/// (coarse resolution when `multires`), however the search built it.
Expected<LocalizationResult> finish_from_map(const DisentangledSet& set,
                                             const LocalizerConfig& config,
                                             const Heatmap& map,
                                             unsigned threads) {
  std::vector<Peak> peaks = find_peaks(map, config.peak_threshold_fraction);
  if (peaks.empty()) {
    return Status{StatusCode::kNoPeaks,
                  "no heatmap peak reached " +
                      std::to_string(config.peak_threshold_fraction) +
                      " of the maximum"};
  }

  if (config.multires) {
    const int n = std::min<int>(std::max(config.refine_candidates, 1),
                                static_cast<int>(peaks.size()));
    peaks.resize(static_cast<std::size_t>(n));
    // Each candidate refines independently into its own slot; identical at
    // any thread count.
    const SarGeometry geo = SarGeometry::from(set, config.freq_hz);
    parallel_for(
        0, peaks.size(), 1,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            peaks[i] = refine_peak(geo, peaks[i], config.grid.resolution_m,
                                   config.coarse_resolution_m * 1.5,
                                   config.z_plane_m, config.kernel);
          }
        },
        threads);
    std::sort(peaks.begin(), peaks.end(),
              [](const Peak& a, const Peak& b) { return a.value > b.value; });
  }

  annotate_distances(peaks, set.positions);
  const Peak chosen = select_peak(peaks, config.selection, set.positions);

  LocalizationResult result;
  result.x = chosen.x;
  result.y = chosen.y;
  result.peak_value = chosen.value;
  result.candidates = std::move(peaks);
  result.measurements_used = set.channels.size();
  return result;
}

}  // namespace

GridSpec localize_scan_grid(const LocalizerConfig& config) {
  if (config.search == SarSearch::kCoarseToFine) {
    // The coarse sweep reuses the batch heatmap on a stride-widened grid:
    // same origin, resolution stride * res, so sample i sits (up to one
    // rounding of the product) on fine cell i * stride — close enough to
    // recover the fine index with lround in the refinement.
    const std::size_t stride = coarse_stride_cells(config.coarse_resolution_m,
                                                   config.grid.resolution_m);
    GridSpec coarse = config.grid;
    coarse.resolution_m = config.grid.resolution_m * static_cast<double>(stride);
    return coarse;
  }
  GridSpec scan_grid = config.grid;
  if (config.multires) scan_grid.resolution_m = config.coarse_resolution_m;
  return scan_grid;
}

double localize_refine_cells(const LocalizerConfig& config) {
  const double res = config.grid.resolution_m;
  const double candidates = std::max(config.refine_candidates, 1);
  if (config.search == SarSearch::kCoarseToFine) {
    // refine_lattice_peak: +/-(stride + 1) fine cells around each candidate,
    // stride as coarse_stride_cells computes it.
    const double stride = std::max(2.0, std::round(config.coarse_resolution_m / res));
    const double side = 2.0 * (stride + 1.0) + 1.0;
    return candidates * side * side;
  }
  if (!config.multires) return 0.0;
  // refine_peak: a +/-1.5 coarse-cell patch stepped at the fine resolution.
  const double side = std::floor(3.0 * config.coarse_resolution_m / res) + 1.0;
  return candidates * side * side;
}

Status validate_grid(const GridSpec& grid) {
  if (!(grid.resolution_m > 0.0)) {
    return {StatusCode::kDegenerateGrid,
            "grid resolution must be positive, got " +
                std::to_string(grid.resolution_m)};
  }
  if (grid.x_max < grid.x_min) {
    return {StatusCode::kDegenerateGrid,
            "grid x range is empty: x_min=" + std::to_string(grid.x_min) +
                " > x_max=" + std::to_string(grid.x_max)};
  }
  if (grid.y_max < grid.y_min) {
    return {StatusCode::kDegenerateGrid,
            "grid y range is empty: y_min=" + std::to_string(grid.y_min) +
                " > y_max=" + std::to_string(grid.y_max)};
  }
  return Status::ok();
}

Expected<LocalizationResult> localize_2d_checked(const MeasurementSet& measurements,
                                                 const LocalizerConfig& config) {
  const DisentangledSet set = disentangle(measurements);
  return localize_2d_from(set, config)
      .with_context("localize_2d over " + std::to_string(measurements.size()) +
                    " measurements");
}

Expected<LocalizationResult> localize_2d_from(const DisentangledSet& set,
                                              const LocalizerConfig& config) {
  Expected<Heatmap> map = localize_2d_sweep(set, config);
  if (!map) return map.status();
  return localize_2d_finish(set, config, *map);
}

Expected<Heatmap> localize_2d_sweep(const DisentangledSet& set,
                                    const LocalizerConfig& config) {
  if (set.channels.empty()) {
    return Status{StatusCode::kNoReference,
                  "disentanglement left no measurements (embedded-tag "
                  "reference too weak on every sample)"};
  }
  if (Status grid_status = validate_grid(config.grid); !grid_status.is_ok()) {
    return grid_status;
  }
  const GridSpec scan_grid = localize_scan_grid(config);
  if (config.search == SarSearch::kIncremental) {
    // Same sums through the accumulator: bit-identical to the batch sweep
    // with the exact kernel (see SarAccumulator's equivalence contract),
    // so everything downstream — peaks, refinement, selection — matches
    // the exact search unchanged.
    SarAccumulator acc(scan_grid, config.freq_hz, config.z_plane_m,
                       config.kernel, config.threads);
    acc.add_measurements(set);
    return acc.finalize();
  }
  // The exact search, and the coarse sweep of coarse-to-fine.
  return sar_heatmap(set, scan_grid, config.freq_hz, config.z_plane_m,
                     config.threads, config.kernel);
}

Expected<LocalizationResult> localize_2d_finish(const DisentangledSet& set,
                                                const LocalizerConfig& config,
                                                const Heatmap& map) {
  obs::Span span("localize.2d");
  // A request beyond the hardware is scheduling noise anyway (chunking is
  // thread-count independent).
  const unsigned threads = clamp_thread_count(config.threads);
  if (config.search == SarSearch::kCoarseToFine) {
    return localize_2d_coarse2fine(set, config, map, threads);
  }
  return finish_from_map(set, config, map, threads);
}

namespace {

/// Brute-force volume scan — the 3D exact search, bit-identical to the
/// seed. Z-slice shards: every slice records its own argmax (scanning y
/// then x, first-strict-maximum, exactly like the serial sweep), then the
/// slices reduce in ascending z so ties keep the lowest z.
Localization3dResult scan_volume_exact(const SarGeometry& geo, const Volume& volume,
                                       std::size_t nx, std::size_t ny,
                                       std::size_t nz, SarKernel kernel,
                                       unsigned threads) {
  const double res = volume.resolution_m;
  std::vector<Localization3dResult> slice_best(nz);
  parallel_for(
      0, nz, 1,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t iz = begin; iz < end; ++iz) {
          const double z = volume.z_min + static_cast<double>(iz) * res;
          Localization3dResult best;
          best.peak_value = -1.0;
          for (std::size_t iy = 0; iy < ny; ++iy) {
            const double y = volume.y_min + static_cast<double>(iy) * res;
            for (std::size_t ix = 0; ix < nx; ++ix) {
              const double x = volume.x_min + static_cast<double>(ix) * res;
              const double v = sar_projection(geo, {x, y, z}, kernel);
              if (v > best.peak_value) {
                best.peak_value = v;
                best.position = {x, y, z};
              }
            }
          }
          slice_best[iz] = best;
        }
      },
      threads);

  Localization3dResult best;
  best.peak_value = -1.0;
  for (const auto& s : slice_best) {
    if (s.peak_value > best.peak_value) best = s;
  }
  return best;
}

/// Incremental volume scan: each z-slice is a 2D accumulator fed the whole
/// set, finalized, and reduced by the same first-strict-max rules as the
/// exact scan. With the exact kernel the heatmap arithmetic matches the
/// per-point projection term for term, so the result is bit-identical to
/// the brute scan; with the fast kernel the row-blocked evaluation is the
/// point: it replaces nx*ny independent projections per slice with the
/// lane-parallel rows kernel.
Localization3dResult scan_volume_incremental(const DisentangledSet& set,
                                             const Volume& volume, double freq_hz,
                                             std::size_t nx, std::size_t ny,
                                             std::size_t nz, SarKernel kernel,
                                             unsigned threads) {
  const double res = volume.resolution_m;
  GridSpec slice_grid{volume.x_min, volume.x_max, volume.y_min, volume.y_max,
                      res};
  std::vector<Localization3dResult> slice_best(nz);
  parallel_for(
      0, nz, 1,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t iz = begin; iz < end; ++iz) {
          const double z = volume.z_min + static_cast<double>(iz) * res;
          SarAccumulator acc(slice_grid, freq_hz, z, kernel, /*threads=*/1);
          acc.add_measurements(set);
          const Heatmap map = acc.finalize();
          Localization3dResult best;
          best.peak_value = -1.0;
          for (std::size_t iy = 0; iy < ny; ++iy) {
            for (std::size_t ix = 0; ix < nx; ++ix) {
              const double v = map.values[iy * nx + ix];
              if (v > best.peak_value) {
                best.peak_value = v;
                best.position = {slice_grid.x_at(ix), slice_grid.y_at(iy), z};
              }
            }
          }
          slice_best[iz] = best;
        }
      },
      threads);

  Localization3dResult best;
  best.peak_value = -1.0;
  for (const auto& s : slice_best) {
    if (s.peak_value > best.peak_value) best = s;
  }
  return best;
}

/// Axis sample indices for the coarse sweep: every `stride` cells, plus
/// the final cell so the volume edges are always sampled.
std::vector<std::size_t> coarse_axis_samples(std::size_t n, std::size_t stride) {
  std::vector<std::size_t> samples;
  for (std::size_t i = 0; i < n; i += stride) samples.push_back(i);
  if (samples.empty() || samples.back() != n - 1) samples.push_back(n - 1);
  return samples;
}

struct CoarseSample {
  double value = -1.0;
  std::size_t ix = 0, iy = 0, iz = 0;
};

/// Lexicographic (z, y, x) order — the brute scan's tie rule.
bool earlier_index(const CoarseSample& a, const CoarseSample& b) {
  if (a.iz != b.iz) return a.iz < b.iz;
  if (a.iy != b.iy) return a.iy < b.iy;
  return a.ix < b.ix;
}

Localization3dResult scan_volume_coarse2fine(const SarGeometry& geo,
                                             const Volume& volume, std::size_t nx,
                                             std::size_t ny, std::size_t nz,
                                             const Localize3dConfig& config,
                                             unsigned threads) {
  const double res = volume.resolution_m;
  const std::size_t stride =
      config.coarse_stride < 2 ? 2 : static_cast<std::size_t>(config.coarse_stride);
  const auto sx = coarse_axis_samples(nx, stride);
  const auto sy = coarse_axis_samples(ny, stride);
  const auto sz = coarse_axis_samples(nz, stride);
  const auto x_of = [&](std::size_t ix) {
    return volume.x_min + static_cast<double>(ix) * res;
  };
  const auto y_of = [&](std::size_t iy) {
    return volume.y_min + static_cast<double>(iy) * res;
  };
  const auto z_of = [&](std::size_t iz) {
    return volume.z_min + static_cast<double>(iz) * res;
  };

  // Coarse sweep over the sampled lattice, sharded by coarse z-plane.
  std::vector<CoarseSample> samples(sx.size() * sy.size() * sz.size());
  parallel_for(
      0, sz.size(), 1,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t kz = begin; kz < end; ++kz) {
          const std::size_t iz = sz[kz];
          const double z = z_of(iz);
          CoarseSample* plane = samples.data() + kz * sy.size() * sx.size();
          for (std::size_t ky = 0; ky < sy.size(); ++ky) {
            const std::size_t iy = sy[ky];
            const double y = y_of(iy);
            for (std::size_t kx = 0; kx < sx.size(); ++kx) {
              const std::size_t ix = sx[kx];
              CoarseSample& s = plane[ky * sx.size() + kx];
              s.ix = ix;
              s.iy = iy;
              s.iz = iz;
              s.value = sar_projection(geo, {x_of(ix), y, z}, config.kernel);
            }
          }
        }
      },
      threads);

  // Top-K coarse samples, strongest first, ties to the earlier index so
  // the candidate list is deterministic.
  const std::size_t top_k = std::min(
      samples.size(),
      static_cast<std::size_t>(config.refine_top_k < 1 ? 1 : config.refine_top_k));
  std::partial_sort(samples.begin(),
                    samples.begin() + static_cast<std::ptrdiff_t>(top_k),
                    samples.end(), [](const CoarseSample& a, const CoarseSample& b) {
                      if (a.value != b.value) return a.value > b.value;
                      return earlier_index(a, b);
                    });

  // Refine each candidate's +/-stride neighborhood on the fine lattice.
  // Every refined point is a brute-force lattice point evaluated with the
  // same projection, and ties resolve to the lexicographically smallest
  // (z, y, x) — so when some window covers the global argmax, the result
  // equals the brute scan's exactly.
  std::vector<CoarseSample> refined(top_k);
  std::vector<std::size_t> cells(top_k, 0);
  parallel_for(
      0, top_k, 1,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t c = begin; c < end; ++c) {
          const CoarseSample& seed_sample = samples[c];
          const auto lo = [&](std::size_t i) {
            return i > stride ? i - stride : 0;
          };
          const auto hi = [&](std::size_t i, std::size_t n) {
            return std::min(n - 1, i + stride);
          };
          const std::size_t x_lo = lo(seed_sample.ix), x_hi = hi(seed_sample.ix, nx);
          const std::size_t y_lo = lo(seed_sample.iy), y_hi = hi(seed_sample.iy, ny);
          const std::size_t z_lo = lo(seed_sample.iz), z_hi = hi(seed_sample.iz, nz);
          CoarseSample best;
          for (std::size_t iz = z_lo; iz <= z_hi; ++iz) {
            const double z = z_of(iz);
            for (std::size_t iy = y_lo; iy <= y_hi; ++iy) {
              const double y = y_of(iy);
              for (std::size_t ix = x_lo; ix <= x_hi; ++ix) {
                const double v =
                    sar_projection(geo, {x_of(ix), y, z}, config.kernel);
                if (v > best.value) {
                  best.value = v;
                  best.ix = ix;
                  best.iy = iy;
                  best.iz = iz;
                }
              }
            }
          }
          refined[c] = best;
          cells[c] = (x_hi - x_lo + 1) * (y_hi - y_lo + 1) * (z_hi - z_lo + 1);
        }
      },
      threads);
  c2f_refined_cells().observe(static_cast<double>(
      std::accumulate(cells.begin(), cells.end(), std::size_t{0})));

  // Fixed-order reduction with the brute tie rule: overlapping windows may
  // find the same maximum; keep the earliest (z, y, x) instance.
  CoarseSample best;
  for (const auto& r : refined) {
    if (r.value > best.value ||
        (r.value == best.value && best.value >= 0.0 && earlier_index(r, best))) {
      best = r;
    }
  }
  Localization3dResult result;
  result.peak_value = best.value;
  result.position = {x_of(best.ix), y_of(best.iy), z_of(best.iz)};
  return result;
}

}  // namespace

std::optional<Localization3dResult> localize_3d(const MeasurementSet& measurements,
                                                const Volume& volume,
                                                const Localize3dConfig& config) {
  obs::Span span("localize.3d");
  const unsigned threads = clamp_thread_count(config.threads);
  const DisentangledSet set = disentangle(measurements);
  if (set.channels.empty()) return std::nullopt;
  const SarGeometry geo = SarGeometry::from(set, config.freq_hz);

  const double res = volume.resolution_m;
  const auto steps = [res](double lo, double hi) {
    return grid_axis_cells(lo, hi, res);
  };
  const std::size_t nz = steps(volume.z_min, volume.z_max);
  const std::size_t ny = steps(volume.y_min, volume.y_max);
  const std::size_t nx = steps(volume.x_min, volume.x_max);

  Localization3dResult best;
  switch (config.search) {
    case SarSearch::kIncremental:
      best = scan_volume_incremental(set, volume, config.freq_hz, nx, ny, nz,
                                     config.kernel, threads);
      break;
    case SarSearch::kCoarseToFine:
      best = scan_volume_coarse2fine(geo, volume, nx, ny, nz, config, threads);
      break;
    case SarSearch::kExact:
      best = scan_volume_exact(geo, volume, nx, ny, nz, config.kernel, threads);
      break;
  }
  if (best.peak_value < 0.0) return std::nullopt;
  return best;
}

}  // namespace rfly::localize
