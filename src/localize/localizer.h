// Top-level through-relay localizer: disentangle -> SAR heatmap (coarse to
// fine) -> peak candidates -> trajectory-nearest selection. This is the
// pipeline behind Figs. 6, 12, 13, 14.
#pragma once

#include <optional>

#include "common/status.h"
#include "localize/measurement.h"
#include "localize/peak.h"
#include "localize/rssi.h"
#include "localize/sar.h"

namespace rfly::localize {

struct LocalizerConfig {
  GridSpec grid{};
  double freq_hz = 915e6;
  PeakSelection selection = PeakSelection::kNearestToTrajectory;
  double peak_threshold_fraction = 0.5;
  /// Coarse-to-fine search: scan at `coarse_resolution_m`, then refine the
  /// strongest candidates at grid.resolution_m. Set false for a single
  /// full-resolution sweep (Fig. 6 heatmaps).
  bool multires = true;
  double coarse_resolution_m = 0.05;
  int refine_candidates = 5;
  /// Z plane the tags sit on (paper: tags on the ground, 2D localization).
  double z_plane_m = 0.0;
  /// SAR worker threads: 0 = hardware concurrency via the shared pool,
  /// 1 = the exact legacy serial path, n = at most n threads. Results are
  /// identical at every setting (see DESIGN.md "Parallel SAR engine").
  unsigned threads = 0;
  /// SAR evaluation kernel (see sar_kernel.h). kExact keeps every output
  /// bit-identical to the seed and is the default; kFast runs the SIMD
  /// kernel (same argmax cell, refined peaks within a fraction of the
  /// resolution — see DESIGN.md "SIMD SAR kernel layer").
  SarKernel kernel = SarKernel::kExact;
  /// Search strategy (see sar_kernel.h), orthogonal to `kernel`. kExact is
  /// the legacy sweep; kIncremental builds the same heatmap through
  /// SarAccumulator (bit-identical result with the exact kernel; this is
  /// the mode that streams live estimates in the mission pipeline);
  /// kCoarseToFine scans the fine lattice every `coarse_resolution_m`,
  /// keeps the top `refine_candidates` peaks, and refines each one's
  /// neighborhood at full resolution — every refined candidate is a true
  /// lattice point, so a covered argmax is the brute-force answer
  /// (property-tested in tests/test_coarse2fine.cpp). With kCoarseToFine
  /// the `multires` knob is ignored: the mode subsumes it.
  SarSearch search = SarSearch::kExact;
};

struct LocalizationResult {
  double x = 0.0;
  double y = 0.0;
  double peak_value = 0.0;
  std::vector<Peak> candidates;  // considered peaks, strongest first
  std::size_t measurements_used = 0;
};

/// Localize one tag from its measurement set. Fails with kDegenerateGrid
/// when the search window has no cells, kNoReference when disentanglement
/// drops every measurement (no usable embedded-tag channel to divide by),
/// and kNoPeaks when the heatmap has no candidate above the threshold
/// fraction.
Expected<LocalizationResult> localize_2d_checked(const MeasurementSet& measurements,
                                                 const LocalizerConfig& config);

/// Stage-level entry: localize an already-disentangled half-link set (the
/// mission pipeline times disentanglement and SAR search as separate
/// stages). Same error vocabulary as localize_2d_checked minus the
/// disentanglement step. It is localize_2d_sweep followed by
/// localize_2d_finish; the batch runner calls the two halves itself so that
/// it can finish several tags at once (sim/batch.h).
Expected<LocalizationResult> localize_2d_from(const DisentangledSet& set,
                                              const LocalizerConfig& config);

/// First half of localize_2d_from: check the set (kNoReference when it is
/// empty) and the grid (kDegenerateGrid), then sweep localize_scan_grid()
/// with the configured search (exact, incremental, or the coarse sweep of
/// coarse-to-fine) and kernel, on up to `config.threads` threads.
Expected<Heatmap> localize_2d_sweep(const DisentangledSet& set,
                                    const LocalizerConfig& config);

/// Second half of localize_2d_from: peak extraction, refinement and
/// selection (kNoPeaks when no candidate reaches the threshold) over the
/// map localize_2d_sweep built from the same set and config. Refinement runs
/// on up to `config.threads` threads, serially when called from inside a
/// parallel_for. Opens the `localize.2d` span; the sweep's own time is in
/// `sar.heatmap`.
Expected<LocalizationResult> localize_2d_finish(const DisentangledSet& set,
                                                const LocalizerConfig& config,
                                                const Heatmap& map);

/// The grid the main heatmap sweep actually runs on for this config: the
/// stride-widened coarse grid under kCoarseToFine, the coarse-resolution
/// window when `multires` is set, the configured grid otherwise. Scenario
/// validation budgets its cells.
GridSpec localize_scan_grid(const LocalizerConfig& config);

/// Fine cells the refinement after the scan may evaluate for one tag under
/// this config, all candidates together: an upper bound, in double so that
/// a hostile grid cannot overflow it. Scenario validation budgets it.
double localize_refine_cells(const LocalizerConfig& config);

/// Validate a search grid: positive resolution and non-empty extent on both
/// axes. Returns kDegenerateGrid with the offending numbers otherwise.
Status validate_grid(const GridSpec& grid);

/// 3D extension (Section 5.2): grid search over a volume; meaningful when
/// the trajectory itself spans two dimensions.
struct Volume {
  double x_min = 0.0, x_max = 1.0;
  double y_min = 0.0, y_max = 1.0;
  double z_min = 0.0, z_max = 1.0;
  double resolution_m = 0.05;
};

struct Localization3dResult {
  channel::Vec3 position;
  double peak_value = 0.0;
};

/// 3D search configuration.
struct Localize3dConfig {
  double freq_hz = 915e6;
  /// `threads` and `kernel` as in LocalizerConfig: the volume is sharded by
  /// z-slice; each slice keeps its own argmax and the slices reduce in
  /// fixed z order, so the result matches the serial scan at any thread
  /// count.
  unsigned threads = 0;
  SarKernel kernel = SarKernel::kExact;
  /// kExact: brute-force volume scan. kIncremental: the same sums grown
  /// per z-slice through SarAccumulator (row-blocked evaluation — with the
  /// fast kernel this alone beats the per-point brute scan). kCoarseToFine:
  /// sample the volume lattice every `coarse_stride` cells per axis, keep
  /// the `refine_top_k` strongest samples, refine each one's +/-stride
  /// neighborhood at full resolution; ties resolve to the lexicographically
  /// smallest (z, y, x) index — the brute-force scan's rule — so a covered
  /// argmax reproduces the brute answer exactly.
  SarSearch search = SarSearch::kExact;
  /// Coarse lattice stride in fine cells per axis (clamped to >= 2). The
  /// default keeps the coarse spacing at 2 cells = 0.1 m on the usual
  /// 0.05 m volumes — about half the ~λ/4 SAR main-lobe width at 915 MHz,
  /// so the coarse sweep cannot straddle the lobe. Wider strides prune
  /// harder but may rank sidelobes above an unsampled main lobe.
  int coarse_stride = 2;
  int refine_top_k = 16;
};

std::optional<Localization3dResult> localize_3d(const MeasurementSet& measurements,
                                                const Volume& volume,
                                                const Localize3dConfig& config);

}  // namespace rfly::localize
