// Shared experiment runners: parameterized single trials of the paper's
// evaluation, used by both the bench binaries (Figs. 9-14) and the
// integration tests. Each runner is deterministic given its seed.
#pragma once

#include <optional>

#include "common/status.h"
#include "core/system.h"
#include "localize/localizer.h"

namespace rfly::core {

/// Default system/environment as in the paper's testbed: a 30 x 40 m
/// research building floor (Section 7.2).
SystemConfig default_system_config();
channel::Environment building_environment();

// ---------------------------------------------------------------------------
// Localization trial (Figs. 6, 12, 13, 14).

struct LocalizationTrialConfig {
  SystemConfig system = default_system_config();
  /// Number of shelf rows in the warehouse model (multipath richness).
  int shelf_rows = 2;
  Vec3 reader_position{0.5, 0.5, 1.0};
  Vec3 tag_position{15.0, 8.0, 0.0};
  /// Aperture: straight flight centered over the tag's x, offset in y.
  double aperture_m = 2.0;
  double flight_offset_y_m = 2.0;
  double flight_altitude_m = 1.0;
  std::size_t n_measurement_points = 40;
  drone::FlightConfig flight{};
  drone::TrackingConfig tracking = drone::optitrack_tracking();
  /// Localization search window half-width around the (unknown) tag; the
  /// grid is centered on the flight path like the paper's Fig. 6 plots.
  double search_halfwidth_m = 3.0;
  localize::PeakSelection selection = localize::PeakSelection::kNearestToTrajectory;
  double grid_resolution_m = 0.01;
  /// 1-sigma systematic error of the RSSI baseline's free-space calibration
  /// reference, drawn once per trial. A real deployment cannot measure the
  /// composite (tag backscatter x antenna gains x relay chain) reference
  /// exactly; SAR needs no such calibration, which is part of why it wins.
  double rssi_calibration_error_db = 3.0;
  /// Ablation: run the SAR matched filter at the reader frequency f instead
  /// of the relay-tag half-link frequency f2 (Section 5.2 argues f is an
  /// acceptable stand-in while (f2 - f)/f < 0.01).
  bool localize_at_reader_freq = false;
  /// SAR evaluation kernel (benches pass --kernel; kExact keeps the trial
  /// bit-identical to the seed, kFast runs the SIMD kernel).
  localize::SarKernel sar_kernel = localize::SarKernel::kExact;
  /// SAR search strategy (benches pass --search; kExact keeps the legacy
  /// sweep, kIncremental streams the same sums, kCoarseToFine prunes).
  localize::SarSearch sar_search = localize::SarSearch::kExact;
};

struct LocalizationTrialResult {
  double sar_error_m = 0.0;
  double rssi_error_m = 0.0;
  std::size_t measurements = 0;
  localize::LocalizationResult sar;
};

/// Run one trial: fly the aperture, collect, localize with SAR and the
/// RSSI baseline. Fails with kEmptyFlightPlan or kInsufficientData from
/// collection, kInsufficientData when fewer than 3 measurements survive
/// it, and the localizer's own codes (kNoReference, kDegenerateGrid,
/// kNoPeaks) when SAR fails.
Expected<LocalizationTrialResult> try_run_localization_trial(
    const LocalizationTrialConfig& config, std::uint64_t seed);

// ---------------------------------------------------------------------------
// Read-rate point (Fig. 11).

struct ReadRateConfig {
  SystemConfig system = default_system_config();
  /// Reader at origin; tag placed `distance` away along x. With a relay,
  /// the relay hovers `relay_tag_distance` short of the tag.
  double relay_tag_distance_m = 2.0;
  int trials = 50;
  /// Non-line-of-sight: a concrete wall between reader and relay/tag.
  bool through_wall = false;
};

struct ReadRatePoint {
  double distance_m = 0.0;
  double read_rate_no_relay = 0.0;
  double read_rate_with_relay = 0.0;
};

/// Read rates with and without the relay at one reader-tag distance.
/// kInvalidArgument when trials <= 0 or the distance is not positive.
Expected<ReadRatePoint> try_run_read_rate_point(const ReadRateConfig& config,
                                                double distance_m,
                                                std::uint64_t seed);

}  // namespace rfly::core
