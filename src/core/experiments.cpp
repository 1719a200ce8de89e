#include "core/experiments.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/units.h"
#include "drone/flight.h"
#include "localize/rssi.h"

namespace rfly::core {

SystemConfig default_system_config() { return SystemConfig{}; }

channel::Environment building_environment() {
  // 30 x 40 m floor, concrete outer walls, no shelves by default.
  return channel::warehouse_environment(40.0, 30.0, 0);
}

Expected<LocalizationTrialResult> try_run_localization_trial(
    const LocalizationTrialConfig& config, std::uint64_t seed) {
  const auto fail = [seed](Status status) {
    return std::move(status).with_context("localization trial seed " +
                                          std::to_string(seed));
  };
  Rng rng(seed);

  channel::Environment env =
      channel::warehouse_environment(40.0, 30.0, config.shelf_rows);
  RflySystem system(config.system, env, config.reader_position);

  // Flight: straight-ish aperture offset from the tag in y. The slight
  // lateral drift a real flight has breaks the exact mirror ambiguity a
  // perfectly straight 1D aperture would leave.
  const Vec3 tag = config.tag_position;
  const Vec3 start{tag.x - config.aperture_m / 2.0, tag.y + config.flight_offset_y_m,
                   config.flight_altitude_m};
  const Vec3 end{tag.x + config.aperture_m / 2.0,
                 tag.y + config.flight_offset_y_m + 0.07 * config.aperture_m,
                 config.flight_altitude_m};
  const auto plan =
      drone::linear_trajectory(start, end, config.n_measurement_points);
  const auto flight = drone::fly(plan, config.flight, config.tracking, rng);

  auto measurements = system.try_collect_measurements(flight, tag, rng);
  if (!measurements.ok()) {
    return fail(measurements.status().with_context("collect measurements"));
  }
  if (measurements->size() < 3) {
    return fail({StatusCode::kInsufficientData,
                 "only " + std::to_string(measurements->size()) +
                     " measurements collected; SAR needs at least 3"});
  }

  localize::LocalizerConfig loc;
  loc.freq_hz = config.localize_at_reader_freq
                    ? config.system.carrier_hz
                    : config.system.carrier_hz + config.system.freq_shift_hz;
  loc.selection = config.selection;
  loc.kernel = config.sar_kernel;
  loc.search = config.sar_search;
  loc.grid.resolution_m = config.grid_resolution_m;
  loc.grid.x_min = tag.x - config.search_halfwidth_m;
  loc.grid.x_max = tag.x + config.search_halfwidth_m;
  loc.grid.y_min = tag.y - config.search_halfwidth_m;
  // One-sided search, as in the paper's Fig. 6 plots: the system scans the
  // aisle on a known side of the flight path, so the grid stops short of
  // the path (this also excludes the 1D aperture's mirror image).
  loc.grid.y_max = std::min(tag.y + config.search_halfwidth_m,
                            tag.y + config.flight_offset_y_m - 0.3);

  auto sar = localize::localize_2d_checked(*measurements, loc);
  if (!sar.ok()) return fail(sar.status().with_context("SAR localization"));
  LocalizationTrialResult result;
  result.measurements = measurements->size();
  result.sar = *sar;
  result.sar_error_m = std::hypot(sar->x - tag.x, sar->y - tag.y);

  // RSSI baseline on the same measurements.
  localize::RssiConfig rssi;
  rssi.grid = loc.grid;
  rssi.grid.resolution_m = 0.05;  // RSSI cannot use finer structure anyway
  rssi.reference_magnitude_at_1m =
      system.rssi_reference_magnitude_at_1m() *
      from_db(rng.gaussian(0.0, config.rssi_calibration_error_db));
  const auto iso = localize::disentangle(*measurements);
  const auto rssi_result = localize::rssi_localize(iso, rssi);
  result.rssi_error_m = std::hypot(rssi_result.x - tag.x, rssi_result.y - tag.y);
  return result;
}

Expected<ReadRatePoint> try_run_read_rate_point(const ReadRateConfig& config,
                                                double distance_m,
                                                std::uint64_t seed) {
  if (config.trials <= 0) {
    return Status{StatusCode::kInvalidArgument,
                  "read-rate point needs trials > 0, got " +
                      std::to_string(config.trials)};
  }
  if (!(distance_m > 0.0)) {
    return Status{StatusCode::kInvalidArgument,
                  "reader-tag distance must be positive, got " +
                      std::to_string(distance_m)};
  }
  Rng rng(seed);

  // Free-standing geometry (walls far away) with an optional wall at the
  // midpoint between reader and tag.
  channel::Environment env;
  const Vec3 reader_pos{0.0, 0.0, 1.0};
  const Vec3 tag_pos{distance_m, 0.0, 0.5};
  if (config.through_wall) {
    const double wall_x = distance_m / 2.0;
    env.add_obstacle({{{wall_x, -10.0}, {wall_x, 10.0}}, channel::concrete()});
  }
  RflySystem system(config.system, env, reader_pos);

  const Vec3 relay_pos{std::max(0.5, distance_m - config.relay_tag_distance_m), 0.0,
                       1.0};

  ReadRatePoint point;
  point.distance_m = distance_m;
  int direct_ok = 0;
  int relay_ok = 0;
  for (int t = 0; t < config.trials; ++t) {
    if (system.tag_readable_direct(tag_pos, rng)) ++direct_ok;
    if (system.tag_readable(relay_pos, tag_pos, rng)) ++relay_ok;
  }
  point.read_rate_no_relay =
      static_cast<double>(direct_ok) / static_cast<double>(config.trials);
  point.read_rate_with_relay =
      static_cast<double>(relay_ok) / static_cast<double>(config.trials);
  return point;
}

}  // namespace rfly::core
