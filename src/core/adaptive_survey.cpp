#include "core/adaptive_survey.h"

#include <algorithm>
#include <cmath>

#include "drone/trajectory.h"

namespace rfly::core {

namespace {

localize::LocalizerConfig make_localizer(const AdaptiveSurveyConfig& cfg,
                                         const SystemConfig& sys, double cx,
                                         double cy) {
  localize::LocalizerConfig loc;
  loc.freq_hz = sys.carrier_hz + sys.freq_shift_hz;
  // Adaptive missions pick the strongest peak and let the *refinement leg*
  // resolve ambiguity (mirror bands, ghosts): a second viewing angle
  // defocuses every artifact but the true tag, which is more robust than
  // any static peak-picking rule.
  loc.selection = localize::PeakSelection::kHighest;
  loc.grid.resolution_m = cfg.grid_resolution_m;
  loc.grid.x_min = cx - cfg.search_halfwidth_m;
  loc.grid.x_max = cx + cfg.search_halfwidth_m;
  loc.grid.y_min = cy - cfg.search_halfwidth_m;
  loc.grid.y_max = cy + cfg.search_halfwidth_m;
  return loc;
}

}  // namespace

AdaptiveSurveyResult adaptive_localize(const RflySystem& system,
                                       const std::vector<Vec3>& initial_plan,
                                       const Vec3& tag_position,
                                       const AdaptiveSurveyConfig& config,
                                       std::uint64_t seed) {
  Rng rng(seed);
  AdaptiveSurveyResult result;
  if (initial_plan.size() < 2) return result;

  const auto flight =
      drone::fly(initial_plan, config.flight, config.tracking, rng);
  auto collected = system.try_collect_measurements(flight, tag_position, rng);
  if (!collected || collected->size() < 3) return result;
  localize::MeasurementSet measurements = std::move(collected.value());

  // Initial estimate, searched around the measurement centroid.
  Vec3 centroid{0, 0, 0};
  for (const auto& m : measurements) centroid = centroid + m.relay_position;
  centroid = centroid / static_cast<double>(measurements.size());
  const auto first = localize::localize_2d_checked(
      measurements,
      make_localizer(config, system.config(), centroid.x, centroid.y));
  if (!first) return result;

  result.localized = true;
  result.estimate = {first->x, first->y, 0.0};
  result.initial_confidence = localize::assess_confidence(
      measurements, *first, system.config().carrier_hz + system.config().freq_shift_hz,
      config.confidence);
  result.final_confidence = result.initial_confidence;
  result.measurements = measurements.size();

  const double broad_axis = std::max(result.initial_confidence.halfwidth_x_m,
                                     result.initial_confidence.halfwidth_y_m);
  const bool ambiguous = result.initial_confidence.ambiguity >=
                         config.confidence.ambiguity_threshold;
  if (!ambiguous && result.initial_confidence.reliable &&
      broad_axis <= config.refine_if_halfwidth_above_m) {
    return result;  // first pass suffices
  }

  // Refinement leg: orthogonal to the initial pass, offset from the
  // estimate along the initial flight direction.
  const Vec3 dir = initial_plan.back() - initial_plan.front();
  const double norm = std::hypot(dir.x, dir.y);
  if (norm <= 0.0) return result;
  const Vec3 along{dir.x / norm, dir.y / norm, 0.0};
  const Vec3 ortho{-along.y, along.x, 0.0};

  const Vec3 leg_center = result.estimate + along * config.standoff_m;
  const Vec3 leg_start = leg_center - ortho * (config.leg_length_m / 2.0) +
                         Vec3{0, 0, config.leg_altitude_m};
  const Vec3 leg_end = leg_center + ortho * (config.leg_length_m / 2.0) +
                       Vec3{0, 0, config.leg_altitude_m};
  const auto leg_plan =
      drone::linear_trajectory(leg_start, leg_end, config.leg_points);
  const auto leg_flight =
      drone::fly(leg_plan, config.flight, config.tracking, rng);
  const auto leg_measurements =
      system.try_collect_measurements(leg_flight, tag_position, rng);
  if (!leg_measurements || leg_measurements->size() < 3) return result;
  result.refinement_flown = true;

  measurements.insert(measurements.end(), leg_measurements->begin(),
                      leg_measurements->end());
  const auto second = localize::localize_2d_checked(
      measurements,
      make_localizer(config, system.config(), result.estimate.x,
                     result.estimate.y));
  if (!second) return result;

  result.estimate = {second->x, second->y, 0.0};
  result.final_confidence = localize::assess_confidence(
      measurements, *second,
      system.config().carrier_hz + system.config().freq_shift_hz,
      config.confidence);
  result.measurements = measurements.size();
  return result;
}

}  // namespace rfly::core
