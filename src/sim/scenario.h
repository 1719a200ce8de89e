// Declarative mission descriptions: a Scenario is a complete experiment —
// system, environment, reader placement, flight plan, tag population, and
// localizer knobs — as a first-class, validated, serializable value. It
// round-trips through a line-oriented `key = value` text format, so a sweep
// that used to mean editing N bench binaries is now a scenario file plus
// `bench/scenario_runner --set key=value` overrides. Named presets replace
// the config constants that used to be copy-pasted across benches, examples,
// and tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/scan_mission.h"
#include "sim/faults.h"
#include "sim/fleet_plan.h"

namespace rfly::sim {

using channel::Vec3;

/// How the obstacle set is built. kEmpty is free space; kWarehouse is the
/// paper's rectangular facility via channel::warehouse_environment.
enum class EnvironmentKind : std::uint8_t { kEmpty, kWarehouse };

struct EnvironmentSpec {
  EnvironmentKind kind = EnvironmentKind::kWarehouse;
  double width_m = 40.0;
  double height_m = 30.0;
  int shelf_rows = 0;
  /// Optional extra concrete wall (through-wall scenarios): a segment at
  /// x = wall_x spanning [wall_y0, wall_y1].
  bool wall = false;
  double wall_x = 0.0;
  double wall_y0 = -10.0;
  double wall_y1 = 10.0;

  channel::Environment build() const;
};

/// One straight flight leg sampled at `points` waypoints (inclusive ends).
struct FlightLeg {
  Vec3 start{};
  Vec3 end{};
  std::size_t points = 50;
};

/// One tag of the population: deterministic EPC from `epc_index`, placed at
/// `position`, with an optional item-database description.
struct TagSpec {
  std::uint32_t epc_index = 0;
  Vec3 position{};
  std::string description;
};

/// Fleet extension (`fleet.*` keys): daisy-chained relays and multiple
/// readers. Each reader owns a chain of `n_relays` relays — static hover
/// relays spaced `relay_spacing_m` apart toward the chain's aperture, plus
/// the flying terminal relay — with a per-hop frequency plan stepping by
/// `per_hop_shift_hz`. Legs and tags are partitioned to the nearest chain;
/// the energy-aware planner (sim/fleet_plan.h) selects which planned
/// waypoints each terminal relay dwells at under `battery_j`. Disabled
/// (the default) leaves the scenario a plain single-relay mission.
struct FleetSpec {
  bool enabled = false;                 // fleet.enabled
  int n_relays = 1;                     // fleet.n_relays (per chain, >= 1)
  double per_hop_shift_hz = 1e6;        // fleet.per_hop_shift_hz
  double stability_isolation_db = 64.0; // fleet.stability_isolation_db (Eq. 3)
  double relay_spacing_m = 20.0;        // fleet.relay_spacing_m
  FleetPlanner planner = FleetPlanner::kGreedy;  // fleet.planner
  double battery_j = 0.0;               // fleet.battery_j (0 = unlimited)
  double hover_power_w = 150.0;         // fleet.hover_power_w
  double travel_power_w = 200.0;        // fleet.travel_power_w
  double speed_mps = 2.0;               // fleet.speed_mps
  double dwell_s = 0.05;                // fleet.dwell_s
  /// Reader positions, one chain each (repeated `fleet.reader = x y z`
  /// lines append, like `leg`/`tag`). Empty = one chain rooted at the
  /// scenario's `reader_position`.
  std::vector<Vec3> readers;
};

struct Scenario {
  std::string name = "unnamed";
  std::uint64_t seed = 1;

  core::SystemConfig system{};
  EnvironmentSpec environment{};
  Vec3 reader_position{0.0, 0.0, 1.0};
  drone::FlightConfig flight{};
  drone::TrackingConfig tracking = drone::optitrack_tracking();
  core::InventoryRoundConfig inventory{};

  std::vector<FlightLeg> legs;
  std::vector<TagSpec> tags;

  // Localizer knobs (mirror core::ScanMissionConfig).
  double search_halfwidth_m = 3.0;
  double grid_resolution_m = 0.02;
  double peak_threshold_fraction = 0.55;
  double grid_margin_to_path_m = 0.3;
  bool tags_below_path = true;
  unsigned localize_threads = 0;
  localize::SarKernel sar_kernel = localize::SarKernel::kExact;
  localize::SarSearch sar_search = localize::SarSearch::kExact;

  /// Fault model (`faults.*` keys). All rates default to zero: a scenario
  /// without faults keys runs bit-identically to one predating the layer.
  FaultConfig faults{};

  /// Fleet mode (`fleet.*` keys). Disabled by default: a scenario without
  /// fleet keys runs the plain single-relay pipeline, bit-identically to
  /// one predating the subsystem.
  FleetSpec fleet{};
};

// Work ceilings validate() enforces, so that no accepted scenario can
// exhaust memory or hold a worker indefinitely (rflyd runs whatever
// validates). Fixed, not knobs: each sits at least 100x above every preset
// and the perfbench scenarios, whose largest costs are 140 waypoints in a
// leg, 5000 tags x 270 waypoints, a 6,655-cell scan grid, 5000 tags x 96
// scan cells, 320 refine cells per tag, 5000 tags x (96 + 245 cells) x 270
// waypoints = 4.6e8 SAR cell-samples (149x under its ceiling), 2 shelf rows
// and 2 relays a chain.
inline constexpr std::size_t kMaxLegWaypoints = std::size_t{1} << 20;
/// Tags x waypoints of all legs: the measure stage's channel evaluations.
inline constexpr std::size_t kMaxTagWaypoints = std::size_t{1} << 28;
/// Cells of one tag's scan grid (localize_scan_grid of its window).
inline constexpr std::size_t kMaxScanCells = std::size_t{1} << 22;
/// Tags x scan cells: the SAR sweep work of one mission's localizations.
/// It bounds work, not memory: a tag's heatmap lives only through its own
/// localization, and batch phase 2 holds one window of them at a time, at
/// most threads x kMaxScanCells x 8 bytes (sim/batch.h).
inline constexpr std::size_t kMaxMissionScanCells = std::size_t{1} << 26;
/// Cells one tag's peak refinement evaluates (localize_refine_cells).
inline constexpr std::size_t kMaxRefineCells = std::size_t{1} << 18;
/// Tags x (scan + refine cells per tag) x waypoints of all legs: the
/// cell-samples the localize stage can evaluate, each cell against every
/// measurement. The ceilings above bound one axis each, and their product
/// alone admits 2^42 (one tag, a 2^20-waypoint leg, a 2^22-cell grid).
inline constexpr std::size_t kMaxSarCellSamples = std::size_t{1} << 36;
inline constexpr int kMaxShelfRows = 256;
inline constexpr int kMaxRelaysPerChain = 256;
/// Bound on |x|, |y|, |z| of a leg end: past it a fine-grid step around the
/// flight no longer moves a double, and the refinement loop never ends.
inline constexpr double kMaxLegCoordinateM = 1e6;

/// Reject inconsistent scenarios with an actionable message: empty flight
/// plan (kEmptyFlightPlan), empty tag population (kEmptyPopulation), a
/// margin that clips the whole search window (kDegenerateGrid), duplicate
/// EPC indices, non-positive dimensions/resolutions, non-finite localizer
/// or leg values, and work over one of the ceilings above
/// (kInvalidArgument, naming the field, the cost and the limit).
Status validate(const Scenario& scenario);

/// Line-oriented `key = value` text form. Doubles print with enough digits
/// to round-trip exactly; parse(serialize(s)) reproduces s bit-for-bit.
std::string serialize(const Scenario& scenario);

/// Parse scenario text. Unknown keys, malformed values, wrong arity, and
/// duplicate scalar keys (which used to silently keep the last value) are
/// kParseError with the line number in context; a duplicate also names the
/// line that first set the key. The result is validated.
Expected<Scenario> parse_scenario(const std::string& text);

/// Load + parse + validate a scenario file (kIoError if unreadable).
Expected<Scenario> load_scenario_file(const std::string& path);

/// Apply one `key=value` override (same keys as the serialized form;
/// `leg = ...`, `tag = ...`, and `fleet.reader = ...` append). Unknown
/// key -> kNotFound; a bad value -> kParseError, naming the replacement
/// when the value is one the format removed (`measure.plane = fast`).
Status apply_override(Scenario& scenario, const std::string& key,
                      const std::string& value);

/// Named presets: "building" (the paper's 30x40 m research floor, one aisle
/// of tags), "warehouse" (the warehouse-scan deployment: 2 steel shelf
/// rows, 9 tagged items, 3-aisle lawnmower plan), "through_wall" (reader
/// separated from the scanned aisle by a concrete wall), "fleet_warehouse"
/// (the warehouse scanned by two 2-relay daisy chains under a battery
/// budget — the fleet subsystem's end-to-end exemplar).
Expected<Scenario> preset(const std::string& name);
std::vector<std::string> preset_names();

// --- Materialization: turn the declarative value into mission inputs. ---

core::ScanMissionConfig mission_config(const Scenario& scenario);
std::vector<Vec3> flight_plan(const Scenario& scenario);
std::vector<core::TagPlacement> tag_placements(const Scenario& scenario);
core::InventoryDatabase database(const Scenario& scenario);

}  // namespace rfly::sim
