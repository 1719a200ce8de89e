// Staged scan-mission pipeline: the seed's monolithic mission body
// decomposed into named stages — plan, fly, inventory, measure,
// disentangle, localize, report — with per-stage wall-clock accounting and
// typed per-item failure reasons, while reproducing the seed mission
// bit-for-bit: the stages are accounting boundaries around the same per-tag
// interleaved execution order (a stage barrier would reorder the shared
// Rng's draws and change every downstream sample).
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/scan_mission.h"
#include "localize/localizer.h"
#include "sim/faults.h"
#include "sim/scenario.h"

namespace rfly::sim {

enum class Stage : std::uint8_t {
  kPlan,         // validate inputs, measure the trajectory
  kFly,          // simulate the flight (jitter + tracking noise)
  kInventory,    // Gen2 discovery round at each tag's closest approach
  kMeasure,      // through-relay channel collection along the flight
  kDisentangle,  // Eq. 10: divide out the embedded-tag half-link
  kLocalize,     // SAR heatmap + peak selection
  kReport,       // database lookup, report assembly
};
inline constexpr std::size_t kStageCount = 7;

/// Stable lower-case token for a stage ("disentangle"), used in traces.
const char* stage_name(Stage stage);

/// Wall-clock accounting for one stage across the whole mission.
struct StageTrace {
  Stage stage{};
  double seconds = 0.0;
  /// Times the stage body ran (per-tag stages count once per tag reaching
  /// them, so `inventory: 9, localize: 4` shows where the funnel narrows).
  std::size_t invocations = 0;
};

struct MissionRun {
  core::ScanReport report;
  /// One entry per Stage, in pipeline order.
  std::vector<StageTrace> trace;
  double total_seconds = 0.0;
  /// Graceful-degradation outcome: OK when nominal; kDegraded (with the
  /// fault tallies and aperture coverage in the message) when injected
  /// faults disrupted the mission but it still completed. A DEGRADED
  /// mission is a *completed* mission — the report above is usable.
  Status health = Status::ok();
  /// Fraction of the cleanly collected aperture that survived fault
  /// injection, over every discovered tag (1 when faults are disabled).
  double aperture_coverage = 1.0;
  /// Injection tallies for this mission (all zero when faults are disabled).
  FaultStats faults;
};

/// A localize stage the pipeline skipped so a batch runner can execute it
/// after every mission has run: everything the stage needs (the
/// disentangled half-link set and the fully resolved localizer config) plus
/// where its result belongs. The pipeline only defers when the stage is
/// side-effect free — faults disabled, so no retry loop consumes the
/// outcome — which makes the deferred run bit-equivalent to the inline one.
struct DeferredLocalize {
  std::size_t item_index = 0;  // position in MissionRun::report.items
  std::size_t tag_index = 0;   // tag ordinal, for the error-context string
  localize::DisentangledSet half_link;
  localize::LocalizerConfig config;
};

/// Discovery verdicts computed outside the pipeline: one entry per tag, in
/// tag order. The fleet subsystem (sim/fleet.h) runs ONE shared Gen2
/// contention round across every chain's tag population — relays share the
/// inventory channel — and feeds each sub-mission the verdicts through
/// this. When passed, the inventory stage does not touch the mission Rng
/// (the shared round draws from its own seed-derived stream); everything
/// downstream is unchanged.
struct InventoryOverride {
  std::vector<bool> discovered;
};

/// Run the staged mission. Mission-level errors (kEmptyFlightPlan,
/// kEmptyPopulation, kDegenerateGrid for a margin that clips the whole
/// search window) fail the whole run; per-item failures are recorded in
/// each ScannedItem's `status` and do not. Deterministic given `seed`:
/// with the default (all-zero) FaultConfig the report is bit-identical to
/// the seed mission's. With faults enabled, the injector
/// draws from its own seed-derived stream: per-stage bounded retries
/// (faults.max_attempts) re-draw the fault pattern, and a tag localized
/// from a partial aperture is reported localized with a kDegraded item
/// status carrying its coverage instead of failing.
///
/// `deferred`: when non-null AND faults are disabled, per-tag localize
/// stages are not executed — each is appended to `deferred` and the item is
/// left pending (not localized, status OK). The caller must run
/// localize_2d_from(task.half_link, task.config), or its sweep and finish
/// halves, on every task and fold the outcome back with
/// apply_deferred_result to obtain the same MissionRun the inline path
/// produces. With faults
/// enabled the parameter is ignored: the retry loop needs each localize
/// outcome immediately.
Expected<MissionRun> run_mission_pipeline(const core::ScanMissionConfig& config,
                                          const channel::Environment& environment,
                                          const Vec3& reader_position,
                                          const std::vector<Vec3>& flight_plan,
                                          const std::vector<core::TagPlacement>& tags,
                                          const core::InventoryDatabase& database,
                                          std::uint64_t seed,
                                          const FaultConfig& faults = {},
                                          std::vector<DeferredLocalize>* deferred = nullptr,
                                          const InventoryOverride* inventory_override = nullptr);

/// Fold a deferred localize outcome back into its mission: marks the item
/// localized (or records the failure with the same "tag N" context the
/// inline stage writes), bumps the localize stage trace by `seconds`, and
/// adds `seconds` to the mission total.
void apply_deferred_result(MissionRun& run, std::size_t item_index,
                           std::size_t tag_index,
                           const Expected<localize::LocalizationResult>& result,
                           double seconds);

/// A scenario materialized into the pipeline's inputs: parsed once,
/// runnable many times (seed sweeps, batches) without re-validating or
/// rebuilding the environment/tag placements per run.
struct MissionInputs {
  core::ScanMissionConfig config;
  channel::Environment environment;
  Vec3 reader_position;
  std::vector<Vec3> plan;
  /// Waypoint count contributed by each flight leg, in order (sums to
  /// plan.size()). The fleet subsystem partitions legs across chains;
  /// single-relay missions ignore it.
  std::vector<std::size_t> leg_sizes;
  std::vector<core::TagPlacement> tags;
  core::InventoryDatabase db;
  FaultConfig faults;
  FleetSpec fleet;
  std::string scenario_name;
};

/// Materialize a scenario's pipeline inputs. Does NOT validate — call
/// validate(scenario) first; run_scenario does both.
MissionInputs materialize(const Scenario& scenario);

/// Validate + materialize a scenario and run it through the pipeline with
/// the scenario's own seed and fault model. Fleet scenarios
/// (scenario.fleet.enabled) dispatch to run_fleet_mission (sim/fleet.h)
/// instead of the single-relay pipeline.
Expected<MissionRun> run_scenario(const Scenario& scenario);

/// Same, with the seed overridden (sweeps reuse one parsed scenario).
Expected<MissionRun> run_scenario(const Scenario& scenario, std::uint64_t seed);

}  // namespace rfly::sim
