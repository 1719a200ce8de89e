// Scan mission: the paper's deployment story as library types. A mission
// config, a tag population, and the report the staged pipeline
// (sim::run_mission_pipeline in sim/pipeline.h) produces from them — fly,
// inventory (Gen2 rounds at each tag's best approach), collect
// through-relay channel measurements, localize every discovered tag, and
// report items via the EPC database.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/inventory.h"
#include "core/system.h"
#include "drone/flight.h"
#include "localize/localizer.h"

namespace rfly::core {

struct TagPlacement {
  gen2::TagConfig config;
  Vec3 position;
};

struct ScanMissionConfig {
  SystemConfig system{};
  /// Optional Select filter broadcast before every inventory round: only
  /// tags whose EPC matches the mask participate ("find every pallet of
  /// company X"). Empty mask = no filtering.
  gen2::SelectCommand select{};
  bool use_select = false;
  drone::FlightConfig flight{};
  drone::TrackingConfig tracking = drone::optitrack_tracking();
  InventoryRoundConfig inventory{};
  /// Localization search half-width around the measurement centroid.
  double search_halfwidth_m = 3.0;
  double grid_resolution_m = 0.02;
  /// Candidate peaks must reach this fraction of the heatmap maximum;
  /// slightly above the localizer default to keep near-path partial-match
  /// lobes out of the nearest-peak selection in cluttered aisles.
  double peak_threshold_fraction = 0.55;
  /// Keep the search one-sided toward the scanned aisle: the grid stops
  /// this far short of the flight path.
  double grid_margin_to_path_m = 0.3;
  /// Which side of the flight path the scanned shelf face is on (the
  /// operator knows the aisle layout): true = tags at smaller y than the
  /// path, false = larger y.
  bool tags_below_path = true;
  /// Worker threads for each discovered tag's SAR heatmap (the mission's
  /// dominant cost): 0 = hardware concurrency, 1 = serial. The report is
  /// identical at every setting.
  unsigned localize_threads = 0;
  /// SAR evaluation kernel for heatmaps and peak refinement. kExact (the
  /// default) reproduces the seed report bit-for-bit; kFast trades last-ulp
  /// agreement for the SIMD kernel's speed (same discovered/localized sets,
  /// estimates within a fraction of the grid resolution).
  localize::SarKernel sar_kernel = localize::SarKernel::kExact;
  /// SAR search strategy (see sar_kernel.h). kExact keeps the legacy batch
  /// sweep; kIncremental streams the same sums through SarAccumulator —
  /// final estimates stay bit-identical with the exact kernel, and each
  /// item additionally carries its live per-waypoint estimate sequence;
  /// kCoarseToFine trades the full sweep for a coarse lattice + top-K
  /// refinement.
  localize::SarSearch sar_search = localize::SarSearch::kExact;
};

struct ScannedItem {
  gen2::Epc epc{};
  std::string description;        // from the database; empty if unknown
  bool discovered = false;        // answered a Gen2 inventory round
  bool localized = false;
  Vec3 estimate{};                // valid when localized
  std::size_t measurements = 0;   // channel estimates collected
  /// Why the item stopped short of `localized` (OK when localized): not
  /// discovered, too few measurements, no embedded reference, no peak, ...
  /// Exception: a localized item may carry kDegraded — it was localized
  /// from a partial aperture under fault injection; the message holds the
  /// coverage figure (see sim/faults.h).
  Status status = Status::ok();
  /// Live per-waypoint estimate sequence (incremental search only, empty
  /// otherwise): one entry per disentangled sample folded into the SAR
  /// accumulator, in flight order — what a mission display or trajectory
  /// replanner would have seen while the drone flew.
  std::vector<localize::LiveEstimate> live;
};

struct ScanReport {
  std::vector<ScannedItem> items;
  std::size_t discovered = 0;
  std::size_t localized = 0;
  double flight_length_m = 0.0;
};

}  // namespace rfly::core
