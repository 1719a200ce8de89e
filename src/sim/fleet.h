// Fleet-scale daisy-chain missions (paper Section 4.3 scaled out): M
// readers, each rooting a chain of N relays — static hover relays bridging
// from the reader plus one flying terminal relay — scanning one shared tag
// population. The fleet run is built from the existing staged pipeline:
//
//   1. Partition: flight legs go to the nearest reader (leg midpoint), tags
//      to the chain whose planned waypoints pass closest.
//   2. Link budget: each chain collapses to a derived single-relay
//      RflySystem — a virtual reader at the last static relay whose EIRP is
//      the exact carrier power leaving that relay (hop-by-hop through the
//      downlink PA caps, per core/daisy_chain.h) and whose receive gain
//      folds in the static uplink chain (re-amplification assumed below the
//      uplink output caps — backscatter levels sit tens of dB under them).
//      The derived carrier is the terminal hop's frequency, so SAR
//      localizes at the true relay->tag wavelength.
//   3. Stability: Eq. 3 checked per hop via evaluate_chain at the chain's
//      design point (statics + terminal at the aperture centroid). An
//      unstable chain still flies but degrades the mission health.
//   4. Planning: the energy-aware planner (sim/fleet_plan.h) selects which
//      planned waypoints each terminal relay dwells at under the battery
//      budget, replanning when the fault layer injects wind.
//   5. Inventory: ONE shared Gen2 contention round across every chain's
//      tags — the relays share the inventory channel, so tags of different
//      chains collide in the same slots. Verdicts feed each sub-mission
//      through the pipeline's InventoryOverride.
//   6. Sub-missions: one run_mission_pipeline per chain over its planned
//      route and tag subset; items merge back in global tag order (item
//      status contexts keep their chain-local tag ordinals).
//
// Determinism: the shared round draws from stream_seed(seed, inventory
// stream), chain c's sub-mission from stream_seed(seed, chain stream base +
// c), the planner is pure arithmetic — so a fleet mission is bit-identical
// across thread counts and batch modes, and never defers localize stages.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "sim/fleet_plan.h"
#include "sim/pipeline.h"

namespace rfly::sim {

/// Per-chain accounting, for tests/benches that look inside a fleet run.
struct FleetChainReport {
  Vec3 reader{};
  /// Static hover relays, in hop order (empty when fleet.n_relays == 1 and
  /// the real reader talks to the terminal relay directly).
  std::vector<Vec3> static_relays;
  std::vector<std::size_t> leg_indices;  // global leg ordinals assigned
  std::vector<std::size_t> tag_indices;  // global tag ordinals assigned
  FleetPlan plan;
  bool stable = true;
  /// Derived virtual-reader parameters (see header comment).
  double effective_eirp_dbm = 0.0;
  double effective_rx_gain_dbi = 0.0;
  double effective_carrier_hz = 0.0;
};

struct FleetRun {
  std::vector<FleetChainReport> chains;
  /// Fleet-wide planner coverage: sum of covered aperture information over
  /// sum of planned, across chains.
  double planner_coverage = 1.0;
  std::size_t replans = 0;
  std::size_t exhausted_chains = 0;
  std::size_t unstable_chains = 0;
  /// The shared Gen2 round: slot tallies, capped rounds, EPCs in read order.
  core::InventoryOutcome inventory;
};

/// Run a fleet mission from materialized inputs (inputs.fleet.enabled must
/// be true). Returns the merged MissionRun: items in global tag order,
/// stage traces and fault tallies summed across chains, aperture_coverage =
/// planner coverage x tag-weighted sub-mission coverage, health kDegraded
/// when a chain was unstable, ran out of battery, or degraded downstream.
/// `detail`, when non-null, receives the per-chain breakdown.
Expected<MissionRun> run_fleet_mission(const MissionInputs& inputs,
                                       std::uint64_t seed,
                                       FleetRun* detail = nullptr);

}  // namespace rfly::sim
