#include "sim/fleet.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <string>
#include <utility>

#include "channel/channel_model.h"
#include "common/units.h"
#include "core/daisy_chain.h"
#include "core/inventory.h"
#include "core/system.h"
#include "drone/trajectory.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rfly::sim {

namespace {

using Clock = std::chrono::steady_clock;
using channel::Vec3;

/// Seed streams: the shared fleet inventory round and the per-chain
/// sub-missions each get their own stream so none shares stochastic state
/// with the others (or with a plain mission run from the same seed).
constexpr std::uint64_t kFleetInventoryStream = 4101;
constexpr std::uint64_t kFleetChainStreamBase = 4200;

// Fleet telemetry — once per mission / per chain, nowhere near a hot path.
obs::Counter& fleet_missions() {
  static obs::Counter& c = obs::counter("fleet.missions");
  return c;
}
obs::Counter& fleet_chains() {
  static obs::Counter& c = obs::counter("fleet.chains");
  return c;
}
obs::Counter& fleet_replans() {
  static obs::Counter& c = obs::counter("fleet.replans");
  return c;
}
obs::Counter& fleet_budget_exhausted() {
  static obs::Counter& c = obs::counter("fleet.budget_exhausted");
  return c;
}
obs::Counter& fleet_unstable_chains() {
  static obs::Counter& c = obs::counter("fleet.unstable_chains");
  return c;
}
obs::Gauge& fleet_planner_coverage() {
  static obs::Gauge& g = obs::gauge("fleet.planner_coverage");
  return g;
}

std::string percent(double fraction) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%.1f%%", fraction * 100.0);
  return buf;
}

/// One chain's working state while the fleet run assembles.
struct Chain {
  Vec3 reader{};
  std::vector<std::size_t> legs;       // global leg ordinals, in order
  std::vector<std::size_t> tags;       // global tag ordinals, in order
  std::vector<FleetPlanLeg> plan_legs; // per-leg planned waypoints
  std::vector<Vec3> waypoints;         // the same, concatenated
  std::vector<Vec3> statics;
  core::ScanMissionConfig config;      // derived single-relay view
  Vec3 reader_pos{};                   // virtual reader (last static relay)
  FleetPlan plan;
  bool stable = true;
};

Vec3 centroid_of(const std::vector<Vec3>& points) {
  Vec3 c{};
  for (const auto& p : points) c = c + p;
  return c / static_cast<double>(points.size());
}

/// Leg boundaries as (offset, size) pairs into the flattened plan. Falls
/// back to one leg spanning the whole plan when leg_sizes is absent or
/// inconsistent (defensive: hand-built MissionInputs).
std::vector<std::pair<std::size_t, std::size_t>> leg_spans(
    const MissionInputs& inputs) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  std::size_t total = 0;
  for (std::size_t n : inputs.leg_sizes) total += n;
  if (inputs.leg_sizes.empty() || total != inputs.plan.size()) {
    spans.emplace_back(0, inputs.plan.size());
    return spans;
  }
  std::size_t offset = 0;
  for (std::size_t n : inputs.leg_sizes) {
    spans.emplace_back(offset, n);
    offset += n;
  }
  return spans;
}

/// Derive the chain's single-relay view: virtual reader at the last static
/// relay, EIRP walked hop-by-hop through the static downlink (PA caps per
/// core/daisy_chain.h), static uplink folded into the receive gain. The
/// uplink fold assumes the static hops' output caps do not bind —
/// backscatter levels sit tens of dB below relay_uplink_max_out_dbm — and
/// charges all noise at the reader, matching evaluate_chain's budget.
void derive_chain_system(Chain& chain, const MissionInputs& inputs) {
  const core::SystemConfig& base = inputs.config.system;
  const FleetSpec& fleet = inputs.fleet;
  chain.config = inputs.config;
  core::SystemConfig& sys = chain.config.system;

  // Static relays march from the reader toward the aperture centroid.
  const Vec3 centroid = centroid_of(chain.waypoints);
  const double len = chain.reader.distance_to(centroid);
  const Vec3 dir =
      len > 1e-9 ? (centroid - chain.reader) / len : Vec3{1.0, 0.0, 0.0};
  for (int k = 1; k < fleet.n_relays; ++k) {
    chain.statics.push_back(chain.reader +
                            dir * (fleet.relay_spacing_m * static_cast<double>(k)));
  }
  chain.reader_pos = chain.statics.empty() ? chain.reader : chain.statics.back();

  // Downlink: exact carrier power leaving the last static relay.
  double carrier_dbm = base.reader_eirp_dbm;
  double freq = base.carrier_hz;
  Vec3 prev = chain.reader;
  for (std::size_t k = 0; k < chain.statics.size(); ++k) {
    const channel::LinkGains gains{k == 0 ? 0.0 : base.relay_antenna_gain_dbi,
                                   base.relay_antenna_gain_dbi};
    const cdouble h = channel::point_to_point_channel(
        inputs.environment, prev, chain.statics[k], freq, gains);
    const double rx_dbm = carrier_dbm + amplitude_to_db(std::abs(h));
    carrier_dbm = std::min(rx_dbm + base.relay_downlink_gain_db,
                           base.relay_downlink_p1db_dbm);
    prev = chain.statics[k];
    freq += fleet.per_hop_shift_hz;
  }
  if (!chain.statics.empty()) {
    // EIRP includes the transmit antenna (RflySystem's reader->relay hop
    // carries tx_gain 0) — the virtual reader's is the relay antenna.
    carrier_dbm += base.relay_antenna_gain_dbi;
    // No direct virtual-reader->tag backscatter component: every hop of the
    // real chain runs on its own frequency, so nothing the last static
    // relay radiates comes back at the measurement frequency without going
    // through the terminal relay. (Leaving this on plants a strong constant
    // term — the virtual reader sits near the aperture — that biases the
    // SAR peak by meters.)
    chain.config.system.include_direct_path = false;
  }
  sys.reader_eirp_dbm = carrier_dbm;
  sys.carrier_hz = base.carrier_hz +
                   fleet.per_hop_shift_hz * static_cast<double>(chain.statics.size());
  sys.freq_shift_hz = fleet.per_hop_shift_hz;

  // Uplink: the reply retraces the static chain, each hop re-amplifying.
  // The derived relay->reader hop uses gains{relay, 0}; everything past the
  // virtual reader folds into its receive gain.
  if (!chain.statics.empty()) {
    double rx_corr = base.relay_antenna_gain_dbi;  // last static's rx antenna
    double f = sys.carrier_hz;
    for (std::size_t k = chain.statics.size(); k-- > 0;) {
      rx_corr += base.relay_uplink_gain_db;
      f -= fleet.per_hop_shift_hz;
      const Vec3 next = k == 0 ? chain.reader : chain.statics[k - 1];
      const channel::LinkGains gains{
          base.relay_antenna_gain_dbi,
          k == 0 ? 0.0 : base.relay_antenna_gain_dbi};
      const cdouble h = channel::point_to_point_channel(
          inputs.environment, chain.statics[k], next, f, gains);
      rx_corr += amplitude_to_db(std::abs(h));
    }
    sys.reader_rx_gain_dbi = base.reader_rx_gain_dbi + rx_corr;
  }
}

}  // namespace

Expected<MissionRun> run_fleet_mission(const MissionInputs& inputs,
                                       std::uint64_t seed, FleetRun* detail) {
  const auto mission_start = Clock::now();
  const FleetSpec& fleet = inputs.fleet;
  if (!fleet.enabled) {
    return Status{StatusCode::kInvalidArgument,
                  "run_fleet_mission needs fleet.enabled; run the plain "
                  "pipeline instead"};
  }
  if (inputs.plan.empty()) {
    return Status{StatusCode::kEmptyFlightPlan,
                  "flight plan has no waypoints; nothing can fly"};
  }
  if (inputs.tags.empty()) {
    return Status{StatusCode::kEmptyPopulation,
                  "tag population is empty; nothing to scan"};
  }

  // --- Partition legs to the nearest reader, tags to the nearest chain. --
  const std::vector<Vec3> readers =
      fleet.readers.empty() ? std::vector<Vec3>{inputs.reader_position}
                            : fleet.readers;
  std::vector<Chain> chains(readers.size());
  for (std::size_t c = 0; c < readers.size(); ++c) chains[c].reader = readers[c];

  const auto spans = leg_spans(inputs);
  for (std::size_t l = 0; l < spans.size(); ++l) {
    const auto [offset, size] = spans[l];
    if (size == 0) continue;
    const Vec3 mid = (inputs.plan[offset] + inputs.plan[offset + size - 1]) / 2.0;
    std::size_t best = 0;
    for (std::size_t c = 1; c < readers.size(); ++c) {
      if (mid.distance_to(readers[c]) < mid.distance_to(readers[best])) best = c;
    }
    Chain& chain = chains[best];
    chain.legs.push_back(l);
    FleetPlanLeg leg;
    leg.waypoints.assign(inputs.plan.begin() + static_cast<std::ptrdiff_t>(offset),
                         inputs.plan.begin() + static_cast<std::ptrdiff_t>(offset + size));
    chain.waypoints.insert(chain.waypoints.end(), leg.waypoints.begin(),
                           leg.waypoints.end());
    chain.plan_legs.push_back(std::move(leg));
  }

  std::vector<std::size_t> owner(inputs.tags.size(), 0);
  for (std::size_t i = 0; i < inputs.tags.size(); ++i) {
    double best_d = std::numeric_limits<double>::infinity();
    std::size_t best = 0;
    for (std::size_t c = 0; c < chains.size(); ++c) {
      if (chains[c].waypoints.empty()) continue;
      const double d = drone::distance_to_trajectory(chains[c].waypoints,
                                                     inputs.tags[i].position);
      if (d < best_d) {
        best_d = d;
        best = c;
      }
    }
    owner[i] = best;
    chains[best].tags.push_back(i);
  }

  // --- Per chain: derived system, stability, energy-aware plan. ----------
  core::DaisyChainConfig chain_cfg;
  chain_cfg.system = inputs.config.system;
  chain_cfg.per_hop_shift_hz = fleet.per_hop_shift_hz;
  chain_cfg.stability_isolation_db = fleet.stability_isolation_db;

  FleetPlanConfig plan_cfg;
  plan_cfg.planner = fleet.planner;
  plan_cfg.energy.hover_power_w = fleet.hover_power_w;
  plan_cfg.energy.travel_power_w = fleet.travel_power_w;
  plan_cfg.energy.speed_mps = fleet.speed_mps;
  plan_cfg.energy.dwell_s = fleet.dwell_s;
  plan_cfg.battery_j = fleet.battery_j;
  plan_cfg.wind_sigma_m = inputs.faults.wind_jitter_std_m;

  std::size_t unstable = 0;
  std::size_t exhausted = 0;
  std::size_t replans = 0;
  double covered_info = 0.0;
  double planned_info = 0.0;
  for (Chain& chain : chains) {
    if (chain.waypoints.empty()) continue;
    derive_chain_system(chain, inputs);

    // Eq. 3 stability at the design point: statics + the terminal relay at
    // the aperture centroid (the tag position does not enter the per-hop
    // check). An unstable chain still flies — health says so below.
    std::vector<Vec3> relays = chain.statics;
    const Vec3 centroid = centroid_of(chain.waypoints);
    relays.push_back(centroid);
    chain.stable = core::evaluate_chain(chain_cfg, inputs.environment,
                                        chain.reader, relays, centroid)
                       .stable;
    if (!chain.stable) ++unstable;

    chain.plan = plan_fleet_route(chain.plan_legs, plan_cfg);
    if (chain.plan.exhausted) ++exhausted;
    replans += chain.plan.replans;
    covered_info += chain.plan.covered_info_m;
    planned_info += chain.plan.planned_info_m;
  }
  const double planner_coverage =
      planned_info > 0.0 ? std::min(1.0, covered_info / planned_info) : 1.0;

  // --- Shared Gen2 inventory: one contention round over the whole fleet's
  // population — tags of different chains collide in the same slots. Air-
  // interface conditions come from each tag's own chain at its closest
  // selected waypoint; a tag whose chain never took off stays unpowered.
  // The tag machines (mostly RNG state, ~2.6 kB each) live only through the
  // round; the sub-missions get its verdicts. A deque allocates them one by
  // one: a single block of them all (13 MB at 5000 tags), freed every
  // mission, left a hole later allocations split, so some runs' peak RSS
  // grew by whole multiples of it.
  std::vector<bool> discovered(inputs.tags.size(), false);
  core::InventoryOutcome outcome;
  {
    obs::Span span("fleet.inventory");
    std::deque<gen2::Tag> machines;
    for (std::size_t i = 0; i < inputs.tags.size(); ++i) {
      machines.emplace_back(inputs.tags[i].config, seed + 100 + i);
    }
    std::vector<core::RflySystem> systems;
    systems.reserve(chains.size());
    for (const Chain& chain : chains) {
      systems.emplace_back(chain.config.system, inputs.environment,
                           chain.reader_pos);
    }
    std::vector<core::TagAgent> agents;
    agents.reserve(inputs.tags.size());
    for (std::size_t i = 0; i < inputs.tags.size(); ++i) {
      core::TagAgent agent{&machines[i], -100.0, -100.0};
      const Chain& chain = chains[owner[i]];
      if (!chain.plan.route.empty()) {
        const Vec3& tag_pos = inputs.tags[i].position;
        const auto closest = std::min_element(
            chain.plan.route.begin(), chain.plan.route.end(),
            [&](const Vec3& a, const Vec3& b) {
              return a.distance_to(tag_pos) < b.distance_to(tag_pos);
            });
        const core::TagLink link = systems[owner[i]].tag_link(*closest, tag_pos);
        agent.incident_power_dbm = link.incident_power_dbm;
        agent.reply_snr_db = link.reply_snr_db;
      }
      agents.push_back(agent);
    }
    core::InventoryRoundConfig round = inputs.config.inventory;
    if (inputs.config.use_select) {
      const gen2::Command select{inputs.config.select};
      for (auto& agent : agents) {
        gen2::CommandContext ctx;
        ctx.incident_power_dbm = agent.incident_power_dbm;
        agent.tag->on_command(select, ctx);
      }
      round.sel_target = gen2::SelTarget::kSl;
    }
    reader::QAlgorithm q_algo(static_cast<double>(inputs.config.inventory.q));
    Rng inventory_rng(stream_seed(seed, kFleetInventoryStream));
    outcome = core::run_inventory(agents, round, q_algo, inventory_rng);
    std::vector<gen2::Epc> read = outcome.epcs;
    std::sort(read.begin(), read.end());
    for (std::size_t i = 0; i < inputs.tags.size(); ++i) {
      discovered[i] =
          std::binary_search(read.begin(), read.end(), inputs.tags[i].config.epc);
    }
  }

  // --- Sub-missions: one pipeline run per chain over its planned route and
  // tag subset, never deferring (fleet jobs are batch-mode invariant). -----
  MissionRun merged;
  merged.trace.resize(kStageCount);
  for (std::size_t s = 0; s < kStageCount; ++s) {
    merged.trace[s].stage = static_cast<Stage>(s);
  }
  std::vector<core::ScannedItem> items(inputs.tags.size());
  std::size_t degraded_subs = 0;
  double weighted_sub_coverage = 0.0;  // tag-weighted, missing chains = 0
  for (std::size_t c = 0; c < chains.size(); ++c) {
    Chain& chain = chains[c];
    if (chain.tags.empty()) continue;
    if (chain.plan.route.empty()) {
      // The battery died before the chain's first waypoint: its tags were
      // never overflown. They still appear in the report, undiscovered.
      for (std::size_t gi : chain.tags) {
        core::ScannedItem item;
        item.epc = inputs.tags[gi].config.epc;
        item.description = inputs.db.lookup(item.epc);
        item.status =
            Status{StatusCode::kInsufficientData,
                   "chain " + std::to_string(c) +
                       " exhausted its battery before its first waypoint; "
                       "no aperture flown over this tag"};
        items[gi] = std::move(item);
      }
      continue;
    }

    std::vector<core::TagPlacement> sub_tags;
    InventoryOverride verdicts;
    sub_tags.reserve(chain.tags.size());
    verdicts.discovered.reserve(chain.tags.size());
    for (std::size_t gi : chain.tags) {
      sub_tags.push_back(inputs.tags[gi]);
      verdicts.discovered.push_back(discovered[gi]);
    }
    auto sub = run_mission_pipeline(
        chain.config, inputs.environment, chain.reader_pos, chain.plan.route,
        sub_tags, inputs.db, stream_seed(seed, kFleetChainStreamBase + c),
        inputs.faults, /*deferred=*/nullptr, &verdicts);
    if (!sub) {
      return sub.status().with_context("fleet chain " + std::to_string(c));
    }
    for (std::size_t j = 0; j < chain.tags.size(); ++j) {
      items[chain.tags[j]] = std::move(sub->report.items[j]);
    }
    merged.report.discovered += sub->report.discovered;
    merged.report.localized += sub->report.localized;
    merged.report.flight_length_m += sub->report.flight_length_m;
    for (std::size_t s = 0; s < kStageCount; ++s) {
      merged.trace[s].seconds += sub->trace[s].seconds;
      merged.trace[s].invocations += sub->trace[s].invocations;
    }
    merged.faults.dropouts += sub->faults.dropouts;
    merged.faults.embedded_losses += sub->faults.embedded_losses;
    merged.faults.phase_bursts += sub->faults.phase_bursts;
    merged.faults.cfo_measurements += sub->faults.cfo_measurements;
    merged.faults.wind_points += sub->faults.wind_points;
    merged.faults.retries += sub->faults.retries;
    if (sub->health.code() == StatusCode::kDegraded) ++degraded_subs;
    weighted_sub_coverage += sub->aperture_coverage *
                             static_cast<double>(chain.tags.size());
  }
  merged.report.items = std::move(items);
  weighted_sub_coverage /= static_cast<double>(inputs.tags.size());
  merged.aperture_coverage = planner_coverage * weighted_sub_coverage;

  // --- Health + telemetry. ------------------------------------------------
  if (unstable > 0 || exhausted > 0 || degraded_subs > 0) {
    merged.health =
        Status{StatusCode::kDegraded,
               std::to_string(unstable) + " unstable chain(s), " +
                   std::to_string(exhausted) +
                   " battery-exhausted chain(s), " +
                   std::to_string(degraded_subs) +
                   " degraded sub-mission(s); planner coverage " +
                   percent(planner_coverage)}
            .with_context("fleet");
  }
  fleet_missions().add(1);
  fleet_chains().add(chains.size());
  fleet_replans().add(replans);
  fleet_budget_exhausted().add(exhausted);
  fleet_unstable_chains().add(unstable);
  fleet_planner_coverage().set(planner_coverage);

  if (detail != nullptr) {
    detail->chains.clear();
    for (Chain& chain : chains) {
      FleetChainReport report;
      report.reader = chain.reader;
      report.static_relays = std::move(chain.statics);
      report.leg_indices = std::move(chain.legs);
      report.tag_indices = std::move(chain.tags);
      report.plan = std::move(chain.plan);
      report.stable = chain.stable;
      report.effective_eirp_dbm = chain.config.system.reader_eirp_dbm;
      report.effective_rx_gain_dbi = chain.config.system.reader_rx_gain_dbi;
      report.effective_carrier_hz = chain.config.system.carrier_hz;
      detail->chains.push_back(std::move(report));
    }
    detail->planner_coverage = planner_coverage;
    detail->replans = replans;
    detail->exhausted_chains = exhausted;
    detail->unstable_chains = unstable;
    detail->inventory = std::move(outcome);
  }

  merged.total_seconds =
      std::chrono::duration<double>(Clock::now() - mission_start).count();
  return merged;
}

}  // namespace rfly::sim
