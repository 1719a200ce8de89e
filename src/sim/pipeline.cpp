#include "sim/pipeline.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "core/forward_plane.h"
#include "drone/trajectory.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/fleet.h"

namespace rfly::sim {

namespace {

using Clock = std::chrono::steady_clock;

/// Span names per stage. Spans store the pointer, so these must be string
/// literals with process lifetime (stage_name() already returns literals,
/// but "stage."-prefixed names keep the trace tree self-describing).
const char* stage_span_name(Stage stage) {
  switch (stage) {
    case Stage::kPlan: return "stage.plan";
    case Stage::kFly: return "stage.fly";
    case Stage::kInventory: return "stage.inventory";
    case Stage::kMeasure: return "stage.measure";
    case Stage::kDisentangle: return "stage.disentangle";
    case Stage::kLocalize: return "stage.localize";
    case Stage::kReport: return "stage.report";
  }
  return "stage.unknown";
}

/// Times one stage body and folds the cost into the mission-wide trace.
/// Backed by a tracing span, so every stage entry also lands in the global
/// trace for `--report`/`--trace-out`. Invocations are plain increments —
/// they stay deterministic under RFLY_OBS=OFF, where elapsed_seconds()
/// reads 0 and only the `seconds` column goes dark.
class StageTimer {
 public:
  StageTimer(std::vector<StageTrace>& trace, Stage stage)
      : entry_(trace[static_cast<std::size_t>(stage)]),
        span_(stage_span_name(stage)) {}
  ~StageTimer() {
    entry_.seconds += span_.elapsed_seconds();
    ++entry_.invocations;
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  StageTrace& entry_;
  obs::Span span_;
};

Status validate_mission(const core::ScanMissionConfig& config,
                        const std::vector<Vec3>& flight_plan,
                        const std::vector<core::TagPlacement>& tags) {
  if (flight_plan.empty()) {
    return {StatusCode::kEmptyFlightPlan,
            "flight plan has no waypoints; nothing can fly"};
  }
  if (tags.empty()) {
    return {StatusCode::kEmptyPopulation,
            "tag population is empty; nothing to scan"};
  }
  if (!(config.grid_resolution_m > 0.0)) {
    return {StatusCode::kDegenerateGrid, "grid_resolution_m must be positive"};
  }
  if (config.grid_margin_to_path_m >= config.search_halfwidth_m) {
    return {StatusCode::kDegenerateGrid,
            "grid_margin_to_path_m (" + std::to_string(config.grid_margin_to_path_m) +
                ") >= search_halfwidth_m (" +
                std::to_string(config.search_halfwidth_m) +
                "): the margin clips the whole search window"};
  }
  return Status::ok();
}

// Fault telemetry. Counters/gauge update once per mission, the histogram
// once per discovered tag — nowhere near a hot path. Handles hoisted per
// the obs registration contract.
obs::Counter& faults_dropouts() {
  static obs::Counter& c = obs::counter("faults.dropouts");
  return c;
}
obs::Counter& faults_embedded_losses() {
  static obs::Counter& c = obs::counter("faults.embedded_losses");
  return c;
}
obs::Counter& faults_phase_bursts() {
  static obs::Counter& c = obs::counter("faults.phase_bursts");
  return c;
}
obs::Counter& faults_retries() {
  static obs::Counter& c = obs::counter("faults.retries");
  return c;
}
obs::Gauge& faults_coverage() {
  static obs::Gauge& g = obs::gauge("faults.aperture_coverage");
  return g;
}
/// Attempts per discovered tag (1 = first try succeeded): the retry
/// histogram. Counts layout — attempts are small integers.
obs::Histogram& faults_attempts() {
  static obs::Histogram& h =
      obs::histogram("faults.retry_attempts", obs::HistogramSpec::counts());
  return h;
}

std::string coverage_percent(double coverage) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%.1f%%", coverage * 100.0);
  return buf;
}

Vec3 measurement_centroid(const localize::MeasurementSet& measurements) {
  Vec3 centroid{0, 0, 0};
  for (const auto& m : measurements) centroid = centroid + m.relay_position;
  return centroid / static_cast<double>(measurements.size());
}

/// SAR search window around the measurement centroid (the system does not
/// know the tag position; it knows where the drone heard it). One-sided in
/// y: the operator knows which side of the path the shelf face is on; the
/// grid stops short of the path so the 1D aperture's mirror band is
/// excluded (see DESIGN.md). Shared by the localize stage and the
/// live-estimate streamer so both see the same window.
localize::GridSpec search_window(const core::ScanMissionConfig& config,
                                 const Vec3& centroid) {
  localize::GridSpec grid;
  grid.resolution_m = config.grid_resolution_m;
  grid.x_min = centroid.x - config.search_halfwidth_m;
  grid.x_max = centroid.x + config.search_halfwidth_m;
  if (config.tags_below_path) {
    grid.y_min = centroid.y - config.search_halfwidth_m;
    grid.y_max = centroid.y - config.grid_margin_to_path_m;
  } else {
    grid.y_min = centroid.y + config.grid_margin_to_path_m;
    grid.y_max = centroid.y + config.search_halfwidth_m;
  }
  return grid;
}

/// The localize stage's fully resolved config for a window centered on
/// `centroid` — shared by the inline stage and the deferred-task capture so
/// both paths localize with identical knobs.
localize::LocalizerConfig stage_localizer_config(
    const core::ScanMissionConfig& config, const Vec3& centroid) {
  localize::LocalizerConfig loc;
  loc.threads = config.localize_threads;
  loc.kernel = config.sar_kernel;
  loc.search = config.sar_search;
  loc.freq_hz = config.system.carrier_hz + config.system.freq_shift_hz;
  loc.peak_threshold_fraction = config.peak_threshold_fraction;
  loc.grid = search_window(config, centroid);
  return loc;
}

}  // namespace

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::kPlan: return "plan";
    case Stage::kFly: return "fly";
    case Stage::kInventory: return "inventory";
    case Stage::kMeasure: return "measure";
    case Stage::kDisentangle: return "disentangle";
    case Stage::kLocalize: return "localize";
    case Stage::kReport: return "report";
  }
  return "unknown";
}

Expected<MissionRun> run_mission_pipeline(const core::ScanMissionConfig& config,
                                          const channel::Environment& environment,
                                          const Vec3& reader_position,
                                          const std::vector<Vec3>& flight_plan,
                                          const std::vector<core::TagPlacement>& tags,
                                          const core::InventoryDatabase& database,
                                          std::uint64_t seed,
                                          const FaultConfig& faults,
                                          std::vector<DeferredLocalize>* deferred,
                                          const InventoryOverride* inventory_override) {
  const auto mission_start = Clock::now();
  // total_seconds stays chrono-based (it predates the obs layer and must
  // keep reporting wall time even under RFLY_OBS=OFF); the span nests the
  // stage spans for the trace tree.
  obs::Span mission_span("pipeline.mission");
  MissionRun run;
  run.trace.resize(kStageCount);
  for (std::size_t i = 0; i < kStageCount; ++i) {
    run.trace[i].stage = static_cast<Stage>(i);
  }

  // --- plan: validate inputs, measure the trajectory. -------------------
  {
    StageTimer timer(run.trace, Stage::kPlan);
    if (Status status = validate_mission(config, flight_plan, tags);
        !status.is_ok()) {
      return std::move(status).with_context("scan mission");
    }
    run.report.flight_length_m = drone::trajectory_length(flight_plan);
  }

  // NOTE on determinism: everything below draws from this one Rng in the
  // seed mission's order (fly, then per tag: inventory round, then channel
  // collection). Stages time the work; they must not reorder it, or the
  // report stops being bit-identical.
  Rng rng(seed);
  core::RflySystem system(config.system, environment, reader_position);
  // The injector draws from its own stream (stream_seed(seed, ...)), never
  // from `rng` above — so whether faults are on or off, the mission Rng's
  // sequence is identical, and a zero-rate config changes nothing at all.
  FaultInjector injector(faults, seed);
  const bool faulty = injector.enabled();
  std::size_t aperture_clean = 0;  // measurements the physics produced
  std::size_t aperture_used = 0;   // measurements surviving fault injection

  // --- fly: simulate the flight. ----------------------------------------
  std::vector<drone::FlownPoint> flight;
  {
    StageTimer timer(run.trace, Stage::kFly);
    flight = drone::fly(flight_plan, config.flight, config.tracking, rng);
    // Fault boundary: wind shifts where the drone really was; the tracking
    // reports (what SAR is given) keep believing the calm-air model.
    injector.perturb_flight(flight);
  }

  // --- measure plane: hoist the per-waypoint forward-channel state once
  // per flight, shared across every tag below. Entirely RNG-free, so the
  // mission Rng sequence (and with it the report) is untouched.
  const bool fast_plane = config.measure_plane == core::MeasurePlane::kFast;
  core::ForwardPlane plane;
  std::vector<core::SynthChannels> synth;
  {
    StageTimer timer(run.trace, Stage::kMeasure);
    plane = core::ForwardPlane::build(system, flight);
    if (fast_plane) {
      std::vector<Vec3> positions;
      positions.reserve(tags.size());
      for (const auto& placement : tags) positions.push_back(placement.position);
      synth = core::synthesize_forward_channels(system, plane, positions);
    }
  }

  for (std::size_t i = 0; i < tags.size(); ++i) {
    core::ScannedItem item;
    item.epc = tags[i].config.epc;
    item.description = database.lookup(item.epc);

    // --- inventory: Gen2 round at the closest approach. -----------------
    if (inventory_override != nullptr) {
      // Discovery already ran in a shared contention round outside this
      // mission (the fleet's fleet-wide Gen2 round, sim/fleet.cpp): fold in
      // its verdict. The mission Rng is untouched — the shared round draws
      // from its own stream.
      StageTimer timer(run.trace, Stage::kInventory);
      item.discovered = i < inventory_override->discovered.size() &&
                        inventory_override->discovered[i];
    } else {
      StageTimer timer(run.trace, Stage::kInventory);
      // Gen2 discovery: an inventory of this one tag at its closest
      // approach, which drives the air-interface conditions. The tag's
      // state machine lives only through its own inventory.
      gen2::Tag machine(tags[i].config, seed + 100 + i);
      const auto closest = std::min_element(
          flight.begin(), flight.end(), [&](const auto& a, const auto& b) {
            return a.actual.distance_to(tags[i].position) <
                   b.actual.distance_to(tags[i].position);
          });
      const core::TagLink link = system.tag_link(closest->actual, tags[i].position);
      std::vector<core::TagAgent> agents{
          {&machine, link.incident_power_dbm, link.reply_snr_db}};
      core::InventoryRoundConfig round = config.inventory;
      if (config.use_select) {
        gen2::CommandContext ctx;
        ctx.incident_power_dbm = agents[0].incident_power_dbm;
        machine.on_command(gen2::Command{config.select}, ctx);
        round.sel_target = gen2::SelTarget::kSl;
      }
      reader::QAlgorithm q_algo(static_cast<double>(config.inventory.q));
      const auto outcome = core::run_inventory(agents, round, q_algo, rng);
      item.discovered =
          std::find(outcome.epcs.begin(), outcome.epcs.end(), item.epc) !=
          outcome.epcs.end();
    }
    if (!item.discovered) {
      item.status =
          Status{StatusCode::kUndecodablePopulation,
                 inventory_override != nullptr
                     ? "tag answered no slot of the fleet's shared inventory "
                       "round (unpowered, undecodable, or lost to cross-relay "
                       "contention)"
                     : "tag answered no inventory round at its closest "
                       "approach (unpowered or reply below decode SNR)"}
              .with_context("tag " + std::to_string(i));
      StageTimer timer(run.trace, Stage::kReport);
      run.report.items.push_back(std::move(item));
      continue;
    }
    ++run.report.discovered;

    // --- measure: channel collection along the whole flight (the system
    // drops points where the tag is unpowered or undecodable). ------------
    localize::MeasurementSet clean;
    {
      StageTimer timer(run.trace, Stage::kMeasure);
      auto collected =
          fast_plane
              ? system.try_collect_measurements(flight, rng, plane, synth[i])
              : system.try_collect_measurements(flight, tags[i].position, rng,
                                                plane);
      if (!collected) {
        item.status =
            collected.status().with_context("tag " + std::to_string(i));
      } else {
        clean = std::move(collected.value());
      }
    }
    const std::size_t clean_count = clean.size();
    aperture_clean += clean_count;

    // --- fault boundary + downstream stages, with bounded attempts. With
    // faults disabled this collapses to the legacy single pass over the
    // clean set; with faults on, each attempt re-draws the fault pattern
    // from the injector's own stream and localization runs on whatever
    // partial aperture survives. ------------------------------------------
    localize::MeasurementSet measurements;
    std::size_t used = 0;
    int attempt = 0;
    Status attempt_status;
    bool localized = false;
    Vec3 estimate{};
    while (true) {
      ++attempt;
      if (attempt > 1) injector.count_retry();
      measurements = faulty ? injector.afflict(clean) : std::move(clean);
      used = measurements.size();
      attempt_status = Status::ok();

      if (used < 3) {
        if (faulty && used < clean_count) {
          attempt_status =
              Status{StatusCode::kInsufficientData,
                     "only " + std::to_string(used) + " of " +
                         std::to_string(clean_count) +
                         " measurements survived fault injection after " +
                         std::to_string(attempt) +
                         " attempt(s); SAR needs >= 3"}
                  .with_context("tag " + std::to_string(i));
        } else {
          attempt_status = Status{StatusCode::kInsufficientData,
                                  "only " + std::to_string(used) +
                                      " usable measurements; SAR needs >= 3"}
                               .with_context("tag " + std::to_string(i));
        }
      } else {
        // --- disentangle: Eq. 10 per measurement. -------------------------
        localize::DisentangledSet half_link;
        {
          StageTimer timer(run.trace, Stage::kDisentangle);
          half_link = localize::disentangle(measurements);
        }

        // --- live estimates (incremental search only): the measure stage
        // replays the surviving aperture sample-by-sample through the SAR
        // accumulator, emitting the estimate a mission display would have
        // shown while the drone flew. Live cells are coarse (the final
        // localization below still runs at full resolution), and coverage
        // is against the clean aperture, so the last entry agrees with the
        // item's fault accounting. On a retry the sequence is rebuilt —
        // the report keeps the attempt that produced the estimate. --------
        if (config.sar_search == localize::SarSearch::kIncremental) {
          StageTimer timer(run.trace, Stage::kMeasure);
          const Vec3 centroid = measurement_centroid(measurements);
          localize::GridSpec live_grid = search_window(config, centroid);
          live_grid.resolution_m =
              std::max(config.grid_resolution_m,
                       localize::LocalizerConfig{}.coarse_resolution_m);
          localize::SarAccumulator acc(
              live_grid, config.system.carrier_hz + config.system.freq_shift_hz,
              /*z_plane=*/0.0, config.sar_kernel, config.localize_threads);
          item.live.clear();
          item.live.reserve(half_link.channels.size());
          for (std::size_t s = 0; s < half_link.channels.size(); ++s) {
            acc.add_measurement(half_link.positions[s], half_link.channels[s]);
            item.live.push_back(acc.estimate(clean_count));
          }
        }

        // --- localize: SAR over a window centered on the measurement
        // centroid. --------------------------------------------------------
        if (deferred != nullptr && !faulty) {
          // Deferred to the batch runner's phase 2: capture the stage
          // inputs, leave the item pending (not localized, status OK). Safe
          // only because faults are off — the single-pass loop below never
          // consumes `localized`, so the outcome can be folded in later via
          // apply_deferred_result without changing any draw or retry.
          const Vec3 centroid = measurement_centroid(measurements);
          DeferredLocalize task;
          task.item_index = run.report.items.size();
          task.tag_index = i;
          task.half_link = std::move(half_link);
          task.config = stage_localizer_config(config, centroid);
          deferred->push_back(std::move(task));
        } else {
          StageTimer timer(run.trace, Stage::kLocalize);
          const Vec3 centroid = measurement_centroid(measurements);
          const localize::LocalizerConfig loc =
              stage_localizer_config(config, centroid);

          auto result = localize::localize_2d_from(half_link, loc);
          if (!result) {
            attempt_status =
                result.status().with_context("tag " + std::to_string(i));
          } else {
            localized = true;
            estimate = {result->x, result->y, 0.0};
          }
        }
      }
      if (localized) break;
      // Retry only when a fresh fault draw could change the outcome: faults
      // on, attempts left, and enough clean measurements that an affliction
      // pattern decides success.
      if (!faulty || attempt >= faults.max_attempts || clean_count < 3) break;
    }

    item.measurements = used;
    aperture_used += used;
    if (faulty) faults_attempts().observe(static_cast<double>(attempt));
    if (localized) {
      item.localized = true;
      item.estimate = estimate;
      ++run.report.localized;
      if (faulty && used < clean_count) {
        // Graceful degradation: the item IS localized, but from a partial
        // aperture — say so, with the coverage figure, instead of hiding it.
        const double coverage =
            static_cast<double>(used) / static_cast<double>(clean_count);
        item.status =
            Status{StatusCode::kDegraded,
                   "localized from partial aperture: " + std::to_string(used) +
                       "/" + std::to_string(clean_count) +
                       " measurements (coverage " +
                       coverage_percent(coverage) + ")"}
                .with_context("tag " + std::to_string(i));
      }
    } else if (item.status.is_ok()) {
      // Keep an earlier collect-stage status if one was recorded.
      item.status = attempt_status;
    }

    StageTimer timer(run.trace, Stage::kReport);
    run.report.items.push_back(std::move(item));
  }

  // --- graceful-degradation accounting: mission health + coverage. ------
  run.faults = injector.stats();
  run.aperture_coverage =
      aperture_clean > 0 ? static_cast<double>(aperture_used) /
                               static_cast<double>(aperture_clean)
                         : 1.0;
  if (faulty) {
    const FaultStats& fs = run.faults;
    faults_dropouts().add(fs.dropouts);
    faults_embedded_losses().add(fs.embedded_losses);
    faults_phase_bursts().add(fs.phase_bursts);
    faults_retries().add(fs.retries);
    faults_coverage().set(run.aperture_coverage);
    if (fs.disruptions() > 0) {
      // The mission completed; health says on what footing. Continuous
      // impairments (wind, CFO) make data noisier but are not disruptions —
      // see FaultStats::disruptions().
      run.health =
          Status{StatusCode::kDegraded,
                 std::to_string(fs.dropouts) + " dropout(s), " +
                     std::to_string(fs.embedded_losses) +
                     " embedded-tag loss(es), " +
                     std::to_string(fs.phase_bursts) + " phase burst(s), " +
                     std::to_string(fs.retries) +
                     " retry(s); aperture coverage " +
                     coverage_percent(run.aperture_coverage)}
              .with_context("fault injection");
    }
  }

  run.total_seconds =
      std::chrono::duration<double>(Clock::now() - mission_start).count();
  return run;
}

void apply_deferred_result(MissionRun& run, std::size_t item_index,
                           std::size_t tag_index,
                           const Expected<localize::LocalizationResult>& result,
                           double seconds) {
  StageTrace& localize_trace =
      run.trace[static_cast<std::size_t>(Stage::kLocalize)];
  localize_trace.seconds += seconds;
  ++localize_trace.invocations;
  run.total_seconds += seconds;

  core::ScannedItem& item = run.report.items[item_index];
  if (result) {
    item.localized = true;
    item.estimate = {result->x, result->y, 0.0};
    ++run.report.localized;
  } else {
    // Same context the inline stage writes, so the batched item status is
    // string-identical to the per-mission one.
    item.status =
        result.status().with_context("tag " + std::to_string(tag_index));
  }
}

MissionInputs materialize(const Scenario& scenario) {
  MissionInputs inputs;
  inputs.config = mission_config(scenario);
  inputs.environment = scenario.environment.build();
  inputs.reader_position = scenario.reader_position;
  inputs.plan = flight_plan(scenario);
  inputs.leg_sizes.reserve(scenario.legs.size());
  for (const auto& leg : scenario.legs) inputs.leg_sizes.push_back(leg.points);
  inputs.tags = tag_placements(scenario);
  inputs.db = database(scenario);
  inputs.faults = scenario.faults;
  inputs.fleet = scenario.fleet;
  inputs.scenario_name = scenario.name;
  return inputs;
}

Expected<MissionRun> run_scenario(const Scenario& scenario) {
  return run_scenario(scenario, scenario.seed);
}

Expected<MissionRun> run_scenario(const Scenario& scenario, std::uint64_t seed) {
  if (Status status = validate(scenario); !status.is_ok()) {
    return std::move(status).with_context("run_scenario");
  }
  const MissionInputs inputs = materialize(scenario);
  if (inputs.fleet.enabled) {
    return run_fleet_mission(inputs, seed)
        .with_context("scenario '" + inputs.scenario_name + "'");
  }
  return run_mission_pipeline(inputs.config, inputs.environment,
                              inputs.reader_position, inputs.plan, inputs.tags,
                              inputs.db, seed, inputs.faults)
      .with_context("scenario '" + inputs.scenario_name + "'");
}

}  // namespace rfly::sim
