#include "sim/scenario.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <functional>
#include <sstream>
#include <system_error>
#include <utility>

#include "drone/trajectory.h"

namespace rfly::sim {

namespace {

// --- Value formatting/parsing -------------------------------------------
//
// All numeric I/O goes through std::to_chars/std::from_chars: unlike
// strtod/printf they never consult the C locale, so a scenario file written
// under LC_NUMERIC=C parses identically in a process running under de_DE
// (where strtod would stop at the '.' and read "3.5" as 3).

/// Shortest decimal form that round-trips the double exactly (the to_chars
/// general format guarantees shortest-round-trip, e.g. "40" not
/// "40.000000000000000").
std::string format_double(double v) {
  char buf[40];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  (void)ec;  // 40 chars always fit the shortest form of a double
  return std::string(buf, ptr);
}

bool parse_double(const std::string& text, double& out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc() || ptr != end || begin == end) return false;
  out = v;
  return true;
}

bool parse_bool(const std::string& text, bool& out) {
  if (text == "true" || text == "1") return out = true, true;
  if (text == "false" || text == "0") return out = false, true;
  return false;
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(begin, end, v, 10);
  if (ec != std::errc() || ptr != end || begin == end) return false;
  out = v;
  return true;
}

bool parse_int(const std::string& text, int& out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  int v = 0;
  const auto [ptr, ec] = std::from_chars(begin, end, v, 10);
  if (ec != std::errc() || ptr != end || begin == end) return false;
  out = v;
  return true;
}

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

std::vector<std::string> split_ws(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream in(s);
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

std::string format_vec3(const Vec3& v) {
  return format_double(v.x) + " " + format_double(v.y) + " " + format_double(v.z);
}

bool parse_vec3(const std::string& text, Vec3& out) {
  const auto toks = split_ws(text);
  if (toks.size() != 3) return false;
  return parse_double(toks[0], out.x) && parse_double(toks[1], out.y) &&
         parse_double(toks[2], out.z);
}

// --- Scalar-field registry ----------------------------------------------
// One table drives serialize(), parse_scenario(), and apply_override(), so
// the three can never disagree about the key set.

struct FieldDef {
  std::string key;
  /// Empty for a retired key: still parsed, never serialized.
  std::function<std::string(const Scenario&)> get;
  std::function<bool(Scenario&, const std::string&)> set;
  /// For knobs that lost values: what replaced a removed value, or nullptr.
  const char* (*replacement)(const std::string&) = nullptr;
};

template <typename Ref>  // Ref: Scenario& -> double&
FieldDef double_field(std::string key, Ref ref) {
  return {std::move(key),
          [ref](const Scenario& s) {
            return format_double(ref(const_cast<Scenario&>(s)));
          },
          [ref](Scenario& s, const std::string& v) {
            return parse_double(v, ref(s));
          }};
}

template <typename Ref>  // Ref: Scenario& -> bool&
FieldDef bool_field(std::string key, Ref ref) {
  return {std::move(key),
          [ref](const Scenario& s) {
            return std::string(ref(const_cast<Scenario&>(s)) ? "true" : "false");
          },
          [ref](Scenario& s, const std::string& v) { return parse_bool(v, ref(s)); }};
}

template <typename Ref>  // Ref: Scenario& -> int&
FieldDef int_field(std::string key, Ref ref) {
  return {std::move(key),
          [ref](const Scenario& s) {
            return std::to_string(ref(const_cast<Scenario&>(s)));
          },
          [ref](Scenario& s, const std::string& v) { return parse_int(v, ref(s)); }};
}

template <typename Ref>  // Ref: Scenario& -> Vec3&
FieldDef vec3_field(std::string key, Ref ref) {
  return {std::move(key),
          [ref](const Scenario& s) {
            return format_vec3(ref(const_cast<Scenario&>(s)));
          },
          [ref](Scenario& s, const std::string& v) { return parse_vec3(v, ref(s)); }};
}

const std::vector<FieldDef>& registry() {
  static const std::vector<FieldDef> fields = [] {
    std::vector<FieldDef> f;
    f.push_back({"name", [](const Scenario& s) { return s.name; },
                 [](Scenario& s, const std::string& v) {
                   return v.empty() ? false : (s.name = v, true);
                 }});
    f.push_back({"seed",
                 [](const Scenario& s) { return std::to_string(s.seed); },
                 [](Scenario& s, const std::string& v) {
                   return parse_u64(v, s.seed);
                 }});

    f.push_back({"env.kind",
                 [](const Scenario& s) {
                   return std::string(s.environment.kind == EnvironmentKind::kEmpty
                                          ? "empty"
                                          : "warehouse");
                 },
                 [](Scenario& s, const std::string& v) {
                   if (v == "empty") return s.environment.kind = EnvironmentKind::kEmpty, true;
                   if (v == "warehouse") return s.environment.kind = EnvironmentKind::kWarehouse, true;
                   return false;
                 }});
    f.push_back(double_field("env.width_m",
                             [](Scenario& s) -> double& { return s.environment.width_m; }));
    f.push_back(double_field("env.height_m",
                             [](Scenario& s) -> double& { return s.environment.height_m; }));
    f.push_back(int_field("env.shelf_rows",
                          [](Scenario& s) -> int& { return s.environment.shelf_rows; }));
    f.push_back(bool_field("env.wall",
                           [](Scenario& s) -> bool& { return s.environment.wall; }));
    f.push_back(double_field("env.wall_x",
                             [](Scenario& s) -> double& { return s.environment.wall_x; }));
    f.push_back(double_field("env.wall_y0",
                             [](Scenario& s) -> double& { return s.environment.wall_y0; }));
    f.push_back(double_field("env.wall_y1",
                             [](Scenario& s) -> double& { return s.environment.wall_y1; }));

    f.push_back(vec3_field("reader_position",
                           [](Scenario& s) -> Vec3& { return s.reader_position; }));

    f.push_back(double_field("system.carrier_hz",
                             [](Scenario& s) -> double& { return s.system.carrier_hz; }));
    f.push_back(double_field("system.freq_shift_hz",
                             [](Scenario& s) -> double& { return s.system.freq_shift_hz; }));
    f.push_back(double_field("system.blf_hz",
                             [](Scenario& s) -> double& { return s.system.blf_hz; }));
    f.push_back(double_field("system.reader_eirp_dbm",
                             [](Scenario& s) -> double& { return s.system.reader_eirp_dbm; }));
    f.push_back(double_field("system.reader_rx_gain_dbi",
                             [](Scenario& s) -> double& { return s.system.reader_rx_gain_dbi; }));
    f.push_back(double_field("system.reader_noise_figure_db",
                             [](Scenario& s) -> double& { return s.system.reader_noise_figure_db; }));
    f.push_back(double_field("system.relay_downlink_gain_db",
                             [](Scenario& s) -> double& { return s.system.relay_downlink_gain_db; }));
    f.push_back(double_field("system.relay_uplink_gain_db",
                             [](Scenario& s) -> double& { return s.system.relay_uplink_gain_db; }));
    f.push_back(double_field("system.relay_downlink_p1db_dbm",
                             [](Scenario& s) -> double& { return s.system.relay_downlink_p1db_dbm; }));
    f.push_back(double_field("system.relay_uplink_max_out_dbm",
                             [](Scenario& s) -> double& { return s.system.relay_uplink_max_out_dbm; }));
    f.push_back(double_field("system.relay_antenna_gain_dbi",
                             [](Scenario& s) -> double& { return s.system.relay_antenna_gain_dbi; }));
    f.push_back(double_field("system.relay_hardware_phase_rad",
                             [](Scenario& s) -> double& { return s.system.relay_hardware_phase_rad; }));
    f.push_back(double_field("system.embedded_coupling_db",
                             [](Scenario& s) -> double& { return s.system.embedded_coupling_db; }));
    f.push_back(bool_field("system.channel_noise",
                           [](Scenario& s) -> bool& { return s.system.channel_noise; }));
    f.push_back(double_field("system.estimate_integration_s",
                             [](Scenario& s) -> double& { return s.system.estimate_integration_s; }));
    f.push_back(double_field("system.shadowing_std_db",
                             [](Scenario& s) -> double& { return s.system.shadowing_std_db; }));
    f.push_back(double_field("system.amplitude_ripple_std_db",
                             [](Scenario& s) -> double& { return s.system.amplitude_ripple_std_db; }));
    f.push_back(double_field("system.phase_ripple_std_rad",
                             [](Scenario& s) -> double& { return s.system.phase_ripple_std_rad; }));
    f.push_back(double_field("system.decode_snr_threshold_db",
                             [](Scenario& s) -> double& { return s.system.decode_snr_threshold_db; }));
    f.push_back(bool_field("system.include_direct_path",
                           [](Scenario& s) -> bool& { return s.system.include_direct_path; }));
    f.push_back(double_field("system.tag.sensitivity_dbm",
                             [](Scenario& s) -> double& { return s.system.tag.sensitivity_dbm; }));
    f.push_back(double_field("system.tag.antenna_gain_dbi",
                             [](Scenario& s) -> double& { return s.system.tag.antenna_gain_dbi; }));
    f.push_back(double_field("system.tag.rho_on",
                             [](Scenario& s) -> double& { return s.system.tag.rho_on; }));
    f.push_back(double_field("system.tag.rho_off",
                             [](Scenario& s) -> double& { return s.system.tag.rho_off; }));

    f.push_back(double_field("flight.position_jitter_std_m",
                             [](Scenario& s) -> double& { return s.flight.position_jitter_std_m; }));
    f.push_back(double_field("tracking.noise_std_m",
                             [](Scenario& s) -> double& { return s.tracking.noise_std_m; }));
    f.push_back(double_field("tracking.drift_std_m",
                             [](Scenario& s) -> double& { return s.tracking.drift_std_m; }));

    f.push_back(int_field("inventory.q",
                          [](Scenario& s) -> int& { return s.inventory.q; }));
    f.push_back(int_field("inventory.max_rounds",
                          [](Scenario& s) -> int& { return s.inventory.max_rounds; }));
    f.push_back(double_field("inventory.decode_snr_threshold_db",
                             [](Scenario& s) -> double& { return s.inventory.decode_snr_threshold_db; }));

    f.push_back(double_field("localize.search_halfwidth_m",
                             [](Scenario& s) -> double& { return s.search_halfwidth_m; }));
    f.push_back(double_field("localize.grid_resolution_m",
                             [](Scenario& s) -> double& { return s.grid_resolution_m; }));
    f.push_back(double_field("localize.peak_threshold_fraction",
                             [](Scenario& s) -> double& { return s.peak_threshold_fraction; }));
    f.push_back(double_field("localize.grid_margin_to_path_m",
                             [](Scenario& s) -> double& { return s.grid_margin_to_path_m; }));
    f.push_back(bool_field("localize.tags_below_path",
                           [](Scenario& s) -> bool& { return s.tags_below_path; }));
    f.push_back({"localize.threads",
                 [](const Scenario& s) { return std::to_string(s.localize_threads); },
                 [](Scenario& s, const std::string& v) {
                   std::uint64_t threads = 0;
                   if (!parse_u64(v, threads)) return false;
                   s.localize_threads = static_cast<unsigned>(threads);
                   return true;
                 }});
    f.push_back({"localize.sar_kernel",
                 [](const Scenario& s) {
                   return std::string(localize::sar_kernel_name(s.sar_kernel));
                 },
                 [](Scenario& s, const std::string& v) {
                   return localize::parse_sar_kernel(v, s.sar_kernel);
                 },
                 localize::sar_kernel_replacement});
    f.push_back({"localize.search",
                 [](const Scenario& s) {
                   return std::string(localize::sar_search_name(s.sar_search));
                 },
                 [](Scenario& s, const std::string& v) {
                   return localize::parse_sar_search(v, s.sar_search);
                 }});
    // Retired knob: the measure stage has one plane. Files saved while it
    // had two carry `measure.plane = exact`, which still parses and changes
    // nothing; serialize() writes no field without a getter.
    f.push_back({"measure.plane", nullptr,
                 [](Scenario&, const std::string& v) { return v == "exact"; },
                 [](const std::string& v) -> const char* {
                   return v == "fast" || v == "auto" || v == "off" ? "exact"
                                                                    : nullptr;
                 }});

    f.push_back(double_field("faults.dropout",
                             [](Scenario& s) -> double& { return s.faults.dropout; }));
    f.push_back(double_field("faults.phase_burst",
                             [](Scenario& s) -> double& { return s.faults.phase_burst; }));
    f.push_back(double_field("faults.phase_burst_std_rad",
                             [](Scenario& s) -> double& { return s.faults.phase_burst_std_rad; }));
    f.push_back(double_field("faults.relay_cfo_std_rad",
                             [](Scenario& s) -> double& { return s.faults.relay_cfo_std_rad; }));
    f.push_back(double_field("faults.wind_jitter_std_m",
                             [](Scenario& s) -> double& { return s.faults.wind_jitter_std_m; }));
    f.push_back(double_field("faults.embedded_loss",
                             [](Scenario& s) -> double& { return s.faults.embedded_loss; }));
    f.push_back(int_field("faults.max_attempts",
                          [](Scenario& s) -> int& { return s.faults.max_attempts; }));

    f.push_back(bool_field("fleet.enabled",
                           [](Scenario& s) -> bool& { return s.fleet.enabled; }));
    f.push_back(int_field("fleet.n_relays",
                          [](Scenario& s) -> int& { return s.fleet.n_relays; }));
    f.push_back(double_field("fleet.per_hop_shift_hz",
                             [](Scenario& s) -> double& { return s.fleet.per_hop_shift_hz; }));
    f.push_back(double_field("fleet.stability_isolation_db",
                             [](Scenario& s) -> double& { return s.fleet.stability_isolation_db; }));
    f.push_back(double_field("fleet.relay_spacing_m",
                             [](Scenario& s) -> double& { return s.fleet.relay_spacing_m; }));
    f.push_back({"fleet.planner",
                 [](const Scenario& s) {
                   return std::string(fleet_planner_name(s.fleet.planner));
                 },
                 [](Scenario& s, const std::string& v) {
                   return parse_fleet_planner(v, s.fleet.planner);
                 }});
    f.push_back(double_field("fleet.battery_j",
                             [](Scenario& s) -> double& { return s.fleet.battery_j; }));
    f.push_back(double_field("fleet.hover_power_w",
                             [](Scenario& s) -> double& { return s.fleet.hover_power_w; }));
    f.push_back(double_field("fleet.travel_power_w",
                             [](Scenario& s) -> double& { return s.fleet.travel_power_w; }));
    f.push_back(double_field("fleet.speed_mps",
                             [](Scenario& s) -> double& { return s.fleet.speed_mps; }));
    f.push_back(double_field("fleet.dwell_s",
                             [](Scenario& s) -> double& { return s.fleet.dwell_s; }));
    return f;
  }();
  return fields;
}

const FieldDef* find_field(const std::string& key) {
  for (const auto& field : registry()) {
    if (field.key == key) return &field;
  }
  return nullptr;
}

bool set_leg(Scenario& scenario, const std::string& value) {
  const auto toks = split_ws(value);
  if (toks.size() != 7) return false;
  FlightLeg leg;
  std::uint64_t points = 0;
  if (!parse_double(toks[0], leg.start.x) || !parse_double(toks[1], leg.start.y) ||
      !parse_double(toks[2], leg.start.z) || !parse_double(toks[3], leg.end.x) ||
      !parse_double(toks[4], leg.end.y) || !parse_double(toks[5], leg.end.z) ||
      !parse_u64(toks[6], points) || points == 0) {
    return false;
  }
  leg.points = static_cast<std::size_t>(points);
  scenario.legs.push_back(leg);
  return true;
}

bool set_tag(Scenario& scenario, const std::string& value) {
  const auto toks = split_ws(value);
  if (toks.size() < 4) return false;
  TagSpec tag;
  std::uint64_t index = 0;
  if (!parse_u64(toks[0], index) || !parse_double(toks[1], tag.position.x) ||
      !parse_double(toks[2], tag.position.y) ||
      !parse_double(toks[3], tag.position.z)) {
    return false;
  }
  tag.epc_index = static_cast<std::uint32_t>(index);
  // The description is the remainder of the line (may contain spaces).
  std::size_t pos = 0;
  for (int i = 0; i < 4; ++i) {
    pos = value.find_first_not_of(" \t", pos);
    pos = value.find_first_of(" \t", pos);
  }
  if (pos != std::string::npos) tag.description = trim(value.substr(pos));
  scenario.tags.push_back(tag);
  return true;
}

bool set_fleet_reader(Scenario& scenario, const std::string& value) {
  Vec3 position;
  if (!parse_vec3(value, position)) return false;
  scenario.fleet.readers.push_back(position);
  return true;
}

}  // namespace

channel::Environment EnvironmentSpec::build() const {
  channel::Environment env;
  if (kind == EnvironmentKind::kWarehouse) {
    env = channel::warehouse_environment(width_m, height_m, shelf_rows);
  }
  if (wall) {
    env.add_obstacle({{{wall_x, wall_y0}, {wall_x, wall_y1}}, channel::concrete()});
  }
  return env;
}

Status validate(const Scenario& scenario) {
  const auto invalid = [&](const std::string& msg) {
    return Status{StatusCode::kInvalidArgument, msg}.with_context("scenario '" +
                                                                  scenario.name + "'");
  };
  if (scenario.environment.kind == EnvironmentKind::kWarehouse) {
    if (!(scenario.environment.width_m > 0.0) ||
        !(scenario.environment.height_m > 0.0)) {
      return invalid("warehouse environment needs positive width/height, got " +
                     format_double(scenario.environment.width_m) + " x " +
                     format_double(scenario.environment.height_m));
    }
    if (scenario.environment.shelf_rows < 0 ||
        scenario.environment.shelf_rows > kMaxShelfRows) {
      return invalid("env.shelf_rows must be in [0, " +
                     std::to_string(kMaxShelfRows) + "], got " +
                     std::to_string(scenario.environment.shelf_rows));
    }
  }
  if (scenario.environment.wall &&
      scenario.environment.wall_y0 == scenario.environment.wall_y1) {
    return invalid("env.wall is a zero-length segment (wall_y0 == wall_y1)");
  }
  if (scenario.legs.empty()) {
    return Status{StatusCode::kEmptyFlightPlan,
                  "scenario '" + scenario.name + "' has no flight legs"};
  }
  double waypoints = 0.0;
  for (std::size_t i = 0; i < scenario.legs.size(); ++i) {
    const FlightLeg& leg = scenario.legs[i];
    if (leg.points < 2) {
      return invalid("leg " + std::to_string(i) +
                     " needs at least 2 waypoints for a SAR aperture");
    }
    if (leg.points > kMaxLegWaypoints) {
      return invalid("leg " + std::to_string(i) + ": " +
                     std::to_string(leg.points) +
                     " waypoints exceed the limit of " +
                     std::to_string(kMaxLegWaypoints));
    }
    for (const double c : {leg.start.x, leg.start.y, leg.start.z, leg.end.x,
                           leg.end.y, leg.end.z}) {
      if (!(std::abs(c) <= kMaxLegCoordinateM)) {
        return invalid("leg " + std::to_string(i) + ": coordinate " +
                       format_double(c) + " is not finite or exceeds the limit of " +
                       format_double(kMaxLegCoordinateM) + " m");
      }
    }
    waypoints += static_cast<double>(leg.points);
  }
  if (scenario.tags.empty()) {
    return Status{StatusCode::kEmptyPopulation,
                  "scenario '" + scenario.name + "' has no tags"};
  }
  // Duplicate EPCs, reported as the pair an all-pairs scan meets first: the
  // smallest i whose epc_index repeats, with that epc's next holder j.
  // Sorting (epc_index, position) puts each epc's holders side by side in
  // index order, so the answer is the adjacent equal pair with the smallest i.
  std::vector<std::pair<std::uint32_t, std::size_t>> by_epc;
  by_epc.reserve(scenario.tags.size());
  for (std::size_t i = 0; i < scenario.tags.size(); ++i) {
    by_epc.emplace_back(scenario.tags[i].epc_index, i);
  }
  std::sort(by_epc.begin(), by_epc.end());
  std::size_t dup = 0;  // index into by_epc of the reported j; 0 = none
  for (std::size_t k = 1; k < by_epc.size(); ++k) {
    if (by_epc[k].first == by_epc[k - 1].first &&
        (dup == 0 || by_epc[k - 1].second < by_epc[dup - 1].second)) {
      dup = k;
    }
  }
  if (dup != 0) {
    return invalid("tags " + std::to_string(by_epc[dup - 1].second) + " and " +
                   std::to_string(by_epc[dup].second) + " share epc_index " +
                   std::to_string(by_epc[dup].first));
  }
  const double tags = static_cast<double>(scenario.tags.size());
  if (tags * waypoints > static_cast<double>(kMaxTagWaypoints)) {
    return invalid("tag x leg: " + std::to_string(scenario.tags.size()) +
                   " tags x " + format_double(waypoints) + " waypoints = " +
                   format_double(tags * waypoints) + " exceed the limit of " +
                   std::to_string(kMaxTagWaypoints));
  }
  const std::pair<const char*, double> localize_values[] = {
      {"localize.search_halfwidth_m", scenario.search_halfwidth_m},
      {"localize.grid_resolution_m", scenario.grid_resolution_m},
      {"localize.peak_threshold_fraction", scenario.peak_threshold_fraction},
      {"localize.grid_margin_to_path_m", scenario.grid_margin_to_path_m}};
  for (const auto& [key, value] : localize_values) {
    if (!std::isfinite(value)) {
      return invalid(std::string(key) + " must be finite, got " +
                     format_double(value));
    }
  }
  if (!(scenario.grid_resolution_m > 0.0)) {
    return invalid("localize.grid_resolution_m must be positive");
  }
  if (!(scenario.search_halfwidth_m > 0.0)) {
    return invalid("localize.search_halfwidth_m must be positive");
  }
  if (!(scenario.peak_threshold_fraction > 0.0) ||
      scenario.peak_threshold_fraction > 1.0) {
    return invalid("localize.peak_threshold_fraction must be in (0, 1]");
  }
  if (scenario.grid_margin_to_path_m < 0.0) {
    return invalid("localize.grid_margin_to_path_m must be >= 0");
  }
  if (scenario.grid_margin_to_path_m >= scenario.search_halfwidth_m) {
    return Status{StatusCode::kDegenerateGrid,
                  "grid_margin_to_path_m (" +
                      format_double(scenario.grid_margin_to_path_m) +
                      ") >= search_halfwidth_m (" +
                      format_double(scenario.search_halfwidth_m) +
                      "): the margin clips the whole search window"}
        .with_context("scenario '" + scenario.name + "'");
  }
  // The localize stage's per-tag search, sized as the pipeline builds it: a
  // window 2 x halfwidth wide and (halfwidth - margin) deep, swept on
  // localize_scan_grid's lattice and then refined. Counted in double, so a
  // hostile extent cannot overflow.
  localize::LocalizerConfig search;
  search.search = scenario.sar_search;
  search.grid = {-scenario.search_halfwidth_m, scenario.search_halfwidth_m,
                 -scenario.search_halfwidth_m, -scenario.grid_margin_to_path_m,
                 scenario.grid_resolution_m};
  const localize::GridSpec scan = localize::localize_scan_grid(search);
  const auto axis_cells = [&](double lo, double hi) {
    return std::floor((hi - lo) / scan.resolution_m) + 1.0;
  };
  const double scan_cells =
      axis_cells(scan.x_min, scan.x_max) * axis_cells(scan.y_min, scan.y_max);
  if (scan_cells > static_cast<double>(kMaxScanCells)) {
    return invalid("localize.search_halfwidth_m: a scan grid of " +
                   format_double(scan_cells) +
                   " cells per tag exceeds the limit of " +
                   std::to_string(kMaxScanCells));
  }
  if (tags * scan_cells > static_cast<double>(kMaxMissionScanCells)) {
    return invalid("localize.search_halfwidth_m: " +
                   std::to_string(scenario.tags.size()) + " tags x " +
                   format_double(scan_cells) + " scan cells = " +
                   format_double(tags * scan_cells) + " exceed the limit of " +
                   std::to_string(kMaxMissionScanCells));
  }
  const double refine_cells = localize::localize_refine_cells(search);
  if (refine_cells > static_cast<double>(kMaxRefineCells)) {
    return invalid("localize.grid_resolution_m: refining " +
                   format_double(refine_cells) +
                   " cells per tag exceeds the limit of " +
                   std::to_string(kMaxRefineCells));
  }
  const double sar_work = tags * (scan_cells + refine_cells) * waypoints;
  if (sar_work > static_cast<double>(kMaxSarCellSamples)) {
    return invalid("SAR work: " + std::to_string(scenario.tags.size()) +
                   " tags x (" + format_double(scan_cells) + " scan + " +
                   format_double(refine_cells) + " refine cells) x " +
                   format_double(waypoints) + " waypoints = " +
                   format_double(sar_work) +
                   " cell-samples exceed the limit of " +
                   std::to_string(kMaxSarCellSamples));
  }
  if (scenario.inventory.q < 0 || scenario.inventory.q > 15) {
    return invalid("inventory.q must be in [0, 15]");
  }
  if (scenario.inventory.max_rounds < 1) {
    return invalid("inventory.max_rounds must be >= 1");
  }
  if (!(scenario.system.carrier_hz > 0.0)) {
    return invalid("system.carrier_hz must be positive");
  }
  if (!(scenario.system.estimate_integration_s > 0.0)) {
    return invalid("system.estimate_integration_s must be positive");
  }
  const std::pair<const char*, double> fault_rates[] = {
      {"faults.dropout", scenario.faults.dropout},
      {"faults.phase_burst", scenario.faults.phase_burst},
      {"faults.embedded_loss", scenario.faults.embedded_loss}};
  for (const auto& [key, rate] : fault_rates) {
    if (!(rate >= 0.0) || rate > 1.0) {
      return invalid(std::string(key) + " must be a probability in [0, 1], got " +
                     format_double(rate));
    }
  }
  const std::pair<const char*, double> fault_stds[] = {
      {"faults.phase_burst_std_rad", scenario.faults.phase_burst_std_rad},
      {"faults.relay_cfo_std_rad", scenario.faults.relay_cfo_std_rad},
      {"faults.wind_jitter_std_m", scenario.faults.wind_jitter_std_m}};
  for (const auto& [key, std_dev] : fault_stds) {
    if (!(std_dev >= 0.0)) {
      return invalid(std::string(key) + " must be >= 0, got " +
                     format_double(std_dev));
    }
  }
  if (scenario.faults.max_attempts < 1) {
    return invalid("faults.max_attempts must be >= 1");
  }
  if (scenario.fleet.enabled) {
    if (scenario.fleet.n_relays < 1 ||
        scenario.fleet.n_relays > kMaxRelaysPerChain) {
      return invalid("fleet.n_relays must be in [1, " +
                     std::to_string(kMaxRelaysPerChain) + "], got " +
                     std::to_string(scenario.fleet.n_relays));
    }
    if (!(scenario.fleet.per_hop_shift_hz > 0.0)) {
      return invalid("fleet.per_hop_shift_hz must be positive");
    }
    if (!(scenario.fleet.stability_isolation_db > 0.0)) {
      return invalid("fleet.stability_isolation_db must be positive");
    }
    if (!(scenario.fleet.relay_spacing_m > 0.0)) {
      return invalid("fleet.relay_spacing_m must be positive");
    }
    if (scenario.fleet.battery_j < 0.0) {
      return invalid("fleet.battery_j must be >= 0 (0 = unlimited)");
    }
    if (!(scenario.fleet.hover_power_w > 0.0) ||
        !(scenario.fleet.travel_power_w > 0.0)) {
      return invalid("fleet.hover_power_w / fleet.travel_power_w must be positive");
    }
    if (!(scenario.fleet.speed_mps > 0.0)) {
      return invalid("fleet.speed_mps must be positive");
    }
    if (scenario.fleet.dwell_s < 0.0) {
      return invalid("fleet.dwell_s must be >= 0");
    }
  } else if (!scenario.fleet.readers.empty()) {
    return invalid("fleet.reader lines need fleet.enabled = true");
  }
  return Status::ok();
}

std::string serialize(const Scenario& scenario) {
  std::string out = "# rfly scenario v1\n";
  for (const auto& field : registry()) {
    if (!field.get) continue;
    out += field.key;
    out += " = ";
    out += field.get(scenario);
    out += "\n";
  }
  for (const auto& leg : scenario.legs) {
    out += "leg = " + format_vec3(leg.start) + " " + format_vec3(leg.end) + " " +
           std::to_string(leg.points) + "\n";
  }
  for (const auto& tag : scenario.tags) {
    out += "tag = " + std::to_string(tag.epc_index) + " " +
           format_vec3(tag.position);
    if (!tag.description.empty()) out += " " + tag.description;
    out += "\n";
  }
  for (const auto& reader : scenario.fleet.readers) {
    out += "fleet.reader = " + format_vec3(reader) + "\n";
  }
  return out;
}

Expected<Scenario> parse_scenario(const std::string& text) {
  Scenario scenario;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  // Scalar keys already assigned, with the line that set them. A duplicate
  // is a parse error (the old behavior silently kept the LAST value, so a
  // stale line at the top of a file invisibly lost to an edit at the
  // bottom). `leg`/`tag`/`fleet.reader` legitimately repeat — they append.
  std::vector<std::pair<std::string, int>> assigned;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string stripped = trim(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    const std::size_t eq = stripped.find('=');
    if (eq == std::string::npos) {
      return Status{StatusCode::kParseError,
                    "line " + std::to_string(line_no) + ": expected key = value, got '" +
                        stripped + "'"};
    }
    const std::string key = trim(stripped.substr(0, eq));
    const std::string value = trim(stripped.substr(eq + 1));
    if (key != "leg" && key != "tag" && key != "fleet.reader") {
      for (const auto& [seen_key, seen_line] : assigned) {
        if (seen_key == key) {
          return Status{StatusCode::kParseError,
                        "duplicate key '" + key + "' (first set at line " +
                            std::to_string(seen_line) + ")"}
              .with_context("line " + std::to_string(line_no));
        }
      }
      assigned.emplace_back(key, line_no);
    }
    const Status status = apply_override(scenario, key, value);
    if (!status.is_ok()) {
      return Status{status.code(), status.message()}.with_context(
          "line " + std::to_string(line_no));
    }
  }
  if (Status status = validate(scenario); !status.is_ok()) {
    return status;
  }
  return scenario;
}

Expected<Scenario> load_scenario_file(const std::string& path) {
  FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status{StatusCode::kIoError, "cannot open scenario file '" + path + "'"};
  }
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, file)) > 0) text.append(buf, n);
  std::fclose(file);
  return parse_scenario(text).with_context("file '" + path + "'");
}

Status apply_override(Scenario& scenario, const std::string& key,
                      const std::string& value) {
  if (key == "leg") {
    if (!set_leg(scenario, value)) {
      return {StatusCode::kParseError,
              "leg wants 'x0 y0 z0 x1 y1 z1 points', got '" + value + "'"};
    }
    return Status::ok();
  }
  if (key == "tag") {
    if (!set_tag(scenario, value)) {
      return {StatusCode::kParseError,
              "tag wants 'epc_index x y z [description]', got '" + value + "'"};
    }
    return Status::ok();
  }
  if (key == "fleet.reader") {
    if (!set_fleet_reader(scenario, value)) {
      return {StatusCode::kParseError,
              "fleet.reader wants 'x y z', got '" + value + "'"};
    }
    return Status::ok();
  }
  const FieldDef* field = find_field(key);
  if (field == nullptr) {
    return {StatusCode::kNotFound, "unknown scenario key '" + key + "'"};
  }
  if (!field->set(scenario, value)) {
    std::string message = "bad value '" + value + "' for key '" + key + "'";
    if (const char* use = field->replacement ? field->replacement(value) : nullptr) {
      message += ": '" + value + "' was removed; use '" + use + "'";
    }
    return {StatusCode::kParseError, std::move(message)};
  }
  return Status::ok();
}

namespace {

Scenario preset_building() {
  Scenario s;
  s.name = "building";
  s.seed = 1;
  // The paper's testbed: a 30 x 40 m research-building floor (Section 7.2),
  // same constants as core::building_environment().
  s.environment = {EnvironmentKind::kWarehouse, 40.0, 30.0, 0, false, 0.0, -10.0, 10.0};
  s.reader_position = {0.5, 0.5, 1.0};
  s.legs.push_back({{4.0, 12.0, 1.2}, {24.0, 12.3, 1.2}, 120});
  s.tags.push_back({0, {8.0, 10.0, 0.0}, "alpha"});
  s.tags.push_back({1, {14.0, 10.0, 0.0}, "beta"});
  s.tags.push_back({2, {20.0, 10.0, 0.0}, "gamma"});
  return s;
}

Scenario preset_warehouse() {
  Scenario s;
  s.name = "warehouse";
  s.seed = 23;
  // The warehouse-scan deployment: 40 x 30 m, two steel shelf rows, a
  // ceiling-mounted reader high enough to clear the shelf tops, and nine
  // tagged items along the aisles (examples/warehouse_scan.cpp is a thin
  // shell over this preset).
  s.environment = {EnvironmentKind::kWarehouse, 40.0, 30.0, 2, false, 0.0, -10.0, 10.0};
  s.reader_position = {1.0, 15.0, 4.0};
  for (double aisle_y : {5.0, 15.0, 25.0}) {
    s.legs.push_back({{1.0, aisle_y + 1.6, 1.2}, {39.0, aisle_y + 1.8, 1.2}, 140});
  }
  const char* names[] = {"pallet of drills",   "box of jackets", "solvent drums",
                         "printer cartridges", "bike frames",    "copper spools",
                         "server chassis",     "ceramic tiles",  "seed bags"};
  Rng placement(11);
  for (std::uint32_t i = 0; i < 9; ++i) {
    const double aisle_y = 5.0 + 10.0 * static_cast<double>(i % 3);
    const double x = 6.0 + 8.0 * static_cast<double>(i / 3) + placement.uniform(-1.0, 1.0);
    const double y = aisle_y + placement.uniform(-1.0, 1.0);
    s.tags.push_back({i, {x, y, 0.0}, names[i]});
  }
  return s;
}

Scenario preset_through_wall() {
  Scenario s;
  s.name = "through_wall";
  s.seed = 7;
  // The paper's non-line-of-sight story: the reader is separated from the
  // scanned aisle by a concrete wall; only the relay-borne link reaches the
  // tags (Fig. 11's NLoS series as a scan mission).
  s.environment = {EnvironmentKind::kEmpty, 0.0, 0.0, 0, true, 6.0, -10.0, 10.0};
  s.reader_position = {0.0, 0.0, 1.0};
  s.legs.push_back({{9.5, 2.0, 1.0}, {15.5, 2.2, 1.0}, 80});
  s.tags.push_back({0, {11.0, 0.0, 0.0}, "crate A"});
  s.tags.push_back({1, {12.5, 0.0, 0.0}, "crate B"});
  s.tags.push_back({2, {14.0, 0.0, 0.0}, "crate C"});
  return s;
}

Scenario preset_fleet_warehouse() {
  Scenario s;
  s.name = "fleet_warehouse";
  s.seed = 29;
  // The warehouse scanned by a relay fleet: two readers on opposite walls,
  // each rooting a 2-relay daisy chain (one static hover relay bridging to
  // the flying terminal relay), battery-budgeted so the planner matters.
  // Coarser grid than the single-relay warehouse preset: this preset rides
  // in the tier-1 smoke run, so it stays cheap.
  s.environment = {EnvironmentKind::kWarehouse, 40.0, 30.0, 2, false, 0.0, -10.0, 10.0};
  s.reader_position = {1.0, 15.0, 4.0};
  s.grid_resolution_m = 0.05;
  s.search_halfwidth_m = 2.0;
  for (double aisle_y : {5.0, 15.0, 25.0}) {
    s.legs.push_back({{6.0, aisle_y + 1.6, 1.2}, {34.0, aisle_y + 1.8, 1.2}, 90});
  }
  const char* names[] = {"pallet of drills",   "box of jackets", "solvent drums",
                         "printer cartridges", "bike frames",    "copper spools",
                         "server chassis",     "ceramic tiles",  "seed bags"};
  Rng placement(13);
  for (std::uint32_t i = 0; i < 9; ++i) {
    const double aisle_y = 5.0 + 10.0 * static_cast<double>(i % 3);
    const double x = 9.0 + 9.0 * static_cast<double>(i / 3) + placement.uniform(-1.0, 1.0);
    const double y = aisle_y + placement.uniform(-1.0, 1.0);
    s.tags.push_back({i, {x, y, 0.0}, names[i]});
  }
  s.fleet.enabled = true;
  s.fleet.n_relays = 2;
  s.fleet.relay_spacing_m = 12.0;
  s.fleet.battery_j = 20000.0;
  s.fleet.readers.push_back({1.0, 10.0, 4.0});
  s.fleet.readers.push_back({39.0, 20.0, 4.0});
  return s;
}

}  // namespace

Expected<Scenario> preset(const std::string& name) {
  if (name == "building") return preset_building();
  if (name == "warehouse") return preset_warehouse();
  if (name == "through_wall") return preset_through_wall();
  if (name == "fleet_warehouse") return preset_fleet_warehouse();
  std::string known;
  for (const auto& p : preset_names()) {
    if (!known.empty()) known += ", ";
    known += p;
  }
  return Status{StatusCode::kNotFound,
                "unknown preset '" + name + "' (known: " + known + ")"};
}

std::vector<std::string> preset_names() {
  return {"building", "warehouse", "through_wall", "fleet_warehouse"};
}

core::ScanMissionConfig mission_config(const Scenario& scenario) {
  core::ScanMissionConfig config;
  config.system = scenario.system;
  config.flight = scenario.flight;
  config.tracking = scenario.tracking;
  config.inventory = scenario.inventory;
  config.search_halfwidth_m = scenario.search_halfwidth_m;
  config.grid_resolution_m = scenario.grid_resolution_m;
  config.peak_threshold_fraction = scenario.peak_threshold_fraction;
  config.grid_margin_to_path_m = scenario.grid_margin_to_path_m;
  config.tags_below_path = scenario.tags_below_path;
  config.localize_threads = scenario.localize_threads;
  config.sar_kernel = scenario.sar_kernel;
  config.sar_search = scenario.sar_search;
  return config;
}

std::vector<Vec3> flight_plan(const Scenario& scenario) {
  std::vector<Vec3> plan;
  for (const auto& leg : scenario.legs) {
    const auto row = drone::linear_trajectory(leg.start, leg.end, leg.points);
    plan.insert(plan.end(), row.begin(), row.end());
  }
  return plan;
}

std::vector<core::TagPlacement> tag_placements(const Scenario& scenario) {
  std::vector<core::TagPlacement> tags;
  tags.reserve(scenario.tags.size());
  for (const auto& spec : scenario.tags) {
    core::TagPlacement placement;
    placement.config = scenario.system.tag;
    placement.config.epc = core::make_epc(spec.epc_index);
    placement.position = spec.position;
    tags.push_back(placement);
  }
  return tags;
}

core::InventoryDatabase database(const Scenario& scenario) {
  core::InventoryDatabase db;
  for (const auto& spec : scenario.tags) {
    if (!spec.description.empty()) {
      db.add(core::make_epc(spec.epc_index), spec.description);
    }
  }
  return db;
}

}  // namespace rfly::sim
