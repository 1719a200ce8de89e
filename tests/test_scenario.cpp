#include <gtest/gtest.h>

#include <chrono>
#include <clocale>
#include <string>

#include "sim/pipeline.h"
#include "sim/scenario.h"

namespace rfly::sim {
namespace {

// Bit-exact report equality: the round-trip and batch guarantees are about
// reproducing *identical* missions, not approximately similar ones.
void expect_reports_identical(const core::ScanReport& a, const core::ScanReport& b) {
  EXPECT_EQ(a.discovered, b.discovered);
  EXPECT_EQ(a.localized, b.localized);
  EXPECT_DOUBLE_EQ(a.flight_length_m, b.flight_length_m);
  ASSERT_EQ(a.items.size(), b.items.size());
  for (std::size_t i = 0; i < a.items.size(); ++i) {
    EXPECT_EQ(a.items[i].epc, b.items[i].epc) << "item " << i;
    EXPECT_EQ(a.items[i].description, b.items[i].description) << "item " << i;
    EXPECT_EQ(a.items[i].discovered, b.items[i].discovered) << "item " << i;
    EXPECT_EQ(a.items[i].localized, b.items[i].localized) << "item " << i;
    EXPECT_EQ(a.items[i].measurements, b.items[i].measurements) << "item " << i;
    EXPECT_EQ(a.items[i].estimate.x, b.items[i].estimate.x) << "item " << i;
    EXPECT_EQ(a.items[i].estimate.y, b.items[i].estimate.y) << "item " << i;
    EXPECT_EQ(a.items[i].estimate.z, b.items[i].estimate.z) << "item " << i;
  }
}

TEST(Scenario, EveryPresetValidates) {
  for (const auto& name : preset_names()) {
    const auto scenario = preset(name);
    ASSERT_TRUE(scenario.ok()) << name;
    const Status status = validate(*scenario);
    EXPECT_TRUE(status.is_ok()) << name << ": " << status.to_string();
  }
}

TEST(Scenario, UnknownPresetIsNotFound) {
  const auto scenario = preset("starship");
  ASSERT_FALSE(scenario.ok());
  EXPECT_EQ(scenario.status().code(), StatusCode::kNotFound);
}

// The golden round-trip: serialize -> parse must reproduce the scenario
// exactly, verified end-to-end by running both through the pipeline and
// demanding bit-identical reports.
TEST(Scenario, PresetsRoundTripThroughTextBitIdentically) {
  for (const auto& name : preset_names()) {
    const auto original = preset(name);
    ASSERT_TRUE(original.ok()) << name;

    const std::string text = serialize(*original);
    const auto parsed = parse_scenario(text);
    ASSERT_TRUE(parsed.ok()) << name << ": " << parsed.status().to_string();
    // Re-serializing the parsed value must give back the same text: the
    // cheap proof that no field was lost or rounded.
    EXPECT_EQ(serialize(*parsed), text) << name;

    const auto run_a = run_scenario(*original);
    const auto run_b = run_scenario(*parsed);
    ASSERT_TRUE(run_a.ok()) << name << ": " << run_a.status().to_string();
    ASSERT_TRUE(run_b.ok()) << name << ": " << run_b.status().to_string();
    expect_reports_identical(run_a->report, run_b->report);
  }
}

// Scenario text is locale-independent: serialization goes through
// std::to_chars/from_chars, which never consult LC_NUMERIC. Under a comma-
// decimal locale like de_DE, the old strtod/printf path wrote "3,5" and
// parsed "3.5" as 3 — every double in the file silently truncated. Skipped
// when the container has no such locale installed (only C/POSIX).
TEST(Scenario, RoundTripSurvivesCommaDecimalLocale) {
  const char* locale = std::setlocale(LC_NUMERIC, "de_DE.UTF-8");
  if (locale == nullptr) locale = std::setlocale(LC_NUMERIC, "de_DE.utf8");
  if (locale == nullptr) {
    GTEST_SKIP() << "no de_DE locale installed; cannot exercise comma decimals";
  }
  // Sanity: the locale really uses comma decimals, so printf would betray us.
  char probe[16];
  std::snprintf(probe, sizeof probe, "%.1f", 1.5);
  const bool comma_locale = std::string(probe) == "1,5";

  for (const auto& name : preset_names()) {
    const auto original = preset(name);
    ASSERT_TRUE(original.ok()) << name;
    const std::string text = serialize(*original);
    EXPECT_EQ(text.find(','), std::string::npos)
        << name << ": serialization leaked the locale decimal separator";
    const auto parsed = parse_scenario(text);
    ASSERT_TRUE(parsed.ok()) << name << ": " << parsed.status().to_string();
    EXPECT_EQ(serialize(*parsed), text) << name;
  }
  std::setlocale(LC_NUMERIC, "C");
  EXPECT_TRUE(comma_locale) << "locale installed but uses '.' decimals; "
                               "test proved less than intended";
}

TEST(Scenario, ValidatorRejectsEmptyFlightPlan) {
  auto scenario = *preset("building");
  scenario.legs.clear();
  EXPECT_EQ(validate(scenario).code(), StatusCode::kEmptyFlightPlan);
}

TEST(Scenario, ValidatorRejectsEmptyPopulation) {
  auto scenario = *preset("building");
  scenario.tags.clear();
  EXPECT_EQ(validate(scenario).code(), StatusCode::kEmptyPopulation);
}

TEST(Scenario, ValidatorRejectsClippedSearchWindow) {
  auto scenario = *preset("building");
  scenario.grid_margin_to_path_m = scenario.search_halfwidth_m;
  const Status status = validate(scenario);
  EXPECT_EQ(status.code(), StatusCode::kDegenerateGrid);
  // Actionable: the message names both offending knobs with their values.
  EXPECT_NE(status.to_string().find("grid_margin_to_path_m"), std::string::npos);
  EXPECT_NE(status.to_string().find("search_halfwidth_m"), std::string::npos);
}

TEST(Scenario, ValidatorRejectsDuplicateEpcIndices) {
  auto scenario = *preset("building");
  scenario.tags[1].epc_index = scenario.tags[0].epc_index;
  EXPECT_EQ(validate(scenario).code(), StatusCode::kInvalidArgument);

  // Several duplicates: epc 900 held by tags 2, 5 and 7, epc 800 by tags 3
  // and 4. The reported pair is the one an all-pairs scan meets first (the
  // smallest i with a repeat, then its next holder), not the smallest epc
  // nor the smallest j.
  scenario.tags.resize(8, scenario.tags.front());
  for (std::uint32_t i = 0; i < 8; ++i) scenario.tags[i].epc_index = 100 + i;
  for (std::size_t i : {2, 5, 7}) scenario.tags[i].epc_index = 900;
  for (std::size_t i : {3, 4}) scenario.tags[i].epc_index = 800;
  const Status status = validate(scenario);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.to_string(),
            "INVALID_ARGUMENT: scenario 'building': tags 2 and 5 share epc_index 900");
}

TEST(Scenario, ValidatorRejectsNonPositiveResolution) {
  auto scenario = *preset("building");
  scenario.grid_resolution_m = 0.0;
  EXPECT_EQ(validate(scenario).code(), StatusCode::kInvalidArgument);
}

// Inputs that would abort the process (std::bad_alloc), spin in the peak
// refinement, or scan an infinite window: each fails validate() with a typed
// error naming the field, and for a work ceiling the cost and the limit.
TEST(Scenario, ValidatorRejectsHostileWorkWithTypedError) {
  const struct {
    const char* key;
    const char* value;
    const char* message;
  } cases[] = {
      {"localize.search_halfwidth_m", "1e6",
       "localize.search_halfwidth_m: a scan grid of 799999779999994 cells per "
       "tag exceeds the limit of 4194304"},
      {"leg", "0 4 1.5 30 4 1.5 4000000000",
       "leg 3: 4000000000 waypoints exceed the limit of 1048576"},
      {"localize.grid_resolution_m", "1e-7",
       "localize.grid_resolution_m: refining 11250015000005 cells per tag "
       "exceeds the limit of 262144"},
      {"localize.search_halfwidth_m", "inf",
       "localize.search_halfwidth_m must be finite, got inf"},
      {"localize.grid_margin_to_path_m", "nan",
       "localize.grid_margin_to_path_m must be finite, got nan"},
      {"leg", "0 4 1.5 30 nan 1.5 50",
       "leg 3: coordinate nan is not finite or exceeds the limit of 1e+06 m"},
  };
  for (const auto& c : cases) {
    auto scenario = *preset("warehouse");
    ASSERT_TRUE(apply_override(scenario, c.key, c.value).is_ok()) << c.key;
    const Status status = validate(scenario);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << c.key << "=" << c.value;
    EXPECT_EQ(status.to_string(),
              std::string("INVALID_ARGUMENT: scenario 'warehouse': ") + c.message);
  }
}

// The ceilings sit at least 100x above every preset: each still validates
// with its costs scaled by 100 along one budgeted axis at a time. Each such
// scaling grows the SAR work product (tags x cells x waypoints) by at most
// 100x, and that product is itself a ceiling, so the axes are scaled one
// by one rather than all at once. (The 5000-tag fleet workload has its own
// check in test_fleet.cpp.)
TEST(Scenario, WorkCeilingsLeaveHeadroomOverPresets) {
  for (const auto& name : preset_names()) {
    const Scenario base = *preset(name);
    Scenario wider = base;
    wider.search_halfwidth_m *= 10.0;  // 100x the scan cells
    Scenario finer = base;
    finer.grid_resolution_m /= 10.0;  // 100x the refine cells
    Scenario longer = base;
    for (auto& leg : longer.legs) leg.points *= 100;
    for (const Scenario& scenario : {base, wider, finer, longer}) {
      EXPECT_TRUE(validate(scenario).is_ok())
          << name << ": " << validate(scenario).to_string();
    }
  }
}

// Each ceiling admits its limit and rejects one past it.
TEST(Scenario, ValidatorEnforcesEachWorkCeilingAtItsBoundary) {
  const auto expect_limit = [](const Scenario& ok, const Scenario& over,
                               const std::string& field) {
    EXPECT_TRUE(validate(ok).is_ok()) << field << ": " << validate(ok).to_string();
    const Status status = validate(over);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << field;
    EXPECT_NE(status.to_string().find(field), std::string::npos) << status.to_string();
  };
  const Scenario building = *preset("building");  // 3 tags, 120 waypoints

  Scenario ok = building;
  Scenario over = building;
  ok.legs[0].points = kMaxLegWaypoints;
  over.legs[0].points = kMaxLegWaypoints + 1;
  expect_limit(ok, over, "leg 0: 1048577 waypoints exceed the limit of 1048576");

  // 3 tags x 85 or 86 legs of 2^20 waypoints, around the 2^28 ceiling. At
  // more than 256 cells a tag, 2^28 tag-waypoints are already over the SAR
  // work ceiling (2^36 cell-samples), so the search window shrinks to a
  // 0.5 m half-width on a 5 cm grid (under 200 cells a tag).
  ok.search_halfwidth_m = 0.5;
  ok.grid_resolution_m = 0.05;
  over.search_halfwidth_m = ok.search_halfwidth_m;
  over.grid_resolution_m = ok.grid_resolution_m;
  ok.legs.assign(85, {{0, 4, 1.5}, {30, 4, 1.5}, kMaxLegWaypoints});
  over.legs.assign(86, ok.legs.front());
  expect_limit(ok, over, "tag x leg: 3 tags x 90177536 waypoints");

  ok = building;
  over = building;
  ok.search_halfwidth_m = 70.0;  // 2801 x 1394 cells on the 0.05 m scan grid
  over.search_halfwidth_m = 80.0;
  expect_limit(ok, over, "cells per tag exceeds the limit of 4194304");

  ok = building;
  over = building;
  ok.grid_resolution_m = 1e-3;  // 5 candidates x 151^2 cells
  over.grid_resolution_m = 5e-4;
  expect_limit(ok, over, "cells per tag exceeds the limit of 262144");

  ok = *preset("warehouse");
  over = ok;
  ok.environment.shelf_rows = kMaxShelfRows;
  over.environment.shelf_rows = kMaxShelfRows + 1;
  expect_limit(ok, over, "env.shelf_rows must be in [0, 256], got 257");

  ok = *preset("fleet_warehouse");
  over = ok;
  ok.fleet.n_relays = kMaxRelaysPerChain;
  over.fleet.n_relays = kMaxRelaysPerChain + 1;
  expect_limit(ok, over, "fleet.n_relays must be in [1, 256], got 257");

  ok = building;
  over = building;
  ok.legs[0].end.x = kMaxLegCoordinateM;
  over.legs[0].end.x = -1.5 * kMaxLegCoordinateM;
  expect_limit(ok, over, "leg 0: coordinate -1500000 is not finite");

  // 3 tags x (6655 scan + 320 refine cells) over 3,284,084 or 3,284,085
  // waypoints, around the 2^36 SAR work ceiling.
  ok = building;
  over = building;
  ok.legs.assign(3, {{4.0, 12.0, 1.2}, {24.0, 12.3, 1.2}, kMaxLegWaypoints});
  ok.legs.push_back({{4.0, 12.0, 1.2}, {24.0, 12.3, 1.2}, 138356});
  over.legs = ok.legs;
  ++over.legs.back().points;
  expect_limit(ok, over, "SAR work: 3 tags x (6655 scan + 320 refine cells) x "
                         "3284085 waypoints = 68719478625 cell-samples exceed "
                         "the limit of 68719476736");
}

// One tag, one 2^20-waypoint leg and a 4.13 M-cell scan grid: every factor
// sits under its own ceiling, but together they ask for 2^42 cell-samples
// of SAR sweep. validate() refuses it at once, naming the factors.
TEST(Scenario, SarWorkProductOverCeilingFailsValidateAtOnce) {
  Scenario hostile = *preset("warehouse");
  hostile.tags.resize(1);
  hostile.legs.assign(1, {{1.0, 6.6, 1.2}, {39.0, 6.8, 1.2}, kMaxLegWaypoints});
  hostile.search_halfwidth_m = 72.0;
  const auto start = std::chrono::steady_clock::now();
  const Status status = validate(hostile);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.to_string().find("SAR work: 1 tags x (4134235 scan + 320 "
                                    "refine cells) x 1048576 waypoints"),
            std::string::npos)
      << status.to_string();
  EXPECT_NE(status.to_string().find("exceed the limit of 68719476736"),
            std::string::npos)
      << status.to_string();
  EXPECT_LT(elapsed, std::chrono::milliseconds(50));  // measured at ~10 us
  // The same scenario as text, through the parser rflyd runs on SUBMIT.
  const auto parsed = parse_scenario(serialize(hostile));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(Scenario, ParseReportsLineNumberOnBadInput) {
  const auto result = parse_scenario("seed = 3\nnot a line\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
  EXPECT_NE(result.status().to_string().find("line 2"), std::string::npos);
}

TEST(Scenario, ParseRejectsUnknownKey) {
  const auto result = parse_scenario("warp_factor = 9\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_NE(result.status().to_string().find("warp_factor"), std::string::npos);
}

TEST(Scenario, ParseRejectsBadValue) {
  const auto result = parse_scenario("seed = banana\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

// A repeated scalar key used to silently keep the last value — a typo'd
// sweep file ("localize.sar_kernel" set twice) ran the wrong mission with
// no warning. Now it is a parse error naming both lines. Repeatable keys
// (leg/tag) stay repeatable — the preset round-trip above proves that.
TEST(Scenario, ParseRejectsDuplicateScalarKey) {
  const auto result = parse_scenario("seed = 3\nname = a\nseed = 4\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
  const std::string text = result.status().to_string();
  EXPECT_NE(text.find("duplicate key 'seed'"), std::string::npos) << text;
  EXPECT_NE(text.find("line 3"), std::string::npos) << text;   // the duplicate
  EXPECT_NE(text.find("line 1"), std::string::npos) << text;   // first set
}

// faults.* keys are first-class scenario fields: they serialize, parse back
// bit-identically, and the validator rejects out-of-range rates.
TEST(Scenario, FaultConfigRoundTripsThroughText) {
  auto scenario = *preset("building");
  scenario.faults.dropout = 0.125;
  scenario.faults.phase_burst = 0.03;
  scenario.faults.phase_burst_std_rad = 0.7;
  scenario.faults.relay_cfo_std_rad = 0.001;
  scenario.faults.wind_jitter_std_m = 0.02;
  scenario.faults.embedded_loss = 0.05;
  scenario.faults.max_attempts = 5;

  const std::string text = serialize(scenario);
  const auto parsed = parse_scenario(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(serialize(*parsed), text);
  EXPECT_EQ(parsed->faults.dropout, 0.125);
  EXPECT_EQ(parsed->faults.phase_burst, 0.03);
  EXPECT_EQ(parsed->faults.phase_burst_std_rad, 0.7);
  EXPECT_EQ(parsed->faults.relay_cfo_std_rad, 0.001);
  EXPECT_EQ(parsed->faults.wind_jitter_std_m, 0.02);
  EXPECT_EQ(parsed->faults.embedded_loss, 0.05);
  EXPECT_EQ(parsed->faults.max_attempts, 5);
}

TEST(Scenario, ValidatorRejectsBadFaultConfig) {
  auto scenario = *preset("building");
  scenario.faults.dropout = 1.5;
  EXPECT_EQ(validate(scenario).code(), StatusCode::kInvalidArgument);

  scenario = *preset("building");
  scenario.faults.wind_jitter_std_m = -0.1;
  EXPECT_EQ(validate(scenario).code(), StatusCode::kInvalidArgument);

  scenario = *preset("building");
  scenario.faults.max_attempts = 0;
  EXPECT_EQ(validate(scenario).code(), StatusCode::kInvalidArgument);
}

TEST(Scenario, ApplyOverrideChangesOneKnob) {
  auto scenario = *preset("building");
  ASSERT_TRUE(apply_override(scenario, "localize.grid_resolution_m", "0.05").is_ok());
  EXPECT_DOUBLE_EQ(scenario.grid_resolution_m, 0.05);
  EXPECT_EQ(apply_override(scenario, "no.such.key", "1").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(apply_override(scenario, "seed", "x").code(), StatusCode::kParseError);
}

// The search-strategy knob is a first-class scenario field: non-default
// values survive the serialize -> parse round trip, and an unknown mode
// name is a parse error (not a silent fallback to the legacy sweep).
TEST(Scenario, SearchModeRoundTripsAndRejectsUnknownNames) {
  auto scenario = *preset("building");
  EXPECT_EQ(scenario.sar_search, localize::SarSearch::kExact);
  scenario.sar_search = localize::SarSearch::kCoarseToFine;
  const std::string text = serialize(scenario);
  EXPECT_NE(text.find("coarse2fine"), std::string::npos) << text;
  const auto parsed = parse_scenario(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->sar_search, localize::SarSearch::kCoarseToFine);
  EXPECT_EQ(serialize(*parsed), text);

  ASSERT_TRUE(apply_override(scenario, "localize.search", "incremental").is_ok());
  EXPECT_EQ(scenario.sar_search, localize::SarSearch::kIncremental);
  const Status bad = apply_override(scenario, "localize.search", "quantum");
  EXPECT_EQ(bad.code(), StatusCode::kParseError);
  // A rejected override never clobbers the knob.
  EXPECT_EQ(scenario.sar_search, localize::SarSearch::kIncremental);
  EXPECT_FALSE(
      parse_scenario("name = x\nlocalize.search = quantum\n").ok());
}

// Knob values the format removed fail with a parse error naming their
// replacement, both as an override and as a line of a saved file — older
// builds wrote `measure.plane = auto` into every scenario they serialized.
// serialize() no longer writes `measure.plane` at all, so the saved-file
// case inserts that line.
TEST(Scenario, RemovedKnobValuesNameTheirReplacement) {
  struct Removed {
    const char* key;
    const char* value;
    const char* replacement;
  };
  const Removed removed[] = {{"measure.plane", "off", "exact"},
                             {"measure.plane", "auto", "exact"},
                             {"measure.plane", "fast", "exact"},
                             {"localize.sar_kernel", "auto", "fast"}};
  const std::string saved = serialize(*preset("building"));
  for (const auto& r : removed) {
    const std::string hint = std::string("'") + r.value + "' was removed; use '" +
                             r.replacement + "'";
    auto scenario = *preset("building");
    const Status overridden = apply_override(scenario, r.key, r.value);
    EXPECT_EQ(overridden.code(), StatusCode::kParseError) << r.key;
    EXPECT_NE(overridden.to_string().find(hint), std::string::npos)
        << overridden.to_string();

    std::string text = saved;
    const std::string line = std::string(r.key) + " = ";
    const std::size_t at = text.find(line);
    if (at == std::string::npos) {
      text += line + r.value + "\n";
    } else {
      text.replace(at, text.find('\n', at) - at, line + r.value);
    }
    const auto parsed = parse_scenario(text);
    ASSERT_FALSE(parsed.ok()) << r.key << " = " << r.value;
    EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
    EXPECT_NE(parsed.status().to_string().find(hint), std::string::npos)
        << parsed.status().to_string();
  }
}

// The measure stage has one plane. Files saved while it had two carry
// `measure.plane = exact`: that line still parses, in a file and as an
// override, and yields the scenario the text without it yields.
// serialize() stops writing the key and still round-trips.
TEST(Scenario, SavedPlaneExactLineParsesAndChangesNothing) {
  for (const auto& name : preset_names()) {
    const Scenario original = *preset(name);
    const std::string text = serialize(original);
    EXPECT_EQ(text.find("measure.plane"), std::string::npos) << name;
    const auto without = parse_scenario(text);
    ASSERT_TRUE(without.ok()) << without.status().to_string();
    EXPECT_EQ(serialize(*without), text) << name;

    const auto with = parse_scenario(text + "measure.plane = exact\n");
    ASSERT_TRUE(with.ok()) << with.status().to_string();
    EXPECT_EQ(serialize(*with), text) << name;

    Scenario overridden = original;
    ASSERT_TRUE(apply_override(overridden, "measure.plane", "exact").is_ok());
    EXPECT_EQ(serialize(overridden), text) << name;
  }
  // A value it never took is a plain bad value, with no replacement named.
  Scenario scenario = *preset("building");
  const Status bogus = apply_override(scenario, "measure.plane", "bogus");
  EXPECT_EQ(bogus.code(), StatusCode::kParseError);
  EXPECT_EQ(bogus.to_string().find("was removed"), std::string::npos)
      << bogus.to_string();
  // Still a scalar key: a second line is a duplicate, as for any knob.
  const std::string twice = serialize(*preset("building")) +
                            "measure.plane = exact\nmeasure.plane = exact\n";
  EXPECT_EQ(parse_scenario(twice).status().code(), StatusCode::kParseError);
}

TEST(Scenario, TagDescriptionsWithSpacesRoundTrip) {
  auto scenario = *preset("warehouse");
  const auto parsed = parse_scenario(serialize(scenario));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->tags.size(), scenario.tags.size());
  for (std::size_t i = 0; i < scenario.tags.size(); ++i) {
    EXPECT_EQ(parsed->tags[i].description, scenario.tags[i].description);
    EXPECT_EQ(parsed->tags[i].position.x, scenario.tags[i].position.x);
    EXPECT_EQ(parsed->tags[i].position.y, scenario.tags[i].position.y);
  }
}

TEST(Scenario, LoadScenarioFileReportsIoError) {
  const auto result = load_scenario_file("/no/such/dir/mission.rfly");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(Scenario, ThroughWallEnvironmentHasTheWall) {
  const auto scenario = preset("through_wall");
  ASSERT_TRUE(scenario.ok());
  EXPECT_TRUE(scenario->environment.wall);
  const auto env = scenario->environment.build();
  EXPECT_FALSE(env.obstacles().empty());
}

}  // namespace
}  // namespace rfly::sim
