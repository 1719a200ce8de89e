// Seeded mutation fuzzer for the scenario text parser (`fuzz` label). Each
// preset is serialized, then mutated a fixed number of times by byte flips,
// dropped and duplicated lines, swapped values, and the knob values the
// format removed (`off`, `auto`). Every mutant must either parse, validate
// and re-serialize to a fixed point, or come back as a non-OK Status —
// never crash, hang or trip a sanitizer. A second stream sets one value
// past a work ceiling (or to a non-finite number); each of those mutants
// must fail with kInvalidArgument. The mutation streams are pure functions
// of their seeds, so a failure reproduces exactly; the ASan+UBSan tree runs
// the same count as tier-1.
#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/scenario.h"

namespace rfly::sim {
namespace {

constexpr int kMutantsPerPreset = 256;

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const auto& line : lines) text += line + "\n";
  return text;
}

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

/// One mutation of `text`, chosen and placed by `rng`.
std::string mutate(const std::string& text, Rng& rng) {
  std::vector<std::string> lines = split_lines(text);
  switch (rng.uniform_int(0, 4)) {
    case 0: {  // flip one bit of one byte
      std::string out = text;
      if (!out.empty()) {
        out[pick(rng, out.size())] ^= static_cast<char>(1 << rng.uniform_int(0, 7));
      }
      return out;
    }
    case 1:  // drop a line
      if (!lines.empty()) lines.erase(lines.begin() + pick(rng, lines.size()));
      return join_lines(lines);
    case 2:  // duplicate a line
      if (!lines.empty()) {
        const std::size_t i = pick(rng, lines.size());
        lines.insert(lines.begin() + i, lines[i]);
      }
      return join_lines(lines);
    case 3: {  // swap the values of two `key = value` lines
      if (lines.empty()) return text;
      std::string& a = lines[pick(rng, lines.size())];
      std::string& b = lines[pick(rng, lines.size())];
      const std::size_t ea = a.find('=');
      const std::size_t eb = b.find('=');
      if (ea == std::string::npos || eb == std::string::npos) return text;
      const std::string va = a.substr(ea + 1);
      a = a.substr(0, ea + 1) + b.substr(eb + 1);
      b = b.substr(0, eb + 1) + va;
      return join_lines(lines);
    }
    default: {  // a removed knob value in place of some line's value
      if (lines.empty()) return text;
      std::string& line = lines[pick(rng, lines.size())];
      const std::size_t eq = line.find('=');
      if (eq == std::string::npos) return text;
      line = line.substr(0, eq + 1) + (rng.chance(0.5) ? " off" : " auto");
      return join_lines(lines);
    }
  }
}

TEST(ScenarioFuzz, MutantsParseToFixedPointOrFailTyped) {
  Rng rng(0x5ce7'a210);
  int parsed_ok = 0;
  int rejected = 0;
  for (const auto& name : preset_names()) {
    const auto base = preset(name);
    ASSERT_TRUE(base.ok()) << name;
    const std::string text = serialize(*base);
    for (int m = 0; m < kMutantsPerPreset; ++m) {
      std::string mutant = text;
      const int mutations = static_cast<int>(rng.uniform_int(1, 3));
      for (int k = 0; k < mutations; ++k) mutant = mutate(mutant, rng);

      const auto parsed = parse_scenario(mutant);
      if (!parsed.ok()) {
        ++rejected;
        continue;
      }
      ++parsed_ok;
      EXPECT_TRUE(validate(*parsed).is_ok()) << name << " mutant " << m;
      const std::string once = serialize(*parsed);
      const auto reparsed = parse_scenario(once);
      ASSERT_TRUE(reparsed.ok())
          << name << " mutant " << m << ": " << reparsed.status().to_string()
          << "\n" << once;
      EXPECT_EQ(serialize(*reparsed), once) << name << " mutant " << m;
    }
  }
  // Both outcomes are exercised: the mutations neither all break the text
  // nor all leave it harmless.
  EXPECT_GT(parsed_ok, 0);
  EXPECT_GT(rejected, 0);
}

std::string format(double v) {
  char buf[40];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  (void)ec;
  return std::string(buf, ptr);
}

/// `text` with the line that sets `key` replaced by `key = value`.
std::string with_value(const std::string& text, const std::string& key,
                       const std::string& value) {
  std::vector<std::string> lines = split_lines(text);
  for (auto& line : lines) {
    if (line.rfind(key + " =", 0) == 0) line = key + " = " + value;
  }
  return join_lines(lines);
}

/// One over-budget or non-finite edit of `scenario`'s text, drawn by `rng`.
std::string over_budget(const Scenario& scenario, Rng& rng) {
  const std::string text = serialize(scenario);
  const char* non_finite[] = {"inf", "-inf", "nan"};
  const auto huge = [&](double lo_exp, double hi_exp) {
    return format(std::pow(10.0, rng.uniform(lo_exp, hi_exp)));
  };
  switch (rng.uniform_int(0, 5)) {
    case 0:  // scan grid over kMaxScanCells (from halfwidth ~72 m up)
      return with_value(text, "localize.search_halfwidth_m",
                        rng.chance(0.25) ? non_finite[pick(rng, 3)] : huge(2.0, 300.0));
    case 1:  // refinement over kMaxRefineCells (below ~6.5e-4 m)
      return with_value(text, "localize.grid_resolution_m", huge(-300.0, -4.0));
    case 2:
      return with_value(text, "localize.grid_margin_to_path_m", non_finite[pick(rng, 3)]);
    case 3: {  // one leg over kMaxLegWaypoints
      const auto points = rng.uniform_int(kMaxLegWaypoints + 1, std::int64_t{1} << 62);
      return text + "leg = 0 4 1.5 30 4 1.5 " + std::to_string(points) + "\n";
    }
    case 4: {  // a leg end past kMaxLegCoordinateM, or non-finite
      const std::string sign = rng.chance(0.5) ? "-" : "";
      const std::string c =
          rng.chance(0.25) ? non_finite[pick(rng, 3)] : sign + huge(6.01, 308.0);
      return text + "leg = 0 4 1.5 " + c + " 4 1.5 50\n";
    }
    default: {  // tags x waypoints over kMaxTagWaypoints, in full legs
      const std::size_t legs =
          kMaxTagWaypoints / (scenario.tags.size() * kMaxLegWaypoints) + 1;
      std::string out = text;
      for (std::size_t i = 0; i < legs; ++i) {
        out += "leg = 0 4 1.5 30 4 1.5 " + std::to_string(kMaxLegWaypoints) + "\n";
      }
      return out;
    }
  }
}

TEST(ScenarioFuzz, OverBudgetMutantsFailWithInvalidArgument) {
  Rng rng(0xb0d6'e7);
  for (const auto& name : preset_names()) {
    const auto base = preset(name);
    ASSERT_TRUE(base.ok()) << name;
    for (int m = 0; m < kMutantsPerPreset / 4; ++m) {
      const std::string mutant = over_budget(*base, rng);
      const auto parsed = parse_scenario(mutant);
      ASSERT_FALSE(parsed.ok()) << name << " mutant " << m << "\n" << mutant;
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
          << name << " mutant " << m << ": " << parsed.status().to_string();
    }
  }
}

}  // namespace
}  // namespace rfly::sim
