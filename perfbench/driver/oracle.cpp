#include "oracle.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/digest.h"
#include "common/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

std::uint64_t digest_status(std::uint64_t state, const rfly::Status& status) {
  return rfly::digest_word(state, static_cast<std::uint64_t>(status.code()));
}

std::string format_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

MissionAnswer answer_of(const rfly::sim::BatchResult& result) {
  using rfly::digest_double;
  using rfly::digest_word;
  MissionAnswer answer;
  std::uint64_t d = digest_word(0x7065'7266'6f72'636cull, result.seed);
  d = rfly::digest_string(d, result.scenario_name);
  d = digest_status(d, result.status);
  const rfly::sim::MissionRun& run = result.run;
  d = digest_status(d, run.health);
  d = digest_word(d, run.report.discovered);
  d = digest_word(d, run.report.localized);
  d = digest_double(d, run.report.flight_length_m);
  d = digest_double(d, run.aperture_coverage);
  d = digest_word(d, run.report.items.size());
  for (const auto& item : run.report.items) {
    d = rfly::digest_bytes(d, item.epc.data(), item.epc.size());
    d = rfly::digest_string(d, item.description);
    d = digest_word(d, item.discovered ? 1 : 0);
    d = digest_word(d, item.localized ? 1 : 0);
    d = digest_word(d, item.measurements);
    d = digest_status(d, item.status);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    answer.estimates.push_back(item.localized
                                   ? std::array<double, 3>{item.estimate.x,
                                                           item.estimate.y,
                                                           item.estimate.z}
                                   : std::array<double, 3>{nan, nan, nan});
  }
  answer.exact_digest = d;
  return answer;
}

bool answers_match(const MissionAnswer& got, const MissionAnswer& want,
                   double tolerance_m, std::string* why) {
  if (got.exact_digest != want.exact_digest) {
    if (why) *why = "exact-path digest differs";
    return false;
  }
  if (got.estimates.size() != want.estimates.size()) {
    if (why) *why = "item count differs";
    return false;
  }
  for (std::size_t i = 0; i < got.estimates.size(); ++i) {
    const auto& a = got.estimates[i];
    const auto& b = want.estimates[i];
    if (std::isnan(a[0]) != std::isnan(b[0])) {
      if (why) *why = "item " + std::to_string(i) + " localized differs";
      return false;
    }
    if (std::isnan(a[0])) continue;
    const double err = std::hypot(a[0] - b[0], a[1] - b[1], a[2] - b[2]);
    if (!(err <= tolerance_m)) {
      if (why) {
        *why = "item " + std::to_string(i) + " estimate off by " +
               format_double(err) + " m (limit " + format_double(tolerance_m) +
               " m)";
      }
      return false;
    }
  }
  return true;
}

std::vector<MissionAnswer> reference_answers(
    const std::vector<rfly::sim::BatchJob>& jobs) {
  std::vector<rfly::sim::BatchJob> ref = jobs;
  for (auto& job : ref) job.scenario.sar_kernel = rfly::localize::SarKernel::kExact;
  const auto results =
      rfly::sim::run_batch(ref, {host_threads(), rfly::sim::BatchMode::kPerMission});
  std::vector<MissionAnswer> answers;
  answers.reserve(results.size());
  for (const auto& r : results) answers.push_back(answer_of(r));
  return answers;
}

// File format, one mission per line:
//   <key> <exact digest, hex> <items> then x y z per item (nan when the
//   item was not localized), every double printed round-trip exact.
bool GoldenBook::load(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot read " + path;
    return false;
  }
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    std::string digest_hex;
    std::size_t items = 0;
    if (!(fields >> key >> digest_hex >> items)) {
      if (error) *error = path + ":" + std::to_string(line_no) + ": malformed";
      return false;
    }
    MissionAnswer answer;
    answer.exact_digest = std::stoull(digest_hex, nullptr, 16);
    for (std::size_t i = 0; i < items; ++i) {
      std::array<double, 3> xyz{};
      for (double& v : xyz) {
        std::string token;
        if (!(fields >> token)) {
          if (error) *error = path + ":" + std::to_string(line_no) + ": short";
          return false;
        }
        v = std::strtod(token.c_str(), nullptr);
      }
      answer.estimates.push_back(xyz);
    }
    entries_[key] = std::move(answer);
  }
  return true;
}

bool GoldenBook::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "# Reference answers for the RFly benchmark's golden sets: exact SAR\n"
         "# kernel, exact-path digest and per-item estimates. Regenerate with\n"
         "# `python3 perfbench/run.py --write-reference` only when answers are\n"
         "# meant to change.\n";
  for (const auto& [key, answer] : entries_) {
    char hex[24];
    std::snprintf(hex, sizeof hex, "%016" PRIx64, answer.exact_digest);
    out << key << ' ' << hex << ' ' << answer.estimates.size();
    for (const auto& xyz : answer.estimates) {
      for (double v : xyz) out << ' ' << (std::isnan(v) ? "nan" : format_double(v));
    }
    out << '\n';
  }
  return static_cast<bool>(out);
}

const MissionAnswer* GoldenBook::find(const std::string& key) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

void GoldenBook::put(const std::string& key, MissionAnswer answer) {
  entries_[key] = std::move(answer);
}

GoldenSet warehouse_golden_set() {
  GoldenSet set;
  set.name = "warehouse";
  set.threads = host_threads();
  const rfly::sim::Scenario scenario = warehouse_fast_scenario();
  set.tolerance_m = scenario.grid_resolution_m / 10.0;
  for (std::uint64_t i = 0; i < 4; ++i) {
    const std::uint64_t seed = rfly::stream_seed(1, i);
    set.jobs.push_back({scenario, seed});
    set.keys.push_back(set.name + "/" + std::to_string(seed));
  }
  return set;
}

GoldenSet fleet_golden_set() {
  GoldenSet set;
  set.name = "fleet";
  set.threads = 1;
  const rfly::sim::Scenario scenario = fleet_scenario(150, 1);
  set.tolerance_m = scenario.grid_resolution_m / 10.0;
  const std::uint64_t seed = rfly::stream_seed(1, 0);
  set.jobs.push_back({scenario, seed});
  set.keys.push_back(set.name + "/" + std::to_string(seed));
  return set;
}

std::size_t check_golden(const GoldenSet& golden,
                         const std::vector<MissionAnswer>& got,
                         const GoldenBook& book) {
  std::size_t misses = 0;
  for (std::size_t i = 0; i < golden.keys.size(); ++i) {
    const MissionAnswer* want = book.find(golden.keys[i]);
    std::string why = "no committed reference";
    if (want == nullptr || i >= got.size() ||
        !answers_match(got[i], *want, golden.tolerance_m, &why)) {
      std::fprintf(stderr, "oracle: golden %s: %s\n", golden.keys[i].c_str(),
                   why.c_str());
      ++misses;
    }
  }
  return misses;
}

}  // namespace perfbench
