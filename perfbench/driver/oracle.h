// Correctness oracle. A mission's answer splits into the parts produced by
// exact paths (Gen2 discovery, exact measurement plane, item statuses),
// which must match a reference bit for bit, and the fast-SAR estimates,
// which must stay within res/10 of the exact-kernel reference (the bound
// the fast kernel documents). References come from two places: an
// in-process exact-kernel rerun of sampled missions of the run itself, and
// the committed golden file for fixed seeds.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/batch.h"

namespace perfbench {

struct MissionAnswer {
  /// Digest of the exact-path parts of the result.
  std::uint64_t exact_digest = 0;
  /// One entry per report item: the estimate when localized, else NaNs.
  std::vector<std::array<double, 3>> estimates;
};

MissionAnswer answer_of(const rfly::sim::BatchResult& result);

/// True when `got` matches `want`: equal exact digests, and every estimate
/// within `tolerance_m` (both NaN counts as equal). `why` receives the first
/// difference.
bool answers_match(const MissionAnswer& got, const MissionAnswer& want,
                   double tolerance_m, std::string* why);

/// The same jobs rerun through the reference path: exact SAR kernel (same
/// search), per-mission mode.
std::vector<MissionAnswer> reference_answers(
    const std::vector<rfly::sim::BatchJob>& jobs);

/// Committed reference answers, keyed by "<set>/<engine seed>".
class GoldenBook {
 public:
  /// Load `path`; false (with `error`) when missing or malformed.
  bool load(const std::string& path, std::string* error);
  bool save(const std::string& path) const;

  const MissionAnswer* find(const std::string& key) const;
  void put(const std::string& key, MissionAnswer answer);

 private:
  std::map<std::string, MissionAnswer> entries_;
};

/// The fixed-seed golden sets every run re-checks: a few warehouse-fast
/// missions and one small fleet. `jobs` and `keys` line up.
struct GoldenSet {
  std::string name;
  std::vector<rfly::sim::BatchJob> jobs;
  std::vector<std::string> keys;
  unsigned threads = 0;
  double tolerance_m = 0.0;
};
GoldenSet warehouse_golden_set();
GoldenSet fleet_golden_set();

/// Check `got` (answers of golden.jobs, in order) against the book;
/// returns the number of mismatches and prints each.
std::size_t check_golden(const GoldenSet& golden,
                         const std::vector<MissionAnswer>& got,
                         const GoldenBook& book);

}  // namespace perfbench
