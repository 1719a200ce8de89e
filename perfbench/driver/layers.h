// Measurement plumbing shared by the workloads: clocks and percentiles, the
// result-line metric set, deltas of the program's own obs counters and
// histograms, and the span folding behind the attribution report.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// Metrics in insertion order, rendered into the result line.
class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  std::string to_json() const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Point-in-time copy of the obs registry, keyed by metric name.
struct ObsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, rfly::obs::HistogramSnapshot> histograms;

  static ObsSnapshot take();
  std::uint64_t counter(const std::string& name) const;
  double gauge(const std::string& name) const;
};

/// Counter growth between two snapshots.
std::uint64_t counter_delta(const ObsSnapshot& before, const ObsSnapshot& after,
                            const std::string& name);

/// Observations a histogram gained between two snapshots.
rfly::obs::HistogramSnapshot histogram_delta(const ObsSnapshot& before,
                                             const ObsSnapshot& after,
                                             const std::string& name);

/// Quantile of a fixed-bucket histogram, interpolated geometrically inside
/// the bucket that holds it (the overflow bucket reports its lower bound).
/// The daemon's latency buckets are a factor of 4 wide, so this is coarse.
double histogram_quantile(const rfly::obs::HistogramSnapshot& hist, double q);

/// Spans folded by name: total duration, self time (duration minus the
/// same-thread child spans it encloses; a pool.job span's self time goes to
/// the span that opened the parallel region) and call count.
struct SpanTotals {
  std::map<std::string, double> total_s;
  std::map<std::string, double> self_s;
  std::map<std::string, std::uint64_t> calls;
  /// Sum of root-span durations over every thread, except spans that wait
  /// on other threads' work: the busy time the trace accounts for.
  double busy_s = 0.0;
  std::uint64_t dropped = 0;

  void fold(const rfly::obs::Trace& trace);
  double total(const std::string& name) const;
};

/// Print the attribution table (per-span self time as a share of busy
/// time, largest first) and return the unattributed share: the self time
/// of wrapper spans over busy time.
double print_attribution(const char* workload, const SpanTotals& spans);

}  // namespace perfbench
