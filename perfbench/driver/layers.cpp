#include "layers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include <sys/resource.h>

#include "common/json.h"

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(const std::vector<double>& values) { return quantile(values, 0.5); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void MetricSet::add(const std::string& name, double value,
                    const std::string& unit) {
  entries_.push_back({name, value, unit});
}

std::string MetricSet::to_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (i > 0) out += ", ";
    out += rfly::json_quote(e.name) + ": {\"value\": " +
           rfly::json_number(e.value) + ", \"unit\": " + rfly::json_quote(e.unit) +
           "}";
  }
  return out + "}";
}

ObsSnapshot ObsSnapshot::take() {
  ObsSnapshot out;
  const rfly::obs::MetricsSnapshot snap = rfly::obs::snapshot();
  for (const auto& c : snap.counters) out.counters[c.name] = c.value;
  for (const auto& g : snap.gauges) out.gauges[g.name] = g.value;
  for (const auto& h : snap.histograms) out.histograms[h.name] = h;
  return out;
}

std::uint64_t ObsSnapshot::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

double ObsSnapshot::gauge(const std::string& name) const {
  const auto it = gauges.find(name);
  return it == gauges.end() ? 0.0 : it->second;
}

std::uint64_t counter_delta(const ObsSnapshot& before, const ObsSnapshot& after,
                            const std::string& name) {
  return after.counter(name) - before.counter(name);
}

rfly::obs::HistogramSnapshot histogram_delta(const ObsSnapshot& before,
                                             const ObsSnapshot& after,
                                             const std::string& name) {
  rfly::obs::HistogramSnapshot out;
  const auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return out;
  out = a->second;
  const auto b = before.histograms.find(name);
  if (b == before.histograms.end()) return out;
  for (std::size_t i = 0; i < out.counts.size() && i < b->second.counts.size(); ++i) {
    out.counts[i] -= b->second.counts[i];
  }
  out.count -= b->second.count;
  out.sum -= b->second.sum;
  return out;
}

double histogram_quantile(const rfly::obs::HistogramSnapshot& hist, double q) {
  if (hist.count == 0 || hist.counts.empty()) return 0.0;
  const double target = q * static_cast<double>(hist.count);
  double seen = 0.0;
  for (std::size_t i = 0; i < hist.counts.size(); ++i) {
    const double here = static_cast<double>(hist.counts[i]);
    if (here > 0.0 && seen + here >= target) {
      if (i >= hist.bounds.size()) return hist.bounds.empty() ? 0.0 : hist.bounds.back();
      const double hi = hist.bounds[i];
      const double frac = (target - seen) / here;
      if (i == 0) return hi * frac;
      // Bucket bounds grow geometrically: interpolate in log space.
      const double lo = hist.bounds[i - 1];
      return lo * std::pow(hi / lo, frac);
    }
    seen += here;
  }
  return hist.bounds.empty() ? 0.0 : hist.bounds.back();
}

namespace {

/// Spans whose duration is mostly waiting on work other threads trace: the
/// benchmark's client calls and the daemon's per-request handler (a RESULT
/// request blocks until its mission is done). They are not busy time.
bool is_wait_span(const std::string& name) {
  return name == "bench.submit" || name == "bench.result" ||
         name == "service.request";
}

/// Spans that only group work (the benchmark's own call spans, batch/pool
/// wrappers, the mission envelope): their self time is busy time no named
/// layer claims.
bool is_wrapper_span(const std::string& name) {
  return (name.rfind("bench.", 0) == 0 && !is_wait_span(name)) ||
         name == "batch.run" || name == "batch.job" || name == "pool.job" ||
         name == "pipeline.mission";
}

}  // namespace

void SpanTotals::fold(const rfly::obs::Trace& trace) {
  dropped += trace.dropped;
  // Spans only nest within a thread: key every span by (thread, seq).
  auto key = [](std::uint32_t thread, std::int64_t seq) {
    return (static_cast<std::uint64_t>(thread) << 40) ^
           static_cast<std::uint64_t>(seq);
  };
  std::unordered_map<std::uint64_t, const rfly::obs::SpanRecord*> by_key;
  std::unordered_map<std::uint64_t, double> child_s;
  for (const auto& span : trace.spans) {
    by_key[key(span.thread, span.seq)] = &span;
    if (span.parent >= 0) child_s[key(span.thread, span.parent)] += span.seconds();
  }
  for (const auto& span : trace.spans) {
    const std::string name = span.name;
    const double seconds = span.seconds();
    const auto it = child_s.find(key(span.thread, span.seq));
    const double self = std::max(0.0, seconds - (it == child_s.end() ? 0.0 : it->second));
    total_s[name] += seconds;
    ++calls[name];
    // A pool.job span is the caller's share of a parallel region: its own
    // chunks plus waiting for helpers, whose chunks carry no span. Charge
    // that time to the layer that opened the region.
    const rfly::obs::SpanRecord* owner = &span;
    while (std::string(owner->name) == "pool.job" && owner->parent >= 0) {
      const auto parent = by_key.find(key(owner->thread, owner->parent));
      if (parent == by_key.end()) break;
      owner = parent->second;
    }
    self_s[owner->name] += self;
    if (span.parent < 0 && !is_wait_span(name)) busy_s += seconds;
  }
}

double SpanTotals::total(const std::string& name) const {
  const auto it = total_s.find(name);
  return it == total_s.end() ? 0.0 : it->second;
}

double print_attribution(const char* workload, const SpanTotals& spans) {
  std::vector<std::pair<double, std::string>> rows;
  double unattributed = 0.0;
  for (const auto& [name, self] : spans.self_s) {
    if (is_wait_span(name)) continue;
    rows.emplace_back(self, name);
    if (is_wrapper_span(name)) unattributed += self;
  }
  std::sort(rows.rbegin(), rows.rend());
  const double busy = spans.busy_s > 0.0 ? spans.busy_s : 1.0;
  std::printf("# attribution %s: busy %.3f s (root spans of every thread, "
              "waits excluded), %llu spans dropped\n",
              workload, spans.busy_s,
              static_cast<unsigned long long>(spans.dropped));
  std::printf("#   %-24s %10s %7s %10s\n", "span (self time)", "seconds", "share",
              "calls");
  for (const auto& [self, name] : rows) {
    std::printf("#   %-24s %10.4f %6.1f%% %10llu%s\n", name.c_str(), self,
                100.0 * self / busy,
                static_cast<unsigned long long>(spans.calls.at(name)),
                is_wrapper_span(name) ? "  (unattributed)" : "");
  }
  for (const char* name : {"bench.submit", "bench.result", "service.request"}) {
    if (spans.calls.count(name) == 0) continue;
    std::printf("#   %-24s %10.4f   (wait) %10llu\n", name, spans.total(name),
                static_cast<unsigned long long>(spans.calls.at(name)));
  }
  std::printf("#   unattributed share: %.1f%%\n", 100.0 * unattributed / busy);
  return unattributed / busy;
}

}  // namespace perfbench
