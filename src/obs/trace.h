// Scoped tracing spans: an RAII `Span` stamps monotonic-clock begin/end
// times into a per-thread buffer (no cross-thread synchronization on the
// hot path), tracking parent/child nesting through a thread-local open-span
// stack. drain_trace() empties every thread's buffer into one trace ordered
// by start time, ready for the `--report` tree or a `--trace-out` JSON file.
//
// Span names must be string literals (or otherwise outlive the drain):
// records store the pointer, not a copy — opening a span is two clock-free
// writes plus one clock read.
//
// Like the metrics layer, everything compiles to no-ops under
// RFLY_OBS_ENABLED=0; Span::elapsed_seconds() then reports 0.0, which is
// why stage timings read as zero in an OFF build while every computed
// value stays bit-identical.
#pragma once

#include <cstdint>
#include <vector>

#ifndef RFLY_OBS_ENABLED
#define RFLY_OBS_ENABLED 1
#endif

namespace rfly::obs {

/// One completed span. Times are nanoseconds on the process-wide monotonic
/// clock (comparable across threads). `parent` is the per-thread sequence
/// id of the enclosing span, or -1 for a root; `depth` its nesting level.
struct SpanRecord {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t thread = 0;  // small sequential id, 0 = first tracing thread
  std::uint32_t depth = 0;
  std::int64_t seq = -1;     // per-thread open order
  std::int64_t parent = -1;  // seq of the enclosing span on the same thread
  double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

/// A drained trace: completed spans from every thread, ordered by start
/// time. `dropped` counts spans discarded because a thread buffer hit its
/// cap between drains (kept so truncation is never silent).
struct Trace {
  std::vector<SpanRecord> spans;
  std::uint64_t dropped = 0;
  bool empty() const { return spans.empty(); }
};

#if RFLY_OBS_ENABLED

/// Nanoseconds on the shared monotonic clock (steady_clock rebased to the
/// first call, so traces start near zero).
std::uint64_t monotonic_ns();

class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Time since the span opened (the span is still running).
  double elapsed_seconds() const {
    return static_cast<double>(monotonic_ns() - start_ns_) * 1e-9;
  }

 private:
  const char* name_;
  std::uint64_t start_ns_;
  std::uint32_t depth_;
  std::int64_t seq_;
  std::int64_t parent_;
};

/// Move every thread's completed spans into one start-ordered trace. Spans
/// still open stay put and surface in a later drain once they close.
Trace drain_trace();

/// Name of the calling thread's innermost open span, or nullptr when it has
/// none. The thread pool names its helpers' spans after the span that
/// opened a parallel region, so their time lands in that layer.
const char* current_span_name();

#else  // !RFLY_OBS_ENABLED

inline std::uint64_t monotonic_ns() { return 0; }

class Span {
 public:
  explicit Span(const char*) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  double elapsed_seconds() const { return 0.0; }
};

inline Trace drain_trace() { return {}; }

inline const char* current_span_name() { return nullptr; }

#endif  // RFLY_OBS_ENABLED

}  // namespace rfly::obs
