#include "obs/trace.h"

#if RFLY_OBS_ENABLED

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>

namespace rfly::obs {

namespace {

/// Per-thread buffers survive their thread (a pool worker's spans must be
/// drainable after the pool dies), so the collector owns them and threads
/// hold only a cached pointer.
struct ThreadBuffer {
  std::uint32_t thread_id = 0;
  std::mutex mu;                      // guards completed + dropped vs drain
  std::vector<SpanRecord> completed;  // spans closed since the last drain
  std::uint64_t dropped = 0;
  // Owner-thread-only state (never touched by drain):
  std::int64_t next_seq = 0;
  std::vector<std::int64_t> open_seqs;  // stack of open spans' seq ids
  std::vector<const char*> open_names;  // and their names
};

/// Cap per-thread completed records between drains; a run that never drains
/// (library user ignoring tracing) must not grow memory without bound.
constexpr std::size_t kMaxBufferedSpans = 1 << 16;

struct Collector {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;

  static Collector& instance() {
    static Collector c;
    return c;
  }

  ThreadBuffer& local() {
    thread_local ThreadBuffer* mine = [this] {
      std::lock_guard<std::mutex> lk(mu);
      buffers.push_back(std::make_unique<ThreadBuffer>());
      buffers.back()->thread_id = static_cast<std::uint32_t>(buffers.size() - 1);
      return buffers.back().get();
    }();
    return *mine;
  }
};

}  // namespace

std::uint64_t monotonic_ns() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch)
          .count());
}

Span::Span(const char* name) : name_(name) {
  ThreadBuffer& buf = Collector::instance().local();
  depth_ = static_cast<std::uint32_t>(buf.open_seqs.size());
  parent_ = buf.open_seqs.empty() ? -1 : buf.open_seqs.back();
  seq_ = buf.next_seq++;
  buf.open_seqs.push_back(seq_);
  buf.open_names.push_back(name_);
  start_ns_ = monotonic_ns();  // last: exclude bookkeeping from the span
}

Span::~Span() {
  const std::uint64_t end_ns = monotonic_ns();  // first, for the same reason
  ThreadBuffer& buf = Collector::instance().local();
  buf.open_seqs.pop_back();
  buf.open_names.pop_back();
  std::lock_guard<std::mutex> lk(buf.mu);
  if (buf.completed.size() >= kMaxBufferedSpans) {
    ++buf.dropped;
    return;
  }
  SpanRecord record;
  record.name = name_;
  record.start_ns = start_ns_;
  record.end_ns = end_ns;
  record.thread = buf.thread_id;
  record.depth = depth_;
  record.seq = seq_;
  record.parent = parent_;
  buf.completed.push_back(record);
}

const char* current_span_name() {
  const ThreadBuffer& buf = Collector::instance().local();
  return buf.open_names.empty() ? nullptr : buf.open_names.back();
}

Trace drain_trace() {
  Collector& collector = Collector::instance();
  Trace trace;
  std::lock_guard<std::mutex> lk(collector.mu);
  for (auto& buf : collector.buffers) {
    std::lock_guard<std::mutex> buf_lk(buf->mu);
    trace.spans.insert(trace.spans.end(), buf->completed.begin(),
                       buf->completed.end());
    trace.dropped += buf->dropped;
    buf->completed.clear();
    buf->dropped = 0;
  }
  std::sort(trace.spans.begin(), trace.spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              if (a.thread != b.thread) return a.thread < b.thread;
              return a.seq < b.seq;
            });
  return trace;
}

}  // namespace rfly::obs

#endif  // RFLY_OBS_ENABLED
