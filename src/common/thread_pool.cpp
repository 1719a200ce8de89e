#include "common/thread_pool.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace rfly {

namespace {
// Set while a thread is executing chunks of some job. A body that calls
// parallel_for again (directly or through a library layer) runs the nested
// range serially instead of deadlocking on the submission lock or
// oversubscribing the machine.
thread_local bool t_in_parallel_for = false;

// Pool telemetry. Handles resolve once (registry mutex) and then cost one
// relaxed atomic per update; all of it compiles out under RFLY_OBS=OFF.
obs::Counter& pool_chunks() {
  static obs::Counter& c = obs::counter("pool.chunks");
  return c;
}
obs::Counter& pool_jobs() {
  static obs::Counter& c = obs::counter("pool.jobs");
  return c;
}
obs::Counter& pool_serial_jobs() {
  static obs::Counter& c = obs::counter("pool.serial_jobs");
  return c;
}
obs::Gauge& pool_queue_depth() {
  static obs::Gauge& g = obs::gauge("pool.queue_depth");
  return g;
}
obs::Histogram& pool_job_seconds() {
  static obs::Histogram& h =
      obs::histogram("pool.job_seconds", obs::HistogramSpec::duration_seconds());
  return h;
}
}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(threads - 1);
  for (unsigned i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_chunks(Job& job) {
  const bool was_nested = t_in_parallel_for;
  t_in_parallel_for = true;
  for (;;) {
    const std::size_t start = job.next.fetch_add(job.grain, std::memory_order_relaxed);
    if (start >= job.end) break;
    const std::size_t stop = std::min(start + job.grain, job.end);
    pool_chunks().inc();
    try {
      (*job.body)(start, stop);
    } catch (...) {
      std::lock_guard<std::mutex> lk(job.error_mu);
      if (!job.error) job.error = std::current_exception();
    }
  }
  t_in_parallel_for = was_nested;
}

void ThreadPool::worker_loop() {
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [this] { return stop_ || open_slots_ > 0; });
      if (stop_) return;
      job = job_;
      --open_slots_;
      ++job->active;
    }
    {
      // One span per join, named after the layer that opened the region,
      // so the helper's share of it is attributed there.
      obs::Span span(job->span_name);
      run_chunks(*job);
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      --job->active;
    }
    done_cv_.notify_all();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                              const std::function<void(std::size_t, std::size_t)>& body,
                              unsigned max_threads) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  unsigned want = thread_count();
  if (max_threads != 0) want = std::min(want, max_threads);
  const std::size_t n_chunks = (end - begin + grain - 1) / grain;
  if (want <= 1 || n_chunks <= 1 || workers_.empty() || t_in_parallel_for) {
    // Serial path: one call over the whole range, caller's thread. Counted
    // but not clocked — the legacy path must stay probe-free.
    pool_serial_jobs().inc();
    body(begin, end);
    return;
  }

  // Queue depth counts callers contending for the single job slot (the one
  // inside plus everyone parked on submit_mu_).
  pool_queue_depth().add(1.0);
  Job job;
  if (const char* owner = obs::current_span_name()) job.span_name = owner;
  std::lock_guard<std::mutex> submit_lk(submit_mu_);
  obs::Span job_span("pool.job");
  pool_jobs().inc();

  job.end = end;
  job.grain = grain;
  job.next.store(begin, std::memory_order_relaxed);
  job.body = &body;

  // The caller takes one chunk stream itself; offer the rest to workers.
  const unsigned helpers = static_cast<unsigned>(std::min<std::size_t>(
      {static_cast<std::size_t>(want - 1), workers_.size(), n_chunks - 1}));
  {
    std::lock_guard<std::mutex> lk(mu_);
    job_ = &job;
    open_slots_ = helpers;
  }
  work_cv_.notify_all();

  run_chunks(job);

  {
    std::unique_lock<std::mutex> lk(mu_);
    open_slots_ = 0;  // late wakers must not join a draining job
    done_cv_.wait(lk, [&job] { return job.active == 0; });
    job_ = nullptr;
  }
  if constexpr (obs::kEnabled) {
    pool_job_seconds().observe(job_span.elapsed_seconds());
  }
  pool_queue_depth().add(-1.0);
  if (job.error) std::rethrow_exception(job.error);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body,
                  unsigned threads) {
  if (threads == 1) {
    if (begin < end) body(begin, end);
    return;
  }
  ThreadPool::shared().parallel_for(begin, end, grain, body, threads);
}

}  // namespace rfly
