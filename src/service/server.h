// `rflyd` — the long-lived mission service. Promotes the one-shot
// scenario_runner flow into a persistent daemon: clients SUBMIT missions
// (canonical scenario text + seed) over the versioned wire protocol
// (wire.h), jobs run on an async bounded queue layered over the shared
// deterministic thread pool via run_batch, and repeated submissions are
// served from the content-addressed ResultCache without re-simulating.
//
// Contracts (pinned by tests/test_service.cpp):
//   - Determinism: a result served over the socket is bit-identical (all
//     deterministic fields; wall-clock timings excluded) to a direct
//     run_batch of the same (scenario, seed) at any thread count.
//   - Backpressure: a SUBMIT that finds the queue full is *rejected* with
//     ERROR kUnavailable + a retry-after hint; the daemon never blocks the
//     connection on queue space. Cache hits bypass the queue entirely.
//   - Graceful drain: SHUTDOWN (or request_shutdown) stops intake, queued
//     and running jobs finish (drain=true) or queued jobs cancel
//     (drain=false), waiters wake, then sockets close.
//   - Observability: queue depth / jobs in flight gauges, submit/reject/
//     complete/cache counters, job + queue-wait histograms under
//     `service.*`.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/result_cache.h"
#include "service/wire.h"
#include "sim/batch.h"

namespace rfly::service {

struct ServiceConfig {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (read it back with
  /// port() after start()).
  std::uint16_t port = 0;
  /// Executor threads pulling jobs off the queue. Each runs one mission at
  /// a time through run_batch; results are per-job deterministic, so the
  /// worker count (like every thread knob in this repo) never changes
  /// bytes, only latency.
  unsigned workers = 1;
  /// BatchConfig::threads for each job's run_batch call (0 = hardware).
  unsigned job_threads = 0;
  /// Jobs allowed to wait in the queue; a SUBMIT beyond this is rejected
  /// with kUnavailable (backpressure), never blocked.
  std::size_t queue_capacity = 64;
  /// ResultCache retention (distinct (scenario, seed) results); 0 disables
  /// result caching so every submission simulates.
  std::size_t cache_capacity = ResultCache::kDefaultCapacity;
  /// Retry hint attached to backpressure rejections.
  std::uint32_t retry_after_ms = 50;
};

class MissionService {
 public:
  explicit MissionService(ServiceConfig config = {});
  ~MissionService();

  MissionService(const MissionService&) = delete;
  MissionService& operator=(const MissionService&) = delete;

  /// Bind 127.0.0.1, listen, spawn the acceptor and executor threads.
  /// kIoError with the errno cause when the port cannot be bound.
  Status start();

  /// The bound port (valid after a successful start()).
  std::uint16_t port() const { return port_; }

  /// Stop intake and begin teardown. drain=true lets queued jobs finish;
  /// drain=false cancels everything still queued (running jobs always
  /// complete — missions are not interruptible mid-pipeline). Idempotent;
  /// also triggered remotely by the SHUTDOWN command.
  void request_shutdown(bool drain = true);

  /// Block until the service has fully stopped: workers drained, acceptor
  /// and connection threads joined, sockets closed. Returns immediately if
  /// never started.
  void wait();

  /// Point-in-time counters (same numbers the STATS command returns).
  ServiceStats stats() const;

 private:
  struct Job {
    // Needed only until a worker starts the job: the worker moves both out,
    // and a cache hit never stores them.
    sim::Scenario scenario;
    std::string canonical_text;  // serialize(scenario) — the cache key
    std::uint64_t seed = 0;
    JobState state = JobState::kQueued;
    bool cached = false;         // served from ResultCache, never simulated
    std::string result_bytes;    // encoded BatchResult once kDone
    double submit_seconds = 0.0; // monotonic submit time (queue-wait probe)
  };

  void accept_loop();
  void connection_loop(int fd);
  void worker_loop();

  /// Dispatch one request frame; returns false when the connection should
  /// close (protocol violation after the error reply).
  bool handle_frame(int fd, const FrameHeader& header,
                    const std::string& payload);

  bool handle_submit(int fd, const std::string& payload);
  bool handle_status(int fd, const std::string& payload);
  bool handle_result(int fd, const std::string& payload);
  bool handle_cancel(int fd, const std::string& payload);
  bool handle_stats(int fd);
  bool handle_shutdown(int fd, const std::string& payload);

  bool send_error(int fd, StatusCode code, const std::string& message,
                  std::uint32_t retry_after_ms = 0);

  /// Refuse new submissions (and, unless `drain`, cancel the queue) without
  /// letting wait() begin teardown; request_shutdown does both.
  void close_intake(bool drain);

  ServiceStats stats_locked() const;  // requires mu_

  ServiceConfig config_;
  ResultCache cache_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers: queue or drain state changed
  std::condition_variable done_cv_;   // waiters: a job reached a terminal state
  std::unordered_map<std::uint64_t, Job> jobs_;
  std::deque<std::uint64_t> queue_;
  std::uint64_t next_job_id_ = 1;
  std::size_t in_flight_ = 0;
  bool draining_ = false;            // no new submissions
  bool shutdown_requested_ = false;  // wait() may tear down
  std::uint64_t submitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t simulated_ = 0;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::mutex wait_mu_;  // serializes wait(); join is not concurrency-safe
  std::thread acceptor_;
  std::vector<std::thread> workers_;
  std::mutex conn_mu_;
  std::vector<std::thread> connections_;
  std::vector<int> open_fds_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace rfly::service
