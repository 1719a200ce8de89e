#include "service/server.h"

#include <chrono>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/socket_io.h"
#include "sim/scenario.h"

namespace rfly::service {

namespace {

using Clock = std::chrono::steady_clock;

double now_seconds() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

// service.* telemetry. Counters mirror the ServiceStats the STATS command
// returns; the gauges track instantaneous queue state.
obs::Counter& submitted_counter() {
  static obs::Counter& c = obs::counter("service.submitted");
  return c;
}
obs::Counter& rejected_counter() {
  static obs::Counter& c = obs::counter("service.rejected");
  return c;
}
obs::Counter& completed_counter() {
  static obs::Counter& c = obs::counter("service.completed");
  return c;
}
obs::Counter& cancelled_counter() {
  static obs::Counter& c = obs::counter("service.cancelled");
  return c;
}
obs::Counter& simulated_counter() {
  static obs::Counter& c = obs::counter("service.simulated");
  return c;
}
obs::Counter& cache_hit_counter() {
  static obs::Counter& c = obs::counter("service.cache.hits");
  return c;
}
obs::Counter& cache_miss_counter() {
  static obs::Counter& c = obs::counter("service.cache.misses");
  return c;
}
obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& g = obs::gauge("service.queue_depth");
  return g;
}
obs::Gauge& in_flight_gauge() {
  static obs::Gauge& g = obs::gauge("service.jobs_in_flight");
  return g;
}
obs::Histogram& job_seconds_hist() {
  static obs::Histogram& h = obs::histogram(
      "service.job_seconds", obs::HistogramSpec::duration_seconds());
  return h;
}
obs::Histogram& queue_wait_hist() {
  static obs::Histogram& h = obs::histogram(
      "service.queue_wait_seconds", obs::HistogramSpec::duration_seconds());
  return h;
}

}  // namespace

MissionService::MissionService(ServiceConfig config)
    : config_(config), cache_(config.cache_capacity) {
  if (config_.workers == 0) config_.workers = 1;
}

MissionService::~MissionService() {
  request_shutdown(/*drain=*/false);
  wait();
}

Status MissionService::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return {StatusCode::kIoError,
            std::string("socket(): ") + std::strerror(errno)};
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    const Status status{StatusCode::kIoError,
                        "bind(127.0.0.1:" + std::to_string(config_.port) +
                            "): " + std::strerror(errno)};
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 64) < 0) {
    const Status status{StatusCode::kIoError,
                        std::string("listen(): ") + std::strerror(errno)};
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }

  started_ = true;
  acceptor_ = std::thread([this] { accept_loop(); });
  workers_.reserve(config_.workers);
  for (unsigned i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  return Status::ok();
}

void MissionService::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed — teardown in progress
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    std::lock_guard<std::mutex> lock(conn_mu_);
    open_fds_.push_back(fd);
    connections_.emplace_back([this, fd] { connection_loop(fd); });
  }
}

void MissionService::connection_loop(int fd) {
  for (;;) {
    auto frame = recv_frame(fd);
    if (!frame) {
      // kIoError is the normal end of a connection (peer closed). A header
      // validation failure gets a typed ERROR back before the stream is
      // abandoned: after a framing violation nothing later on the stream
      // can be trusted, so one reply and close is the contract.
      if (frame.status().code() != StatusCode::kIoError) {
        send_error(fd, frame.status().code(), frame.status().message());
      }
      break;
    }
    if (!handle_frame(fd, frame->header, frame->payload)) break;
  }
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
  std::lock_guard<std::mutex> lock(conn_mu_);
  for (auto it = open_fds_.begin(); it != open_fds_.end(); ++it) {
    if (*it == fd) {
      open_fds_.erase(it);
      break;
    }
  }
}

bool MissionService::handle_frame(int fd, const FrameHeader& header,
                                  const std::string& payload) {
  obs::Span span("service.request");
  switch (header.type) {
    case MsgType::kSubmit:
      return handle_submit(fd, payload);
    case MsgType::kStatus:
      return handle_status(fd, payload);
    case MsgType::kResult:
      return handle_result(fd, payload);
    case MsgType::kCancel:
      return handle_cancel(fd, payload);
    case MsgType::kStats:
      return handle_stats(fd);
    case MsgType::kShutdown:
      return handle_shutdown(fd, payload);
    case MsgType::kAck:
    case MsgType::kError:
      // Response types are server->client only; a client sending one is a
      // protocol violation.
      send_error(fd, StatusCode::kParseError,
                 std::string("unexpected ") + msg_type_name(header.type) +
                     " frame from client");
      return false;
  }
  send_error(fd, StatusCode::kParseError, "unknown frame type");
  return false;
}

bool MissionService::send_error(int fd, StatusCode code,
                                const std::string& message,
                                std::uint32_t retry_after_ms) {
  WireWriter w;
  encode_error(w, {code, message, retry_after_ms});
  return send_frame(fd, MsgType::kError, w.take());
}

bool MissionService::handle_submit(int fd, const std::string& payload) {
  WireReader r(payload);
  std::string text;
  std::uint64_t seed = 0;
  if (!r.str(text) || !r.u64(seed) || !r.exhausted()) {
    send_error(fd, StatusCode::kParseError, "malformed SUBMIT payload");
    return false;
  }

  // Parse + validate before any queue decision: a bad scenario is the
  // client's error, not backpressure, and must not consume a queue slot.
  auto parsed = sim::parse_scenario(text);
  if (!parsed) {
    const Status& status = parsed.status();
    send_error(fd, status.code(), status.to_string());
    return true;
  }
  // Cache key is the *canonical* serialized form, so two texts that parse
  // to the same scenario (comment/ordering differences) share one entry.
  std::string canonical = sim::serialize(*parsed);

  bool draining = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining = draining_;
    if (draining) ++rejected_;
  }
  if (draining) {
    // Reply written outside mu_: socket writes never hold service state.
    rejected_counter().inc();
    send_error(fd, StatusCode::kUnavailable,
               "service is draining for shutdown; not accepting missions",
               config_.retry_after_ms);
    return true;
  }

  // Content-addressed fast path: a verified (canonical text, seed) hit is
  // served the stored bytes without touching the queue — repeats cost a
  // map lookup, never a simulation and never a queue slot.
  std::string cached_bytes;
  if (cache_.lookup(canonical, seed, cached_bytes)) {
    cache_hit_counter().inc();
    std::uint64_t id = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      id = next_job_id_++;
      Job job;
      job.seed = seed;
      job.state = JobState::kDone;
      job.cached = true;
      job.result_bytes = std::move(cached_bytes);
      job.submit_seconds = now_seconds();
      jobs_.emplace(id, std::move(job));
      ++submitted_;
      ++completed_;
    }
    submitted_counter().inc();
    completed_counter().inc();
    done_cv_.notify_all();
    WireWriter w;
    w.u64(id);
    w.u8(1);  // cached
    return send_frame(fd, MsgType::kAck, w.take());
  }
  cache_miss_counter().inc();

  std::uint64_t id = 0;
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.size() >= config_.queue_capacity) {
      ++rejected_;
      depth = queue_.size();
      id = 0;  // sentinel: rejected below, outside the lock
    } else {
      id = next_job_id_++;
      Job job;
      job.scenario = std::move(parsed.value());
      job.canonical_text = std::move(canonical);
      job.seed = seed;
      job.state = JobState::kQueued;
      job.submit_seconds = now_seconds();
      jobs_.emplace(id, std::move(job));
      queue_.push_back(id);
      depth = queue_.size();
      ++submitted_;
    }
  }
  if (id == 0) {
    // Backpressure is a *rejection*, never a block: the client gets a typed
    // kUnavailable with a retry hint scaled by how deep the backlog is.
    rejected_counter().inc();
    const std::uint32_t hint = static_cast<std::uint32_t>(
        config_.retry_after_ms * (1 + depth / config_.workers));
    send_error(fd, StatusCode::kUnavailable,
               "job queue full (" + std::to_string(depth) + "/" +
                   std::to_string(config_.queue_capacity) +
                   "); retry after backoff",
               hint);
    return true;
  }
  submitted_counter().inc();
  queue_depth_gauge().set(static_cast<double>(depth));
  work_cv_.notify_one();

  WireWriter w;
  w.u64(id);
  w.u8(0);  // not cached; poll STATUS or block on RESULT
  return send_frame(fd, MsgType::kAck, w.take());
}

bool MissionService::handle_status(int fd, const std::string& payload) {
  WireReader r(payload);
  std::uint64_t id = 0;
  if (!r.u64(id) || !r.exhausted()) {
    send_error(fd, StatusCode::kParseError, "malformed STATUS payload");
    return false;
  }
  JobState state{};
  std::uint8_t cached = 0;
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      send_error(fd, StatusCode::kNotFound,
                 "job " + std::to_string(id) + " unknown");
      return true;
    }
    state = it->second.state;
    cached = it->second.cached ? 1 : 0;
    depth = queue_.size();
  }
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(state));
  w.u8(cached);
  w.u64(depth);
  return send_frame(fd, MsgType::kAck, w.take());
}

bool MissionService::handle_result(int fd, const std::string& payload) {
  WireReader r(payload);
  std::uint64_t id = 0;
  std::uint8_t wait = 0;
  if (!r.u64(id) || !r.u8(wait) || !r.exhausted()) {
    send_error(fd, StatusCode::kParseError, "malformed RESULT payload");
    return false;
  }
  std::string bytes;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      lock.unlock();
      send_error(fd, StatusCode::kNotFound,
                 "job " + std::to_string(id) + " unknown");
      return true;
    }
    if (wait != 0) {
      // Block this connection until the job is terminal. Shutdown wakes
      // every waiter: drained jobs arrive kDone, abandoned ones kCancelled.
      done_cv_.wait(lock, [&] {
        const Job& job = jobs_.at(id);
        return job.state == JobState::kDone ||
               job.state == JobState::kCancelled;
      });
    }
    const Job& job = jobs_.at(id);
    if (job.state == JobState::kCancelled) {
      lock.unlock();
      send_error(fd, StatusCode::kUnavailable,
                 "job " + std::to_string(id) + " was cancelled");
      return true;
    }
    if (job.state != JobState::kDone) {
      lock.unlock();
      send_error(fd, StatusCode::kUnavailable,
                 "job " + std::to_string(id) + " is " +
                     job_state_name(job.state) + "; retry or pass wait=1",
                 config_.retry_after_ms);
      return true;
    }
    bytes = job.result_bytes;
  }
  return send_frame(fd, MsgType::kAck, std::move(bytes));
}

bool MissionService::handle_cancel(int fd, const std::string& payload) {
  WireReader r(payload);
  std::uint64_t id = 0;
  if (!r.u64(id) || !r.exhausted()) {
    send_error(fd, StatusCode::kParseError, "malformed CANCEL payload");
    return false;
  }
  std::uint8_t removed = 0;
  JobState state{};
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      send_error(fd, StatusCode::kNotFound,
                 "job " + std::to_string(id) + " unknown");
      return true;
    }
    if (it->second.state == JobState::kQueued) {
      for (auto qit = queue_.begin(); qit != queue_.end(); ++qit) {
        if (*qit == id) {
          queue_.erase(qit);
          break;
        }
      }
      it->second.state = JobState::kCancelled;
      ++cancelled_;
      removed = 1;
    }
    state = it->second.state;
    depth = queue_.size();
  }
  if (removed != 0) {
    cancelled_counter().inc();
    queue_depth_gauge().set(static_cast<double>(depth));
    done_cv_.notify_all();
  }
  WireWriter w;
  w.u8(removed);
  w.u8(static_cast<std::uint8_t>(state));
  return send_frame(fd, MsgType::kAck, w.take());
}

bool MissionService::handle_stats(int fd) {
  WireWriter w;
  encode_stats(w, stats());
  return send_frame(fd, MsgType::kAck, w.take());
}

bool MissionService::handle_shutdown(int fd, const std::string& payload) {
  WireReader r(payload);
  std::uint8_t drain = 1;
  if (!r.u8(drain) || !r.exhausted()) {
    send_error(fd, StatusCode::kParseError, "malformed SHUTDOWN payload");
    return false;
  }
  // Intake closes before the ACK, so a SUBMIT racing the reply is refused,
  // never queued. Teardown waits until after it: once request_shutdown
  // runs, wait() may shut this very connection down and the reply would
  // never leave the machine.
  close_intake(drain != 0);
  const bool sent = send_frame(fd, MsgType::kAck, {});
  request_shutdown(drain != 0);
  return sent;
}

void MissionService::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return !queue_.empty() || draining_; });
    if (queue_.empty()) {
      if (draining_) return;
      continue;
    }
    const std::uint64_t id = queue_.front();
    queue_.pop_front();
    Job& job = jobs_.at(id);
    job.state = JobState::kRunning;
    ++in_flight_;
    queue_depth_gauge().set(static_cast<double>(queue_.size()));
    in_flight_gauge().set(static_cast<double>(in_flight_));
    if constexpr (obs::kEnabled) {
      queue_wait_hist().observe(now_seconds() - job.submit_seconds);
    }
    // Move out what the simulation needs — the record keeps only what
    // STATUS and RESULT read — then drop the lock for the duration of the
    // mission: SUBMIT/STATUS/STATS stay responsive while jobs run.
    const sim::BatchJob batch_job{std::move(job.scenario), job.seed};
    const std::string canonical = std::move(job.canonical_text);
    lock.unlock();

    const double start = now_seconds();
    auto results = sim::run_batch(
        {batch_job}, {config_.job_threads, sim::BatchMode::kBatched});
    WireWriter w;
    encode_batch_result(w, results.front());
    std::string bytes = w.take();
    simulated_counter().inc();
    if constexpr (obs::kEnabled) {
      job_seconds_hist().observe(now_seconds() - start);
    }
    // Store before signalling. The cache takes a copy of the exact bytes
    // every later identical SUBMIT will be served — warm results are
    // bit-identical to this cold one by construction.
    cache_.insert(canonical, batch_job.seed, bytes);

    lock.lock();
    Job& done = jobs_.at(id);
    done.result_bytes = std::move(bytes);
    done.state = JobState::kDone;
    ++completed_;
    ++simulated_;
    --in_flight_;
    in_flight_gauge().set(static_cast<double>(in_flight_));
    completed_counter().inc();
    done_cv_.notify_all();
  }
}

void MissionService::request_shutdown(bool drain) {
  close_intake(drain);
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_requested_ = true;
  }
  done_cv_.notify_all();
}

void MissionService::close_intake(bool drain) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_ && drain) return;  // idempotent
    draining_ = true;
    if (!drain) {
      // Abandon the backlog: queued jobs become kCancelled so RESULT
      // waiters get a typed answer instead of hanging. Running jobs still
      // complete — a mission pipeline is not interruptible.
      for (std::uint64_t id : queue_) {
        Job& job = jobs_.at(id);
        if (job.state == JobState::kQueued) {
          job.state = JobState::kCancelled;
          ++cancelled_;
          cancelled_counter().inc();
        }
      }
      queue_.clear();
      queue_depth_gauge().set(0.0);
    }
  }
  work_cv_.notify_all();
  done_cv_.notify_all();
}

void MissionService::wait() {
  std::lock_guard<std::mutex> wait_serial(wait_mu_);
  if (!started_ || stopped_) return;

  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return shutdown_requested_; });
  }
  for (auto& worker : workers_) worker.join();
  workers_.clear();

  // Stop intake: closing the listener pops accept() out with an error.
  ::shutdown(listen_fd_, SHUT_RDWR);
  acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  // Kick every live connection off its blocking read, then join. Handlers
  // close their own fd; shutdown() here only unblocks them.
  std::vector<std::thread> connections;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (int fd : open_fds_) ::shutdown(fd, SHUT_RDWR);
    connections = std::move(connections_);
    connections_.clear();
  }
  for (auto& connection : connections) connection.join();
  stopped_ = true;
}

ServiceStats MissionService::stats_locked() const {
  ServiceStats stats;
  stats.submitted = submitted_;
  stats.rejected = rejected_;
  stats.completed = completed_;
  stats.cancelled = cancelled_;
  stats.simulated = simulated_;
  const ResultCache::Stats cache = cache_.stats();
  stats.cache_hits = cache.hits;
  stats.cache_misses = cache.misses;
  stats.cache_entries = cache.entries;
  stats.queue_depth = queue_.size();
  stats.in_flight = in_flight_;
  stats.queue_capacity = config_.queue_capacity;
  stats.draining = draining_ ? 1 : 0;
  return stats;
}

ServiceStats MissionService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_locked();
}

}  // namespace rfly::service
