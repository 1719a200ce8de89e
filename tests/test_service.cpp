// Mission-service suite (`service` label — run it in the TSAN tree for the
// queue/cache/connection races and the ASan+UBSan tree for the codec and
// socket paths). Pins, bottom up:
//
//   - Framing: headers are validated before any payload allocation —
//     truncated headers, bad magic, unknown version, unknown type, and a
//     multi-GiB length field are all typed rejections.
//   - Codecs: Status/error/stats/BatchResult round-trip bit-exactly
//     (doubles travel as IEEE-754 bit patterns, NaN payloads included).
//   - ResultCache: verified hits return the exact stored bytes, FIFO
//     eviction is deterministic, capacity 0 disables retention.
//   - Integration over a loopback socket: a mission submitted to a live
//     daemon returns results bit-identical to direct run_batch at thread
//     counts 1 and 8, cold and warm cache; a repeated submission is served
//     from the cache with zero additional simulations; backpressure is a
//     typed kUnavailable rejection with a retry hint; an over-budget
//     scenario is a typed SUBMIT error and the daemon keeps serving;
//     concurrent clients all see the same deterministic bytes; shutdown
//     drains or cancels.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "service/client.h"
#include "service/result_cache.h"
#include "service/server.h"
#include "service/socket_io.h"
#include "service/wire.h"
#include "sim/batch.h"
#include "sim/scenario.h"

namespace rfly::service {
namespace {

// --- Frame header validation ----------------------------------------------

std::vector<std::uint8_t> header_bytes(FrameHeader header) {
  std::vector<std::uint8_t> raw(kFrameHeaderBytes);
  encode_frame_header(header, raw.data());
  return raw;
}

TEST(WireFraming, HeaderRoundTrips) {
  FrameHeader header;
  header.type = MsgType::kSubmit;
  header.payload_len = 12345;
  const auto raw = header_bytes(header);
  auto decoded = decode_frame_header({raw.data(), raw.size()});
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded->magic, kMagic);
  EXPECT_EQ(decoded->version, kProtocolVersion);
  EXPECT_EQ(decoded->type, MsgType::kSubmit);
  EXPECT_EQ(decoded->payload_len, 12345u);
}

TEST(WireFraming, TruncatedHeaderIsParseError) {
  const auto raw = header_bytes({});
  for (std::size_t n = 0; n < kFrameHeaderBytes; ++n) {
    auto decoded = decode_frame_header({raw.data(), n});
    ASSERT_FALSE(decoded.ok()) << n << " bytes";
    EXPECT_EQ(decoded.status().code(), StatusCode::kParseError) << n;
  }
}

TEST(WireFraming, BadMagicIsParseError) {
  FrameHeader header;
  header.magic = 0xDEADBEEF;
  header.type = MsgType::kStats;
  const auto raw = header_bytes(header);
  auto decoded = decode_frame_header({raw.data(), raw.size()});
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
}

TEST(WireFraming, VersionMismatchIsUnavailable) {
  FrameHeader header;
  header.version = kProtocolVersion + 1;
  header.type = MsgType::kStats;
  const auto raw = header_bytes(header);
  auto decoded = decode_frame_header({raw.data(), raw.size()});
  ASSERT_FALSE(decoded.ok());
  // kUnavailable, not kParseError: a newer client should back off rather
  // than treat the daemon as broken.
  EXPECT_EQ(decoded.status().code(), StatusCode::kUnavailable);
}

TEST(WireFraming, UnknownTypeIsParseError) {
  FrameHeader header;
  header.type = static_cast<MsgType>(42);
  const auto raw = header_bytes(header);
  auto decoded = decode_frame_header({raw.data(), raw.size()});
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
}

TEST(WireFraming, OversizedLengthRejectedOnTheHeaderAlone) {
  FrameHeader header;
  header.type = MsgType::kSubmit;
  // A hostile 1 TiB length field: decode_frame_header sees only the
  // 16-byte header, so rejection cannot involve a payload allocation.
  header.payload_len = 1ull << 40;
  const auto raw = header_bytes(header);
  auto decoded = decode_frame_header({raw.data(), raw.size()});
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);

  // Just inside the cap is still accepted at the header layer.
  header.payload_len = kMaxPayloadBytes;
  const auto ok_raw = header_bytes(header);
  EXPECT_TRUE(decode_frame_header({ok_raw.data(), ok_raw.size()}).ok());
}

// --- WireReader bounds checking -------------------------------------------

TEST(WireReader, TruncationIsStickyAndStringLengthsAreChecked) {
  WireWriter w;
  w.u32(7);
  w.str("abc");
  const std::string bytes = w.bytes();

  {  // Happy path consumes exactly.
    WireReader r(bytes);
    std::uint32_t v = 0;
    std::string s;
    EXPECT_TRUE(r.u32(v));
    EXPECT_TRUE(r.str(s));
    EXPECT_EQ(v, 7u);
    EXPECT_EQ(s, "abc");
    EXPECT_TRUE(r.exhausted());
  }
  {  // Reading past the end fails and stays failed.
    WireReader r(bytes);
    std::uint64_t a = 0, b = 0;
    EXPECT_TRUE(r.u64(a));
    EXPECT_FALSE(r.u64(b));
    EXPECT_FALSE(r.ok());
    std::uint8_t c = 0;
    EXPECT_FALSE(r.u8(c));  // sticky
  }
  {  // A string length prefix that overruns the payload is rejected
     // before any assign.
    WireWriter bad;
    bad.u32(1000);  // claims 1000 bytes; none follow
    WireReader r(bad.bytes());
    std::string s;
    EXPECT_FALSE(r.str(s));
    EXPECT_FALSE(r.ok());
  }
  {  // Trailing garbage is visible via exhausted().
    WireReader r(bytes);
    std::uint32_t v = 0;
    EXPECT_TRUE(r.u32(v));
    EXPECT_FALSE(r.exhausted());
  }
}

// --- Typed codecs ----------------------------------------------------------

TEST(WireCodec, StatusRoundTripsWithContext) {
  Status status{StatusCode::kDegraded, "coverage 81.2%"};
  status.add_context("tag 3");
  status.add_context("mission 'warehouse'");
  WireWriter w;
  encode_status(w, status);
  WireReader r(w.bytes());
  Status decoded;
  ASSERT_TRUE(decode_status(r, decoded));
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(decoded.code(), status.code());
  EXPECT_EQ(decoded.message(), status.message());
  EXPECT_EQ(decoded.context(), status.context());
  EXPECT_EQ(decoded.to_string(), status.to_string());

  WireWriter ok;
  encode_status(ok, Status::ok());
  WireReader ro(ok.bytes());
  Status decoded_ok;
  ASSERT_TRUE(decode_status(ro, decoded_ok));
  EXPECT_TRUE(decoded_ok.is_ok());
}

TEST(WireCodec, StatusRejectsUnknownCode) {
  WireWriter w;
  w.u8(250);  // beyond kUnavailable
  w.str("??");
  w.u32(0);
  WireReader r(w.bytes());
  Status decoded;
  EXPECT_FALSE(decode_status(r, decoded));
}

TEST(WireCodec, StatusRejectsHostileFrameCount) {
  // A valid code and message followed by a context-frame count of 2^32 - 1
  // and a single real frame: the count is untrusted, so decoding must fail
  // on the missing frames rather than size a vector from the count first
  // (which threw std::bad_alloc out of the client's RESULT path).
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(StatusCode::kInvalidArgument));
  w.str("");
  w.u32(0xFFFFFFFFu);
  w.str("tag 1");
  WireReader r(w.bytes());
  Status decoded;
  bool ok = true;
  EXPECT_NO_THROW(ok = decode_status(r, decoded));
  EXPECT_FALSE(ok);
}

TEST(WireCodec, ErrorRoundTripsAndRejectsOkCode) {
  WireWriter w;
  encode_error(w, {StatusCode::kUnavailable, "queue full", 75});
  WireReader r(w.bytes());
  WireError decoded;
  ASSERT_TRUE(decode_error(r, decoded));
  EXPECT_EQ(decoded.code, StatusCode::kUnavailable);
  EXPECT_EQ(decoded.message, "queue full");
  EXPECT_EQ(decoded.retry_after_ms, 75u);

  WireWriter bad;
  bad.u8(0);  // kOk — an ERROR frame carrying OK is a protocol violation
  bad.str("");
  bad.u32(0);
  WireReader rb(bad.bytes());
  EXPECT_FALSE(decode_error(rb, decoded));
}

TEST(WireCodec, StatsRoundTrip) {
  ServiceStats stats;
  stats.submitted = 10;
  stats.rejected = 2;
  stats.completed = 7;
  stats.cancelled = 1;
  stats.simulated = 5;
  stats.cache_hits = 2;
  stats.cache_misses = 5;
  stats.cache_entries = 5;
  stats.queue_depth = 3;
  stats.in_flight = 1;
  stats.queue_capacity = 64;
  stats.draining = 1;
  WireWriter w;
  encode_stats(w, stats);
  WireReader r(w.bytes());
  ServiceStats decoded;
  ASSERT_TRUE(decode_stats(r, decoded));
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(decoded.submitted, stats.submitted);
  EXPECT_EQ(decoded.rejected, stats.rejected);
  EXPECT_EQ(decoded.completed, stats.completed);
  EXPECT_EQ(decoded.cancelled, stats.cancelled);
  EXPECT_EQ(decoded.simulated, stats.simulated);
  EXPECT_EQ(decoded.cache_hits, stats.cache_hits);
  EXPECT_EQ(decoded.cache_misses, stats.cache_misses);
  EXPECT_EQ(decoded.queue_depth, stats.queue_depth);
  EXPECT_EQ(decoded.queue_capacity, stats.queue_capacity);
  EXPECT_EQ(decoded.draining, stats.draining);
}

/// The quick mission every integration test runs: the building preset on a
/// coarse grid (same shape the batch parity suite uses).
sim::Scenario quick_scenario() {
  auto scenario = *sim::preset("building");
  scenario.grid_resolution_m = 0.05;
  return scenario;
}

void expect_results_bit_identical(const sim::BatchResult& a,
                                  const sim::BatchResult& b) {
  // The deterministic digest folds every field except wall-clock seconds;
  // spot-check the headline fields so a digest bug cannot mask a mismatch.
  EXPECT_EQ(deterministic_digest(a), deterministic_digest(b));
  EXPECT_EQ(a.scenario_name, b.scenario_name);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.status.to_string(), b.status.to_string());
  ASSERT_EQ(a.run.report.items.size(), b.run.report.items.size());
  for (std::size_t i = 0; i < a.run.report.items.size(); ++i) {
    const auto& ia = a.run.report.items[i];
    const auto& ib = b.run.report.items[i];
    EXPECT_EQ(ia.epc, ib.epc) << "item " << i;
    EXPECT_EQ(ia.localized, ib.localized) << "item " << i;
    // Bit compare, not EXPECT_DOUBLE_EQ: the contract is identical bits.
    EXPECT_EQ(std::memcmp(&ia.estimate, &ib.estimate, sizeof ia.estimate), 0)
        << "item " << i;
    EXPECT_EQ(ia.measurements, ib.measurements) << "item " << i;
    EXPECT_EQ(ia.live.size(), ib.live.size()) << "item " << i;
  }
}

TEST(WireCodec, BatchResultRoundTripsARealMissionBitExactly) {
  const sim::Scenario scenario = quick_scenario();
  const auto results = sim::run_batch({{scenario, 77}}, {1});
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].status.is_ok()) << results[0].status.to_string();

  WireWriter w;
  encode_batch_result(w, results[0]);
  WireReader r(w.bytes());
  sim::BatchResult decoded;
  ASSERT_TRUE(decode_batch_result(r, decoded));
  EXPECT_TRUE(r.exhausted());
  expect_results_bit_identical(decoded, results[0]);
  // Wall-clock fields travel too (they are just excluded from the digest).
  EXPECT_EQ(decoded.run.total_seconds, results[0].run.total_seconds);
  ASSERT_EQ(decoded.run.trace.size(), results[0].run.trace.size());
  for (std::size_t i = 0; i < decoded.run.trace.size(); ++i) {
    EXPECT_EQ(decoded.run.trace[i].seconds, results[0].run.trace[i].seconds);
  }
}

TEST(WireCodec, NonFiniteDoublesSurviveByBitPattern) {
  sim::BatchResult result;
  result.scenario_name = "nan-carrier";
  result.run.report.flight_length_m = std::nan("");
  result.run.aperture_coverage = -0.0;
  WireWriter w;
  encode_batch_result(w, result);
  WireReader r(w.bytes());
  sim::BatchResult decoded;
  ASSERT_TRUE(decode_batch_result(r, decoded));
  EXPECT_TRUE(std::isnan(decoded.run.report.flight_length_m));
  EXPECT_TRUE(std::signbit(decoded.run.aperture_coverage));
}

// --- ResultCache ------------------------------------------------------------

TEST(ResultCacheTest, VerifiedHitReturnsExactBytes) {
  ResultCache cache(4);
  const std::string bytes = std::string("\x00\x01payload\xFF", 10);
  cache.insert("scenario-a", 7, bytes);

  std::string out;
  EXPECT_FALSE(cache.lookup("scenario-a", 8, out));   // same text, other seed
  EXPECT_FALSE(cache.lookup("scenario-b", 7, out));   // other text, same seed
  ASSERT_TRUE(cache.lookup("scenario-a", 7, out));
  EXPECT_EQ(out, bytes);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ResultCacheTest, FifoEvictionIsDeterministic) {
  ResultCache cache(2);
  cache.insert("a", 1, "ra");
  cache.insert("b", 1, "rb");
  cache.insert("c", 1, "rc");  // evicts "a" (oldest)

  std::string out;
  EXPECT_FALSE(cache.lookup("a", 1, out));
  EXPECT_TRUE(cache.lookup("b", 1, out));
  EXPECT_TRUE(cache.lookup("c", 1, out));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);

  cache.insert("d", 1, "rd");  // evicts "b"
  EXPECT_FALSE(cache.lookup("b", 1, out));
  EXPECT_TRUE(cache.lookup("c", 1, out));
  EXPECT_TRUE(cache.lookup("d", 1, out));
}

TEST(ResultCacheTest, CapacityZeroDisablesRetention) {
  ResultCache cache(0);
  cache.insert("a", 1, "ra");
  std::string out;
  EXPECT_FALSE(cache.lookup("a", 1, out));
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ResultCacheTest, DuplicateInsertKeepsFirstAndClearDropsAll) {
  ResultCache cache(4);
  cache.insert("a", 1, "first");
  cache.insert("a", 1, "second");  // racing executor: first wins
  std::string out;
  ASSERT_TRUE(cache.lookup("a", 1, out));
  EXPECT_EQ(out, "first");
  EXPECT_EQ(cache.stats().entries, 1u);

  cache.clear();
  EXPECT_FALSE(cache.lookup("a", 1, out));
  EXPECT_EQ(cache.stats().entries, 0u);
  cache.insert("a", 1, "third");  // reusable after clear
  ASSERT_TRUE(cache.lookup("a", 1, out));
  EXPECT_EQ(out, "third");
}

// --- Loopback integration ---------------------------------------------------

class ServiceIntegration : public ::testing::TestWithParam<unsigned> {};

TEST_P(ServiceIntegration, SocketResultsBitIdenticalToDirectColdAndWarm) {
  const unsigned threads = GetParam();
  const sim::Scenario scenario = quick_scenario();
  const std::uint64_t seed = 42;

  // Ground truth: direct run_batch at the same thread count (results are
  // thread-count-invariant, but the acceptance pins 1 and 8 explicitly).
  const auto direct = sim::run_batch({{scenario, seed}}, {threads});
  ASSERT_EQ(direct.size(), 1u);
  ASSERT_TRUE(direct[0].status.is_ok()) << direct[0].status.to_string();

  ServiceConfig config;
  config.workers = 1;
  config.job_threads = threads;
  MissionService daemon(config);
  ASSERT_TRUE(daemon.start().is_ok());
  auto client = Client::connect(daemon.port());
  ASSERT_TRUE(client.ok()) << client.status().to_string();

  // Cold: the submission simulates, and the decoded result is bit-identical
  // to the direct run.
  auto cold_ack = client->submit(sim::serialize(scenario), seed);
  ASSERT_TRUE(cold_ack.ok()) << cold_ack.status().to_string();
  EXPECT_FALSE(cold_ack->cached);
  auto cold_bytes = client->result_bytes(cold_ack->job_id);
  ASSERT_TRUE(cold_bytes.ok()) << cold_bytes.status().to_string();
  auto cold = client->result(cold_ack->job_id);
  ASSERT_TRUE(cold.ok()) << cold.status().to_string();
  expect_results_bit_identical(*cold, direct[0]);

  // Warm: the repeat is served from the result cache — zero additional
  // simulations, and byte-for-byte the stored cold payload.
  auto warm_ack = client->submit(sim::serialize(scenario), seed);
  ASSERT_TRUE(warm_ack.ok()) << warm_ack.status().to_string();
  EXPECT_TRUE(warm_ack->cached);
  auto warm_bytes = client->result_bytes(warm_ack->job_id);
  ASSERT_TRUE(warm_bytes.ok()) << warm_bytes.status().to_string();
  EXPECT_EQ(*warm_bytes, *cold_bytes);
  auto warm = client->result(warm_ack->job_id);
  ASSERT_TRUE(warm.ok());
  expect_results_bit_identical(*warm, direct[0]);

  const ServiceStats stats = daemon.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.simulated, 1u) << "warm submission must not re-simulate";
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.completed, 2u);

  EXPECT_TRUE(client->shutdown().is_ok());
  daemon.wait();
}

INSTANTIATE_TEST_SUITE_P(Threads, ServiceIntegration, ::testing::Values(1u, 8u));

TEST(MissionServiceTest, CanonicalizationSharesCacheAcrossTextVariants) {
  const sim::Scenario scenario = quick_scenario();
  ServiceConfig config;
  MissionService daemon(config);
  ASSERT_TRUE(daemon.start().is_ok());
  auto client = Client::connect(daemon.port());
  ASSERT_TRUE(client.ok());

  // Same scenario, textually different submission (comments + blank lines
  // parse away): the canonical serialized form keys the cache, so the
  // second submission is a hit.
  auto first = client->submit(sim::serialize(scenario), 5);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  auto result = client->result(first->job_id);
  ASSERT_TRUE(result.ok());

  const std::string variant =
      "# a comment the parser strips\n\n" + sim::serialize(scenario);
  auto second = client->submit(variant, 5);
  ASSERT_TRUE(second.ok()) << second.status().to_string();
  EXPECT_TRUE(second->cached);
  EXPECT_EQ(daemon.stats().simulated, 1u);

  client->shutdown();
  daemon.wait();
}

TEST(MissionServiceTest, InvalidScenarioIsTypedErrorNotQueueSlot) {
  MissionService daemon;
  ASSERT_TRUE(daemon.start().is_ok());
  auto client = Client::connect(daemon.port());
  ASSERT_TRUE(client.ok());

  auto ack = client->submit("definitely not a scenario", 1);
  ASSERT_FALSE(ack.ok());
  EXPECT_EQ(ack.status().code(), StatusCode::kParseError);
  // The failed parse consumed nothing: no job, no rejection counted as
  // backpressure, connection still usable.
  const ServiceStats stats = daemon.stats();
  EXPECT_EQ(stats.submitted, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  auto live = client->stats();
  EXPECT_TRUE(live.ok()) << "connection must survive a client mistake";

  client->shutdown();
  daemon.wait();
}

// A scenario whose search window needs ~8e14 heatmap cells per tag must
// fail SUBMIT with a typed error instead of reaching a worker, where the
// allocation throws std::bad_alloc and ends the daemon. The daemon keeps
// serving: STATS answers and a normal mission still completes.
TEST(MissionServiceTest, OverBudgetScenarioIsTypedErrorAndDaemonKeepsServing) {
  MissionService daemon;
  ASSERT_TRUE(daemon.start().is_ok());
  auto client = Client::connect(daemon.port());
  ASSERT_TRUE(client.ok());

  auto hostile = *sim::preset("warehouse");
  ASSERT_TRUE(
      sim::apply_override(hostile, "localize.search_halfwidth_m", "1e6").is_ok());
  auto ack = client->submit(sim::serialize(hostile), 1);
  ASSERT_FALSE(ack.ok());
  EXPECT_EQ(ack.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(ack.status().to_string().find("exceeds the limit"), std::string::npos)
      << ack.status().to_string();

  auto live = client->stats();
  ASSERT_TRUE(live.ok()) << live.status().to_string();
  EXPECT_EQ(live->submitted, 0u);
  auto next = client->submit(sim::serialize(quick_scenario()), 2);
  ASSERT_TRUE(next.ok()) << next.status().to_string();
  auto result = client->result(next->job_id, /*wait=*/true);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_TRUE(result->status.is_ok()) << result->status.to_string();

  client->shutdown();
  daemon.wait();
}

TEST(MissionServiceTest, StatusOfUnknownJobIsNotFound) {
  MissionService daemon;
  ASSERT_TRUE(daemon.start().is_ok());
  auto client = Client::connect(daemon.port());
  ASSERT_TRUE(client.ok());
  auto status = client->status(999);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.status().code(), StatusCode::kNotFound);
  client->shutdown();
  daemon.wait();
}

TEST(MissionServiceTest, BackpressureIsTypedRejectionWithRetryHint) {
  // queue_capacity 0: every non-cached SUBMIT is over capacity — the
  // deterministic backpressure case.
  ServiceConfig config;
  config.queue_capacity = 0;
  config.retry_after_ms = 75;
  MissionService daemon(config);
  ASSERT_TRUE(daemon.start().is_ok());
  auto client = Client::connect(daemon.port());
  ASSERT_TRUE(client.ok());

  auto ack = client->submit(sim::serialize(quick_scenario()), 1);
  ASSERT_FALSE(ack.ok());
  EXPECT_EQ(ack.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(client->last_retry_after_ms(), 75u);
  EXPECT_EQ(daemon.stats().rejected, 1u);
  EXPECT_EQ(daemon.stats().submitted, 0u);

  client->shutdown();
  daemon.wait();
}

/// Slow mission for occupancy tests: fine grid + exact kernel keeps one
/// worker busy long enough to observe queue states deterministically.
sim::Scenario slow_scenario() {
  auto scenario = *sim::preset("warehouse");
  scenario.sar_kernel = localize::SarKernel::kExact;
  return scenario;
}

/// Poll the daemon until `predicate(stats)` holds (bounded; fails the test
/// on timeout rather than hanging).
template <typename Predicate>
bool wait_for_stats(MissionService& daemon, Predicate predicate) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate(daemon.stats())) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

TEST(MissionServiceTest, FullQueueRejectsAndCancelFreesTheSlot) {
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 1;
  MissionService daemon(config);
  ASSERT_TRUE(daemon.start().is_ok());
  auto client = Client::connect(daemon.port());
  ASSERT_TRUE(client.ok());

  // Occupy the worker, then the single queue slot.
  auto running = client->submit(sim::serialize(slow_scenario()), 1);
  ASSERT_TRUE(running.ok()) << running.status().to_string();
  ASSERT_TRUE(wait_for_stats(daemon,
                             [](const ServiceStats& s) { return s.in_flight == 1; }));
  auto queued = client->submit(sim::serialize(slow_scenario()), 2);
  ASSERT_TRUE(queued.ok()) << queued.status().to_string();

  // The next submission finds the queue full: typed rejection, retry hint.
  auto rejected = client->submit(sim::serialize(slow_scenario()), 3);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  EXPECT_GT(client->last_retry_after_ms(), 0u);

  // Cancelling the queued job frees the slot; its RESULT is a typed error.
  auto cancel = client->cancel(queued->job_id);
  ASSERT_TRUE(cancel.ok()) << cancel.status().to_string();
  EXPECT_TRUE(cancel->removed);
  EXPECT_EQ(cancel->state, JobState::kCancelled);
  auto cancelled_result = client->result(queued->job_id, /*wait=*/true);
  ASSERT_FALSE(cancelled_result.ok());
  EXPECT_EQ(cancelled_result.status().code(), StatusCode::kUnavailable);

  auto accepted = client->submit(sim::serialize(slow_scenario()), 4);
  ASSERT_TRUE(accepted.ok()) << "cancel must free the queue slot";

  // The running mission is untouched by all of it.
  auto result = client->result(running->job_id, /*wait=*/true);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_TRUE(result->status.is_ok());

  EXPECT_EQ(daemon.stats().cancelled, 1u);
  client->shutdown();
  daemon.wait();
}

TEST(MissionServiceTest, ConcurrentClientsSeeIdenticalDeterministicResults) {
  const sim::Scenario scenario = quick_scenario();
  const std::uint64_t seeds[] = {11, 12, 13};

  // Ground truth digests from direct runs.
  std::vector<std::uint64_t> expected;
  for (const std::uint64_t seed : seeds) {
    const auto direct = sim::run_batch({{scenario, seed}}, {1});
    ASSERT_TRUE(direct[0].status.is_ok());
    expected.push_back(deterministic_digest(direct[0]));
  }

  ServiceConfig config;
  config.workers = 2;
  config.queue_capacity = 64;
  MissionService daemon(config);
  ASSERT_TRUE(daemon.start().is_ok());

  // Four clients race the same three submissions each. Duplicate in-flight
  // jobs may simulate more than once (no in-flight dedup), but every copy
  // is bit-identical, so all twelve digests must match the direct runs.
  constexpr int kClients = 4;
  std::vector<std::vector<std::uint64_t>> digests(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = Client::connect(daemon.port());
      ASSERT_TRUE(client.ok()) << client.status().to_string();
      std::vector<std::uint64_t> ids;
      for (const std::uint64_t seed : seeds) {
        auto ack = client->submit(sim::serialize(scenario), seed);
        ASSERT_TRUE(ack.ok()) << ack.status().to_string();
        ids.push_back(ack->job_id);
      }
      for (const std::uint64_t id : ids) {
        auto result = client->result(id, /*wait=*/true);
        ASSERT_TRUE(result.ok()) << result.status().to_string();
        digests[c].push_back(deterministic_digest(*result));
      }
    });
  }
  for (auto& thread : clients) thread.join();

  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(digests[c].size(), std::size(seeds)) << "client " << c;
    for (std::size_t i = 0; i < std::size(seeds); ++i) {
      EXPECT_EQ(digests[c][i], expected[i])
          << "client " << c << " seed " << seeds[i];
    }
  }
  const ServiceStats stats = daemon.stats();
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kClients) * 3);
  // At most one simulation per (scenario, seed) once the cache is warm;
  // racing duplicates can add a few, but never one per submission.
  EXPECT_GE(stats.cache_hits + stats.simulated,
            static_cast<std::uint64_t>(kClients) * 3);

  daemon.request_shutdown();
  daemon.wait();
}

TEST(MissionServiceTest, DrainShutdownCompletesQueuedJobs) {
  const sim::Scenario scenario = quick_scenario();
  ServiceConfig config;
  config.workers = 1;
  MissionService daemon(config);
  ASSERT_TRUE(daemon.start().is_ok());
  auto submitter = Client::connect(daemon.port());
  auto controller = Client::connect(daemon.port());
  ASSERT_TRUE(submitter.ok() && controller.ok());

  auto a = submitter->submit(sim::serialize(scenario), 21);
  auto b = submitter->submit(sim::serialize(scenario), 22);
  ASSERT_TRUE(a.ok() && b.ok());

  ASSERT_TRUE(controller->shutdown(/*drain=*/true).is_ok());

  // Intake is closed immediately...
  auto late = submitter->submit(sim::serialize(scenario), 23);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
  // ...but the accepted backlog still completes.
  auto ra = submitter->result(a->job_id, /*wait=*/true);
  auto rb = submitter->result(b->job_id, /*wait=*/true);
  ASSERT_TRUE(ra.ok()) << ra.status().to_string();
  ASSERT_TRUE(rb.ok()) << rb.status().to_string();
  EXPECT_TRUE(ra->status.is_ok());
  EXPECT_TRUE(rb->status.is_ok());

  daemon.wait();
  const ServiceStats stats = daemon.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.cancelled, 0u);
}

TEST(MissionServiceTest, NoDrainShutdownCancelsQueuedJobs) {
  ServiceConfig config;
  config.workers = 1;
  MissionService daemon(config);
  ASSERT_TRUE(daemon.start().is_ok());
  auto client = Client::connect(daemon.port());
  ASSERT_TRUE(client.ok());

  auto running = client->submit(sim::serialize(slow_scenario()), 1);
  ASSERT_TRUE(running.ok());
  ASSERT_TRUE(wait_for_stats(daemon,
                             [](const ServiceStats& s) { return s.in_flight == 1; }));
  auto queued = client->submit(sim::serialize(quick_scenario()), 2);
  ASSERT_TRUE(queued.ok());

  daemon.request_shutdown(/*drain=*/false);

  // The queued job was abandoned with a typed answer; the running mission
  // is not interruptible and completes.
  auto cancelled = client->result(queued->job_id, /*wait=*/true);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kUnavailable);
  auto finished = client->result(running->job_id, /*wait=*/true);
  ASSERT_TRUE(finished.ok()) << finished.status().to_string();

  daemon.wait();
  EXPECT_EQ(daemon.stats().cancelled, 1u);
  EXPECT_EQ(daemon.stats().completed, 1u);
}

// --- Raw-socket protocol violations ----------------------------------------

int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Expect one ERROR frame with `code`, then EOF (the server abandons the
/// stream after a framing violation).
void expect_error_then_close(int fd, StatusCode code) {
  auto reply = recv_frame(fd);
  ASSERT_TRUE(reply.ok()) << reply.status().to_string();
  ASSERT_EQ(reply->header.type, MsgType::kError);
  WireReader r(reply->payload);
  WireError error;
  ASSERT_TRUE(decode_error(r, error));
  EXPECT_EQ(error.code, code);
  char byte;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0) << "server must close the stream";
}

TEST(MissionServiceTest, GarbageMagicGetsTypedErrorThenClose) {
  MissionService daemon;
  ASSERT_TRUE(daemon.start().is_ok());
  const int fd = raw_connect(daemon.port());
  ASSERT_GE(fd, 0);
  std::uint8_t junk[kFrameHeaderBytes];
  std::memset(junk, 0xAB, sizeof junk);
  ASSERT_TRUE(write_all(fd, junk, sizeof junk));
  expect_error_then_close(fd, StatusCode::kParseError);
  ::close(fd);
  daemon.request_shutdown();
  daemon.wait();
}

TEST(MissionServiceTest, FutureVersionGetsUnavailableThenClose) {
  MissionService daemon;
  ASSERT_TRUE(daemon.start().is_ok());
  const int fd = raw_connect(daemon.port());
  ASSERT_GE(fd, 0);
  FrameHeader header;
  header.version = kProtocolVersion + 7;
  header.type = MsgType::kStats;
  std::uint8_t raw[kFrameHeaderBytes];
  encode_frame_header(header, raw);
  ASSERT_TRUE(write_all(fd, raw, sizeof raw));
  expect_error_then_close(fd, StatusCode::kUnavailable);
  ::close(fd);
  daemon.request_shutdown();
  daemon.wait();
}

TEST(MissionServiceTest, OversizedLengthGetsInvalidArgumentThenClose) {
  MissionService daemon;
  ASSERT_TRUE(daemon.start().is_ok());
  const int fd = raw_connect(daemon.port());
  ASSERT_GE(fd, 0);
  FrameHeader header;
  header.type = MsgType::kSubmit;
  header.payload_len = 1ull << 40;  // 1 TiB claim; no payload follows
  std::uint8_t raw[kFrameHeaderBytes];
  encode_frame_header(header, raw);
  ASSERT_TRUE(write_all(fd, raw, sizeof raw));
  expect_error_then_close(fd, StatusCode::kInvalidArgument);
  ::close(fd);
  daemon.request_shutdown();
  daemon.wait();
}

TEST(MissionServiceTest, MalformedPayloadGetsParseErrorThenClose) {
  MissionService daemon;
  ASSERT_TRUE(daemon.start().is_ok());
  const int fd = raw_connect(daemon.port());
  ASSERT_GE(fd, 0);
  // A STATUS request whose payload is one byte short of its u64 job id.
  WireWriter w;
  w.u32(7);
  ASSERT_TRUE(write_all(fd, encode_frame(MsgType::kStatus, w.take()).data(),
                        kFrameHeaderBytes + 4));
  expect_error_then_close(fd, StatusCode::kParseError);
  ::close(fd);
  daemon.request_shutdown();
  daemon.wait();
}

}  // namespace
}  // namespace rfly::service
