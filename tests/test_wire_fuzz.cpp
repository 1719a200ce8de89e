// Seeded mutation fuzzer for rflyd's wire decoders (`fuzz` label). Real
// payloads — a mission BatchResult whose items carry non-OK statuses,
// ServiceStats, a WireError — and a frame header are mutated two ways:
//
//   - every 4-byte window overwritten with each hostile count: 0, the u32
//     maximum, and one byte more than the payload holds after the window.
//     That reaches every length prefix and element count exactly;
//   - a seeded stream of bit flips and truncations.
//
// Every mutant must decode or be rejected (false, or a non-OK Status); it
// must never throw, hang or trip ASan/UBSan. A decoded payload must also
// re-encode to a fixed point. The mutation stream is a pure function of the
// seed, so a failure reproduces exactly; the ASan+UBSan tree runs the same
// count as tier-1.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "service/wire.h"
#include "sim/batch.h"
#include "sim/scenario.h"

namespace rfly::service {
namespace {

constexpr int kRandomMutants = 1024;

/// Calls `check(mutant)` for every mutant of `payload` (see file header).
template <typename Check>
void for_each_mutant(const std::string& payload, std::uint64_t seed, Check&& check) {
  const std::size_t n = payload.size();
  for (std::size_t at = 0; at + 4 <= n; ++at) {
    const std::array<std::uint32_t, 3> counts{
        0u, 0xFFFFFFFFu, static_cast<std::uint32_t>(n - at - 4 + 1)};
    for (std::uint32_t count : counts) {
      std::string mutant = payload;
      std::memcpy(mutant.data() + at, &count, sizeof count);
      check(mutant);
    }
  }
  Rng rng(seed);
  for (int i = 0; i < kRandomMutants; ++i) {
    std::string mutant = payload;
    const auto pick = [&](std::size_t size) {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
    };
    if (rng.uniform_int(0, 1) == 0) {
      const int flips = static_cast<int>(rng.uniform_int(1, 4));
      for (int f = 0; f < flips; ++f) {
        mutant[pick(n)] ^= static_cast<char>(1 << rng.uniform_int(0, 7));
      }
    } else {
      mutant.resize(pick(n));
    }
    check(mutant);
  }
}

/// A payload decoder under test: decode the whole mutant (it must be
/// consumed exactly, as the client requires), and on success re-encode.
template <typename T, typename Decode, typename Encode>
bool round_trip(const std::string& bytes, Decode decode, Encode encode,
                std::string& reencoded) {
  WireReader r(bytes);
  T value;
  if (!decode(r, value) || !r.exhausted()) return false;
  WireWriter w;
  encode(w, value);
  reencoded = w.take();
  return true;
}

/// Fuzz one payload codec: every mutant decodes or is rejected without
/// throwing, and a decoded mutant re-encodes to a fixed point.
template <typename T, typename Decode, typename Encode>
void fuzz_payload(const std::string& payload, std::uint64_t seed, Decode decode,
                  Encode encode) {
  std::string reencoded;
  ASSERT_TRUE(round_trip<T>(payload, decode, encode, reencoded));
  ASSERT_EQ(reencoded, payload);
  std::size_t mutants = 0, decoded = 0;
  for_each_mutant(payload, seed, [&](const std::string& mutant) {
    ++mutants;
    std::string first;
    bool ok = false;
    EXPECT_NO_THROW(ok = round_trip<T>(mutant, decode, encode, first))
        << "mutant " << mutants;
    if (!ok) return;
    ++decoded;
    std::string second;
    ASSERT_TRUE(round_trip<T>(first, decode, encode, second)) << "mutant " << mutants;
    EXPECT_EQ(second, first) << "mutant " << mutants;
  });
  // Some byte flips land in doubles and still decode; most mutants must not.
  EXPECT_GT(mutants, decoded);
}

/// A real mission whose items carry non-OK statuses with context frames:
/// aperture dropouts degrade some localizations (kDegraded, "tag N").
sim::BatchResult degraded_mission() {
  auto scenario = *sim::preset("building");
  scenario.grid_resolution_m = 0.05;
  scenario.legs.front().points = 12;
  scenario.faults.dropout = 0.3;
  return sim::run_batch({{scenario, 5}}, {1}).front();
}

TEST(WireFuzz, BatchResultMutantsDecodeOrFailCleanly) {
  const sim::BatchResult result = degraded_mission();
  ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();
  std::size_t non_ok = 0;
  for (const auto& item : result.run.report.items) {
    if (!item.status.is_ok() && !item.status.context().empty()) ++non_ok;
  }
  ASSERT_GT(non_ok, 0u) << "the fuzzed payload must carry a non-OK item status";

  WireWriter w;
  encode_batch_result(w, result);
  fuzz_payload<sim::BatchResult>(w.bytes(), 1, decode_batch_result,
                                 encode_batch_result);
}

TEST(WireFuzz, StatsMutantsDecodeOrFailCleanly) {
  ServiceStats stats;
  stats.submitted = 40;
  stats.rejected = 3;
  stats.completed = 35;
  stats.simulated = 27;
  stats.cache_hits = 8;
  stats.cache_misses = 27;
  stats.cache_entries = 27;
  stats.queue_depth = 2;
  stats.in_flight = 1;
  stats.queue_capacity = 64;
  WireWriter w;
  encode_stats(w, stats);
  fuzz_payload<ServiceStats>(w.bytes(), 2, decode_stats, encode_stats);
}

TEST(WireFuzz, ErrorMutantsDecodeOrFailCleanly) {
  WireWriter w;
  encode_error(w, {StatusCode::kUnavailable, "job queue full (64/64); retry after backoff",
                   150});
  fuzz_payload<WireError>(w.bytes(), 3, decode_error, encode_error);
}

TEST(WireFuzz, FrameHeaderMutantsDecodeOrFailCleanly) {
  FrameHeader header;
  header.type = MsgType::kResult;
  header.payload_len = 4096;
  std::string raw(kFrameHeaderBytes, '\0');
  encode_frame_header(header, reinterpret_cast<std::uint8_t*>(raw.data()));
  for_each_mutant(raw, 4, [&](const std::string& mutant) {
    const std::span<const std::uint8_t> bytes(
        reinterpret_cast<const std::uint8_t*>(mutant.data()), mutant.size());
    bool ok = false;
    FrameHeader decoded;
    EXPECT_NO_THROW({
      auto parsed = decode_frame_header(bytes);
      ok = parsed.ok();
      if (ok) decoded = *parsed;
    });
    if (!ok) return;
    // An accepted header is within the payload cap and re-encodes exactly.
    EXPECT_LE(decoded.payload_len, kMaxPayloadBytes);
    std::string again(kFrameHeaderBytes, '\0');
    encode_frame_header(decoded, reinterpret_cast<std::uint8_t*>(again.data()));
    EXPECT_EQ(again, mutant);
  });
}

}  // namespace
}  // namespace rfly::service
