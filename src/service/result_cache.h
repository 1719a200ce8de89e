// Content-addressed mission result cache. A mission outcome is a pure
// function of (canonical scenario text, engine seed) — the repo-wide
// determinism contract — so the daemon never simulates the same mission
// twice: the first SUBMIT stores the wire-encoded BatchResult, every
// identical later SUBMIT is served those exact bytes (bit-identical by
// construction, including the original run's stage timings).
//
// The splitmix64 digest of the key is a *hint*: every hit is verified
// against the full (text, seed) pair
// before bytes are shared — a collision can cost a miss, never a wrong
// result. Eviction is FIFO by insertion order, deterministic for a given
// request sequence; capacity 0 disables retention entirely.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace rfly::service {

class ResultCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;

  explicit ResultCache(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  /// Look up the result bytes for (canonical scenario text, seed).
  /// Returns true and fills `out` on a verified hit. Thread-safe.
  bool lookup(const std::string& scenario_text, std::uint64_t seed,
              std::string& out);

  /// Insert a result. A duplicate key (two racing executors finishing the
  /// same mission) keeps the first entry — both serialized the same bits,
  /// so which one wins is unobservable. Evicts FIFO beyond capacity.
  void insert(const std::string& scenario_text, std::uint64_t seed,
              std::string result_bytes);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
  };
  Stats stats() const;

  std::size_t capacity() const { return capacity_; }

  /// Drop every entry (stats survive). Tests and cold/warm benches.
  void clear();

 private:
  struct Entry {
    std::string text;  // verification key, not the digest
    std::uint64_t seed = 0;
    std::string bytes;
  };

  static std::uint64_t key_digest(const std::string& text, std::uint64_t seed);

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::deque<Entry> entries_;  // FIFO order; stable addresses not required
  /// digest -> indices into entries_ (indices shift on eviction; rebuilt
  /// lazily — see .cpp).
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> index_;
  std::size_t evicted_front_ = 0;  // entries_ indices are offset by this
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace rfly::service
