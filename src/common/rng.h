// Deterministic random number generation. Every stochastic component in the
// simulator draws from an explicitly seeded Rng so experiments reproduce
// bit-identically across runs.
#pragma once

#include <cstdint>
#include <random>

namespace rfly {

/// SplitMix64 finalizer (Steele/Lea/Vigna): a cheap bijective avalanche mix
/// over 64 bits. Used to derive decorrelated engine seeds — consecutive
/// inputs (seed, seed+1) map to outputs with no arithmetic relation, unlike
/// feeding raw `seed + i` into MT19937-64 where nearby seeds can collide
/// with other streams' derived values (e.g. `seed + 100 + i` tag streams).
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Engine seed for stream `stream` of base `seed`: the SplitMix64 generator
/// seeded with splitmix64(seed), jumped `stream` steps (state advances by
/// the golden-ratio gamma). Distinct (seed, stream) pairs give independent
/// engines, so batch trials and fault streams never share stochastic state
/// with each other or with the mission Rng seeded directly from `seed`.
constexpr std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  return splitmix64(splitmix64(seed) + 0x9E3779B97F4A7C15ull * stream);
}

/// MT19937-64 with the standard seeding recurrence, twist and tempering: it
/// produces exactly std::mt19937_64's sequence for every seed. Its
/// result_type, min() and max() match too, so libstdc++'s distributions take
/// the same code paths over it (uniform_int's 128-bit multiply path keys on
/// max() == 2^64-1; generate_canonical<double, 53> takes one word) and return
/// the same values. What differs is the twist: it is written branch-free in
/// lane-width blocks (rng.cpp), so the baseline -O2 build vectorizes it.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kStateWords = 312;

  explicit Mt19937_64(result_type seed = 5489u) { this->seed(seed); }

  void seed(result_type seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (index_ >= kStateWords) twist();
    return temper(state_[index_++]);
  }

 private:
  static result_type temper(result_type z) {
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71D67FFFEDA60000ull;
    z ^= (z << 37) & 0xFFF7EEE000000000ull;
    return z ^ (z >> 43);
  }
  /// Regenerate the state (out of line: once per kStateWords draws).
  void twist();

  // The index leads, so a struct embedding the engine right after its own
  // hot fields (gen2::Tag) keeps it on their cache line.
  std::uint32_t index_ = kStateWords;
  std::uint64_t state_[kStateWords + 1];  // plus one scratch word (rng.cpp)
};

/// Seeded pseudo-random source. Cheap to pass by reference; not thread-safe
/// (each simulation owns its own instance).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Standard normal scaled to the given standard deviation and mean. The
  /// unit draw is scaled here rather than by the distribution, whose
  /// stddev must be > 0: a spread configured to zero returns the mean and
  /// still consumes the draws a unit spread would. libstdc++ computes
  /// z * stddev + mean from the same polar draws, so every value matches
  /// std::normal_distribution<double>(mean, stddev) where that is defined.
  double gaussian(double mean = 0.0, double stddev = 1.0) {
    return mean + stddev * std::normal_distribution<double>()(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) { return std::bernoulli_distribution(p)(engine_); }

  /// Uniform phase in [0, 2*pi).
  double phase();

  /// Derive an independent child generator; used to give each subsystem its
  /// own stream so adding draws in one place does not perturb another.
  Rng fork();

  Mt19937_64& engine() { return engine_; }

 private:
  Mt19937_64 engine_;
};

}  // namespace rfly
