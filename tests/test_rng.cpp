// The project's MT19937-64 against std::mt19937_64, the reference it must
// reproduce word for word over fixed and random seeds, and every Rng method
// against the same method written over std::mt19937_64 (libstdc++'s
// distributions take the same code paths over both engines, so each value
// must match exactly).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "common/constants.h"
#include "common/rng.h"

namespace rfly {
namespace {

/// Seeds 0, 1, 5489 (the default), 2^64-1 and 16 seeded randoms.
std::vector<std::uint64_t> test_seeds() {
  std::vector<std::uint64_t> seeds{0, 1, 5489, ~std::uint64_t{0}};
  std::mt19937_64 gen(20240601);
  for (int i = 0; i < 16; ++i) seeds.push_back(gen());
  return seeds;
}

/// Rng's methods written over std::mt19937_64: the values Rng returned
/// when it wrapped that engine.
class ReferenceRng {
 public:
  explicit ReferenceRng(std::uint64_t seed) : engine_(seed) {}
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }
  double gaussian(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }
  bool chance(double p) { return std::bernoulli_distribution(p)(engine_); }
  double phase() { return uniform(0.0, kTwoPi); }
  ReferenceRng fork() { return ReferenceRng(engine_()); }

 private:
  std::mt19937_64 engine_;
};

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(Mt19937_64, EngineContractMatchesTheStandardEngine) {
  static_assert(std::is_same_v<Mt19937_64::result_type, std::uint64_t>);
  static_assert(Mt19937_64::min() == std::mt19937_64::min());
  static_assert(Mt19937_64::max() == std::mt19937_64::max());
  static_assert(Mt19937_64::max() == ~std::uint64_t{0});
  static_assert(std::uniform_random_bit_generator<Mt19937_64>);
}

TEST(Mt19937_64, MatchesTheStandardEngine) {
  constexpr int kTwists = 24;
  for (const std::uint64_t seed : test_seeds()) {
    Mt19937_64 engine(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < kTwists * static_cast<int>(Mt19937_64::kStateWords); ++i) {
      ASSERT_EQ(engine(), reference()) << "seed " << seed << " word " << i;
    }
  }
}

TEST(Mt19937_64, ReseedRestartsTheSequence) {
  Mt19937_64 engine(3);
  for (int i = 0; i < 500; ++i) engine();
  engine.seed(77);
  std::mt19937_64 reference(77);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(engine(), reference());
}

TEST(Rng, EveryMethodMatchesTheStandardEngine) {
  for (const std::uint64_t seed : test_seeds()) {
    Rng rng(seed);
    ReferenceRng reference(seed);
    // Interleave every method so each starts at an arbitrary word, across
    // several twists.
    for (int i = 0; i < 400; ++i) {
      ASSERT_TRUE(same_bits(rng.uniform(-3.0, 7.5), reference.uniform(-3.0, 7.5)));
      ASSERT_TRUE(same_bits(rng.gaussian(0.0, 1.0), reference.gaussian(0.0, 1.0)));
      ASSERT_TRUE(same_bits(rng.gaussian(2.0, 0.25), reference.gaussian(2.0, 0.25)));
      // Power-of-two ranges (slot draws of every Q), odd ranges, a
      // one-value range and the full signed range.
      for (int q = 0; q <= 15; ++q) {
        ASSERT_EQ(rng.uniform_int(0, (1 << q) - 1), reference.uniform_int(0, (1 << q) - 1));
      }
      ASSERT_EQ(rng.uniform_int(1, 1), reference.uniform_int(1, 1));
      ASSERT_EQ(rng.uniform_int(0, 0xFFFF), reference.uniform_int(0, 0xFFFF));
      ASSERT_EQ(rng.uniform_int(-7, 12), reference.uniform_int(-7, 12));
      ASSERT_EQ(rng.uniform_int(3, 1000003), reference.uniform_int(3, 1000003));
      ASSERT_EQ(rng.uniform_int(INT64_MIN, INT64_MAX),
                reference.uniform_int(INT64_MIN, INT64_MAX));
      ASSERT_EQ(rng.chance(0.3), reference.chance(0.3));
      ASSERT_EQ(rng.chance(0.97), reference.chance(0.97));
      ASSERT_TRUE(same_bits(rng.phase(), reference.phase()));
      if (i % 50 == 0) {
        Rng child = rng.fork();
        ReferenceRng reference_child = reference.fork();
        for (int k = 0; k < 20; ++k) {
          ASSERT_EQ(child.uniform_int(0, 1023), reference_child.uniform_int(0, 1023));
          ASSERT_TRUE(same_bits(child.gaussian(0.0, 1.0), reference_child.gaussian(0.0, 1.0)));
        }
      }
    }
  }
}

}  // namespace
}  // namespace rfly
