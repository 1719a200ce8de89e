#include "common/rng.h"

#include "common/constants.h"

namespace rfly {

namespace {

constexpr std::size_t kN = Mt19937_64::kStateWords;
constexpr std::size_t kM = 156;
constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ull;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;

/// Words [Begin, End) of the twist: each takes its top bit from itself, its
/// low 31 bits from its successor, and mixes in the word `Far` away. The
/// odd-bit select is a mask, not a branch, so the loop vectorizes.
template <std::size_t Begin, std::size_t End, std::ptrdiff_t Far>
void twist_span(std::uint64_t* x) {
  for (std::size_t k = Begin; k < End; ++k) {
    const std::uint64_t y = (x[k] & kUpperMask) | (x[k + 1] & kLowerMask);
    x[k] = x[static_cast<std::ptrdiff_t>(k) + Far] ^ (y >> 1) ^
           (kMatrixA & (0 - (y & 1)));
  }
}

}  // namespace

void Mt19937_64::seed(result_type seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kN; ++i) {
    const std::uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ull * (prev ^ (prev >> 62)) + i;
  }
  state_[kN] = 0;
  index_ = kN;
}

/// The standard twist. Words below kN - kM mix in the old word kM ahead;
/// the rest mix in the new word kN - kM behind, and the last word's
/// successor is the new x[0], mirrored into the scratch word x[kN] so no
/// word wraps. Both halves run 156 words, whole vectors of 2 or 4 lanes.
void Mt19937_64::twist() {
  static_assert(kN == 2 * kM, "the two halves assume MT19937-64");
  std::uint64_t* x = state_;
  twist_span<0, kN - kM, kM>(x);
  x[kN] = x[0];
  twist_span<kN - kM, kN, -static_cast<std::ptrdiff_t>(kN - kM)>(x);
  index_ = 0;
}

double Rng::phase() { return uniform(0.0, kTwoPi); }

Rng Rng::fork() {
  // Draw a fresh 64-bit seed; the child stream is then independent of
  // subsequent draws from this generator.
  return Rng(engine_());
}

}  // namespace rfly
