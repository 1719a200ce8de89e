// Seeded encode -> corrupt -> decode fuzzer for the Gen2 bit layer (`fuzz`
// label): the command codec, the RN16 and EPC reply decoders, both CRCs,
// PIE envelopes, and the FM0 and Miller-2/4/8 backscatter decoders. Every
// case starts from a frame the encoder built, checks that the clean frame
// decodes to its own bits, then corrupts it — flipped bits, bytes other
// than 0 and 1, truncation, NaN and Inf samples, a wrong expected length —
// and the decoder must return a well-formed result or nullopt: never crash,
// hang or trip ASan/UBSan. The stream is a pure function of the seed, so a
// failure reproduces exactly; the ASan+UBSan tree runs the same count as
// tier-1.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "gen2/commands.h"
#include "gen2/crc.h"
#include "gen2/fm0.h"
#include "gen2/miller.h"
#include "gen2/pie.h"

namespace rfly::gen2 {
namespace {

constexpr int kCases = 192;

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

Bits random_bits(Rng& rng, std::size_t n) {
  Bits bits(n);
  for (auto& b : bits) b = rng.chance(0.5) ? 1 : 0;
  return bits;
}

bool all_binary(const Bits& bits) {
  for (std::uint8_t b : bits) {
    if (b > 1) return false;
  }
  return true;
}

/// A Query, Select or ACK with random fields, as the reader encodes it.
Bits random_command_frame(Rng& rng) {
  switch (rng.uniform_int(0, 2)) {
    case 0: {
      QueryCommand q;
      q.dr = static_cast<DivideRatio>(rng.uniform_int(0, 1));
      q.m = static_cast<Miller>(rng.uniform_int(0, 3));
      q.tr_ext = rng.chance(0.5);
      q.sel = static_cast<SelTarget>(rng.uniform_int(0, 3));
      q.session = static_cast<Session>(rng.uniform_int(0, 3));
      q.target = static_cast<InventoryFlag>(rng.uniform_int(0, 1));
      q.q = static_cast<std::uint8_t>(rng.uniform_int(0, 15));
      return encode(q);
    }
    case 1: {
      SelectCommand s;
      s.target = static_cast<SelTarget>(rng.uniform_int(0, 3));
      s.action = static_cast<std::uint8_t>(rng.uniform_int(0, 7));
      s.pointer = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      s.mask = random_bits(rng, pick(rng, 97));
      return encode(s);
    }
    default:
      return encode(AckCommand{static_cast<std::uint16_t>(rng.uniform_int(0, 0xFFFF))});
  }
}

/// One to three corruptions of `frame`: bit flips, a byte other than 0 and
/// 1, a truncation, or extra bits.
Bits corrupt(Bits frame, Rng& rng) {
  const int n = static_cast<int>(rng.uniform_int(1, 3));
  for (int k = 0; k < n; ++k) {
    switch (rng.uniform_int(0, 3)) {
      case 0:
        if (!frame.empty()) frame[pick(rng, frame.size())] ^= 1;
        break;
      case 1:
        if (!frame.empty()) {
          frame[pick(rng, frame.size())] =
              static_cast<std::uint8_t>(rng.uniform_int(2, 255));
        }
        break;
      case 2:
        frame.resize(pick(rng, frame.size() + 1));
        break;
      default: {
        const Bits extra = random_bits(rng, pick(rng, 9) + 1);
        frame.insert(frame.end(), extra.begin(), extra.end());
      }
    }
  }
  return frame;
}

/// A command the decoder accepted re-encodes to a frame that decodes and
/// re-encodes to itself: garbage fields normalize in one round.
void expect_normalizes(const Command& cmd) {
  const Bits once = encode_command(cmd);
  const auto again = decode_command(once);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(encode_command(*again), once);
}

TEST(Gen2Fuzz, CommandFramesDecodeOrReject) {
  Rng rng(0x6e2f'c0de);
  int decoded = 0;
  int rejected = 0;
  for (int i = 0; i < kCases; ++i) {
    const Bits frame = random_command_frame(rng);
    const auto clean = decode_command(frame);
    ASSERT_TRUE(clean.has_value()) << "case " << i;
    EXPECT_EQ(encode_command(*clean), frame) << "case " << i;

    // The corrupted frame, then a random string of any length and any byte
    // values.
    Bits junk(pick(rng, 65));
    for (auto& b : junk) {
      b = static_cast<std::uint8_t>(rng.chance(0.8) ? rng.uniform_int(0, 1)
                                                    : rng.uniform_int(0, 255));
    }
    for (const Bits& mutant : {corrupt(frame, rng), junk}) {
      const auto cmd = decode_command(mutant);
      ++(cmd ? decoded : rejected);
      if (cmd) expect_normalizes(*cmd);
    }
  }
  EXPECT_GT(decoded, 0);
  EXPECT_GT(rejected, 0);
}

TEST(Gen2Fuzz, RepliesAndCrcsRejectCorruption) {
  Rng rng(0x6e2f'c5c5);
  for (int i = 0; i < kCases; ++i) {
    EpcReply reply;
    reply.pc = static_cast<std::uint16_t>(rng.uniform_int(0, 0xFFFF));
    for (auto& byte : reply.epc) byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const Bits frame = encode(reply);
    const auto clean = decode_epc_reply(frame);
    ASSERT_TRUE(clean.has_value()) << "case " << i;
    EXPECT_EQ(encode(*clean), frame) << "case " << i;

    // CRC-16 catches every error of up to 3 bits in a frame this short.
    Bits flipped = frame;
    const int flips = static_cast<int>(rng.uniform_int(1, 3));
    std::vector<std::size_t> at;
    while (static_cast<int>(at.size()) < flips) {
      const std::size_t j = pick(rng, flipped.size());
      if (std::find(at.begin(), at.end(), j) == at.end()) at.push_back(j);
    }
    for (std::size_t j : at) flipped[j] ^= 1;
    EXPECT_FALSE(decode_epc_reply(flipped).has_value()) << "case " << i;
    EXPECT_FALSE(crc16_check(flipped)) << "case " << i;

    const Bits mutant = corrupt(frame, rng);
    if (const auto decoded = decode_epc_reply(mutant)) {
      EXPECT_EQ(mutant.size(), kEpcReplyBits);
    }
    const auto rn16 = decode_rn16(mutant);
    EXPECT_EQ(rn16.has_value(), mutant.size() == kRn16Bits);
    const Bits short_frame(frame.begin(), frame.begin() + static_cast<long>(kRn16Bits));
    ASSERT_TRUE(decode_rn16(short_frame).has_value());
    EXPECT_EQ(encode(*decode_rn16(short_frame)), short_frame);

    // Both CRCs over a random payload: the appended value checks out, a
    // single flipped bit anywhere does not, and junk never crashes.
    Bits payload = random_bits(rng, pick(rng, 49));
    Bits with5 = payload;
    append_bits(with5, crc5(payload), 5);
    Bits with16 = payload;
    append_bits(with16, crc16(payload), 16);
    EXPECT_TRUE(crc5_check(with5));
    EXPECT_TRUE(crc16_check(with16));
    with5[pick(rng, with5.size())] ^= 1;
    with16[pick(rng, with16.size())] ^= 1;
    EXPECT_FALSE(crc5_check(with5)) << "case " << i;
    EXPECT_FALSE(crc16_check(with16)) << "case " << i;
    crc5_check(mutant);
    crc16_check(mutant);
  }
}

TEST(Gen2Fuzz, PieEnvelopesDecodeOrReject) {
  Rng rng(0x6e2f'0b1e);
  const PieConfig cfg;
  const double low = 1.0 - cfg.modulation_depth;
  int decoded = 0;
  for (int i = 0; i < kCases; ++i) {
    const Bits bits = random_command_frame(rng);
    const bool with_trcal = bits.size() == 22;  // Query frames carry TRcal
    const std::vector<double> envelope = pie_encode(bits, cfg, with_trcal);
    const auto clean = pie_decode(envelope, cfg);
    ASSERT_TRUE(clean.has_value()) << "case " << i;
    EXPECT_EQ(clean->bits, bits) << "case " << i;
    EXPECT_EQ(clean->trcal_s.has_value(), with_trcal) << "case " << i;

    std::vector<double> mutant = envelope;
    switch (rng.uniform_int(0, 2)) {
      case 0: {  // swap high and low over a random span
        const std::size_t begin = pick(rng, mutant.size());
        const std::size_t end = begin + pick(rng, mutant.size() - begin) + 1;
        for (std::size_t j = begin; j < end; ++j) mutant[j] = 1.0 + low - mutant[j];
        break;
      }
      case 1: {  // NaN or Inf samples
        const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity()};
        const int n = static_cast<int>(rng.uniform_int(1, 8));
        for (int k = 0; k < n; ++k) mutant[pick(rng, mutant.size())] = bad[pick(rng, 3)];
        break;
      }
      default:
        mutant.resize(pick(rng, mutant.size() + 1));
    }
    if (const auto result = pie_decode(mutant, cfg)) {
      ++decoded;
      EXPECT_TRUE(all_binary(result->bits)) << "case " << i;
      EXPECT_LE(result->end_sample, mutant.size()) << "case " << i;
    }
  }
  EXPECT_GT(decoded, 0);
  EXPECT_LT(decoded, kCases);
}

/// DC + h * (half-bit or chip level) at `spb` samples per level, after
/// `lead_in` samples of DC, with 64 samples of tail.
std::vector<cdouble> synthesize(const std::vector<int>& levels, double spb, cdouble h,
                                std::size_t lead_in) {
  const cdouble dc{1e-3, 0.0};
  const auto total =
      static_cast<std::size_t>(std::ceil(spb * static_cast<double>(levels.size())));
  std::vector<cdouble> x(lead_in + total + 64, dc);
  for (std::size_t i = 0; i < total; ++i) {
    const auto k = static_cast<std::size_t>(static_cast<double>(i) / spb);
    x[lead_in + i] += h * static_cast<double>(levels[std::min(k, levels.size() - 1)]);
  }
  return x;
}

/// A corrupted capture and the payload length the decoder is told to
/// expect: truncated, with NaN or Inf samples, or with a wrong `n_bits`.
struct Corrupted {
  std::vector<cdouble> samples;
  std::size_t n_bits = 0;
};

Corrupted corrupt_capture(std::vector<cdouble> x, std::size_t n_bits, Rng& rng) {
  switch (rng.uniform_int(0, 2)) {
    case 0:
      x.resize(pick(rng, x.size() + 1));
      break;
    case 1: {
      const double inf = std::numeric_limits<double>::infinity();
      const cdouble bad[] = {{inf, 0.0}, {-inf, inf},
                             {std::numeric_limits<double>::quiet_NaN(), 0.0}};
      const int n = static_cast<int>(rng.uniform_int(1, 4));
      for (int k = 0; k < n; ++k) x[pick(rng, x.size())] = bad[pick(rng, 3)];
      break;
    }
    default:
      n_bits = rng.chance(0.5) ? pick(rng, n_bits) : n_bits + pick(rng, 64) + 1;
  }
  return {std::move(x), n_bits};
}

/// True if the corrupted capture decoded, which it may only do to exactly
/// `n_bits` binary bits.
template <typename Result>
bool expect_well_formed(const std::optional<Result>& decoded, std::size_t n_bits,
                        int i) {
  if (!decoded) return false;
  EXPECT_EQ(decoded->bits.size(), n_bits) << "case " << i;
  EXPECT_TRUE(all_binary(decoded->bits)) << "case " << i;
  return true;
}

cdouble random_channel(Rng& rng) {
  const double phase = rng.uniform(-3.14159, 3.14159);
  return 1e-5 * cdouble{std::cos(phase), std::sin(phase)};
}

TEST(Gen2Fuzz, Fm0CapturesDecodeOrReject) {
  Rng rng(0x6e2f'00f0);
  const double spb = 4.0;
  int decoded = 0;
  for (int i = 0; i < kCases; ++i) {
    const std::size_t n_bits = rng.chance(0.75) ? kRn16Bits : kEpcReplyBits;
    const Bits bits = random_bits(rng, n_bits);
    const auto x = synthesize(fm0_levels(bits), spb, random_channel(rng), pick(rng, 17));
    const auto clean = fm0_decode(x, spb, n_bits);
    ASSERT_TRUE(clean.has_value()) << "case " << i;
    EXPECT_EQ(clean->bits, bits) << "case " << i;

    const Corrupted bad = corrupt_capture(x, n_bits, rng);
    decoded += expect_well_formed(fm0_decode(bad.samples, spb, bad.n_bits), bad.n_bits, i);
  }
  EXPECT_GT(decoded, 0);
  EXPECT_LT(decoded, kCases);
}

TEST(Gen2Fuzz, MillerCapturesDecodeOrReject) {
  Rng rng(0x6e2f'0111);
  const double spc = 2.0;
  const Miller modes[] = {Miller::kM2, Miller::kM4, Miller::kM8};
  int decoded = 0;
  for (int i = 0; i < kCases; ++i) {
    const Miller m = modes[pick(rng, 3)];
    const std::size_t n_bits = rng.chance(0.75) ? kRn16Bits : kEpcReplyBits;
    const Bits bits = random_bits(rng, n_bits);
    const auto x =
        synthesize(miller_chips(bits, m), spc, random_channel(rng), pick(rng, 17));
    const auto clean = miller_decode(x, spc, n_bits, m);
    ASSERT_TRUE(clean.has_value()) << "case " << i;
    EXPECT_EQ(clean->bits, bits) << "case " << i;

    const Corrupted bad = corrupt_capture(x, n_bits, rng);
    decoded +=
        expect_well_formed(miller_decode(bad.samples, spc, bad.n_bits, m), bad.n_bits, i);
  }
  EXPECT_GT(decoded, 0);
  EXPECT_LT(decoded, kCases);
}

}  // namespace
}  // namespace rfly::gen2
