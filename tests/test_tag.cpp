#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>

#include "gen2/tag.h"

namespace rfly::gen2 {
namespace {

TagConfig make_config() {
  TagConfig cfg;
  cfg.epc = Epc{0x30, 0x14, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x42};
  return cfg;
}

CommandContext powered_ctx() {
  CommandContext ctx;
  ctx.incident_power_dbm = -10.0;
  ctx.trcal_s = 64.0 / 3.0 / 500e3;
  return ctx;
}

TEST(Tag, UnpoweredTagStaysSilent) {
  Tag tag(make_config(), 1);
  CommandContext ctx;
  ctx.incident_power_dbm = -20.0;  // below -15 dBm sensitivity
  QueryCommand q;
  q.q = 0;
  EXPECT_FALSE(tag.on_command(Command{q}, ctx).has_value());
  EXPECT_EQ(tag.state(), TagState::kReady);
}

TEST(Tag, QueryWithQZeroRepliesImmediately) {
  Tag tag(make_config(), 2);
  QueryCommand q;
  q.q = 0;
  const auto reply = tag.on_command(Command{q}, powered_ctx());
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->kind, ReplyKind::kRn16);
  EXPECT_EQ(reply->bits.size(), kRn16Bits);
  EXPECT_EQ(tag.state(), TagState::kReply);
}

TEST(Tag, BlfDerivedFromTrcal) {
  Tag tag(make_config(), 3);
  QueryCommand q;
  q.q = 0;
  q.dr = DivideRatio::kDr64Over3;
  auto ctx = powered_ctx();
  ctx.trcal_s = 64.0 / 3.0 / 500e3;
  const auto reply = tag.on_command(Command{q}, ctx);
  ASSERT_TRUE(reply.has_value());
  EXPECT_NEAR(reply->blf_hz, 500e3, 1.0);

  // DR = 8 with a short TRcal also lands on 500 kHz.
  Tag tag2(make_config(), 3);
  QueryCommand q8;
  q8.q = 0;
  q8.dr = DivideRatio::kDr8;
  auto ctx8 = powered_ctx();
  ctx8.trcal_s = 16e-6;
  const auto reply8 = tag2.on_command(Command{q8}, ctx8);
  ASSERT_TRUE(reply8.has_value());
  EXPECT_NEAR(reply8->blf_hz, 500e3, 1.0);
}

TEST(Tag, AckWithMatchingRn16YieldsEpc) {
  Tag tag(make_config(), 4);
  QueryCommand q;
  q.q = 0;
  const auto rn16_reply = tag.on_command(Command{q}, powered_ctx());
  ASSERT_TRUE(rn16_reply.has_value());

  AckCommand ack{tag.current_rn16()};
  const auto epc_reply = tag.on_command(Command{ack}, powered_ctx());
  ASSERT_TRUE(epc_reply.has_value());
  EXPECT_EQ(epc_reply->kind, ReplyKind::kEpc);
  const auto decoded = decode_epc_reply(epc_reply->bits);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->epc, make_config().epc);
  EXPECT_EQ(tag.state(), TagState::kAcknowledged);
}

TEST(Tag, AckWithWrongRn16Rejected) {
  Tag tag(make_config(), 5);
  QueryCommand q;
  q.q = 0;
  ASSERT_TRUE(tag.on_command(Command{q}, powered_ctx()).has_value());
  AckCommand bad{static_cast<std::uint16_t>(tag.current_rn16() ^ 0xFFFF)};
  EXPECT_FALSE(tag.on_command(Command{bad}, powered_ctx()).has_value());
  EXPECT_EQ(tag.state(), TagState::kArbitrate);
}

TEST(Tag, SlottedArbitrationEventuallyReplies) {
  Tag tag(make_config(), 6);
  QueryCommand q;
  q.q = 4;
  auto reply = tag.on_command(Command{q}, powered_ctx());
  int reps = 0;
  while (!reply.has_value() && reps < (1 << 4) + 1) {
    QueryRepCommand rep;
    reply = tag.on_command(Command{rep}, powered_ctx());
    ++reps;
  }
  EXPECT_TRUE(reply.has_value());
  EXPECT_LE(reps, 16);
}

TEST(Tag, InventoriedFlagFlipsAfterAckAndQueryRep) {
  Tag tag(make_config(), 7);
  QueryCommand q;
  q.q = 0;
  ASSERT_TRUE(tag.on_command(Command{q}, powered_ctx()).has_value());
  ASSERT_TRUE(
      tag.on_command(Command{AckCommand{tag.current_rn16()}}, powered_ctx())
          .has_value());
  EXPECT_EQ(tag.inventoried(Session::kS0), InventoryFlag::kA);
  // QueryRep ends the transaction: flag flips to B.
  tag.on_command(Command{QueryRepCommand{}}, powered_ctx());
  EXPECT_EQ(tag.inventoried(Session::kS0), InventoryFlag::kB);
  // A new A-targeted query is now ignored.
  EXPECT_FALSE(tag.on_command(Command{q}, powered_ctx()).has_value());
  EXPECT_EQ(tag.state(), TagState::kReady);
}

TEST(Tag, BTargetedQueryReachesFlippedTag) {
  Tag tag(make_config(), 8);
  QueryCommand q;
  q.q = 0;
  ASSERT_TRUE(tag.on_command(Command{q}, powered_ctx()).has_value());
  ASSERT_TRUE(
      tag.on_command(Command{AckCommand{tag.current_rn16()}}, powered_ctx())
          .has_value());
  tag.on_command(Command{QueryRepCommand{}}, powered_ctx());

  QueryCommand qb;
  qb.q = 0;
  qb.target = InventoryFlag::kB;
  EXPECT_TRUE(tag.on_command(Command{qb}, powered_ctx()).has_value());
}

TEST(Tag, SelectSetsAndClearsSlFlag) {
  Tag tag(make_config(), 9);
  SelectCommand sel;
  sel.pointer = 0;
  sel.mask = Bits{0, 0, 1, 1};  // EPC starts 0x30 = 00110000
  tag.on_command(Command{sel}, powered_ctx());
  EXPECT_TRUE(tag.sl_flag());

  sel.mask = Bits{1, 1, 1, 1};  // mismatch
  tag.on_command(Command{sel}, powered_ctx());
  EXPECT_FALSE(tag.sl_flag());
}

TEST(Tag, SelQueryFiltersBySlFlag) {
  Tag tag(make_config(), 10);
  QueryCommand q;
  q.q = 0;
  q.sel = SelTarget::kSl;
  // SL not asserted: stays quiet.
  EXPECT_FALSE(tag.on_command(Command{q}, powered_ctx()).has_value());

  SelectCommand sel;
  sel.mask = Bits{0, 0, 1, 1};
  tag.on_command(Command{sel}, powered_ctx());
  EXPECT_TRUE(tag.on_command(Command{q}, powered_ctx()).has_value());
}

TEST(Tag, NakReturnsToArbitrate) {
  Tag tag(make_config(), 11);
  QueryCommand q;
  q.q = 0;
  ASSERT_TRUE(tag.on_command(Command{q}, powered_ctx()).has_value());
  tag.on_command(Command{NakCommand{}}, powered_ctx());
  EXPECT_EQ(tag.state(), TagState::kArbitrate);
}

TEST(Tag, PowerLossResetsState) {
  Tag tag(make_config(), 12);
  QueryCommand q;
  q.q = 0;
  ASSERT_TRUE(tag.on_command(Command{q}, powered_ctx()).has_value());
  CommandContext dark;
  dark.incident_power_dbm = -40.0;
  tag.on_command(Command{QueryRepCommand{}}, dark);
  EXPECT_EQ(tag.state(), TagState::kReady);
}

TEST(Tag, ModulateReplyUsesReflectionStates) {
  Tag tag(make_config(), 13);
  QueryCommand q;
  q.q = 0;
  const auto reply = tag.on_command(Command{q}, powered_ctx());
  ASSERT_TRUE(reply.has_value());
  const auto rho = modulate_reply(*reply, make_config(), 4e6);
  ASSERT_GT(rho.size(), 0u);
  for (const auto& s : rho.data()) {
    const double v = s.real();
    EXPECT_TRUE(std::abs(v - make_config().rho_on) < 1e-12 ||
                std::abs(v - make_config().rho_off) < 1e-12);
  }
  EXPECT_NEAR(rho.duration(), reply_duration(*reply, 4e6), 1e-9);
}

TEST(Tag, DifferentSeedsDifferentSlots) {
  // Slots must be random across tags or collisions never resolve.
  int distinct = 0;
  std::uint16_t first_rn16 = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Tag tag(make_config(), seed);
    QueryCommand q;
    q.q = 0;
    const auto reply = tag.on_command(Command{q}, powered_ctx());
    ASSERT_TRUE(reply.has_value());
    if (seed == 0) {
      first_rn16 = tag.current_rn16();
    } else if (tag.current_rn16() != first_rn16) {
      ++distinct;
    }
  }
  EXPECT_GT(distinct, 0);
}

// --- The direct QueryRep/QueryAdjust paths against on_command -------------
//
// The shared inventory round reaches live tags through stays_powered +
// on_query_rep/on_query_adjust + rn16_reply instead of on_command. From any
// reachable state, both must leave the same tag behind, send the same
// frame, and leave the engine at the same word.

/// Every observable of a tag; the slot shows through query_reps_to_event.
std::string observe(const Tag& tag) {
  std::ostringstream out;
  out << static_cast<int>(tag.state()) << ' ' << tag.current_rn16() << ' '
      << tag.current_handle() << ' ' << tag.sl_flag() << ' '
      << static_cast<int>(tag.q()) << ' ' << static_cast<int>(tag.active_session());
  for (int s = 0; s < 4; ++s) {
    const auto session = static_cast<Session>(s);
    out << ' ' << static_cast<int>(tag.inventoried(session)) << ' '
        << tag.query_reps_to_event(session);
  }
  return out.str();
}

/// One random command, delivered to both tags through on_command.
void drive_both(Tag& a, Tag& b, Rng& gen) {
  CommandContext ctx = powered_ctx();
  if (gen.chance(0.05)) ctx.incident_power_dbm = -30.0;
  const auto session = static_cast<Session>(gen.uniform_int(0, 3));
  Command cmd;
  switch (gen.uniform_int(0, 5)) {
    case 0: {
      QueryCommand q;
      q.q = static_cast<std::uint8_t>(gen.chance(0.5) ? gen.uniform_int(0, 2)
                                                      : gen.uniform_int(0, 15));
      q.session = gen.chance(0.7) ? a.active_session() : session;
      q.target = gen.chance(0.8) ? a.inventoried(q.session) : InventoryFlag::kB;
      cmd = q;
      break;
    }
    case 1:
      cmd = QueryRepCommand{gen.chance(0.8) ? a.active_session() : session};
      break;
    case 2: {
      QueryAdjustCommand adjust;
      adjust.session = gen.chance(0.8) ? a.active_session() : session;
      adjust.q_delta = static_cast<int>(gen.uniform_int(-1, 1));
      cmd = adjust;
      break;
    }
    case 3:
      cmd = AckCommand{gen.chance(0.9) ? a.current_rn16() : std::uint16_t{0x1234}};
      break;
    case 4: {
      ReqRnCommand req;
      req.rn16 = a.state() == TagState::kOpen ? a.current_handle() : a.current_rn16();
      cmd = req;
      break;
    }
    default:
      cmd = NakCommand{};
      break;
  }
  a.on_command(cmd, ctx);
  b.on_command(cmd, ctx);
}

TEST(TagDirectPaths, MatchOnCommandFromEveryState) {
  constexpr int kCases = 20000;
  // Coverage of the command under test: [rep, adjust] x state before it,
  // Q before it, session mismatches, unpowered deliveries and replies.
  std::array<std::array<int, 5>, 2> by_state{};
  std::array<int, 16> by_q{};
  int mismatched = 0, unpowered = 0, replies = 0;
  for (int c = 0; c < kCases; ++c) {
    Rng gen(stream_seed(0x7a6, static_cast<std::uint64_t>(c)));
    const std::uint64_t seed = gen.engine()();
    Tag a(make_config(), seed);
    Tag b(make_config(), seed);
    const auto prefix = gen.uniform_int(0, 10);
    for (std::int64_t i = 0; i < prefix; ++i) drive_both(a, b, gen);
    ASSERT_EQ(observe(a), observe(b));

    const double power = gen.chance(0.1) ? -30.0 : -10.0;
    const Session session = gen.chance(0.8)
                                ? a.active_session()
                                : static_cast<Session>(gen.uniform_int(0, 3));
    const bool rep = gen.chance(0.5);
    ++by_state[rep ? 0 : 1][static_cast<std::size_t>(a.state())];
    ++by_q[a.q()];
    mismatched += session != a.active_session();
    unpowered += power < make_config().sensitivity_dbm;

    CommandContext ctx;
    ctx.incident_power_dbm = power;
    std::optional<TagReply> direct;
    std::optional<TagReply> reference;
    if (rep) {
      if (a.stays_powered(power) && a.on_query_rep(session)) direct = a.rn16_reply();
      reference = b.on_command(Command{QueryRepCommand{session}}, ctx);
    } else {
      QueryAdjustCommand adjust;
      adjust.session = session;
      adjust.q_delta = static_cast<int>(gen.uniform_int(-1, 1));
      if (a.stays_powered(power) && a.on_query_adjust(session, adjust.q_delta)) {
        direct = a.rn16_reply();
      }
      reference = b.on_command(Command{adjust}, ctx);
    }
    ASSERT_EQ(direct.has_value(), reference.has_value()) << "case " << c;
    if (direct) {
      ++replies;
      EXPECT_EQ(direct->bits, reference->bits);
      EXPECT_EQ(direct->kind, reference->kind);
      EXPECT_EQ(direct->blf_hz, reference->blf_hz);
      EXPECT_EQ(direct->pilot, reference->pilot);
      EXPECT_EQ(direct->modulation, reference->modulation);
    }
    ASSERT_EQ(observe(a), observe(b)) << "case " << c;

    // The engine's next draw: a Q=15 Query the tag answers draws its slot.
    QueryCommand probe;
    probe.q = 15;
    probe.session = a.active_session();
    probe.target = a.inventoried(probe.session);
    a.on_command(Command{probe}, powered_ctx());
    b.on_command(Command{probe}, powered_ctx());
    ASSERT_EQ(observe(a), observe(b)) << "case " << c << " after the probe";
  }
  for (const auto& states : by_state) {
    for (int seen : states) EXPECT_GT(seen, 0);
  }
  for (int seen : by_q) EXPECT_GT(seen, 0);
  EXPECT_GT(mismatched, 0);
  EXPECT_GT(unpowered, 0);
  EXPECT_GT(replies, 0);
}

}  // namespace
}  // namespace rfly::gen2
