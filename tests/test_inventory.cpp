// Gen2 inventory: the EPC database, run_inventory's reads, tallies and Q
// adaptation, and its equivalence to the seed's broadcast loop. That loop
// (every command to every tag) survives here only as the oracle:
// run_inventory delivers each QueryRep, QueryAdjust and ACK to just the
// tags it can change, and must reproduce the broadcast bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>
#include <variant>

#include "core/inventory.h"
#include "obs/metrics.h"

namespace rfly::core {
namespace {

std::vector<gen2::Tag> make_tags(std::size_t n) {
  std::vector<gen2::Tag> tags;
  tags.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    gen2::TagConfig cfg;
    cfg.epc = make_epc(static_cast<std::uint32_t>(i));
    tags.emplace_back(cfg, 1000 + i);
  }
  return tags;
}

std::vector<TagAgent> make_agents(std::vector<gen2::Tag>& tags,
                                  double power_dbm = -5.0, double snr_db = 20.0) {
  std::vector<TagAgent> agents;
  for (auto& tag : tags) agents.push_back({&tag, power_dbm, snr_db});
  return agents;
}

TEST(InventoryDatabase, AddAndLookup) {
  InventoryDatabase db;
  db.add(make_epc(1), "pallet of drills");
  db.add(make_epc(2), "box of shirts");
  EXPECT_EQ(db.lookup(make_epc(1)), "pallet of drills");
  EXPECT_EQ(db.lookup(make_epc(2)), "box of shirts");
  EXPECT_EQ(db.lookup(make_epc(3)), "");
  EXPECT_EQ(db.size(), 2u);
}

TEST(InventoryDatabase, OverwriteKeepsLatest) {
  InventoryDatabase db;
  db.add(make_epc(1), "old");
  db.add(make_epc(1), "new");
  EXPECT_EQ(db.lookup(make_epc(1)), "new");
  EXPECT_EQ(db.size(), 1u);
}

TEST(MakeEpc, DistinctPerIndex) {
  EXPECT_NE(make_epc(1), make_epc(2));
  EXPECT_EQ(make_epc(77), make_epc(77));
}

TEST(Inventory, SingleTagReadInOneRound) {
  auto tags = make_tags(1);
  auto agents = make_agents(tags);
  reader::QAlgorithm q(1.0);
  Rng rng(1);
  InventoryRoundConfig cfg;
  cfg.q = 1;
  const auto outcome = run_inventory(agents, cfg, q, rng);
  ASSERT_EQ(outcome.epcs.size(), 1u);
  EXPECT_EQ(outcome.epcs[0], make_epc(0));
}

TEST(Inventory, ReadsAllTagsInPopulation) {
  auto tags = make_tags(12);
  auto agents = make_agents(tags);
  reader::QAlgorithm q(4.0);
  Rng rng(2);
  InventoryRoundConfig cfg;
  cfg.q = 4;
  cfg.max_rounds = 10;
  const auto outcome = run_inventory(agents, cfg, q, rng);
  EXPECT_EQ(outcome.epcs.size(), 12u);
  EXPECT_EQ(outcome.capped_rounds, 0);
  // All EPCs distinct.
  auto epcs = outcome.epcs;
  std::sort(epcs.begin(), epcs.end());
  EXPECT_EQ(std::adjacent_find(epcs.begin(), epcs.end()), epcs.end());
}

TEST(Inventory, CollisionsHappenWithLowQ) {
  auto tags = make_tags(16);
  auto agents = make_agents(tags);
  reader::QAlgorithm q(1.0);
  Rng rng(3);
  InventoryRoundConfig cfg;
  cfg.q = 1;  // 2 slots for 16 tags
  cfg.max_rounds = 1;
  const auto outcome = run_inventory(agents, cfg, q, rng);
  EXPECT_GT(outcome.collisions, 0);
}

TEST(Inventory, QAdaptationResolvesUndersizedRound) {
  // 32 tags against an initial 2-slot round: collisions drive Q up via
  // mid-round QueryAdjust until every tag is read.
  auto tags = make_tags(32);
  auto agents = make_agents(tags);
  reader::QAlgorithm q(1.0);
  Rng rng(4);
  InventoryRoundConfig cfg;
  cfg.q = 1;
  cfg.max_rounds = 8;
  const auto outcome = run_inventory(agents, cfg, q, rng);
  EXPECT_GT(outcome.collisions, 0);
  EXPECT_EQ(outcome.epcs.size(), 32u);
}

TEST(Inventory, UnpoweredTagsNotRead) {
  auto tags = make_tags(4);
  auto agents = make_agents(tags);
  agents[1].incident_power_dbm = -40.0;  // dead zone
  agents[3].incident_power_dbm = -40.0;
  reader::QAlgorithm q(3.0);
  Rng rng(5);
  InventoryRoundConfig cfg;
  cfg.q = 3;
  const auto outcome = run_inventory(agents, cfg, q, rng);
  EXPECT_EQ(outcome.epcs.size(), 2u);
  for (const auto& epc : outcome.epcs) {
    EXPECT_TRUE(epc == make_epc(0) || epc == make_epc(2));
  }
}

TEST(Inventory, LowSnrTagsFailToDecode) {
  auto tags = make_tags(2);
  auto agents = make_agents(tags);
  agents[0].reply_snr_db = -20.0;  // powered but unreadable
  reader::QAlgorithm q(2.0);
  Rng rng(6);
  InventoryRoundConfig cfg;
  cfg.q = 2;
  cfg.max_rounds = 4;
  const auto outcome = run_inventory(agents, cfg, q, rng);
  ASSERT_EQ(outcome.epcs.size(), 1u);
  EXPECT_EQ(outcome.epcs[0], make_epc(1));
}

TEST(Inventory, SlotAccountingConsistent) {
  auto tags = make_tags(6);
  auto agents = make_agents(tags);
  reader::QAlgorithm q(3.0);
  Rng rng(7);
  InventoryRoundConfig cfg;
  cfg.q = 3;
  const auto outcome = run_inventory(agents, cfg, q, rng);
  EXPECT_EQ(outcome.slots, outcome.empties + outcome.singles + outcome.collisions);
  EXPECT_GE(outcome.singles, static_cast<int>(outcome.epcs.size()));
}

TEST(Inventory, SecondInventoryTargetsFlippedFlag) {
  auto tags = make_tags(3);
  auto agents = make_agents(tags);
  reader::QAlgorithm q(2.0);
  Rng rng(8);
  InventoryRoundConfig cfg;
  cfg.q = 2;
  const auto first = run_inventory(agents, cfg, q, rng);
  EXPECT_EQ(first.epcs.size(), 3u);

  // Same target again: every tag is now inventoried (flag B), so nothing
  // answers.
  reader::QAlgorithm q2(2.0);
  const auto second = run_inventory(agents, cfg, q2, rng);
  EXPECT_TRUE(second.epcs.empty());

  // Target B reads them again.
  InventoryRoundConfig cfg_b = cfg;
  cfg_b.target = gen2::InventoryFlag::kB;
  reader::QAlgorithm q3(2.0);
  const auto third = run_inventory(agents, cfg_b, q3, rng);
  EXPECT_EQ(third.epcs.size(), 3u);
}

/// Property: populations of every size are fully inventoried.
class InventoryPopulationProperty : public ::testing::TestWithParam<int> {};

TEST_P(InventoryPopulationProperty, AllRead) {
  auto tags = make_tags(static_cast<std::size_t>(GetParam()));
  auto agents = make_agents(tags);
  reader::QAlgorithm q(4.0);
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  InventoryRoundConfig cfg;
  cfg.q = 4;
  cfg.max_rounds = 32;
  const auto outcome = run_inventory(agents, cfg, q, rng);
  EXPECT_EQ(outcome.epcs.size(), static_cast<std::size_t>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Populations, InventoryPopulationProperty,
                         ::testing::Values(1, 2, 5, 10, 25, 50));

TEST(Inventory, SlotCapIsATypedOutcome) {
  // Powered tags the reader can never decode keep colliding and redrawing,
  // so no round ever runs out of slots: each stops at the 16,384-slot cap
  // and says so.
  auto tags = make_tags(40);
  auto agents = make_agents(tags, -5.0, -30.0);
  reader::QAlgorithm q(4.0);
  Rng rng(9);
  InventoryRoundConfig cfg;
  cfg.q = 4;
  cfg.max_rounds = 2;
  const auto outcome = run_inventory(agents, cfg, q, rng);
  EXPECT_TRUE(outcome.epcs.empty());
  EXPECT_EQ(outcome.rounds, 2);
  EXPECT_EQ(outcome.capped_rounds, 2);
  EXPECT_EQ(outcome.slots, 2 * (1 << 14));
}

// --- Fast-forwarded QueryReps ------------------------------------------------

TEST(TagFastForward, SkippedQueryRepsEqualDeliveredOnes) {
  const gen2::CommandContext ctx{-5.0, std::nullopt, gen2::DivideRatio::kDr8};
  const gen2::Command rep{gen2::QueryRepCommand{gen2::Session::kS1}};
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    gen2::TagConfig cfg;
    cfg.epc = make_epc(static_cast<std::uint32_t>(seed));
    gen2::Tag skipped(cfg, seed);
    gen2::Tag delivered(cfg, seed);
    gen2::QueryCommand query;
    query.session = gen2::Session::kS1;
    query.q = static_cast<std::uint8_t>(seed % 9);
    skipped.on_command(gen2::Command{query}, ctx);
    delivered.on_command(gen2::Command{query}, ctx);

    const std::uint32_t to_event = skipped.query_reps_to_event(gen2::Session::kS1);
    ASSERT_GE(to_event, 1u);
    // Another session's QueryReps never reach this tag.
    EXPECT_EQ(skipped.query_reps_to_event(gen2::Session::kS0), 0u);
    const std::uint32_t n = static_cast<std::uint32_t>(seed) % to_event;
    skipped.skip_query_reps(gen2::Session::kS1, n);
    for (std::uint32_t k = 0; k < n; ++k) {
      EXPECT_FALSE(delivered.on_command(rep, ctx).has_value()) << "seed " << seed;
    }
    ASSERT_EQ(skipped.state(), delivered.state()) << "seed " << seed;
    ASSERT_EQ(skipped.query_reps_to_event(gen2::Session::kS1),
              delivered.query_reps_to_event(gen2::Session::kS1))
        << "seed " << seed;
    ASSERT_EQ(skipped.query_reps_to_event(gen2::Session::kS1), to_event - n);

    // The rest of the way, both take real QueryReps: the event falls on the
    // same rep, with the same reply.
    for (std::uint32_t k = n; k < to_event; ++k) {
      const auto a = skipped.on_command(rep, ctx);
      const auto b = delivered.on_command(rep, ctx);
      ASSERT_EQ(a.has_value(), b.has_value()) << "seed " << seed << " rep " << k;
      if (a) {
        EXPECT_EQ(a->bits, b->bits) << "seed " << seed;
      }
    }
    EXPECT_EQ(skipped.state(), delivered.state()) << "seed " << seed;
    EXPECT_EQ(skipped.current_rn16(), delivered.current_rn16()) << "seed " << seed;
    if (n > 0) ++checked;
  }
  EXPECT_GT(checked, 32);
}

// --- Oracle: the seed's broadcast loop ---------------------------------------

struct BroadcastReply {
  std::size_t tag_index;
  gen2::TagReply reply;
};

std::vector<BroadcastReply> broadcast(std::vector<TagAgent>& tags,
                                      const gen2::Command& cmd,
                                      const InventoryRoundConfig& cfg) {
  std::vector<BroadcastReply> replies;
  for (std::size_t i = 0; i < tags.size(); ++i) {
    gen2::CommandContext ctx;
    ctx.incident_power_dbm = tags[i].incident_power_dbm;
    if (std::holds_alternative<gen2::QueryCommand>(cmd)) {
      ctx.trcal_s = cfg.trcal_s;
    }
    if (auto reply = tags[i].tag->on_command(cmd, ctx)) {
      replies.push_back({i, *reply});
    }
  }
  return replies;
}

/// The seed's run_inventory: every Query, QueryRep, QueryAdjust and ACK
/// broadcast to every tag. Only capped_rounds is new (the seed stopped at
/// the cap silently).
InventoryOutcome broadcast_inventory(std::vector<TagAgent>& tags,
                                     const InventoryRoundConfig& config,
                                     reader::QAlgorithm& q_algorithm, Rng& rng) {
  InventoryOutcome outcome;
  int q = config.q;
  int unproductive_rounds = 0;

  for (int round = 0; round < config.max_rounds; ++round) {
    outcome.rounds = round + 1;
    const std::size_t before = outcome.epcs.size();

    gen2::QueryCommand query;
    query.session = config.session;
    query.target = config.target;
    query.sel = config.sel_target;
    query.q = static_cast<std::uint8_t>(q);
    auto replies = broadcast(tags, gen2::Command{query}, config);

    int slots_remaining = 1 << q;
    int safety = 1 << 14;
    while (slots_remaining-- > 0 && safety-- > 0) {
      ++outcome.slots;
      if (replies.empty()) {
        ++outcome.empties;
        q_algorithm.on_slot(reader::SlotOutcome::kEmpty);
      } else if (replies.size() == 1) {
        ++outcome.singles;
        q_algorithm.on_slot(reader::SlotOutcome::kSingle);
        auto& agent = tags[replies.front().tag_index];
        const auto rn16 = gen2::decode_rn16(replies.front().reply.bits);
        const bool decodable =
            rn16 && agent.reply_snr_db + rng.gaussian(0.0, 1.0) >=
                        config.decode_snr_threshold_db;
        if (decodable) {
          gen2::AckCommand ack{rn16->rn16};
          auto epc_replies = broadcast(tags, gen2::Command{ack}, config);
          if (epc_replies.size() == 1) {
            const auto epc = gen2::decode_epc_reply(epc_replies.front().reply.bits);
            if (epc) outcome.epcs.push_back(epc->epc);
          }
        }
      } else {
        ++outcome.collisions;
        q_algorithm.on_slot(reader::SlotOutcome::kCollision);
      }

      if (q_algorithm.q() != q) {
        gen2::QueryAdjustCommand adjust;
        adjust.session = config.session;
        adjust.q_delta = (q_algorithm.q() > q) ? 1 : -1;
        q += adjust.q_delta;
        replies = broadcast(tags, gen2::Command{adjust}, config);
        slots_remaining = 1 << q;
      } else {
        gen2::QueryRepCommand rep;
        rep.session = config.session;
        replies = broadcast(tags, gen2::Command{rep}, config);
      }
    }
    if (safety < 0) ++outcome.capped_rounds;

    q = q_algorithm.q();
    unproductive_rounds = (outcome.epcs.size() == before) ? unproductive_rounds + 1 : 0;
    if (unproductive_rounds >= 4) break;
  }
  outcome.final_q = q;
  return outcome;
}

// --- Differential: run_inventory vs the broadcast oracle ----------------------

/// gen2.invariant_violations so far in this process (always 0 with the obs
/// layer compiled out).
std::uint64_t invariant_violations() {
  for (const auto& c : obs::snapshot().counters) {
    if (c.name == "gen2.invariant_violations") return c.value;
  }
  return 0;
}

/// One side of a differential case: tags, their agents, the reader's RNG.
struct Side {
  std::vector<gen2::Tag> tags;
  std::vector<TagAgent> agents;
  Rng rng{0};
};

/// Air-interface situation of one tag: unpowered (1 in 5), powered but
/// never decodable (probability `undecodable`), marginal (1 in 4; decodes
/// on some fading draws), or clean.
void set_conditions(TagAgent& agent, double undecodable, Rng& gen) {
  const double u = gen.uniform(0.0, 1.0);
  agent.incident_power_dbm = u < 0.2 ? -40.0 : gen.uniform(-14.0, -2.0);
  agent.reply_snr_db = u < 0.2 + undecodable ? -30.0
                       : u < 0.45 + undecodable ? gen.uniform(0.0, 6.0)
                                                : 20.0;
}

/// First difference between the two sides after one inventory, or "".
std::string first_difference(const InventoryOutcome& a, const InventoryOutcome& b,
                             Side& prod, Side& oracle,
                             const reader::QAlgorithm& qa,
                             const reader::QAlgorithm& qb) {
  std::ostringstream out;
  if (a.epcs != b.epcs) out << "epcs (" << a.epcs.size() << " vs " << b.epcs.size() << ") ";
  if (a.slots != b.slots) out << "slots " << a.slots << " vs " << b.slots << " ";
  if (a.empties != b.empties) out << "empties ";
  if (a.singles != b.singles) out << "singles ";
  if (a.collisions != b.collisions) out << "collisions ";
  if (a.rounds != b.rounds) out << "rounds ";
  if (a.capped_rounds != b.capped_rounds) out << "capped_rounds ";
  if (a.final_q != b.final_q) out << "final_q ";
  if (a.slots != a.empties + a.singles + a.collisions) out << "tally ";
  const double qfp_a = qa.qfp();
  const double qfp_b = qb.qfp();
  if (std::memcmp(&qfp_a, &qfp_b, sizeof(double)) != 0) out << "qfp ";
  if (prod.rng.engine()() != oracle.rng.engine()()) out << "reader rng ";
  for (std::size_t i = 0; i < prod.tags.size(); ++i) {
    const gen2::Tag& x = prod.tags[i];
    const gen2::Tag& y = oracle.tags[i];
    bool same = x.state() == y.state() && x.current_rn16() == y.current_rn16() &&
                x.current_handle() == y.current_handle() &&
                x.sl_flag() == y.sl_flag() && x.q() == y.q() &&
                x.active_session() == y.active_session();
    for (int s = 0; s < 4; ++s) {
      const auto session = static_cast<gen2::Session>(s);
      same = same && x.inventoried(session) == y.inventoried(session) &&
             x.query_reps_to_event(session) == y.query_reps_to_event(session);
    }
    if (!same) {
      out << "tag " << i << " ";
      break;
    }
  }
  return out.str();
}

TEST(InventoryDifferential, MatchesBroadcastOracleBitForBit) {
  constexpr int kCases = 2000;
  const std::uint64_t violations = invariant_violations();
  int capped = 0;
  int reads = 0;
  for (int c = 0; c < kCases; ++c) {
    Rng gen(stream_seed(0x5eed, static_cast<std::uint64_t>(c)));
    const auto n = static_cast<std::size_t>(gen.uniform_int(0, 120));
    Side prod;
    Side oracle;
    prod.tags.reserve(n);
    oracle.tags.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      gen2::TagConfig cfg;
      cfg.epc = make_epc(static_cast<std::uint32_t>(gen.uniform_int(0, 255)));
      const std::uint64_t tag_seed = gen.engine()();
      prod.tags.emplace_back(cfg, tag_seed);
      oracle.tags.emplace_back(cfg, tag_seed);
    }
    // Never-decodable tags keep the reader colliding: half the cases have
    // none, most of the rest a few, and one case in twenty enough of them
    // to hold every round at the slot cap (the oracle's costliest regime).
    const double undecodable = gen.chance(0.5)    ? 0.0
                               : gen.chance(0.9) ? gen.uniform(0.0, 0.15)
                                                 : gen.uniform(0.15, 0.4);
    for (std::size_t i = 0; i < n; ++i) {
      TagAgent agent{nullptr, -100.0, -100.0};
      set_conditions(agent, undecodable, gen);
      prod.agents.push_back({&prod.tags[i], agent.incident_power_dbm, agent.reply_snr_db});
      oracle.agents.push_back({&oracle.tags[i], agent.incident_power_dbm, agent.reply_snr_db});
    }
    const std::uint64_t reader_seed = gen.engine()();
    prod.rng = Rng(reader_seed);
    oracle.rng = Rng(reader_seed);

    const int inventories = static_cast<int>(gen.uniform_int(1, 3));
    for (int inv = 0; inv < inventories; ++inv) {
      if (inv > 0 && gen.chance(0.3)) {
        // The drone moved: some tags' conditions change between inventories.
        for (std::size_t i = 0; i < n; ++i) {
          if (!gen.chance(0.3)) continue;
          set_conditions(prod.agents[i], undecodable, gen);
          oracle.agents[i].incident_power_dbm = prod.agents[i].incident_power_dbm;
          oracle.agents[i].reply_snr_db = prod.agents[i].reply_snr_db;
        }
      }
      if (gen.chance(0.5)) {
        // Select on a few low EPC bits, so it splits the population.
        gen2::SelectCommand select;
        select.pointer = static_cast<std::uint8_t>(gen.uniform_int(88, 93));
        const auto bits = gen.uniform_int(1, 3);
        for (std::int64_t b = 0; b < bits; ++b) {
          select.mask.push_back(static_cast<std::uint8_t>(gen.uniform_int(0, 1)));
        }
        for (Side* side : {&prod, &oracle}) {
          for (auto& agent : side->agents) {
            gen2::CommandContext ctx;
            ctx.incident_power_dbm = agent.incident_power_dbm;
            agent.tag->on_command(gen2::Command{select}, ctx);
          }
        }
      }
      InventoryRoundConfig cfg;
      cfg.session = static_cast<gen2::Session>(gen.uniform_int(0, 3));
      cfg.target = gen.chance(0.5) ? gen2::InventoryFlag::kA : gen2::InventoryFlag::kB;
      constexpr gen2::SelTarget kSels[] = {gen2::SelTarget::kAll, gen2::SelTarget::kSl,
                                           gen2::SelTarget::kNotSl};
      cfg.sel_target = kSels[gen.uniform_int(0, 2)];
      cfg.q = static_cast<int>(gen.uniform_int(0, 8));
      cfg.max_rounds = static_cast<int>(gen.uniform_int(1, 12));

      reader::QAlgorithm qa(static_cast<double>(cfg.q));
      reader::QAlgorithm qb(static_cast<double>(cfg.q));
      const auto a = run_inventory(prod.agents, cfg, qa, prod.rng);
      const auto b = broadcast_inventory(oracle.agents, cfg, qb, oracle.rng);
      ASSERT_EQ(first_difference(a, b, prod, oracle, qa, qb), "")
          << "case " << c << " inventory " << inv << " (" << n << " tags, q "
          << cfg.q << ", session " << static_cast<int>(cfg.session) << ", sel "
          << static_cast<int>(cfg.sel_target) << ")";
      capped += a.capped_rounds > 0 ? 1 : 0;
      reads += static_cast<int>(a.epcs.size());
    }
  }
  // The cases reach the regimes that matter: tags get read, and some
  // rounds stop at the slot cap.
  EXPECT_GT(reads, kCases);
  EXPECT_GT(capped, 0);
  EXPECT_EQ(invariant_violations(), violations);
}

// The fleet's regime: hundreds of tags, a third of them powered but never
// decodable, so collisions hold the round until the slot cap with hundreds
// of live tags redrawn at every QueryAdjust, from a Query at Q up to 15
// (tags draw slots over the whole 15-bit range). One round per case keeps
// the broadcast oracle (every command to every tag) near half a second.
TEST(InventoryDifferential, FleetScaleRoundsMatchBroadcastOracle) {
  const struct {
    std::size_t tags;
    int q;
  } cases[] = {{1000, 15}, {750, 12}, {500, 14}};
  const std::uint64_t violations = invariant_violations();
  int capped = 0;
  std::uint64_t c = 0;
  for (const auto& spec : cases) {
    Rng gen(stream_seed(0xf1ee7, c++));
    Side prod;
    Side oracle;
    prod.tags.reserve(spec.tags);
    oracle.tags.reserve(spec.tags);
    for (std::size_t i = 0; i < spec.tags; ++i) {
      gen2::TagConfig cfg;
      cfg.epc = make_epc(static_cast<std::uint32_t>(i));
      const std::uint64_t tag_seed = gen.engine()();
      prod.tags.emplace_back(cfg, tag_seed);
      oracle.tags.emplace_back(cfg, tag_seed);
    }
    for (std::size_t i = 0; i < spec.tags; ++i) {
      TagAgent agent{nullptr, -100.0, -100.0};
      set_conditions(agent, 0.35, gen);
      prod.agents.push_back({&prod.tags[i], agent.incident_power_dbm, agent.reply_snr_db});
      oracle.agents.push_back({&oracle.tags[i], agent.incident_power_dbm, agent.reply_snr_db});
    }
    const std::uint64_t reader_seed = gen.engine()();
    prod.rng = Rng(reader_seed);
    oracle.rng = Rng(reader_seed);

    InventoryRoundConfig cfg;
    cfg.q = spec.q;
    cfg.max_rounds = 1;
    reader::QAlgorithm qa(static_cast<double>(cfg.q));
    reader::QAlgorithm qb(static_cast<double>(cfg.q));
    const auto a = run_inventory(prod.agents, cfg, qa, prod.rng);
    const auto b = broadcast_inventory(oracle.agents, cfg, qb, oracle.rng);
    ASSERT_EQ(first_difference(a, b, prod, oracle, qa, qb), "")
        << spec.tags << " tags, q " << spec.q;
    capped += a.capped_rounds;
  }
  // Every case ran into the slot cap; the first opened its round at Q 15,
  // 32,768 slots, twice the cap.
  EXPECT_EQ(capped, 3);
  EXPECT_EQ(invariant_violations(), violations);
}

}  // namespace
}  // namespace rfly::core
