#include "core/inventory.h"

#include <algorithm>
#include <variant>

#include "obs/metrics.h"

namespace rfly::core {

namespace {
// Gen2 air-interface telemetry, folded in once per inventory round from the
// outcome tallies (the slot loop itself stays probe-free).
obs::Counter& gen2_rounds() {
  static obs::Counter& c = obs::counter("gen2.rounds");
  return c;
}
obs::Counter& gen2_slots() {
  static obs::Counter& c = obs::counter("gen2.slots");
  return c;
}
obs::Counter& gen2_collisions() {
  static obs::Counter& c = obs::counter("gen2.collisions");
  return c;
}
obs::Counter& gen2_epcs() {
  static obs::Counter& c = obs::counter("gen2.epcs_read");
  return c;
}
obs::Counter& gen2_slot_cap_hits() {
  static obs::Counter& c = obs::counter("gen2.slot_cap_hits");
  return c;
}
obs::Counter& gen2_invariant_violations() {
  static obs::Counter& c = obs::counter("gen2.invariant_violations");
  return c;
}
obs::Histogram& gen2_rounds_per_inventory() {
  static obs::Histogram& h = obs::histogram("gen2.rounds_per_inventory",
                                            obs::HistogramSpec::counts());
  return h;
}
}  // namespace

void InventoryDatabase::add(const gen2::Epc& epc, std::string description) {
  items_[epc] = std::move(description);
}

const std::string& InventoryDatabase::lookup(const gen2::Epc& epc) const {
  const auto it = items_.find(epc);
  return it == items_.end() ? empty_ : it->second;
}

gen2::Epc make_epc(std::uint32_t index) {
  gen2::Epc epc{};
  // Company-prefix-style header, index in the low bytes.
  epc[0] = 0x30;
  epc[1] = 0x14;
  epc[8] = static_cast<std::uint8_t>(index >> 24);
  epc[9] = static_cast<std::uint8_t>(index >> 16);
  epc[10] = static_cast<std::uint8_t>(index >> 8);
  epc[11] = static_cast<std::uint8_t>(index);
  return epc;
}

namespace {

/// Slots one round may spend before the reader gives up on it; a round cut
/// here is counted in InventoryOutcome::capped_rounds.
constexpr int kMaxSlotsPerRound = 1 << 14;

struct SlotReply {
  std::size_t tag_index;
  gen2::TagReply reply;
};

/// Delivers one inventory's commands to only the tags each can change,
/// with the same effect as broadcasting every command to every tag.
///
/// The Query goes to every tag. After it, the tags a QueryRep or
/// QueryAdjust of the session can still change are "live", each keyed by
/// the QueryRep count at which its next event falls
/// (Tag::query_reps_to_event). A QueryRep reaches only the tags due at it;
/// the reps in between are applied in O(1) (Tag::skip_query_reps) when the
/// tag is next touched. A QueryAdjust redraws every live tag's slot. An ACK
/// reaches every tag in kReply — the single replier plus any "lingering"
/// tag an earlier inventory left in kReply and this Query's Sel skipped.
/// Each tag draws only from its own RNG and the reader's one draw depends
/// only on the reply count, so skipping the no-op deliveries changes no
/// draw: outcomes and final tag states are bit-identical to the broadcast.
///
/// The Query and the ACK go through Tag::on_command. QueryReps and
/// QueryAdjusts, nearly every command of a large round, call the Tag's
/// inline transitions directly (the ones on_command runs for them) on the
/// live set's own copy of each tag's pointer and incident power, and build
/// an RN16 frame only for a tag that replies.
class AirInterface {
 public:
  AirInterface(std::vector<TagAgent>& tags, const InventoryRoundConfig& config)
      : tags_(tags), config_(config) {}

  /// Broadcast the Query and rebuild the live set; `replies` gets the
  /// tags that answer in the first slot.
  void query(const gen2::QueryCommand& query, std::vector<SlotReply>& replies) {
    replies.clear();
    live_tag_.clear();
    live_power_.clear();
    live_index_.clear();
    live_due_.clear();
    live_synced_.clear();
    lingering_.clear();
    reps_ = 0;
    const gen2::Command cmd{query};
    for (std::size_t i = 0; i < tags_.size(); ++i) {
      const std::size_t before = replies.size();
      deliver(i, cmd, replies);
      gen2::Tag& tag = *tags_[i].tag;
      if (replies.size() == before && tag.state() == gen2::TagState::kReply) {
        lingering_.push_back(i);
      }
      if (const std::uint32_t e = tag.query_reps_to_event(config_.session)) {
        live_tag_.push_back(&tag);
        live_power_.push_back(tags_[i].incident_power_dbm);
        live_index_.push_back(i);
        live_due_.push_back(e);
        live_synced_.push_back(0);
      }
    }
  }

  /// QueryRep: only the live tags whose next event falls at this rep.
  void query_rep(std::vector<SlotReply>& replies) {
    replies.clear();
    ++reps_;
    const gen2::Session session = config_.session;
    for (std::size_t k = 0; k < live_due_.size(); ++k) {
      if (live_due_[k] != reps_) continue;
      gen2::Tag& tag = *live_tag_[k];
      tag.skip_query_reps(session, reps_ - 1 - live_synced_[k]);
      if (tag.stays_powered(live_power_[k]) && tag.on_query_rep(session)) {
        replies.push_back({live_index_[k], tag.rn16_reply()});
      }
      const std::uint32_t e = tag.query_reps_to_event(session);
      live_due_[k] = e == 0 ? kDead : reps_ + e;
      live_synced_[k] = reps_;
    }
    settle_lingering(replies);
  }

  /// QueryAdjust: every live tag redraws its slot; tags it closes drop out.
  void query_adjust(int q_delta, std::vector<SlotReply>& replies) {
    replies.clear();
    const gen2::Session session = config_.session;
    std::size_t kept = 0;
    for (std::size_t k = 0; k < live_due_.size(); ++k) {
      if (live_due_[k] == kDead) continue;
      gen2::Tag& tag = *live_tag_[k];
      tag.skip_query_reps(session, reps_ - live_synced_[k]);
      if (tag.stays_powered(live_power_[k]) &&
          tag.on_query_adjust(session, q_delta)) {
        replies.push_back({live_index_[k], tag.rn16_reply()});
      }
      const std::uint32_t e = tag.query_reps_to_event(session);
      if (e == 0) continue;
      live_tag_[kept] = &tag;
      live_power_[kept] = live_power_[k];
      live_index_[kept] = live_index_[k];
      live_due_[kept] = reps_ + e;
      live_synced_[kept] = reps_;
      ++kept;
    }
    live_tag_.resize(kept);
    live_power_.resize(kept);
    live_index_.resize(kept);
    live_due_.resize(kept);
    live_synced_.resize(kept);
    settle_lingering(replies);
  }

  /// ACK: the replier and every lingering tag (the ACK ignores session).
  /// kReply and both states an ACK leaves it in are one QueryRep from their
  /// next event, so no live key moves.
  void ack(std::uint16_t rn16, std::size_t replier,
           std::vector<SlotReply>& epc_replies) {
    epc_replies.clear();
    const gen2::Command cmd{gen2::AckCommand{rn16}};
    deliver(replier, cmd, epc_replies);
    for (std::size_t i : lingering_) deliver(i, cmd, epc_replies);
    settle_lingering(epc_replies);
  }

  /// Apply every live tag's pending QueryReps, leaving each tag in the
  /// state the broadcast loop would.
  void sync() {
    for (std::size_t k = 0; k < live_due_.size(); ++k) {
      if (live_due_[k] == kDead) continue;
      live_tag_[k]->skip_query_reps(config_.session, reps_ - live_synced_[k]);
      live_synced_[k] = reps_;
    }
  }

 private:
  static constexpr std::uint32_t kDead = ~std::uint32_t{0};

  void deliver(std::size_t i, const gen2::Command& cmd,
               std::vector<SlotReply>& replies) {
    gen2::CommandContext ctx;
    ctx.incident_power_dbm = tags_[i].incident_power_dbm;
    if (std::holds_alternative<gen2::QueryCommand>(cmd)) {
      ctx.trcal_s = config_.trcal_s;
    }
    if (auto reply = tags_[i].tag->on_command(cmd, ctx)) {
      replies.push_back({i, std::move(*reply)});
    }
  }

  /// Keep lingering only the tags still in kReply that did not just reply
  /// (a replier is tracked through `replies` from here on).
  void settle_lingering(const std::vector<SlotReply>& replies) {
    std::erase_if(lingering_, [&](std::size_t i) {
      return tags_[i].tag->state() != gen2::TagState::kReply ||
             std::any_of(replies.begin(), replies.end(),
                         [i](const SlotReply& r) { return r.tag_index == i; });
    });
  }

  std::vector<TagAgent>& tags_;
  const InventoryRoundConfig& config_;
  std::uint32_t reps_ = 0;  // QueryReps sent since the Query
  // Live tags, flat SoA: the tag, its incident power, its agent index, the
  // QueryRep count of its next event (kDead once no QueryRep or QueryAdjust
  // can change the tag), and the QueryRep count its own state reflects.
  std::vector<gen2::Tag*> live_tag_;
  std::vector<double> live_power_;
  std::vector<std::size_t> live_index_;
  std::vector<std::uint32_t> live_due_;
  std::vector<std::uint32_t> live_synced_;
  std::vector<std::size_t> lingering_;
};

}  // namespace

InventoryOutcome run_inventory(std::vector<TagAgent>& tags,
                               const InventoryRoundConfig& config,
                               reader::QAlgorithm& q_algorithm, Rng& rng) {
  InventoryOutcome outcome;
  int q = config.q;
  int unproductive_rounds = 0;
  AirInterface air(tags, config);
  std::vector<SlotReply> replies;
  std::vector<SlotReply> epc_replies;
  std::vector<std::size_t> read_agents;  // agent index of each EPC read

  for (int round = 0; round < config.max_rounds; ++round) {
    outcome.rounds = round + 1;
    const std::size_t before = outcome.epcs.size();

    gen2::QueryCommand query;
    query.session = config.session;
    query.target = config.target;
    query.sel = config.sel_target;
    query.q = static_cast<std::uint8_t>(q);
    air.query(query, replies);

    int slots_remaining = 1 << q;
    for (int slot = 0; slots_remaining-- > 0; ++slot) {
      if (slot == kMaxSlotsPerRound) {
        ++outcome.capped_rounds;
        break;
      }
      ++outcome.slots;
      if (replies.empty()) {
        ++outcome.empties;
        q_algorithm.on_slot(reader::SlotOutcome::kEmpty);
      } else if (replies.size() == 1) {
        ++outcome.singles;
        q_algorithm.on_slot(reader::SlotOutcome::kSingle);
        const TagAgent& agent = tags[replies.front().tag_index];
        const auto rn16 = gen2::decode_rn16(replies.front().reply.bits);
        // Decode gated on SNR (with a fresh fading draw per attempt).
        const bool decodable =
            rn16 && agent.reply_snr_db + rng.gaussian(0.0, 1.0) >=
                        config.decode_snr_threshold_db;
        if (decodable) {
          air.ack(rn16->rn16, replies.front().tag_index, epc_replies);
          if (epc_replies.size() == 1) {
            const auto epc = gen2::decode_epc_reply(epc_replies.front().reply.bits);
            if (epc) {
              outcome.epcs.push_back(epc->epc);
              read_agents.push_back(epc_replies.front().tag_index);
            }
          }
        }
      } else {
        ++outcome.collisions;
        q_algorithm.on_slot(reader::SlotOutcome::kCollision);
      }

      // Mid-round Q adaptation via QueryAdjust (tags redraw their slots);
      // otherwise advance to the next slot with QueryRep.
      if (q_algorithm.q() != q) {
        const int q_delta = (q_algorithm.q() > q) ? 1 : -1;
        q += q_delta;
        air.query_adjust(q_delta, replies);
        slots_remaining = 1 << q;
      } else {
        air.query_rep(replies);
      }
    }
    air.sync();

    q = q_algorithm.q();
    // Collisions can make individual rounds unproductive (e.g. two
    // remaining tags drawing the same slot in a small round); only give up
    // after several barren rounds in a row.
    unproductive_rounds = (outcome.epcs.size() == before) ? unproductive_rounds + 1 : 0;
    if (unproductive_rounds >= 4) break;
  }
  outcome.final_q = q;

  // Always-on invariants: every slot has exactly one outcome, and no tag is
  // acknowledged twice in one inventory (by agent, since populations may
  // share EPCs). Each violation counts.
  std::uint64_t violations =
      outcome.slots == outcome.empties + outcome.singles + outcome.collisions ? 0 : 1;
  std::sort(read_agents.begin(), read_agents.end());
  for (std::size_t k = 1; k < read_agents.size(); ++k) {
    if (read_agents[k] == read_agents[k - 1]) ++violations;
  }
  gen2_invariant_violations().add(violations);

  gen2_rounds().add(static_cast<std::uint64_t>(outcome.rounds));
  gen2_slots().add(static_cast<std::uint64_t>(outcome.slots));
  gen2_collisions().add(static_cast<std::uint64_t>(outcome.collisions));
  gen2_epcs().add(outcome.epcs.size());
  gen2_slot_cap_hits().add(static_cast<std::uint64_t>(outcome.capped_rounds));
  gen2_rounds_per_inventory().observe(static_cast<double>(outcome.rounds));
  return outcome;
}

}  // namespace rfly::core
