#include "gen2/tag.h"

#include <algorithm>
#include <cmath>

#include "gen2/access.h"
#include "gen2/fm0.h"
#include "gen2/miller.h"

namespace rfly::gen2 {

Tag::Tag(TagConfig config, std::uint64_t seed)
    : sensitivity_dbm_(config.sensitivity_dbm), rng_(seed), config_(config) {}

void Tag::power_cycle() {
  state_ = TagState::kReady;
  slot_ = 0;
  rn16_ = 0;
  // SL and inventoried flags on real tags persist for a short while
  // (persistence times per session); within one inventory round we keep
  // them, matching S1-S3 behaviour over sub-second gaps.
}

void Tag::on_power_gap(double seconds) {
  power_cycle();
  // S0 holds only while powered.
  if (seconds > 0.0) inventoried_[0] = InventoryFlag::kA;
  // S1 persists 0.5-5 s (typ. ~2 s); S2/S3 and SL persist > 2 s unpowered.
  if (seconds > 2.0) {
    inventoried_[1] = InventoryFlag::kA;
    inventoried_[2] = InventoryFlag::kA;
    inventoried_[3] = InventoryFlag::kA;
    sl_flag_ = false;
  }
}

std::optional<TagReply> Tag::on_command(const Command& command,
                                        const CommandContext& ctx) {
  if (!stays_powered(ctx.incident_power_dbm)) return std::nullopt;

  if (const auto* q = std::get_if<QueryCommand>(&command)) {
    return on_query(*q, ctx);
  }

  if (const auto* qr = std::get_if<QueryRepCommand>(&command)) {
    if (on_query_rep(qr->session)) return rn16_reply();
    return std::nullopt;
  }

  if (const auto* qa = std::get_if<QueryAdjustCommand>(&command)) {
    if (on_query_adjust(qa->session, qa->q_delta)) return rn16_reply();
    return std::nullopt;
  }

  if (const auto* ack = std::get_if<AckCommand>(&command)) {
    if (state_ == TagState::kReply && ack->rn16 == rn16_) {
      state_ = TagState::kAcknowledged;
      EpcReply reply;
      reply.epc = config_.epc;
      return TagReply{encode(reply), ReplyKind::kEpc, blf_hz_, tr_ext_,
                    modulation_};
    }
    if (state_ == TagState::kReply) state_ = TagState::kArbitrate;
    return std::nullopt;
  }

  if (std::get_if<NakCommand>(&command) != nullptr) {
    if (state_ != TagState::kReady) state_ = TagState::kArbitrate;
    return std::nullopt;
  }

  if (const auto* req = std::get_if<ReqRnCommand>(&command)) {
    // Trade the RN16 for a fresh handle; the tag enters the open state.
    if ((state_ == TagState::kAcknowledged || state_ == TagState::kOpen) &&
        req->rn16 == (state_ == TagState::kOpen ? handle_ : rn16_)) {
      handle_ = static_cast<std::uint16_t>(rng_.uniform_int(0, 0xFFFF));
      state_ = TagState::kOpen;
      return TagReply{encode_handle_reply(handle_), ReplyKind::kHandle, blf_hz_,
                      tr_ext_, modulation_};
    }
    return std::nullopt;
  }

  if (const auto* read = std::get_if<ReadCommand>(&command)) {
    if (state_ != TagState::kOpen || read->handle != handle_) return std::nullopt;
    std::vector<std::uint16_t> words;
    for (std::size_t i = 0; i < read->word_count; ++i) {
      const std::size_t idx = read->word_pointer + i;
      switch (read->bank) {
        case MemoryBank::kTid:
          if (idx >= config_.tid.size()) return std::nullopt;  // out of bounds
          words.push_back(config_.tid[idx]);
          break;
        case MemoryBank::kUser:
          if (idx >= config_.user_memory.size()) return std::nullopt;
          words.push_back(config_.user_memory[idx]);
          break;
        case MemoryBank::kEpc: {
          if (2 * idx + 1 >= config_.epc.size()) return std::nullopt;
          words.push_back(static_cast<std::uint16_t>(
              (config_.epc[2 * idx] << 8) | config_.epc[2 * idx + 1]));
          break;
        }
        case MemoryBank::kReserved:
          return std::nullopt;  // passwords are not readable
      }
    }
    return TagReply{encode_read_reply(words, handle_), ReplyKind::kRead, blf_hz_,
                    tr_ext_, modulation_};
  }

  if (const auto* write = std::get_if<WriteCommand>(&command)) {
    if (state_ != TagState::kOpen || write->handle != handle_) return std::nullopt;
    if (write->bank != MemoryBank::kUser ||
        write->word_pointer >= config_.user_memory.size()) {
      return std::nullopt;  // only user memory is writable here
    }
    // The data is cover-coded with the handle of the preceding Req_RN —
    // which, in this simplified model, is the current handle.
    config_.user_memory[write->word_pointer] =
        static_cast<std::uint16_t>(write->cover_coded_data ^ handle_);
    return TagReply{encode_write_reply(handle_), ReplyKind::kWriteAck, blf_hz_,
                    tr_ext_, modulation_};
  }

  if (const auto* sel = std::get_if<SelectCommand>(&command)) {
    // Compare mask against EPC bits starting at `pointer`.
    bool match = true;
    for (std::size_t i = 0; i < sel->mask.size(); ++i) {
      const std::size_t bit_index = sel->pointer + i;
      if (bit_index >= 96) {
        match = false;
        break;
      }
      const std::uint8_t epc_bit =
          (config_.epc[bit_index / 8] >> (7 - bit_index % 8)) & 1u;
      if (epc_bit != sel->mask[i]) {
        match = false;
        break;
      }
    }
    // Action 0: matching tags assert SL, others deassert.
    sl_flag_ = match;
    return std::nullopt;
  }

  return std::nullopt;
}

std::optional<TagReply> Tag::on_query(const QueryCommand& q,
                                      const CommandContext& ctx) {
  // Sel criteria.
  if (q.sel == SelTarget::kSl && !sl_flag_) return std::nullopt;
  if (q.sel == SelTarget::kNotSl && sl_flag_) return std::nullopt;

  // Session target: only tags whose inventoried flag matches participate.
  if (inventoried_[static_cast<std::size_t>(q.session)] != q.target) {
    state_ = TagState::kReady;
    return std::nullopt;
  }

  active_session_ = q.session;
  q_ = q.q;
  tr_ext_ = q.tr_ext;
  modulation_ = q.m;
  if (ctx.trcal_s && *ctx.trcal_s > 0.0) {
    const double dr = (q.dr == DivideRatio::kDr8) ? 8.0 : 64.0 / 3.0;
    blf_hz_ = dr / *ctx.trcal_s;
  }

  slot_ = static_cast<std::uint32_t>(rng_.uniform_int(0, (1 << q.q) - 1));
  if (reply_if_slot_zero()) return rn16_reply();
  return std::nullopt;
}

namespace {

/// Sample a +-1 slot sequence onto reflection states at `slot_rate` slots/s.
signal::Waveform sample_slots(const std::vector<int>& slots, double slots_per_s,
                              const TagConfig& config, double sample_rate_hz) {
  const double samples_per_slot = sample_rate_hz / slots_per_s;
  const auto total = static_cast<std::size_t>(
      std::ceil(samples_per_slot * static_cast<double>(slots.size())));
  signal::Waveform rho(total, sample_rate_hz);
  for (std::size_t i = 0; i < total; ++i) {
    const auto k =
        static_cast<std::size_t>(static_cast<double>(i) / samples_per_slot);
    const int level = slots[std::min(k, slots.size() - 1)];
    rho[i] = cdouble{level > 0 ? config.rho_on : config.rho_off, 0.0};
  }
  return rho;
}

}  // namespace

signal::Waveform modulate_reply(const TagReply& reply, const TagConfig& config,
                                double sample_rate_hz) {
  if (reply.modulation == Miller::kFm0) {
    // FM0: two half-bit slots per symbol, symbol rate = BLF.
    return sample_slots(fm0_levels(reply.bits, reply.pilot), 2.0 * reply.blf_hz,
                        config, sample_rate_hz);
  }
  // Miller-M: BLF names the subcarrier; chips run at 2 * BLF.
  return sample_slots(miller_chips(reply.bits, reply.modulation, reply.pilot),
                      2.0 * reply.blf_hz, config, sample_rate_hz);
}

double reply_duration(const TagReply& reply, double sample_rate_hz) {
  const std::size_t slots =
      reply.modulation == Miller::kFm0
          ? fm0_half_bits(reply.bits.size(), reply.pilot)
          : miller_total_chips(reply.bits.size(), reply.modulation, reply.pilot);
  const double samples_per_slot = sample_rate_hz / (2.0 * reply.blf_hz);
  return std::ceil(samples_per_slot * static_cast<double>(slots)) /
         sample_rate_hz;
}

}  // namespace rfly::gen2
