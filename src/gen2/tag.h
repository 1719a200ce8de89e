// Passive tag model: the Gen2 inventory state machine plus the physics that
// limit it — a tag only operates while the incident carrier exceeds its
// power-up sensitivity (about -15 dBm for the Alien Squiggle class the paper
// uses), which is exactly the constraint that caps relay-free read range.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>

#include "common/rng.h"
#include "gen2/commands.h"
#include "signal/waveform.h"

namespace rfly::gen2 {

struct TagConfig {
  Epc epc{};
  /// TID bank: permalocked chip identity (vendor/model/serial words).
  std::array<std::uint16_t, 6> tid{0xE280, 0x1160, 0x2000, 0x0000, 0x0000, 0x0001};
  /// User memory (sensor-augmented tags store samples here). Writable.
  std::array<std::uint16_t, 8> user_memory{};
  double sensitivity_dbm = -15.0;  // minimum incident power to operate
  double antenna_gain_dbi = 2.0;
  /// Reflection coefficients of the two impedance states (amplitude).
  double rho_on = 0.8;
  double rho_off = 0.1;
};

enum class TagState : std::uint8_t { kReady, kArbitrate, kReply, kAcknowledged, kOpen };

enum class ReplyKind : std::uint8_t { kRn16, kEpc, kHandle, kRead, kWriteAck };

/// What a tag sends back in its slot.
struct TagReply {
  Bits bits;
  ReplyKind kind = ReplyKind::kRn16;
  double blf_hz = 500e3;
  bool pilot = false;
  /// Backscatter line code, taken from the Query's M field (kFm0 or a
  /// Miller subcarrier mode).
  Miller modulation = Miller::kFm0;
};

/// Per-command context the air interface supplies.
struct CommandContext {
  double incident_power_dbm = -100.0;
  std::optional<double> trcal_s;             // present on Query frames
  DivideRatio dr = DivideRatio::kDr8;        // from the Query command
};

class alignas(64) Tag {
 public:
  Tag(TagConfig config, std::uint64_t seed);

  /// Run one command through the state machine. Returns the reply the tag
  /// backscatters, if any. An under-powered tag loses all volatile state.
  std::optional<TagReply> on_command(const Command& command,
                                     const CommandContext& ctx);

  /// True if the incident power can operate the tag.
  bool powered(double incident_power_dbm) const {
    return incident_power_dbm >= sensitivity_dbm_;
  }

  /// The power check every command starts with: an under-powered tag loses
  /// its volatile state (power_cycle) and hears nothing.
  bool stays_powered(double incident_power_dbm) {
    if (powered(incident_power_dbm)) return true;
    power_cycle();
    return false;
  }

  /// QueryRep of session `s` to a powered tag (the transition on_command
  /// runs for it). True when the tag replies; its RN16 is current_rn16()
  /// and rn16_reply() is the frame it backscatters.
  bool on_query_rep(Session s) {
    if (s != active_session_) return false;
    if (state_ == TagState::kAcknowledged || state_ == TagState::kOpen) {
      // End of this tag's transaction: flip the inventoried flag and go quiet.
      close_transaction();
      return false;
    }
    if (state_ == TagState::kReply) {
      // Replied but was never validly ACKed (collision or decode failure):
      // back to arbitration with a fresh slot in the current round.
      state_ = TagState::kArbitrate;
      slot_ = static_cast<std::uint32_t>(
          rng_.uniform_int(1, std::max(1, (1 << q_) - 1)));
      return false;
    }
    if (state_ == TagState::kArbitrate) {
      if (slot_ > 0) --slot_;
      return reply_if_slot_zero();
    }
    return false;
  }

  /// QueryAdjust of session `s` changing Q by `q_delta` to a powered tag
  /// (the transition on_command runs for it). True when the tag replies,
  /// as for on_query_rep.
  bool on_query_adjust(Session s, int q_delta) {
    if (s != active_session_) return false;
    if (state_ == TagState::kAcknowledged) {
      // Like QueryRep, QueryAdjust closes an acknowledged transaction.
      close_transaction();
      return false;
    }
    // The reader adjusts Q; tags redraw their slots. We model the redraw
    // with the tag's remembered Q bounds folded into slot_ directly: a
    // fresh draw over the previous range shifted by q_delta.
    if (state_ == TagState::kArbitrate || state_ == TagState::kReply) {
      q_ = static_cast<std::uint8_t>(std::clamp(static_cast<int>(q_) + q_delta, 0, 15));
      slot_ = static_cast<std::uint32_t>(rng_.uniform_int(0, (1 << q_) - 1));
      return reply_if_slot_zero();
    }
    return false;
  }

  /// The RN16 frame a tag that just replied backscatters.
  TagReply rn16_reply() const {
    return TagReply{encode(Rn16Reply{rn16_}), ReplyKind::kRn16, blf_hz_, tr_ext_,
                    modulation_};
  }

  TagState state() const { return state_; }
  std::uint16_t current_handle() const { return handle_; }
  const std::array<std::uint16_t, 8>& user_memory() const {
    return config_.user_memory;
  }
  bool sl_flag() const { return sl_flag_; }
  InventoryFlag inventoried(Session s) const {
    return inventoried_[static_cast<std::size_t>(s)];
  }
  const TagConfig& config() const { return config_; }
  std::uint16_t current_rn16() const { return rn16_; }
  /// The Q of the tag's last Query or QueryAdjust, and its session.
  std::uint8_t q() const { return q_; }
  Session active_session() const { return active_session_; }

  /// QueryReps of session `s`, delivered while powered, until the one that
  /// next changes this tag's state beyond its slot counter (reply, redraw,
  /// or close of an acknowledged transaction); 0 when no QueryRep ever will.
  std::uint32_t query_reps_to_event(Session s) const {
    if (s != active_session_) return 0;
    switch (state_) {
      case TagState::kReady: return 0;
      case TagState::kArbitrate: return slot_ > 0 ? slot_ : 1;
      default: return 1;
    }
  }

  /// Apply `n` QueryReps of session `s` that precede the next event
  /// (n < query_reps_to_event(s), or any n when that is 0): O(1), the slot
  /// counter just drops by n.
  void skip_query_reps(Session s, std::uint32_t n) {
    if (s == active_session_ && state_ == TagState::kArbitrate) {
      assert(n < std::max<std::uint32_t>(slot_, 1));
      slot_ -= n;
    }
  }

  /// Reset volatile state (power loss between frames).
  void power_cycle();

  /// Model an unpowered interval of `seconds`: inventoried flags and the SL
  /// flag decay per their Gen2 session persistence times (S0 immediately
  /// while unpowered; S1 after ~2 s regardless; S2/S3 and SL after ~2 s
  /// unpowered), and all volatile state resets.
  void on_power_gap(double seconds);

 private:
  std::optional<TagReply> on_query(const QueryCommand& q, const CommandContext& ctx);

  /// A tag whose slot counter is 0 (just drawn or counted down) draws its
  /// RN16 and replies; any other keeps arbitrating.
  bool reply_if_slot_zero() {
    if (slot_ != 0) {
      state_ = TagState::kArbitrate;
      return false;
    }
    rn16_ = static_cast<std::uint16_t>(rng_.uniform_int(0, 0xFFFF));
    state_ = TagState::kReply;
    return true;
  }

  /// QueryRep or QueryAdjust after an acknowledged transaction: flip the
  /// session's inventoried flag and go quiet.
  void close_transaction() {
    auto& flag = inventoried_[static_cast<std::size_t>(active_session_)];
    flag = (flag == InventoryFlag::kA) ? InventoryFlag::kB : InventoryFlag::kA;
    state_ = TagState::kReady;
  }

  // Hot fields first: everything a QueryRep or QueryAdjust reads or writes
  // (the power check's threshold, slot, state, Q, session, RN16, the
  // inventoried flags a closed transaction flips), then the engine, whose
  // index leads it. The Tag is line-aligned, so a redraw touches this one
  // cache line and the one engine word it draws. tr_ext_ and handle_ only
  // fill padding here.
  double sensitivity_dbm_;  // config_.sensitivity_dbm
  std::uint32_t slot_ = 0;
  TagState state_ = TagState::kReady;
  std::uint8_t q_ = 0;
  Session active_session_ = Session::kS0;
  bool tr_ext_ = false;
  std::uint16_t rn16_ = 0;
  std::uint16_t handle_ = 0;
  InventoryFlag inventoried_[4] = {InventoryFlag::kA, InventoryFlag::kA,
                                   InventoryFlag::kA, InventoryFlag::kA};
  Rng rng_;

  TagConfig config_;
  double blf_hz_ = 500e3;
  bool sl_flag_ = false;
  Miller modulation_ = Miller::kFm0;
};

/// Map FM0 half-bit levels onto the tag's reflection-coefficient sequence,
/// sampled at `sample_rate_hz`. The result multiplies the incident carrier:
/// reflected(t) = incident(t) * rho(t).
signal::Waveform modulate_reply(const TagReply& reply, const TagConfig& config,
                                double sample_rate_hz);

/// Duration of a reply waveform in seconds.
double reply_duration(const TagReply& reply, double sample_rate_hz);

}  // namespace rfly::gen2
