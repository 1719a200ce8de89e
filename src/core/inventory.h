// Transaction-level Gen2 inventory: a reader runs Query/QueryRep/ACK rounds
// against a population of tag state machines, with slot collisions and
// SNR-gated decoding. Used by the warehouse-scan example and the read-rate
// experiments; the waveform level (airtime.h) validates single exchanges.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gen2/tag.h"
#include "reader/q_algorithm.h"

namespace rfly::core {

/// EPC -> item description, the database of paper Section 3 that maps
/// identifiers to objects.
class InventoryDatabase {
 public:
  void add(const gen2::Epc& epc, std::string description);
  /// Empty string when unknown.
  const std::string& lookup(const gen2::Epc& epc) const;
  std::size_t size() const { return items_.size(); }

 private:
  std::map<gen2::Epc, std::string> items_;
  std::string empty_;
};

/// Helper: deterministic EPC from an index (tests/examples).
gen2::Epc make_epc(std::uint32_t index);

/// One tag's air-interface situation during a round.
struct TagAgent {
  gen2::Tag* tag = nullptr;
  double incident_power_dbm = -100.0;  // carrier power reaching the tag
  double reply_snr_db = -100.0;        // reply SNR at the reader
};

struct InventoryRoundConfig {
  gen2::Session session = gen2::Session::kS0;
  gen2::InventoryFlag target = gen2::InventoryFlag::kA;
  /// Sel criterion for the Query (set kSl after broadcasting a Select to
  /// scope the round to matching tags).
  gen2::SelTarget sel_target = gen2::SelTarget::kAll;
  int q = 4;
  int max_rounds = 8;
  double decode_snr_threshold_db = 3.0;
  double trcal_s = 64.0 / 3.0 / 500e3;  // BLF = (64/3) / TRcal = 500 kHz
};

struct InventoryOutcome {
  std::vector<gen2::Epc> epcs;  // successfully inventoried, in read order
  int slots = 0;
  int empties = 0;
  int singles = 0;
  int collisions = 0;
  int rounds = 0;
  /// Rounds cut at the per-round slot cap (16,384 slots) before their
  /// last slot.
  int capped_rounds = 0;
  int final_q = 0;
};

/// Run adaptive inventory rounds until no new tags answer (or max_rounds).
/// Q adapts between rounds via the reader's Q-algorithm.
InventoryOutcome run_inventory(std::vector<TagAgent>& tags,
                               const InventoryRoundConfig& config,
                               reader::QAlgorithm& q_algorithm, Rng& rng);

}  // namespace rfly::core
