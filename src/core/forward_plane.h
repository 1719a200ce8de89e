// Measurement-synthesis plane: per-flight hoisted forward-channel state
// (the measure-stage analogue of the batch runner's localization plane).
//
// The seed's measure loop re-derived every per-waypoint quantity — the
// reader↔relay channel h1, the capped downlink drive, the effective
// downlink gain, the embedded-tag channel — roughly five times per flight
// point *per tag* through the RflySystem call graph. All of it depends only
// on the flight and the system, not the tag. A ForwardPlane computes each
// exactly once per flight:
//
//   - exact mode reads the hoisted values back through expressions
//     identical to the seed loop's, so results are bit-identical to the
//     seed (the plane stores results of the same public methods, called
//     once); pinned against that loop, kept as the oracle in
//     tests/test_measure_plane.cpp.
//   - fast mode additionally feeds linear-domain mirrors of the plane to
//     the forward kernels (forward_kernel.h), which synthesize readability
//     masks and target channels for a block of waypoints × tags in one
//     pass.
//
// A mission builds its plane once and shares it across every tag. Missions
// never share planes: each flies with fresh tracking noise, so two missions
// fly the same flight only when they replay the same (scenario, seed), and
// the service's ResultCache answers those before anything simulates. All
// RNG stays in the per-point collect loop (system.cpp); everything here is
// RNG-free, so draw order is untouched.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/math_util.h"
#include "core/forward_kernel.h"
#include "core/system.h"
#include "drone/flight.h"

namespace rfly::core {

/// SoA per-waypoint forward-channel state for one flight. Immutable after
/// build; shared read-only across the mission's tags.
struct ForwardPlane {
  // Actual waypoint positions (kernel lanes; channels are evaluated at the
  // *actual* position — the reported position enters only the measurement
  // record, straight from the flight).
  std::vector<double> px, py, pz;

  // Exact-path hoists: results of the public per-point methods, one
  // reader↔relay channel evaluation per waypoint, stored bit-for-bit.
  std::vector<cdouble> h1;           // reader_relay_channel(actual)
  std::vector<double> h1_abs_db;     // amplitude_to_db(|h1|)
  std::vector<double> relay_tx_dbm;  // capped downlink drive (P1dB stage)
  std::vector<double> g_d_amp;       // db_to_amplitude(effective_downlink_gain_db)
  std::vector<cdouble> embedded;     // measured_embedded_channel(actual)

  std::size_t size() const { return px.size(); }

  /// Hoist the flight once: evaluates the reader↔relay channel h1 once per
  /// waypoint and feeds it to the h1-taking bodies the public RflySystem
  /// methods share, so every stored value is bit-identical to what the
  /// seed loop would have recomputed. Bumps the
  /// `measure.plane.channel_evals` obs counter by the flight size — the
  /// per-waypoint channel evaluations this build performs, charged once
  /// per flight instead of once per (point, tag).
  static ForwardPlane build(const RflySystem& system,
                            const std::vector<drone::FlownPoint>& flight);
};

/// Kernel-synthesized per-tag measure-stage output (fast mode): one
/// readability flag and one complex target channel per waypoint. The
/// embedded channel comes straight from the plane.
struct SynthChannels {
  std::vector<std::uint8_t> readable;  // 0/1 per waypoint
  std::vector<double> target_re, target_im;
};

/// Fast-path synthesis for every tag against one plane: batched multipath
/// geometry (channel::batch_link_paths, per-obstacle constants hoisted per
/// tag), then the forward kernels for distances, propagation phasors, and
/// the multi-tag synthesize pass. RNG-free.
std::vector<SynthChannels> synthesize_forward_channels(
    const RflySystem& system, const ForwardPlane& plane,
    const std::vector<Vec3>& tag_positions);

}  // namespace rfly::core
