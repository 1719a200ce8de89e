// Channel-level RFly system model: reader + relay-on-drone + passive tags
// in a multipath environment. This level computes the complex channels and
// power budgets of every link in closed form (the waveform level in
// airtime.h cross-validates it), which makes the thousands of trajectory
// points and grid probes of the localization experiments tractable.
//
// Link structure per paper Eq. 7: the reader measures, for a tag reached
// through the relay,
//   h_meas = h1^2 * g_d * g_u * drho * h2^2 * c_hw
// where h1 is the one-way reader->relay channel at f1, h2 the one-way
// relay->tag channel at f2, g_* the relay amplitude gains, drho the tag's
// backscatter swing, and c_hw the relay's constant hardware phase. The
// embedded tag replaces h2 with a constant wire coupling.
#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "channel/channel_model.h"
#include "channel/environment.h"
#include "common/rng.h"
#include "common/status.h"
#include "drone/flight.h"
#include "gen2/tag.h"
#include "localize/measurement.h"

namespace rfly::core {

using channel::Vec3;

struct SystemConfig {
  double carrier_hz = 915e6;       // f1
  double freq_shift_hz = 1e6;      // f2 - f1
  double blf_hz = 500e3;

  // Reader.
  double reader_eirp_dbm = 30.0;
  double reader_rx_gain_dbi = 6.0;
  double reader_noise_figure_db = 6.0;

  // Relay gains and output limits (PA saturation caps effective gain).
  // Downlink gain is maximized subject to the intra-downlink isolation
  // (77 dB median) minus a stability margin — Section 6.1's tuning rule —
  // because powering the tag is the binding constraint.
  double relay_downlink_gain_db = 65.0;
  double relay_uplink_gain_db = 30.0;
  double relay_downlink_p1db_dbm = 29.0;
  double relay_uplink_max_out_dbm = 10.0;
  double relay_antenna_gain_dbi = 2.0;
  /// Constant hardware phase of the relay chain (filters + traces); any
  /// value works since Eq. 10 cancels it — nonzero by default so tests
  /// can't accidentally rely on it being absent.
  double relay_hardware_phase_rad = 0.7;

  // Tags.
  gen2::TagConfig tag{};
  /// Relay -> embedded-tag near-field coupling (one-way amplitude, dB).
  double embedded_coupling_db = -25.0;

  // Receive-side impairments.
  bool channel_noise = true;
  /// Reply integration time for the channel estimate (EPC reply at BLF
  /// 500 kHz is ~0.27 ms); estimate noise sigma^2 = N0 * NF / T.
  double estimate_integration_s = 0.27e-3;
  /// Log-normal shadowing on power draws for read-rate experiments [dB].
  double shadowing_std_db = 2.0;
  /// Per-measurement amplitude ripple on the relay-tag link (tag antenna
  /// pattern and polarization mismatch as the drone's aspect changes) and
  /// the small phase ripple that accompanies it. This is what makes the
  /// RSSI baseline fragile while SAR (phase-based) barely notices.
  double amplitude_ripple_std_db = 2.5;
  double phase_ripple_std_rad = 0.09;  // ~5 degrees
  /// SNR needed to decode a reply [dB].
  double decode_snr_threshold_db = 3.0;

  /// Include the constant direct reader->tag backscatter component in
  /// measured channels (Section 5.2: SAR factors constants out).
  bool include_direct_path = true;
};

/// A tag's air-interface situation with the relay at one position.
struct TagLink {
  double incident_power_dbm = -100.0;  // tag_incident_power_dbm
  double reply_snr_db = -100.0;        // reply_snr_db
};

struct ForwardPlane;  // forward_plane.h: per-flight hoisted channel plane

class RflySystem {
 public:
  RflySystem(const SystemConfig& config, channel::Environment environment,
             const Vec3& reader_position);

  /// The relay's saturating amplifier stage, shared by every path that
  /// models a P1dB/output cap (downlink PA, uplink output limit, embedded
  /// uplink drive). Output power for `input_dbm` through `gain_db` limited
  /// to `cap_dbm`:
  static double saturated_output_dbm(double input_dbm, double gain_db,
                                     double cap_dbm) {
    return std::min(input_dbm + gain_db, cap_dbm);
  }
  /// Effective gain of the same stage: nominal gain minus the dB shaved off
  /// by the cap. Defined via the identical expression tree the output form
  /// uses so the two can never drift (and so hoisted/plane evaluations stay
  /// bit-identical to the inline ones they replaced).
  static double saturated_gain_db(double input_dbm, double gain_db,
                                  double cap_dbm) {
    const double out_dbm = input_dbm + gain_db;
    return gain_db - (out_dbm - std::min(out_dbm, cap_dbm));
  }

  const SystemConfig& config() const { return config_; }
  const channel::Environment& environment() const { return environment_; }
  const Vec3& reader_position() const { return reader_position_; }

  /// One-way reader->relay channel at f1 (multipath-summed).
  cdouble reader_relay_channel(const Vec3& relay_pos) const;

  /// One-way relay->tag channel at f2.
  cdouble relay_tag_channel(const Vec3& relay_pos, const Vec3& tag_pos) const;

  /// Effective relay gains at a position, after PA/output saturation.
  double effective_downlink_gain_db(const Vec3& relay_pos) const;
  double effective_uplink_gain_db(const Vec3& relay_pos, const Vec3& tag_pos) const;

  /// Power arriving at the tag through the relay (dBm).
  double tag_incident_power_dbm(const Vec3& relay_pos, const Vec3& tag_pos) const;

  /// Power arriving at the tag directly from the reader (dBm).
  double direct_tag_incident_power_dbm(const Vec3& tag_pos) const;

  /// SNR of the tag's backscatter reply at the reader, through the relay.
  double reply_snr_db(const Vec3& relay_pos, const Vec3& tag_pos) const;

  /// Both figures above from one reader→relay and one relay→tag channel
  /// evaluation (each method alone evaluates its own), bit-identical to
  /// calling them one by one.
  TagLink tag_link(const Vec3& relay_pos, const Vec3& tag_pos) const;

  /// SNR of a direct (relay-less) reply at the reader.
  double direct_reply_snr_db(const Vec3& tag_pos) const;

  /// Stochastic read checks (power-up AND decodable SNR, with shadowing).
  bool tag_readable(const Vec3& relay_pos, const Vec3& tag_pos, Rng& rng) const;
  bool tag_readable_direct(const Vec3& tag_pos, Rng& rng) const;

  /// The complex channel the reader's estimator reports for the target tag
  /// (noise-free); Eq. 7/8 including the relay chain.
  cdouble measured_target_channel(const Vec3& relay_pos, const Vec3& tag_pos) const;

  /// Ditto for the relay-embedded tag (reader-relay half-link only).
  cdouble measured_embedded_channel(const Vec3& relay_pos) const;

  /// Channel-estimate noise sigma (per complex estimate).
  double estimate_noise_sigma() const;

  /// Collect localization measurements along a flown trajectory. Channels
  /// are computed at each point's *actual* position; the measurement
  /// records the *reported* position — the tracking error enters exactly
  /// where it would in the real system. kEmptyFlightPlan when the flight
  /// has no points, kInsufficientData (with the flight size) when the tag
  /// was unpowered or undecodable at every point.
  ///
  /// RNG contract (pinned by the draw-order golden in
  /// tests/test_measure_plane.cpp): no shadowing is drawn here; for each
  /// point that passes BOTH readability checks, exactly two ripple
  /// gaussians (amplitude dB, then phase rad — only when either ripple std
  /// is > 0) followed by four noise gaussians (target re/im, embedded
  /// re/im — only when the estimate sigma is > 0) are consumed, in flight
  /// order; skipped points draw nothing. Both overloads keep this sequence —
  /// all channel math is RNG-free.
  ///
  /// This overload builds a ForwardPlane for the flight and runs the
  /// plane-backed overload below; callers collecting several tags over one
  /// flight build the plane once and call that overload directly.
  Expected<localize::MeasurementSet> try_collect_measurements(
      const std::vector<drone::FlownPoint>& flight, const Vec3& tag_pos,
      Rng& rng) const;

  /// Plane-backed exact collect: every per-waypoint quantity (reader↔relay
  /// channel, capped downlink drive, downlink gain, embedded channel) is
  /// read from a ForwardPlane built once per flight instead of being
  /// re-derived ~5× per point per tag. Before evaluating the relay→tag
  /// channel at a point, the loop checks a cheap upper bound on its
  /// magnitude (channel::ChannelBound) and skips the point when even the
  /// bound cannot power the tag; such a point fails the exact power gate
  /// and draws nothing, so skipping it changes no bit. Bit-identical to
  /// the seed's per-point loop — the plane stores values produced by the
  /// same expressions, evaluated once (pinned against that loop, kept in
  /// tests/test_measure_plane.cpp, and by committed mission digests).
  /// Adds the points it evaluated and skipped to the `measure.h2_evals`
  /// and `measure.h2_skipped` obs counters.
  Expected<localize::MeasurementSet> try_collect_measurements(
      const std::vector<drone::FlownPoint>& flight, const Vec3& tag_pos,
      Rng& rng, const ForwardPlane& plane) const;

  /// Calibration constant for the RSSI baseline: |h_iso| at 1 m.
  double rssi_reference_magnitude_at_1m() const;

 private:
  friend struct ForwardPlane;

  double backscatter_delta_rho() const;
  channel::LinkGains relay_tag_gains() const;

  /// Shared bodies of the public per-position methods, taking the
  /// reader→relay channel h1 = reader_relay_channel(relay_pos), so a caller
  /// holding h1 (ForwardPlane::build) evaluates it once per waypoint. Each
  /// expression tree exists only here.
  /// Capped downlink drive: the relay's transmit power toward the tag.
  double relay_tx_dbm(const cdouble& h1) const;
  /// effective_downlink_gain_db.
  double downlink_gain_db(const cdouble& h1) const;
  /// measured_embedded_channel.
  cdouble embedded_channel(const cdouble& h1) const;
  /// The same for tag_incident_power_dbm and reply_snr_db, also taking the
  /// relay→tag channel h2 = relay_tag_channel(relay_pos, tag_pos).
  double incident_dbm(const cdouble& h1, const cdouble& h2) const;
  double snr_db(const cdouble& h1, const cdouble& h2) const;

  /// The collect loops' stochastic tail, the one implementation of the RNG
  /// contract above: ripple on the target channel, then estimate noise of
  /// std `sigma` on both channels.
  void add_ripple_and_noise(localize::RelayMeasurement& m, double sigma,
                            Rng& rng) const;

  SystemConfig config_;
  channel::Environment environment_;
  Vec3 reader_position_;
};

}  // namespace rfly::core
