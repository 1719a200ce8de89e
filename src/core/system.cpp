#include "core/system.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "channel/link_budget.h"
#include "channel/path_loss.h"
#include "common/constants.h"
#include "common/units.h"
#include "core/forward_plane.h"
#include "obs/metrics.h"
#include "signal/noise.h"

namespace rfly::core {

namespace {

// Exact-collect telemetry: relay→tag channel evaluations, and the
// tag-waypoints the magnitude bound proved unpowered without one. Their
// sum is flight size × collect calls.
obs::Counter& h2_evals() {
  static obs::Counter& c = obs::counter("measure.h2_evals");
  return c;
}
obs::Counter& h2_skipped() {
  static obs::Counter& c = obs::counter("measure.h2_skipped");
  return c;
}

/// Slack on the bound's dB figure before it may skip a point: 1.15e-7
/// relative, far above the few ulps by which the bound's factored
/// arithmetic can round below the exact channel's.
constexpr double kBoundMarginDb = 1e-6;

}  // namespace

RflySystem::RflySystem(const SystemConfig& config, channel::Environment environment,
                       const Vec3& reader_position)
    : config_(config),
      environment_(std::move(environment)),
      reader_position_(reader_position) {}

double RflySystem::backscatter_delta_rho() const {
  return (config_.tag.rho_on - config_.tag.rho_off) / 2.0;
}

cdouble RflySystem::reader_relay_channel(const Vec3& relay_pos) const {
  channel::LinkGains gains;
  gains.tx_gain_dbi = 0.0;  // reader EIRP already includes its antenna
  gains.rx_gain_dbi = config_.relay_antenna_gain_dbi;
  return channel::point_to_point_channel(environment_, reader_position_, relay_pos,
                                         config_.carrier_hz, gains);
}

channel::LinkGains RflySystem::relay_tag_gains() const {
  channel::LinkGains gains;
  gains.tx_gain_dbi = config_.relay_antenna_gain_dbi;
  gains.rx_gain_dbi = config_.tag.antenna_gain_dbi;
  return gains;
}

cdouble RflySystem::relay_tag_channel(const Vec3& relay_pos, const Vec3& tag_pos) const {
  return channel::point_to_point_channel(environment_, relay_pos, tag_pos,
                                         config_.carrier_hz + config_.freq_shift_hz,
                                         relay_tag_gains());
}

double RflySystem::relay_tx_dbm(const cdouble& h1) const {
  const double relay_rx_dbm =
      config_.reader_eirp_dbm + amplitude_to_db(std::abs(h1));
  return saturated_output_dbm(relay_rx_dbm, config_.relay_downlink_gain_db,
                              config_.relay_downlink_p1db_dbm);
}

double RflySystem::downlink_gain_db(const cdouble& h1) const {
  const double rx_dbm = config_.reader_eirp_dbm + amplitude_to_db(std::abs(h1));
  return saturated_gain_db(rx_dbm, config_.relay_downlink_gain_db,
                           config_.relay_downlink_p1db_dbm);
}

double RflySystem::effective_downlink_gain_db(const Vec3& relay_pos) const {
  return downlink_gain_db(reader_relay_channel(relay_pos));
}

double RflySystem::effective_uplink_gain_db(const Vec3& relay_pos,
                                            const Vec3& tag_pos) const {
  // Uplink drive: the tag's backscatter arriving at the relay.
  const double backscatter_dbm =
      tag_incident_power_dbm(relay_pos, tag_pos) +
      amplitude_to_db(backscatter_delta_rho()) +
      amplitude_to_db(std::abs(relay_tag_channel(relay_pos, tag_pos)));
  return saturated_gain_db(backscatter_dbm, config_.relay_uplink_gain_db,
                           config_.relay_uplink_max_out_dbm);
}

double RflySystem::incident_dbm(const cdouble& h1, const cdouble& h2) const {
  return relay_tx_dbm(h1) + amplitude_to_db(std::abs(h2));
}

double RflySystem::tag_incident_power_dbm(const Vec3& relay_pos,
                                          const Vec3& tag_pos) const {
  return incident_dbm(reader_relay_channel(relay_pos),
                      relay_tag_channel(relay_pos, tag_pos));
}

TagLink RflySystem::tag_link(const Vec3& relay_pos, const Vec3& tag_pos) const {
  const cdouble h1 = reader_relay_channel(relay_pos);
  const cdouble h2 = relay_tag_channel(relay_pos, tag_pos);
  return {incident_dbm(h1, h2), snr_db(h1, h2)};
}

double RflySystem::direct_tag_incident_power_dbm(const Vec3& tag_pos) const {
  channel::LinkGains gains;
  gains.rx_gain_dbi = config_.tag.antenna_gain_dbi;
  const cdouble h = channel::point_to_point_channel(
      environment_, reader_position_, tag_pos, config_.carrier_hz, gains);
  return config_.reader_eirp_dbm + amplitude_to_db(std::abs(h));
}

double RflySystem::reply_snr_db(const Vec3& relay_pos, const Vec3& tag_pos) const {
  return snr_db(reader_relay_channel(relay_pos), relay_tag_channel(relay_pos, tag_pos));
}

double RflySystem::snr_db(const cdouble& h1, const cdouble& h2) const {
  const double backscatter_at_relay_dbm = incident_dbm(h1, h2) +
                                          amplitude_to_db(backscatter_delta_rho()) +
                                          amplitude_to_db(std::abs(h2));
  const double relay_out_dbm =
      saturated_output_dbm(backscatter_at_relay_dbm, config_.relay_uplink_gain_db,
                           config_.relay_uplink_max_out_dbm);
  const double at_reader_dbm =
      relay_out_dbm + amplitude_to_db(std::abs(h1)) + config_.reader_rx_gain_dbi;
  const double noise_dbm = watts_to_dbm(signal::thermal_noise_power(
      2.0 * config_.blf_hz, config_.reader_noise_figure_db));
  return at_reader_dbm - noise_dbm;
}

double RflySystem::direct_reply_snr_db(const Vec3& tag_pos) const {
  channel::LinkGains gains;
  gains.rx_gain_dbi = config_.tag.antenna_gain_dbi;
  const cdouble h = channel::point_to_point_channel(
      environment_, reader_position_, tag_pos, config_.carrier_hz, gains);
  const double at_reader_dbm = config_.reader_eirp_dbm +
                               2.0 * amplitude_to_db(std::abs(h)) +
                               amplitude_to_db(backscatter_delta_rho()) +
                               config_.reader_rx_gain_dbi;
  const double noise_dbm = watts_to_dbm(signal::thermal_noise_power(
      2.0 * config_.blf_hz, config_.reader_noise_figure_db));
  return at_reader_dbm - noise_dbm;
}

bool RflySystem::tag_readable(const Vec3& relay_pos, const Vec3& tag_pos,
                              Rng& rng) const {
  const double shadow_down = rng.gaussian(0.0, config_.shadowing_std_db);
  const double shadow_up = rng.gaussian(0.0, config_.shadowing_std_db);
  const TagLink link = tag_link(relay_pos, tag_pos);
  const bool powered =
      link.incident_power_dbm + shadow_down >= config_.tag.sensitivity_dbm;
  const bool decodable =
      link.reply_snr_db + shadow_up >= config_.decode_snr_threshold_db;
  return powered && decodable;
}

bool RflySystem::tag_readable_direct(const Vec3& tag_pos, Rng& rng) const {
  const double shadow_down = rng.gaussian(0.0, config_.shadowing_std_db);
  const double shadow_up = rng.gaussian(0.0, config_.shadowing_std_db);
  const bool powered = direct_tag_incident_power_dbm(tag_pos) + shadow_down >=
                       config_.tag.sensitivity_dbm;
  const bool decodable =
      direct_reply_snr_db(tag_pos) + shadow_up >= config_.decode_snr_threshold_db;
  return powered && decodable;
}

cdouble RflySystem::measured_target_channel(const Vec3& relay_pos,
                                            const Vec3& tag_pos) const {
  const cdouble h1 = reader_relay_channel(relay_pos);
  const cdouble h2 = relay_tag_channel(relay_pos, tag_pos);
  const double g_d = db_to_amplitude(downlink_gain_db(h1));
  const double g_u = db_to_amplitude(effective_uplink_gain_db(relay_pos, tag_pos));
  const cdouble hw = cis(config_.relay_hardware_phase_rad);

  cdouble h = h1 * h1 * g_d * g_u * backscatter_delta_rho() * h2 * h2 * hw *
              db_to_amplitude(config_.reader_rx_gain_dbi);

  if (config_.include_direct_path) {
    channel::LinkGains gains;
    gains.rx_gain_dbi = config_.tag.antenna_gain_dbi;
    const cdouble hd = channel::point_to_point_channel(
        environment_, reader_position_, tag_pos, config_.carrier_hz, gains);
    h += hd * hd * backscatter_delta_rho();
  }
  return h;
}

cdouble RflySystem::measured_embedded_channel(const Vec3& relay_pos) const {
  return embedded_channel(reader_relay_channel(relay_pos));
}

cdouble RflySystem::embedded_channel(const cdouble& h1) const {
  // Uplink gain for the embedded tag: driven hard (close coupling), so the
  // uplink output cap applies via the same path with the wire coupling.
  const double wire = db_to_amplitude(config_.embedded_coupling_db);
  const double backscatter_dbm = relay_tx_dbm(h1) +
                                 2.0 * config_.embedded_coupling_db +
                                 amplitude_to_db(backscatter_delta_rho());
  const double g_u_db =
      saturated_gain_db(backscatter_dbm, config_.relay_uplink_gain_db,
                        config_.relay_uplink_max_out_dbm);
  const cdouble hw = cis(config_.relay_hardware_phase_rad);
  return h1 * h1 * db_to_amplitude(downlink_gain_db(h1)) *
         db_to_amplitude(g_u_db + config_.reader_rx_gain_dbi) *
         backscatter_delta_rho() * wire * wire * hw;
}

double RflySystem::estimate_noise_sigma() const {
  if (!config_.channel_noise) return 0.0;
  // Coherent integration over T seconds: sigma^2 = N0 * NF / T. The channel
  // values are referenced to unit reader transmit amplitude, so scale by
  // the actual transmit power.
  const double n0 = dbm_to_watts(kThermalNoiseDbmPerHz) *
                    from_db(config_.reader_noise_figure_db);
  const double sigma_sq = n0 / config_.estimate_integration_s;
  const double tx_watts = dbm_to_watts(config_.reader_eirp_dbm);
  return std::sqrt(sigma_sq / tx_watts);
}

void RflySystem::add_ripple_and_noise(localize::RelayMeasurement& m, double sigma,
                                      Rng& rng) const {
  if (config_.amplitude_ripple_std_db > 0.0 || config_.phase_ripple_std_rad > 0.0) {
    m.target_channel *=
        db_to_amplitude(rng.gaussian(0.0, config_.amplitude_ripple_std_db)) *
        cis(rng.gaussian(0.0, config_.phase_ripple_std_rad));
  }
  if (sigma > 0.0) {
    m.target_channel += cdouble{rng.gaussian(0.0, sigma / std::sqrt(2.0)),
                                rng.gaussian(0.0, sigma / std::sqrt(2.0))};
    m.embedded_channel += cdouble{rng.gaussian(0.0, sigma / std::sqrt(2.0)),
                                  rng.gaussian(0.0, sigma / std::sqrt(2.0))};
  }
}

Expected<localize::MeasurementSet> RflySystem::try_collect_measurements(
    const std::vector<drone::FlownPoint>& flight, const Vec3& tag_pos,
    Rng& rng) const {
  return try_collect_measurements(flight, tag_pos, rng,
                                  ForwardPlane::build(*this, flight));
}

// Plane-backed exact collect. Every expression below is the seed loop's
// expression (the public per-point methods above, composed as
// tests/test_measure_plane.cpp's oracle composes them) with per-waypoint
// operands read from the plane, which stored the same functions' results
// evaluated once per flight, and per-tag operands hoisted out of the loop.
// No value is computed differently — only fewer times, and not at all at
// points the relay→tag bound proves unpowered (which draw nothing either).
Expected<localize::MeasurementSet> RflySystem::try_collect_measurements(
    const std::vector<drone::FlownPoint>& flight, const Vec3& tag_pos,
    Rng& rng, const ForwardPlane& plane) const {
  if (flight.empty()) {
    return Status{StatusCode::kEmptyFlightPlan,
                  "cannot collect measurements over an empty flight"};
  }
  localize::MeasurementSet set;
  set.reserve(flight.size());
  const double sigma = estimate_noise_sigma();
  // Per-tag constants the seed loop re-derives at every point.
  const double drho = backscatter_delta_rho();
  const double drho_db = amplitude_to_db(drho);
  const double noise_dbm = watts_to_dbm(signal::thermal_noise_power(
      2.0 * config_.blf_hz, config_.reader_noise_figure_db));
  const cdouble hw = cis(config_.relay_hardware_phase_rad);
  const double rx_amp = db_to_amplitude(config_.reader_rx_gain_dbi);
  cdouble direct_term{0.0, 0.0};
  if (config_.include_direct_path) {
    channel::LinkGains gains;
    gains.rx_gain_dbi = config_.tag.antenna_gain_dbi;
    const cdouble hd = channel::point_to_point_channel(
        environment_, reader_position_, tag_pos, config_.carrier_hz, gains);
    direct_term = hd * hd * drho;
  }
  const channel::ChannelBound h2_bound(
      environment_, config_.carrier_hz + config_.freq_shift_hz, relay_tag_gains());
  std::uint64_t evals = 0;
  for (std::size_t i = 0; i < flight.size(); ++i) {
    const auto& point = flight[i];
    // Power gate on the bound first: a point even the bound leaves short
    // of the tag's sensitivity fails the exact gate below. A NaN bound
    // compares false and falls through to the exact evaluation.
    if (plane.relay_tx_dbm[i] + amplitude_to_db(h2_bound(point.actual, tag_pos)) +
            kBoundMarginDb <
        config_.tag.sensitivity_dbm) {
      continue;
    }
    ++evals;
    // The only remaining per-(point, tag) channel evaluation.
    const cdouble h2 = relay_tag_channel(point.actual, tag_pos);
    const double h2_abs_db = amplitude_to_db(std::abs(h2));
    const double incident_dbm = plane.relay_tx_dbm[i] + h2_abs_db;
    if (incident_dbm < config_.tag.sensitivity_dbm) {
      continue;
    }
    const double backscatter_dbm = incident_dbm + drho_db + h2_abs_db;
    const double relay_out_dbm =
        saturated_output_dbm(backscatter_dbm, config_.relay_uplink_gain_db,
                             config_.relay_uplink_max_out_dbm);
    const double at_reader_dbm =
        relay_out_dbm + plane.h1_abs_db[i] + config_.reader_rx_gain_dbi;
    if (at_reader_dbm - noise_dbm < config_.decode_snr_threshold_db) {
      continue;
    }
    const double g_u = db_to_amplitude(
        saturated_gain_db(backscatter_dbm, config_.relay_uplink_gain_db,
                          config_.relay_uplink_max_out_dbm));
    const cdouble h1 = plane.h1[i];
    localize::RelayMeasurement m;
    m.relay_position = point.reported;
    cdouble h = h1 * h1 * plane.g_d_amp[i] * g_u * drho * h2 * h2 * hw * rx_amp;
    if (config_.include_direct_path) {
      h += direct_term;
    }
    m.target_channel = h;
    m.embedded_channel = plane.embedded[i];
    add_ripple_and_noise(m, sigma, rng);
    set.push_back(m);
  }
  h2_evals().add(evals);
  h2_skipped().add(flight.size() - evals);
  if (set.empty()) {
    return Status{StatusCode::kInsufficientData,
                  "tag unpowered or undecodable at all " +
                      std::to_string(flight.size()) + " flight points"};
  }
  return set;
}

// Fast-path collect: channels and readability precomputed by the forward
// kernels (RNG-free), so this loop only sequences the stochastic draws —
// in exactly the order the exact loop does (see the RNG contract in
// system.h).
Expected<localize::MeasurementSet> RflySystem::try_collect_measurements(
    const std::vector<drone::FlownPoint>& flight, Rng& rng,
    const ForwardPlane& plane, const SynthChannels& synth) const {
  if (flight.empty()) {
    return Status{StatusCode::kEmptyFlightPlan,
                  "cannot collect measurements over an empty flight"};
  }
  localize::MeasurementSet set;
  set.reserve(flight.size());
  const double sigma = estimate_noise_sigma();
  for (std::size_t i = 0; i < flight.size(); ++i) {
    if (!synth.readable[i]) {
      continue;
    }
    localize::RelayMeasurement m;
    m.relay_position = flight[i].reported;
    m.target_channel = cdouble{synth.target_re[i], synth.target_im[i]};
    m.embedded_channel = plane.embedded[i];
    add_ripple_and_noise(m, sigma, rng);
    set.push_back(m);
  }
  if (set.empty()) {
    return Status{StatusCode::kInsufficientData,
                  "tag unpowered or undecodable at all " +
                      std::to_string(flight.size()) + " flight points"};
  }
  return set;
}

double RflySystem::rssi_reference_magnitude_at_1m() const {
  // |h_iso| = |h2|^2 * (wire coupling)^-2 with |h2| at 1 m free space.
  const double h2_1m =
      std::abs(channel::propagation_coefficient(
          1.0, config_.carrier_hz + config_.freq_shift_hz)) *
      db_to_amplitude(config_.relay_antenna_gain_dbi + config_.tag.antenna_gain_dbi);
  const double wire = db_to_amplitude(config_.embedded_coupling_db);
  return (h2_1m * h2_1m) / (wire * wire);
}

}  // namespace rfly::core
