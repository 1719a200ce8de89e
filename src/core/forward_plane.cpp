#include "core/forward_plane.h"

#include <cmath>

#include "channel/channel_batch.h"
#include "channel/channel_model.h"
#include "common/constants.h"
#include "common/units.h"
#include "obs/metrics.h"
#include "signal/noise.h"

namespace rfly::core {

namespace {

// Plane telemetry. `channel_evals` counts the reader↔relay channel
// evaluations charged to the measure stage: one per waypoint per plane
// build, instead of the seed loop's ~5 per waypoint per tag.
obs::Counter& plane_builds() {
  static obs::Counter& c = obs::counter("measure.plane.builds");
  return c;
}
obs::Counter& plane_channel_evals() {
  static obs::Counter& c = obs::counter("measure.plane.channel_evals");
  return c;
}

}  // namespace

ForwardPlane ForwardPlane::build(const RflySystem& system,
                                 const std::vector<drone::FlownPoint>& flight) {
  const std::size_t n = flight.size();
  ForwardPlane plane;
  plane.px.resize(n);
  plane.py.resize(n);
  plane.pz.resize(n);
  plane.h1.resize(n);
  plane.h1_abs_db.resize(n);
  plane.relay_tx_dbm.resize(n);
  plane.g_d_amp.resize(n);
  plane.embedded.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3& a = flight[i].actual;
    plane.px[i] = a.x;
    plane.py[i] = a.y;
    plane.pz[i] = a.z;
    // Exact hoists: one reader→relay channel per waypoint, fed to the
    // h1-taking bodies of the public methods the seed collect loop drives
    // — stored bits are exactly what the seed loop would have recomputed
    // at this point.
    const cdouble h1 = system.reader_relay_channel(a);
    plane.h1[i] = h1;
    plane.h1_abs_db[i] = amplitude_to_db(std::abs(h1));
    plane.relay_tx_dbm[i] = system.relay_tx_dbm(h1);
    plane.g_d_amp[i] = db_to_amplitude(system.downlink_gain_db(h1));
    plane.embedded[i] = system.embedded_channel(h1);
  }
  plane_builds().inc();
  plane_channel_evals().add(n);
  return plane;
}

std::vector<SynthChannels> synthesize_forward_channels(
    const RflySystem& system, const ForwardPlane& plane,
    const std::vector<Vec3>& tag_positions) {
  const ForwardKernelVariant& kern = forward_kernel_active();
  const SystemConfig& cfg = system.config();
  const std::size_t n = plane.size();
  const std::size_t ntags = tag_positions.size();
  std::vector<SynthChannels> out(ntags);
  for (auto& synth : out) {
    synth.readable.assign(n, 0);
    synth.target_re.assign(n, 0.0);
    synth.target_im.assign(n, 0.0);
  }
  if (n == 0 || ntags == 0) return out;

  const double f2 = cfg.carrier_hz + cfg.freq_shift_hz;
  const double lambda2 = wavelength(f2);
  const double gain_amp =
      db_to_amplitude(cfg.relay_antenna_gain_dbi + cfg.tag.antenna_gain_dbi);
  const double drho = (cfg.tag.rho_on - cfg.tag.rho_off) / 2.0;

  ForwardKernelArgs args;
  args.count = n;
  args.px = plane.px.data();
  args.py = plane.py.data();
  args.pz = plane.pz.data();
  args.wavenumber = kTwoPi / lambda2;
  args.amp_over_d = lambda2 / (4.0 * kPi);

  // Per-tag relay→tag channel planes: vectorized direct distances, batched
  // multipath geometry, vectorized phasors, then a scalar segmented add
  // (reflection counts are small and variable per waypoint).
  std::vector<std::vector<double>> h2_re(ntags), h2_im(ntags);
  std::vector<double> ddir(n), dir_re(n), dir_im(n);
  std::vector<double> refl_re, refl_im;
  channel::BatchedPaths paths;
  for (std::size_t t = 0; t < ntags; ++t) {
    const Vec3& tag = tag_positions[t];
    args.tx = tag.x;
    args.ty = tag.y;
    args.tz = tag.z;
    args.dist = ddir.data();
    kern.distances(args, 0, n);
    channel::batch_link_paths(system.environment(), plane.px.data(),
                              plane.py.data(), plane.pz.data(), n, tag,
                              gain_amp, paths);
    args.path_d = ddir.data();
    args.path_amp = paths.direct_amp.data();
    args.out_re = dir_re.data();
    args.out_im = dir_im.data();
    args.n_paths = n;
    kern.phasors(args, 0, n);
    const std::size_t n_refl = paths.refl_d.size();
    refl_re.resize(n_refl);
    refl_im.resize(n_refl);
    if (n_refl > 0) {
      args.path_d = paths.refl_d.data();
      args.path_amp = paths.refl_amp.data();
      args.out_re = refl_re.data();
      args.out_im = refl_im.data();
      args.n_paths = n_refl;
      kern.phasors(args, 0, n_refl);
    }
    h2_re[t].resize(n);
    h2_im[t].resize(n);
    for (std::size_t w = 0; w < n; ++w) {
      double re = dir_re[w];
      double im = dir_im[w];
      for (std::uint32_t p = paths.offsets[w]; p < paths.offsets[w + 1]; ++p) {
        re += refl_re[p];
        im += refl_im[p];
      }
      h2_re[t][w] = re;
      h2_im[t][w] = im;
    }
  }

  // Per-tag direct reader→tag term hd²·drho — the scalar path's per-tag
  // constant, via the same scalar channel call.
  std::vector<double> direct_re(ntags, 0.0), direct_im(ntags, 0.0);
  if (cfg.include_direct_path) {
    for (std::size_t t = 0; t < ntags; ++t) {
      channel::LinkGains gains;
      gains.rx_gain_dbi = cfg.tag.antenna_gain_dbi;
      const cdouble hd = channel::point_to_point_channel(
          system.environment(), system.reader_position(), tag_positions[t],
          cfg.carrier_hz, gains);
      const cdouble term = hd * hd * drho;
      direct_re[t] = term.real();
      direct_im[t] = term.imag();
    }
  }

  // The kernels' linear-domain mirrors of the plane's h1 and capped
  // downlink drive.
  std::vector<double> h1_re(n), h1_im(n), h1_pow(n), relay_tx_mw(n);
  for (std::size_t i = 0; i < n; ++i) {
    const cdouble h1 = plane.h1[i];
    h1_re[i] = h1.real();
    h1_im[i] = h1.imag();
    h1_pow[i] = h1.real() * h1.real() + h1.imag() * h1.imag();
    relay_tx_mw[i] = std::pow(10.0, plane.relay_tx_dbm[i] / 10.0);
  }

  // Multi-tag synthesize pass: linear-domain constants folded once.
  std::vector<const double*> h2re_ptrs(ntags), h2im_ptrs(ntags);
  std::vector<double*> ore_ptrs(ntags), oim_ptrs(ntags);
  std::vector<std::uint8_t*> mask_ptrs(ntags);
  for (std::size_t t = 0; t < ntags; ++t) {
    h2re_ptrs[t] = h2_re[t].data();
    h2im_ptrs[t] = h2_im[t].data();
    ore_ptrs[t] = out[t].target_re.data();
    oim_ptrs[t] = out[t].target_im.data();
    mask_ptrs[t] = out[t].readable.data();
  }
  args.h1_re = h1_re.data();
  args.h1_im = h1_im.data();
  args.h1_pow = h1_pow.data();
  args.relay_tx_mw = relay_tx_mw.data();
  args.g_d_amp = plane.g_d_amp.data();
  args.h2_re_tags = h2re_ptrs.data();
  args.h2_im_tags = h2im_ptrs.data();
  args.direct_re = direct_re.data();
  args.direct_im = direct_im.data();
  args.tags = ntags;
  args.drho = drho;
  args.drho2 = drho * drho;
  args.sens_mw = std::pow(10.0, cfg.tag.sensitivity_dbm / 10.0);
  args.g_up_pow = from_db(cfg.relay_uplink_gain_db);
  args.g_up_amp = db_to_amplitude(cfg.relay_uplink_gain_db);
  args.up_cap_mw = std::pow(10.0, cfg.relay_uplink_max_out_dbm / 10.0);
  args.rx_pow = from_db(cfg.reader_rx_gain_dbi);
  args.rx_amp = db_to_amplitude(cfg.reader_rx_gain_dbi);
  const double noise_dbm = watts_to_dbm(signal::thermal_noise_power(
      2.0 * cfg.blf_hz, cfg.reader_noise_figure_db));
  args.decode_floor_mw =
      std::pow(10.0, (noise_dbm + cfg.decode_snr_threshold_db) / 10.0);
  const cdouble hw = cis(cfg.relay_hardware_phase_rad);
  args.hw_re = hw.real();
  args.hw_im = hw.imag();
  args.out_re_tags = ore_ptrs.data();
  args.out_im_tags = oim_ptrs.data();
  args.readable_tags = mask_ptrs.data();
  kern.synthesize(args, 0, n);
  return out;
}

}  // namespace rfly::core
