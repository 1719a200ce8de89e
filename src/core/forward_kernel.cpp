// The forward-synthesis kernels: one scalar build with auto-vectorization
// disabled. Measured against per-ISA builds of the same bodies (sse2, avx2,
// avx512), it was the fastest: 507 ms against 744 ms for the dispatched
// AVX-512 variant on 2000 tags x 420 waypoints (EXPERIMENTS.md, "Retired
// throughput benches").
//
// This translation unit is compiled with -fno-math-errno (so sqrt lowers to
// the hardware instruction) and -ffp-contract=fast; see
// src/core/CMakeLists.txt. Neither flag touches system.cpp or
// forward_plane.cpp, whose exact paths must stay bit-identical to the seed.
#include "core/forward_kernel.h"

#include "common/simd.h"

namespace rfly::core {

const char* measure_plane_name(MeasurePlane mode) {
  switch (mode) {
    case MeasurePlane::kExact:
      return "exact";
    case MeasurePlane::kFast:
      return "fast";
  }
  return "exact";
}

bool parse_measure_plane(const std::string& text, MeasurePlane& out) {
  if (text == "exact") return out = MeasurePlane::kExact, true;
  if (text == "fast") return out = MeasurePlane::kFast, true;
  return false;
}

const char* measure_plane_replacement(const std::string& text) {
  return text == "off" || text == "auto" ? "exact" : nullptr;
}

// --- Kernel bodies ---------------------------------------------------------

namespace {

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC push_options
#pragma GCC optimize("no-tree-vectorize", "no-tree-slp-vectorize")
#endif

/// Distance floor mirroring channel::propagation_coefficient's 1 cm clamp
/// (path_loss.cpp): the near-field blowup guard must match the scalar
/// model's.
constexpr double kMinDistanceM = 0.01;

/// Direct relay→target distances for waypoints [begin, end).
void distances(const ForwardKernelArgs& args, std::size_t begin,
               std::size_t end) {
  const double tx = args.tx;
  const double ty = args.ty;
  const double tz = args.tz;
  for (std::size_t i = begin; i < end; ++i) {
    const double dx = args.px[i] - tx;
    const double dy = args.py[i] - ty;
    const double dz = args.pz[i] - tz;
    const double d = __builtin_sqrt(dx * dx + dy * dy + dz * dz);
    args.dist[i] = d < kMinDistanceM ? kMinDistanceM : d;
  }
}

/// Propagation phasors for flat paths [begin, end):
///   out = (amp_over_d * amp / d) * cis(-wavenumber * d)
/// i.e. free-space amplitude lambda/(4*pi*d) times the path's hoisted
/// linear gain/loss product, at phase -2*pi*d/lambda. cos is even and sin
/// odd, so the negative phase is applied by negating the imaginary part.
void phasors(const ForwardKernelArgs& args, std::size_t begin,
             std::size_t end) {
  const double k = args.wavenumber;
  const double scale = args.amp_over_d;
  for (std::size_t i = begin; i < end; ++i) {
    const double d = args.path_d[i];
    const double a = scale * args.path_amp[i] / d;
    double s, c;
    simd::sincos_core(k * d, s, c);
    args.out_re[i] = a * c;
    args.out_im[i] = -a * s;
  }
}

/// Readability masks + measured target channels for waypoints [begin, end)
/// of every tag, in one pass. Linear-domain mirror of the scalar chain in
/// core/system.cpp (tag_incident_power_dbm → reply_snr_db →
/// measured_target_channel), with every per-waypoint operand precomputed in
/// the ForwardPlane and every config constant folded into linear form:
///
///   incident_mw = relay_tx_mw * |h2|²                 (tag power-up)
///   uplink_out_mw = incident_mw * drho² * |h2|² * g_up_pow
///   relay_out_mw = min(uplink_out_mw, up_cap_mw)      (output cap)
///   at_reader_mw = relay_out_mw * |h1|² * rx_pow
///   readable = incident_mw >= sens_mw && at_reader_mw >= decode_floor_mw
///   g_u = g_up_amp * (capped ? sqrt(up_cap_mw / uplink_out_mw) : 1)
///   h = h1² * h2² * hw * (g_d_amp * g_u * drho * rx_amp) + hd²·drho
void synthesize(const ForwardKernelArgs& args, std::size_t begin,
                std::size_t end) {
  const double drho = args.drho;
  const double drho2 = args.drho2;
  const double sens_mw = args.sens_mw;
  const double g_up_pow = args.g_up_pow;
  const double g_up_amp = args.g_up_amp;
  const double up_cap_mw = args.up_cap_mw;
  const double rx_pow = args.rx_pow;
  const double rx_amp = args.rx_amp;
  const double floor_mw = args.decode_floor_mw;
  const double hw_re = args.hw_re;
  const double hw_im = args.hw_im;
  for (std::size_t t = 0; t < args.tags; ++t) {
    const double* h2re = args.h2_re_tags[t];
    const double* h2im = args.h2_im_tags[t];
    const double dre = args.direct_re[t];
    const double dim = args.direct_im[t];
    double* ore = args.out_re_tags[t];
    double* oim = args.out_im_tags[t];
    std::uint8_t* mask = args.readable_tags[t];
    for (std::size_t i = begin; i < end; ++i) {
      const double h2r = h2re[i];
      const double h2i = h2im[i];
      const double a2 = h2r * h2r + h2i * h2i;
      const double incident_mw = args.relay_tx_mw[i] * a2;
      const double uplink_out_mw = incident_mw * drho2 * a2 * g_up_pow;
      const bool capped = uplink_out_mw > up_cap_mw;
      const double relay_out_mw = capped ? up_cap_mw : uplink_out_mw;
      const double at_reader_mw = relay_out_mw * args.h1_pow[i] * rx_pow;
      mask[i] = static_cast<std::uint8_t>(incident_mw >= sens_mw &&
                                          at_reader_mw >= floor_mw);
      const double g_u =
          capped ? g_up_amp * __builtin_sqrt(up_cap_mw / uplink_out_mw)
                 : g_up_amp;
      const double gain = args.g_d_amp[i] * g_u * drho * rx_amp;
      const double h1r = args.h1_re[i];
      const double h1i = args.h1_im[i];
      const double h1sq_re = h1r * h1r - h1i * h1i;
      const double h1sq_im = 2.0 * h1r * h1i;
      const double h2sq_re = h2r * h2r - h2i * h2i;
      const double h2sq_im = 2.0 * h2r * h2i;
      const double pr = h1sq_re * h2sq_re - h1sq_im * h2sq_im;
      const double pi = h1sq_re * h2sq_im + h1sq_im * h2sq_re;
      ore[i] = (pr * hw_re - pi * hw_im) * gain + dre;
      oim[i] = (pr * hw_im + pi * hw_re) * gain + dim;
    }
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC pop_options
#endif

}  // namespace

const std::vector<ForwardKernelVariant>& forward_kernel_variants() {
  static const std::vector<ForwardKernelVariant> variants{
      {"scalar", true, &distances, &phasors, &synthesize}};
  return variants;
}

const ForwardKernelVariant& forward_kernel_active() {
  return forward_kernel_variants().front();
}

}  // namespace rfly::core
