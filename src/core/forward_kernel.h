// Forward-synthesis kernel layer: the measure-stage inner loop (paper
// Eqs. 4–10 — relay→tag propagation, tag power-up, backscatter SNR, and the
// measured channel h1²·g_d·g_u·drho·h2²·c_hw), the forward twin of the SAR
// layer in localize/sar_kernel.h.
//
// The measure plane has three pieces (see DESIGN.md "Measurement-synthesis
// plane"):
//   - ForwardPlane (forward_plane.h) hoists everything that depends only on
//     the flight: per-waypoint reader↔relay channels, capped downlink
//     drive, effective downlink gains, the embedded-tag channel.
//   - channel::batch_link_paths (channel/channel_batch.h) enumerates the
//     multipath geometry for one tag against the whole waypoint plane with
//     per-obstacle constants hoisted.
//   - the kernels below turn that geometry into distances, propagation
//     phasors, and per-(waypoint, tag) readability masks + complex target
//     channels.
//
// Unlike the SAR kernels, the forward kernels have a single scalar build:
// per-ISA builds of the same bodies measured slower than it (see
// forward_kernel.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rfly::core {

/// Measure-stage plane selector, a first-class knob on ScanMissionConfig
/// and the scenario format (`measure.plane = exact|fast`). Both modes hoist
/// the per-waypoint channels into a ForwardPlane once per flight.
///
///   - `exact` — the default: the seed's per-point expressions, evaluated
///               once per flight. Bit-identical to the seed at any thread
///               count, batch mode and fault config (pinned by the
///               `measure` suite against the seed loop and committed
///               digests).
///   - `fast`  — kernel-synthesized channels: linear-domain power math
///               over waypoints × tags. Mathematically equivalent, not
///               bit-identical.
enum class MeasurePlane : std::uint8_t {
  kExact = 0,
  kFast = 1,
};

/// "exact", "fast" (stable; used by the scenario serializer).
const char* measure_plane_name(MeasurePlane mode);

/// Parse a plane-mode name; false on anything but the two names above.
bool parse_measure_plane(const std::string& text, MeasurePlane& out);

/// The mode that replaced a removed plane-mode name — "exact" for "off"
/// and "auto" — or nullptr when `text` never named a mode. Lets parsers
/// tell the owner of an old scenario file what to write instead.
const char* measure_plane_replacement(const std::string& text);

/// Flat argument block for the kernel entry points. One struct serves all
/// three ops; each op documents the fields it reads.
struct ForwardKernelArgs {
  // Shared waypoint plane (SoA, length `count`): the flight's actual
  // relay positions.
  std::size_t count = 0;
  const double* px = nullptr;
  const double* py = nullptr;
  const double* pz = nullptr;

  // `distances` op: direct relay→target distances for waypoints
  // [begin, end), clamped below at the propagation model's 1 cm floor.
  double tx = 0.0, ty = 0.0, tz = 0.0;  // target position
  double* dist = nullptr;               // out, length count

  // `phasors` op: flat path list → complex propagation coefficients for
  // paths [begin, end): out = (amp_over_d * path_amp / d) * cis(-k * d).
  const double* path_d = nullptr;    // per-path total distances
  const double* path_amp = nullptr;  // per-path linear amplitude products
  std::size_t n_paths = 0;
  double wavenumber = 0.0;  // 2*pi*f/c; phase = -wavenumber * d
  double amp_over_d = 0.0;  // lambda/(4*pi); amplitude = amp_over_d*amp/d
  double* out_re = nullptr;  // out, length n_paths
  double* out_im = nullptr;

  // `synthesize` op: readability masks + measured target channels for
  // waypoints [begin, end) of every tag, in one pass. Per-waypoint inputs
  // come from the ForwardPlane's linear mirrors; per-tag inputs are the
  // relay→tag channels assembled by the phasor op plus the hoisted direct
  // reader→tag term hd²·drho. All power comparisons are linear-domain
  // (mW), monotone-equivalent to the scalar path's dBm comparisons.
  const double* h1_re = nullptr;        // reader→relay channel, length count
  const double* h1_im = nullptr;
  const double* h1_pow = nullptr;       // |h1|²
  const double* relay_tx_mw = nullptr;  // capped downlink drive, linear mW
  const double* g_d_amp = nullptr;      // effective downlink amplitude gain
  const double* const* h2_re_tags = nullptr;  // per-tag relay→tag channels
  const double* const* h2_im_tags = nullptr;
  const double* direct_re = nullptr;    // per-tag direct term hd²·drho
  const double* direct_im = nullptr;
  std::size_t tags = 0;
  double drho = 0.0;             // backscatter amplitude swing
  double drho2 = 0.0;            // drho² (power domain)
  double sens_mw = 0.0;          // tag sensitivity, linear mW
  double g_up_pow = 0.0;         // uplink gain, linear power
  double g_up_amp = 0.0;         // uplink gain, linear amplitude
  double up_cap_mw = 0.0;        // uplink output cap, linear mW
  double rx_pow = 0.0;           // reader rx gain, linear power
  double rx_amp = 0.0;           // reader rx gain, linear amplitude
  double decode_floor_mw = 0.0;  // noise_mw * 10^(snr_threshold/10)
  double hw_re = 0.0;            // relay hardware phase, cis(phase)
  double hw_im = 0.0;
  double* const* out_re_tags = nullptr;  // per-tag channels, length count
  double* const* out_im_tags = nullptr;
  std::uint8_t* const* readable_tags = nullptr;  // per-tag masks (0/1)
};

/// The forward kernels' entry points, under the ISA name the SAR kernel
/// table gives its unvectorized build.
struct ForwardKernelVariant {
  const char* isa = "";  // "scalar"
  bool supported = false;
  /// Direct relay→target distances for waypoints [begin, end).
  void (*distances)(const ForwardKernelArgs& args, std::size_t begin,
                    std::size_t end) = nullptr;
  /// Propagation phasors for flat paths [begin, end).
  void (*phasors)(const ForwardKernelArgs& args, std::size_t begin,
                  std::size_t end) = nullptr;
  /// Masks + target channels for waypoints [begin, end), all tags.
  void (*synthesize)(const ForwardKernelArgs& args, std::size_t begin,
                     std::size_t end) = nullptr;
};

/// The kernels compiled into this binary: one entry, "scalar", always
/// supported. A list, so that callers reporting kernel ISAs treat the
/// forward and SAR tables alike.
const std::vector<ForwardKernelVariant>& forward_kernel_variants();

/// The kernels the measure stage runs: the one entry above.
const ForwardKernelVariant& forward_kernel_active();

}  // namespace rfly::core
