// Complex channel synthesis from propagation paths (Eq. 7-9 of the paper)
// and application of a channel to a complex-baseband waveform.
//
// At the simulation sample rate (4 MS/s) one sample spans 75 m of
// propagation, so indoor excess path delays are deeply sub-sample; the
// channel therefore acts on a waveform as multiplication by the summed
// complex path coefficients, while the *phase* of each path keeps full
// carrier-wavelength resolution (that phase is what SAR localization uses).
#pragma once

#include <vector>

#include "channel/environment.h"
#include "channel/path_loss.h"
#include "signal/waveform.h"

namespace rfly::channel {

/// Antenna pair description for a link.
struct LinkGains {
  double tx_gain_dbi = 0.0;
  double rx_gain_dbi = 0.0;
};

/// Complex channel of a single path at carrier `f_hz`:
/// free-space coefficient x extra loss (obstructions, reflections).
cdouble path_coefficient(const Path& path, double f_hz, const LinkGains& gains = {});

/// Total channel: linear superposition over all paths (Eq. 8 inner sums).
cdouble channel_coefficient(const std::vector<Path>& paths, double f_hz,
                            const LinkGains& gains = {});

/// Channel between two points in an environment at carrier `f_hz`.
cdouble point_to_point_channel(const Environment& env, const Vec3& a, const Vec3& b,
                               double f_hz, const LinkGains& gains = {});

/// Upper bound on |point_to_point_channel(env, a, b, f_hz, gains)| at a
/// fraction of its cost: no phasor, no pow, and one obstruction test per
/// obstacle instead of two per obstacle per bounce. With
/// A = lambda/(4 pi) * 10^((tx_gain + rx_gain)/20), the bound is
///   A / max(d0, 1 cm) * prod_{k blocks a->b} 10^(-T_k/20)
///   + sum_{k bounces} A / max(d_k, 1 cm) * 10^(-R_k/20),
/// where d0, d_k and "bounces" are paths_between's own expressions and
/// tests. It holds by the triangle inequality (|sum c_p| <= sum |c_p|),
/// with the direct term exact up to rounding and each reflection term
/// dropping only the obstruction its legs may add. The per-obstacle
/// factors are computed once, at construction; the bound keeps a
/// reference to `env`, which must outlive it.
class ChannelBound {
 public:
  ChannelBound(const Environment& env, double f_hz, const LinkGains& gains = {});

  double operator()(const Vec3& a, const Vec3& b) const;

 private:
  const Environment* env_;
  double amp_;                     // A
  std::vector<double> trans_amp_;  // 10^(-T_k/20) per obstacle
  std::vector<double> refl_amp_;   // A * 10^(-R_k/20) per obstacle
};

/// Apply a channel coefficient to a waveform (out = h * in).
signal::Waveform apply_channel(const signal::Waveform& in, cdouble h);

/// Convenience: propagate a waveform from `a` to `b` through `env`.
signal::Waveform propagate(const signal::Waveform& in, const Environment& env,
                           const Vec3& a, const Vec3& b, double f_hz,
                           const LinkGains& gains = {});

}  // namespace rfly::channel
