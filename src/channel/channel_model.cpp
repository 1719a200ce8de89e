#include "channel/channel_model.h"

#include <algorithm>
#include <cmath>

#include "common/constants.h"
#include "common/units.h"

namespace rfly::channel {

cdouble path_coefficient(const Path& path, double f_hz, const LinkGains& gains) {
  const cdouble base = propagation_coefficient(path.distance_m, f_hz);
  const double gain_db = gains.tx_gain_dbi + gains.rx_gain_dbi - path.extra_loss_db;
  return base * db_to_amplitude(gain_db);
}

cdouble channel_coefficient(const std::vector<Path>& paths, double f_hz,
                            const LinkGains& gains) {
  cdouble h{0.0, 0.0};
  for (const auto& p : paths) h += path_coefficient(p, f_hz, gains);
  return h;
}

cdouble point_to_point_channel(const Environment& env, const Vec3& a, const Vec3& b,
                               double f_hz, const LinkGains& gains) {
  return channel_coefficient(env.paths_between(a, b), f_hz, gains);
}

namespace {
/// Near-field floor of propagation_coefficient (path_loss.cpp).
constexpr double kMinDistanceM = 0.01;
}  // namespace

ChannelBound::ChannelBound(const Environment& env, double f_hz,
                           const LinkGains& gains)
    : env_(&env),
      amp_(wavelength(f_hz) / (4.0 * kPi) *
           db_to_amplitude(gains.tx_gain_dbi + gains.rx_gain_dbi)) {
  for (const auto& obstacle : env.obstacles()) {
    trans_amp_.push_back(db_to_amplitude(-obstacle.material.transmission_loss_db));
    refl_amp_.push_back(amp_ *
                        db_to_amplitude(-obstacle.material.reflection_loss_db));
  }
}

double ChannelBound::operator()(const Vec3& a, const Vec3& b) const {
  const auto& obstacles = env_->obstacles();
  const double dz = a.z - b.z;
  const Vec2 a2 = xy(a);
  const Vec2 b2 = xy(b);
  const double planar = distance2(a2, b2);
  double direct =
      amp_ / std::max(std::sqrt(planar * planar + dz * dz), kMinDistanceM);
  double reflected = 0.0;
  for (std::size_t k = 0; k < obstacles.size(); ++k) {
    const auto& reflector = obstacles[k];
    if (obstacle_blocks(reflector, a, b)) direct *= trans_amp_[k];
    const Vec2 image = reflect_across(a2, reflector.footprint);
    if (!segment_line_intersection(image, b2, reflector.footprint)) continue;
    const double planar_k = distance2(image, b2);
    if (planar_k < 1e-6) continue;
    reflected += refl_amp_[k] / std::max(std::sqrt(planar_k * planar_k + dz * dz),
                                         kMinDistanceM);
  }
  return direct + reflected;
}

signal::Waveform apply_channel(const signal::Waveform& in, cdouble h) {
  signal::Waveform out = in;
  out.scale(h);
  return out;
}

signal::Waveform propagate(const signal::Waveform& in, const Environment& env,
                           const Vec3& a, const Vec3& b, double f_hz,
                           const LinkGains& gains) {
  return apply_channel(in, point_to_point_channel(env, a, b, f_hz, gains));
}

}  // namespace rfly::channel
