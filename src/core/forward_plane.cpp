#include "core/forward_plane.h"

#include <cmath>

#include "common/units.h"
#include "obs/metrics.h"

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
  plane.h1.resize(n);
  plane.h1_abs_db.resize(n);
  plane.relay_tx_dbm.resize(n);
  plane.g_d_amp.resize(n);
  plane.embedded.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Exact hoists: one reader→relay channel per waypoint, fed to the
    // h1-taking bodies of the public methods the seed collect loop drives
    // — stored bits are exactly what the seed loop would have recomputed
    // at this point.
    const cdouble h1 = system.reader_relay_channel(flight[i].actual);
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

}  // namespace rfly::core
