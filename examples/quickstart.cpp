// Quickstart: the smallest end-to-end RFly run.
//
// A reader sits at the door of a room; a tag is 30 m away — far beyond
// direct read range. A drone carrying the relay flies a 2 m pass near the
// tag. We (1) check the link budget, (2) collect through-relay channel
// measurements along the flight, and (3) localize the tag with the SAR
// matched filter, picking the peak nearest the flight path.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart
#include <cstdio>

#include "core/system.h"
#include "drone/flight.h"
#include "drone/trajectory.h"
#include "localize/localizer.h"

using namespace rfly;
using namespace rfly::core;

int main() {
  // --- 1. The world: empty floor, reader at the origin, tag 30 m out. ---
  SystemConfig config;
  channel::Environment environment;  // free space (add walls for NLoS)
  const Vec3 reader_position{0.0, 0.0, 1.0};
  const Vec3 tag_position{30.0, 4.0, 0.0};
  RflySystem system(config, environment, reader_position);

  std::printf("RFly quickstart\n===============\n");
  std::printf("reader at (0, 0); tag at (%.0f, %.0f)\n", tag_position.x,
              tag_position.y);

  // Without the relay the tag is far out of range:
  std::printf("direct incident power at tag: %.1f dBm (needs >= %.0f dBm)\n",
              system.direct_tag_incident_power_dbm(tag_position),
              config.tag.sensitivity_dbm);

  // --- 2. Fly the relay past the tag and collect measurements. ---
  const auto plan = drone::linear_trajectory({29.0, 6.0, 1.2}, {31.0, 6.15, 1.2}, 40);
  Rng rng(7);
  const auto flight =
      drone::fly(plan, drone::FlightConfig{}, drone::optitrack_tracking(), rng);

  std::printf("relay incident power at tag (mid-flight): %.1f dBm -> powered\n",
              system.tag_incident_power_dbm(flight[20].actual, tag_position));

  const auto measurements =
      system.try_collect_measurements(flight, tag_position, rng);
  if (!measurements) {
    std::printf("collection failed: %s\n",
                measurements.status().to_string().c_str());
    return 1;
  }
  std::printf("collected %zu channel measurements along a %.1f m aperture\n",
              measurements->size(), drone::trajectory_length(plan));

  // --- 3. Localize: disentangle the half-links, SAR matched filter. ---
  // The SAR search runs the fast SIMD kernel here (config.kernel); the
  // default is the exact libm loop, bit-identical to the original
  // implementation. `fast` picks the widest ISA this CPU supports at
  // runtime and typically localizes an order of magnitude faster.
  localize::LocalizerConfig loc;
  loc.freq_hz = config.carrier_hz + config.freq_shift_hz;
  loc.grid = {27.0, 33.0, 1.0, 5.5, 0.01};
  loc.kernel = localize::SarKernel::kFast;
  std::printf("SAR kernel: fast (%s)\n", localize::sar_kernel_active().isa);
  const auto result = localize::localize_2d_checked(*measurements, loc);
  if (!result) {
    std::printf("localization failed: %s\n", result.status().to_string().c_str());
    return 1;
  }

  const double error =
      std::hypot(result->x - tag_position.x, result->y - tag_position.y);
  std::printf("estimated tag position: (%.2f, %.2f)\n", result->x, result->y);
  std::printf("true tag position:      (%.2f, %.2f)\n", tag_position.x,
              tag_position.y);
  std::printf("localization error:     %.1f cm\n", 100.0 * error);
  return 0;
}
