// Fig. 11 — Read rate vs reader-tag distance: no relay, relay in
// line-of-sight, and relay through a wall (non-line-of-sight). The paper's
// headline: without the relay the read rate hits zero by 10 m; with it the
// reader keeps a 100% read rate past 50 m LoS and ~75% at 55 m NLoS.
#include <cstdio>

#include "bench_util.h"
#include "core/experiments.h"

using namespace rfly;
using namespace rfly::core;

int main() {
  bench::header("Fig. 11", "read rate vs distance (no relay / relay LoS / relay NLoS)");

  ReadRateConfig los;
  ReadRateConfig nlos;
  nlos.through_wall = true;

  std::printf("  distance_m   no_relay_%%   relay_LoS_%%   relay_NLoS_%%\n");
  double crossover_no_relay = 0.0;
  double relay_at_50 = 0.0;
  double nlos_at_55 = 0.0;
  for (double d : {1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 15.0, 20.0, 30.0, 40.0, 50.0, 55.0, 60.0}) {
    const auto p_los =
        try_run_read_rate_point(los, d, 100 + static_cast<std::uint64_t>(d));
    const auto p_nlos =
        try_run_read_rate_point(nlos, d, 200 + static_cast<std::uint64_t>(d));
    if (!p_los || !p_nlos) {
      const Status& why = (!p_los ? p_los : p_nlos).status();
      std::fprintf(stderr, "%s\n", why.to_string().c_str());
      return 1;
    }
    std::printf("  %10.0f   %10.0f   %11.0f   %12.0f\n", d,
                100.0 * p_los->read_rate_no_relay, 100.0 * p_los->read_rate_with_relay,
                100.0 * p_nlos->read_rate_with_relay);
    if (p_los->read_rate_no_relay < 0.05 && crossover_no_relay == 0.0) {
      crossover_no_relay = d;
    }
    if (d == 50.0) relay_at_50 = p_los->read_rate_with_relay;
    if (d == 55.0) nlos_at_55 = p_nlos->read_rate_with_relay;
  }

  std::printf("\n");
  bench::paper_vs_ours("no-relay read rate reaches 0 by [m]", "10",
                       crossover_no_relay, "m");
  bench::paper_vs_ours("relay LoS read rate at 50 m [%]", "100",
                       100.0 * relay_at_50, "%");
  bench::paper_vs_ours("relay NLoS read rate at 55 m [%]", "75",
                       100.0 * nlos_at_55, "%");
  return 0;
}
