// Peak extraction and multipath rejection (paper Section 5.2). Multipath
// "ghost" peaks always correspond to longer propagation than the direct
// path, so they appear *further from the trajectory* than the true tag.
// RFly therefore picks, among the strong peaks, the one nearest the drone's
// trajectory rather than the globally highest.
//
// A 1D aperture resolves the along-track direction sharply but the radial
// direction only through wavefront curvature, so P(x, y) exhibits a long
// low-contrast ridge toward/away from the trajectory. Naive local-maxima
// detection turns ridge ripples into bogus candidates that sit closer to
// the trajectory than the true tag. We therefore require candidates to have
// topographic *prominence*: a genuine (direct or multipath) return is
// separated from other peaks by deep nulls, while ridge ripples are not.
#pragma once

#include <vector>

#include "drone/trajectory.h"
#include "localize/sar.h"

namespace rfly::localize {

struct Peak {
  double x = 0.0;
  double y = 0.0;
  double value = 0.0;
  /// Topographic prominence: height above the highest saddle connecting
  /// this peak to any higher peak (equals `value` for the global maximum).
  double prominence = 0.0;
  double distance_to_trajectory = 0.0;
};

/// Candidate peaks: local maxima with value >= threshold_fraction * max and
/// prominence >= prominence_fraction * the peak's own value (i.e. the peak
/// must rise well above the saddle connecting it to stronger structure),
/// sorted by value descending. Prominence comes from a descending watershed
/// (union-find) sweep over the 8-connected grid.
///
/// The sweep activates cells in (value descending, row-major index
/// ascending) order, building that order lazily from value buckets, and
/// stops as soon as no reported figure can change (see DESIGN.md, "Peak
/// extraction"). Tie rule: the lower index goes first. Two adjacent equal
/// maxima report the lower index, a plateau reports its first cell, equal
/// summits that meet at a saddle keep the one found first in (dy, dx)
/// neighbour order, and equal-valued peaks are listed by ascending index.
/// On a map without two equal values the answer is that of a full sort.
/// A threshold_fraction above 1 returns no peaks.
std::vector<Peak> find_peaks(const Heatmap& map, double threshold_fraction = 0.5,
                             double prominence_fraction = 0.4);

enum class PeakSelection {
  kHighest,             // classical SAR: take the global maximum
  kNearestToTrajectory  // RFly: earliest-path peak
};

/// Fill each peak's distance to the flight polyline.
void annotate_distances(std::vector<Peak>& peaks,
                        const std::vector<channel::Vec3>& trajectory);

/// Pick the localization answer from the candidate peaks.
/// Returns the selected peak; empty candidate list yields a zero peak.
Peak select_peak(std::vector<Peak> candidates, PeakSelection strategy,
                 const std::vector<channel::Vec3>& trajectory);

}  // namespace rfly::localize
