// Warehouse environment model: walls and shelves as 2D segments with
// materials. Produces the set of propagation paths between two points —
// the direct path (attenuated by every obstacle it crosses) plus first-order
// specular reflections via the image-source method. This is the multipath
// structure of paper Fig. 5 / Eq. 8.
#pragma once

#include <string>
#include <vector>

#include "channel/geometry.h"

namespace rfly::channel {

/// Obstacle material; numbers are one-pass transmission loss and specular
/// reflection loss at ~915 MHz (typical published values, not tuned).
struct Material {
  std::string name;
  double transmission_loss_db = 6.0;  // loss when a path crosses the obstacle
  double reflection_loss_db = 6.0;    // loss on specular bounce
};

Material drywall();       // 3 dB through, 10 dB bounce
Material concrete();      // 12 dB through, 6 dB bounce
Material steel_shelf();   // 30 dB through (effectively blocks), 6 dB bounce (loaded shelves scatter diffusely)
Material glass();         // 2 dB through, 8 dB bounce

struct Obstacle {
  Segment2 footprint;
  Material material;
  /// Obstacle top [m]; a path whose interpolated height at the crossing
  /// point exceeds this clears the obstacle (e.g. a reader mounted high
  /// shooting over shelf rows). Walls default to effectively unbounded.
  double height_m = 1e9;
};

/// One propagation path between two points.
struct Path {
  double distance_m = 0.0;
  double extra_loss_db = 0.0;  // obstruction + reflection losses along the way
  bool is_direct = false;
};

class Environment {
 public:
  Environment() = default;

  void add_obstacle(Obstacle obstacle) { obstacles_.push_back(std::move(obstacle)); }
  const std::vector<Obstacle>& obstacles() const { return obstacles_; }

  /// All propagation paths from `a` to `b`: the direct path plus one
  /// first-order reflection per obstacle with a valid specular geometry.
  /// Positions are 3D; obstacle interaction is evaluated in plan view while
  /// distances keep the height difference.
  std::vector<Path> paths_between(const Vec3& a, const Vec3& b) const;

  /// Transmission loss accumulated by the straight segment a->b (dB).
  double obstruction_loss_db(const Vec3& a, const Vec3& b) const;

 private:
  std::vector<Obstacle> obstacles_;
};

/// Does the 3D segment a->b pass through the (vertical, height-limited)
/// obstacle? Plan-view crossing plus a height check at the crossing point;
/// numerically degenerate crossings count as blocked (conservative). This
/// is the primitive obstruction_loss_db and paths_between are built from,
/// exposed for channel::ChannelBound (channel_model.h), which folds each
/// obstacle's transmission factor into the direct term the obstacle blocks.
bool obstacle_blocks(const Obstacle& obstacle, const Vec3& a, const Vec3& b);

/// Convenience builders used by tests, examples, and benches.
Environment empty_environment();

/// Rectangular warehouse: four concrete outer walls (w x h meters, origin at
/// (0,0)) and `shelf_rows` steel shelf rows running parallel to the x axis.
Environment warehouse_environment(double width_m, double height_m, int shelf_rows);

}  // namespace rfly::channel
