// Heatmap export for visualization: portable graymap (PGM, binary P5) —
// loadable by any image viewer/matplotlib — and ASCII rendering for
// terminals. The Fig. 6 bench and examples use these.
#pragma once

#include <string>

#include "common/status.h"
#include "localize/sar.h"

namespace rfly::localize {

/// Write the heatmap as an 8-bit PGM. Values are normalized to the map's
/// maximum; row 0 of the image is the grid's y_max (image convention).
/// kInvalidArgument for an empty/inconsistent map; kIoError (naming the
/// path and the errno cause) when the file cannot be opened or the write
/// comes up short — e.g. --heatmap-out into a missing directory.
Status write_pgm_checked(const Heatmap& map, const std::string& path);

struct AsciiRenderOptions {
  /// Target width in characters; the map is subsampled to fit.
  std::size_t width = 72;
  /// Intensity ramp, dark to bright.
  std::string ramp = " .:-=+*#%@";
};

/// Render as ASCII art (rows separated by newlines, top row = y_max).
std::string render_ascii(const Heatmap& map, const AsciiRenderOptions& options = {});

}  // namespace rfly::localize
