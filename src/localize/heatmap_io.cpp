#include "localize/heatmap_io.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <vector>

namespace rfly::localize {

Status write_pgm_checked(const Heatmap& map, const std::string& path) {
  const std::size_t nx = map.grid.nx();
  const std::size_t ny = map.grid.ny();
  if (nx == 0 || ny == 0 || map.values.size() != nx * ny) {
    return {StatusCode::kInvalidArgument,
            "heatmap is empty or inconsistent (" + std::to_string(nx) + "x" +
                std::to_string(ny) + " grid, " +
                std::to_string(map.values.size()) + " values)"};
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return {StatusCode::kIoError,
            "cannot write PGM to '" + path + "': " + std::strerror(errno)};
  }
  std::fprintf(f, "P5\n%zu %zu\n255\n", nx, ny);
  const double peak = map.max_value();
  std::vector<unsigned char> row(nx);
  for (std::size_t iy = ny; iy-- > 0;) {  // top row = y_max
    for (std::size_t ix = 0; ix < nx; ++ix) {
      const double v = peak > 0.0 ? map.at(ix, iy) / peak : 0.0;
      row[ix] = static_cast<unsigned char>(std::clamp(v, 0.0, 1.0) * 255.0);
    }
    if (std::fwrite(row.data(), 1, nx, f) != nx) {
      std::fclose(f);
      return {StatusCode::kIoError, "short write to '" + path + "'"};
    }
  }
  if (std::fclose(f) != 0) {
    return {StatusCode::kIoError, "short write to '" + path + "'"};
  }
  return Status::ok();
}

std::string render_ascii(const Heatmap& map, const AsciiRenderOptions& options) {
  const std::size_t nx = map.grid.nx();
  const std::size_t ny = map.grid.ny();
  if (nx == 0 || ny == 0 || options.ramp.empty() ||
      map.values.size() != nx * ny) {
    return {};
  }
  const std::size_t step = std::max<std::size_t>(1, nx / options.width);
  const double peak = map.max_value();
  std::string out;
  for (std::size_t iy = ny; iy-- > 0;) {
    if ((ny - 1 - iy) % step != 0) continue;  // subsample rows equally
    for (std::size_t ix = 0; ix < nx; ix += step) {
      const double v = peak > 0.0 ? map.at(ix, iy) / peak : 0.0;
      const auto idx = static_cast<std::size_t>(
          std::clamp(v, 0.0, 1.0) * static_cast<double>(options.ramp.size() - 1));
      out.push_back(options.ramp[idx]);
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace rfly::localize
