#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "localize/heatmap_io.h"

namespace rfly::localize {
namespace {

Heatmap make_map() {
  Heatmap map;
  map.grid = {0.0, 1.0, 0.0, 0.5, 0.1};
  map.values.assign(map.grid.nx() * map.grid.ny(), 0.1);
  map.values[2 * map.grid.nx() + 3] = 1.0;  // one bright cell
  return map;
}

TEST(HeatmapIo, WritesValidPgm) {
  const auto map = make_map();
  const std::string path = ::testing::TempDir() + "/rfly_map.pgm";
  ASSERT_TRUE(write_pgm_checked(map, path).is_ok());

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string magic;
  std::size_t w = 0;
  std::size_t h = 0;
  int maxval = 0;
  in >> magic >> w >> h >> maxval;
  EXPECT_EQ(magic, "P5");
  EXPECT_EQ(w, map.grid.nx());
  EXPECT_EQ(h, map.grid.ny());
  EXPECT_EQ(maxval, 255);
  in.get();  // single whitespace after header
  std::vector<unsigned char> pixels(w * h);
  in.read(reinterpret_cast<char*>(pixels.data()), static_cast<long>(pixels.size()));
  ASSERT_TRUE(in.good());
  // The bright cell maps to 255; the background to ~25.
  int count255 = 0;
  for (unsigned char p : pixels) count255 += (p == 255);
  EXPECT_EQ(count255, 1);
  std::remove(path.c_str());
}

TEST(HeatmapIo, PgmRowZeroIsYMax) {
  Heatmap map;
  map.grid = {0.0, 0.2, 0.0, 0.2, 0.1};  // 3x3
  map.values.assign(9, 0.0);
  map.values[2 * 3 + 0] = 1.0;  // grid (0, y_max)
  const std::string path = ::testing::TempDir() + "/rfly_top.pgm";
  ASSERT_TRUE(write_pgm_checked(map, path).is_ok());
  std::ifstream in(path, std::ios::binary);
  std::string magic;
  std::size_t w, h;
  int maxval;
  in >> magic >> w >> h >> maxval;
  in.get();
  std::vector<unsigned char> pixels(9);
  in.read(reinterpret_cast<char*>(pixels.data()), 9);
  EXPECT_EQ(pixels[0], 255);  // first pixel of first row
  std::remove(path.c_str());
}

TEST(HeatmapIo, EmptyMapFails) {
  Heatmap empty;
  // The status says why: the map is bad, not the filesystem.
  const Status status =
      write_pgm_checked(empty, ::testing::TempDir() + "/never.pgm");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

// A --heatmap-out path into a missing/unwritable directory names the path
// and the errno cause.
TEST(HeatmapIo, UnwritableDirectoryIsTypedIoError) {
  const auto map = make_map();
  const std::string path = "/no/such/dir/rfly_map.pgm";
  const Status status = write_pgm_checked(map, path);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.to_string().find(path), std::string::npos)
      << status.to_string();
}

TEST(HeatmapIo, CheckedWriteSucceedsOnWritablePath) {
  const auto map = make_map();
  const std::string path = ::testing::TempDir() + "/rfly_checked.pgm";
  EXPECT_TRUE(write_pgm_checked(map, path).is_ok());
  std::remove(path.c_str());
}

TEST(HeatmapIo, AsciiRenderShape) {
  const auto map = make_map();
  AsciiRenderOptions opt;
  opt.width = 11;
  const std::string art = render_ascii(map, opt);
  // 6 rows of 11 + newlines.
  EXPECT_EQ(art.size(), 6u * 12u);
  // Brightest character present exactly once.
  EXPECT_EQ(std::count(art.begin(), art.end(), '@'), 1);
}

TEST(HeatmapIo, AsciiSubsamplesWideMaps) {
  Heatmap map;
  map.grid = {0.0, 10.0, 0.0, 1.0, 0.05};  // 201 wide
  map.values.assign(map.grid.nx() * map.grid.ny(), 0.5);
  AsciiRenderOptions opt;
  opt.width = 50;
  const std::string art = render_ascii(map, opt);
  const auto first_line = art.substr(0, art.find('\n'));
  EXPECT_LE(first_line.size(), 70u);
  EXPECT_GE(first_line.size(), 40u);
}

}  // namespace
}  // namespace rfly::localize
