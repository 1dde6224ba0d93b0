#include "util/heatmap.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

namespace autoncs::util {
namespace {

TEST(Field2D, ConstructionAndAccess) {
  Field2D f(3, 4, 1.5);
  EXPECT_EQ(f.rows(), 3u);
  EXPECT_EQ(f.cols(), 4u);
  EXPECT_DOUBLE_EQ(f.at(0, 0), 1.5);
  f.at(2, 3) = 7.0;
  EXPECT_DOUBLE_EQ(f.at(2, 3), 7.0);
}

TEST(Field2D, SumAndMax) {
  Field2D f(2, 2);
  f.at(0, 0) = 1.0;
  f.at(1, 1) = 3.0;
  EXPECT_DOUBLE_EQ(f.sum(), 4.0);
  EXPECT_DOUBLE_EQ(f.max_value(), 3.0);
}

TEST(Field2D, SplatClampsOutOfRange) {
  Field2D f(2, 2);
  f.splat(10, 10, 2.0);  // clamps to (1, 1)
  EXPECT_DOUBLE_EQ(f.at(1, 1), 2.0);
}

TEST(Field2D, SplatAccumulates) {
  Field2D f(2, 2);
  f.splat(0, 0, 1.0);
  f.splat(0, 0, 2.0);
  EXPECT_DOUBLE_EQ(f.at(0, 0), 3.0);
}

TEST(RenderAscii, EmptyField) {
  EXPECT_EQ(render_ascii(Field2D()), "(empty)\n");
}

TEST(RenderAscii, SizeBounds) {
  Field2D f(100, 200, 1.0);
  const std::string art = render_ascii(f, 10, 20);
  // 10 content rows + 2 border rows, each line 20 + 2 border + newline.
  std::size_t lines = 0;
  for (char c : art)
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, 12u);
}

TEST(RenderAscii, PeakCellRendersDarkest) {
  Field2D f(1, 3);
  f.at(0, 0) = 0.0;
  f.at(0, 2) = 10.0;
  const std::string art = render_ascii(f, 1, 3);
  // Middle line is "|...|": first cell blank, last cell '@'.
  const auto line_start = art.find("\n|") + 1;
  EXPECT_EQ(art[line_start + 1], ' ');
  EXPECT_EQ(art[line_start + 3], '@');
}

TEST(RenderAscii, UniformZeroFieldAllBlank) {
  Field2D f(4, 4, 0.0);
  const std::string art = render_ascii(f, 4, 4);
  EXPECT_EQ(art.find('@'), std::string::npos);
  EXPECT_EQ(art.find('#'), std::string::npos);
}

TEST(WritePgm, ProducesValidHeaderAndSize) {
  Field2D f(3, 5, 0.5);
  f.at(1, 2) = 1.0;
  const std::string path = std::string(::testing::TempDir()) + "/field.pgm";
  ASSERT_TRUE(write_pgm(f, path));
  std::ifstream in(path, std::ios::binary);
  std::string magic;
  in >> magic;
  int w = 0;
  int h = 0;
  int maxval = 0;
  in >> w >> h >> maxval;
  EXPECT_EQ(magic, "P5");
  EXPECT_EQ(w, 5);
  EXPECT_EQ(h, 3);
  EXPECT_EQ(maxval, 255);
  in.get();  // single whitespace after header
  std::ostringstream rest;
  rest << in.rdbuf();
  const std::string pixels = rest.str();
  EXPECT_EQ(pixels.size(), 15u);
}

TEST(WritePgm, BadPathFails) {
  EXPECT_FALSE(write_pgm(Field2D(2, 2), "/nonexistent_dir_xyz/field.pgm"));
}

TEST(FieldFromBitmap, ConvertsBits) {
  std::vector<std::vector<bool>> bits = {{true, false}, {false, true}};
  const Field2D f = field_from_bitmap(bits);
  EXPECT_DOUBLE_EQ(f.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(f.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(f.at(1, 1), 1.0);
}

TEST(FieldFromBitmap, EmptyBitmap) {
  const Field2D f = field_from_bitmap({});
  EXPECT_EQ(f.rows(), 0u);
}

}  // namespace
}  // namespace autoncs::util
