#include "common/vec.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace brickx {
namespace {

TEST(Vec, ArithmeticAndProd) {
  Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_EQ((a + b), (Vec3{5, 7, 9}));
  EXPECT_EQ((b - a), (Vec3{3, 3, 3}));
  EXPECT_EQ((a * b), (Vec3{4, 10, 18}));
  EXPECT_EQ((a * 2), (Vec3{2, 4, 6}));
  EXPECT_EQ((b / a), (Vec3{4, 2, 2}));
  EXPECT_EQ(a.prod(), 6);
  EXPECT_EQ(Vec3::fill(4), (Vec3{4, 4, 4}));
}

TEST(Vec, LinearizeAxis0Fastest) {
  const Vec3 ext{4, 3, 2};
  EXPECT_EQ(linearize(Vec3{0, 0, 0}, ext), 0);
  EXPECT_EQ(linearize(Vec3{1, 0, 0}, ext), 1);
  EXPECT_EQ(linearize(Vec3{0, 1, 0}, ext), 4);
  EXPECT_EQ(linearize(Vec3{0, 0, 1}, ext), 12);
  EXPECT_EQ(linearize(Vec3{3, 2, 1}, ext), 23);
}

TEST(Vec, DelinearizeIsInverse) {
  const Vec3 ext{5, 7, 3};
  for (std::int64_t i = 0; i < ext.prod(); ++i) {
    EXPECT_EQ(linearize(delinearize(i, ext), ext), i);
  }
}

TEST(Box, VolumeAndContains) {
  Box<3> b{{1, 1, 1}, {4, 3, 2}};
  EXPECT_EQ(b.volume(), 3 * 2 * 1);
  EXPECT_TRUE(b.contains(Vec3{1, 1, 1}));
  EXPECT_TRUE(b.contains(Vec3{3, 2, 1}));
  EXPECT_FALSE(b.contains(Vec3{4, 1, 1}));
  EXPECT_FALSE(b.contains(Vec3{0, 1, 1}));
}

TEST(Box, EmptyWhenDegenerate) {
  Box<2> b{{3, 0}, {3, 5}};
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.volume(), 0);
  int visits = 0;
  for_each(b, [&](const Vec2&) { ++visits; });
  EXPECT_EQ(visits, 0);
}

TEST(Box, InvertedExtentsClampToZeroVolume) {
  Box<2> b{{5, 5}, {2, 8}};
  EXPECT_EQ(b.volume(), 0);
}

TEST(Box, ForEachVisitsLexicographically) {
  Box<2> b{{1, 2}, {3, 4}};
  std::vector<Vec2> order;
  for_each(b, [&](const Vec2& p) { order.push_back(p); });
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], (Vec2{1, 2}));
  EXPECT_EQ(order[1], (Vec2{2, 2}));  // axis 0 fastest
  EXPECT_EQ(order[2], (Vec2{1, 3}));
  EXPECT_EQ(order[3], (Vec2{2, 3}));
}

TEST(Box, ForEachCoversExactlyOnce) {
  Box<3> b{{0, 1, 2}, {3, 4, 5}};
  std::set<std::int64_t> seen;
  for_each(b, [&](const Vec3& p) {
    EXPECT_TRUE(b.contains(p));
    EXPECT_TRUE(seen.insert(linearize(p, Vec3{16, 16, 16})).second);
  });
  EXPECT_EQ(static_cast<std::int64_t>(seen.size()), b.volume());
}

// Expand for_each_row's rows into cells; they must be exactly for_each's
// cells in for_each's order, with every row spanning the box's axis 0.
template <int D>
void expect_rows_match_cells(const Box<D>& b) {
  std::vector<Vec<D>> cells, from_rows;
  for_each(b, [&](const Vec<D>& p) { cells.push_back(p); });
  std::int64_t rows = 0;
  for_each_row(b, [&](const Vec<D>& lo, std::int64_t n) {
    ++rows;
    EXPECT_EQ(lo[0], b.lo[0]);
    EXPECT_EQ(n, b.hi[0] - b.lo[0]);
    Vec<D> p = lo;
    for (std::int64_t i = 0; i < n; ++i, ++p[0]) from_rows.push_back(p);
  });
  EXPECT_EQ(from_rows, cells);
  const std::int64_t len = b.hi[0] - b.lo[0];
  EXPECT_EQ(rows, b.empty() ? 0 : b.volume() / len);
}

TEST(Box, ForEachRowMatchesForEach) {
  expect_rows_match_cells(Box<1>{{-3}, {5}});
  expect_rows_match_cells(Box<1>{{2}, {3}});
  expect_rows_match_cells(Box<2>{{1, 2}, {3, 4}});
  expect_rows_match_cells(Box<2>{{-4, -1}, {5, 3}});
  expect_rows_match_cells(Box<3>{{0, 1, 2}, {3, 4, 5}});
  expect_rows_match_cells(Box<3>{{-2, -3, -1}, {1, 2, 3}});
  expect_rows_match_cells(Box<4>{{-1, 0, -2, 1}, {3, 2, 1, 4}});
}

TEST(Box, ForEachRowOneWideBoxes) {
  expect_rows_match_cells(Box<3>{{4, 0, 0}, {5, 3, 2}});  // 1-wide axis 0
  expect_rows_match_cells(Box<3>{{0, 4, 0}, {3, 5, 2}});  // 1-wide axis 1
  expect_rows_match_cells(Box<3>{{0, 0, 4}, {3, 2, 5}});  // 1-wide axis 2
  expect_rows_match_cells(Box<4>{{7, 7, 7, 7}, {8, 8, 8, 8}});  // one cell
}

TEST(Box, ForEachRowSkipsEmptyBoxes) {
  int rows = 0;
  const auto count = [&](const auto&, std::int64_t) { ++rows; };
  for_each_row(Box<1>{{3}, {3}}, count);
  for_each_row(Box<2>{{3, 0}, {3, 5}}, count);       // empty axis 0
  for_each_row(Box<3>{{0, 0, 2}, {4, 4, 2}}, count);  // empty last axis
  for_each_row(Box<4>{{0, 5, 0, 0}, {2, 2, 2, 2}}, count);  // inverted
  EXPECT_EQ(rows, 0);
  expect_rows_match_cells(Box<3>{{0, 0, 2}, {4, 4, 2}});
}

}  // namespace
}  // namespace brickx
