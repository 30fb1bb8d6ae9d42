// Unit + property tests for indexes: results must match brute-force scans.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "index/btree_index.h"
#include "index/hash_index.h"
#include "index/inverted_index.h"
#include "index/rowset.h"
#include "index/rtree_index.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace maliva {
namespace {

TEST(RowSetTest, IntersectSorted) {
  RowIdList a{1, 3, 5, 7, 9};
  RowIdList b{3, 4, 5, 9, 10};
  EXPECT_EQ(IntersectSorted(a, b), (RowIdList{3, 5, 9}));
  EXPECT_TRUE(IntersectSorted(a, {}).empty());
}

TEST(RowSetTest, IntersectAllSmallestFirst) {
  RowIdList a{1, 2, 3, 4, 5, 6, 7, 8};
  RowIdList b{2, 4, 6, 8};
  RowIdList c{4, 8};
  RowIdList out;
  EXPECT_EQ(IntersectAll({&a, &b, &c}, &out), (RowIdList{4, 8}));
  EXPECT_EQ(&IntersectAll({&a}, &out), &a);  // nothing to intersect: no copy
  EXPECT_TRUE(IntersectAll({}, &out).empty());
}

TEST(RowSetTest, IsSortedUnique) {
  EXPECT_TRUE(IsSortedUnique({}));
  EXPECT_TRUE(IsSortedUnique({1, 2, 9}));
  EXPECT_FALSE(IsSortedUnique({1, 1}));
  EXPECT_FALSE(IsSortedUnique({2, 1}));
}

// ---------- BTreeIndex ----------

class BTreeIndexProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(BTreeIndexProperty, MatchesBruteForce) {
  size_t n = GetParam();
  Rng rng(n * 7 + 1);
  Table t("t", {{"v", ColumnType::kDouble}});
  std::vector<double> vals;
  for (size_t i = 0; i < n; ++i) {
    double v = rng.Uniform(-100.0, 100.0);
    // Inject duplicates to exercise equal-key handling.
    if (i % 5 == 0) v = std::floor(v);
    vals.push_back(v);
    t.MutableColumnAt(0).AppendDouble(v);
  }
  ASSERT_TRUE(t.Seal().ok());
  BTreeIndex idx(t, "v");

  for (int trial = 0; trial < 30; ++trial) {
    double lo = rng.Uniform(-120.0, 120.0);
    double hi = lo + rng.Uniform(0.0, 80.0);
    RowIdList got = idx.RangeScan(lo, hi);
    RowIdList expect;
    for (RowId r = 0; r < n; ++r) {
      if (vals[r] >= lo && vals[r] <= hi) expect.push_back(r);
    }
    EXPECT_EQ(got, expect);
    EXPECT_EQ(idx.RangeCount(lo, hi), expect.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BTreeIndexProperty,
                         ::testing::Values(0, 1, 2, 17, 256, 2000));

TEST(BTreeIndexTest, InclusiveBounds) {
  Table t("t", {{"v", ColumnType::kInt64}});
  for (int64_t v : {10, 20, 20, 30}) t.MutableColumnAt(0).AppendInt64(v);
  ASSERT_TRUE(t.Seal().ok());
  BTreeIndex idx(t, "v");
  EXPECT_EQ(idx.RangeCount(20, 20), 2u);
  EXPECT_EQ(idx.RangeCount(10, 30), 4u);
  EXPECT_EQ(idx.RangeCount(31, 40), 0u);
  EXPECT_EQ(idx.RangeCount(30, 10), 0u);  // inverted range
  EXPECT_DOUBLE_EQ(idx.MinKey(), 10.0);
  EXPECT_DOUBLE_EQ(idx.MaxKey(), 30.0);
}

TEST(BTreeIndexTest, ResultsSorted) {
  Rng rng(99);
  Table t("t", {{"v", ColumnType::kDouble}});
  for (int i = 0; i < 500; ++i) t.MutableColumnAt(0).AppendDouble(rng.Uniform(0, 1));
  ASSERT_TRUE(t.Seal().ok());
  BTreeIndex idx(t, "v");
  EXPECT_TRUE(IsSortedUnique(idx.RangeScan(0.2, 0.8)));
}

// ---------- RTreeIndex ----------

class RTreeIndexProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(RTreeIndexProperty, MatchesBruteForce) {
  size_t n = GetParam();
  Rng rng(n * 13 + 5);
  Table t("t", {{"p", ColumnType::kPoint}});
  std::vector<GeoPoint> pts;
  for (size_t i = 0; i < n; ++i) {
    GeoPoint p{rng.Uniform(-10, 10), rng.Uniform(-5, 5)};
    pts.push_back(p);
    t.MutableColumnAt(0).AppendPoint(p);
  }
  ASSERT_TRUE(t.Seal().ok());
  RTreeIndex idx(t, "p");
  EXPECT_EQ(idx.size(), n);

  for (int trial = 0; trial < 30; ++trial) {
    double lon = rng.Uniform(-12, 10);
    double lat = rng.Uniform(-6, 4);
    BoundingBox box{lon, lat, lon + rng.Uniform(0, 8), lat + rng.Uniform(0, 4)};
    RowIdList got = idx.Query(box);
    RowIdList expect;
    for (RowId r = 0; r < n; ++r) {
      if (box.Contains(pts[r])) expect.push_back(r);
    }
    EXPECT_EQ(got, expect);
    EXPECT_EQ(idx.Count(box), expect.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RTreeIndexProperty,
                         ::testing::Values(0, 1, 63, 64, 65, 1000, 5000));

TEST(RTreeIndexTest, BoundsCoverAll) {
  Rng rng(3);
  Table t("t", {{"p", ColumnType::kPoint}});
  for (int i = 0; i < 300; ++i) {
    t.MutableColumnAt(0).AppendPoint({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  ASSERT_TRUE(t.Seal().ok());
  RTreeIndex idx(t, "p");
  EXPECT_EQ(idx.Query(idx.Bounds()).size(), 300u);
  EXPECT_GE(idx.Height(), 2u);  // 300 points, fanout 64 -> at least 2 levels
}

TEST(RTreeIndexTest, EmptyQuery) {
  Table t("t", {{"p", ColumnType::kPoint}});
  t.MutableColumnAt(0).AppendPoint({0, 0});
  ASSERT_TRUE(t.Seal().ok());
  RTreeIndex idx(t, "p");
  EXPECT_TRUE(idx.Query({5, 5, 6, 6}).empty());
}

// ---------- RTreeIndex::Count (subtree-count shortcut) ----------

RTreeIndex PointIndex(const std::vector<GeoPoint>& pts, Table* t) {
  for (const GeoPoint& p : pts) t->MutableColumnAt(0).AppendPoint(p);
  EXPECT_TRUE(t->Seal().ok());
  return RTreeIndex(*t, "p");
}

size_t BruteCount(const std::vector<GeoPoint>& pts, const BoundingBox& box) {
  return static_cast<size_t>(std::count_if(
      pts.begin(), pts.end(), [&](const GeoPoint& p) { return box.Contains(p); }));
}

// A 100 x 100 integer lattice: 10k points, three levels, and every node box
// has integer corners, so integer query boxes land exactly on node edges and
// on points.
std::vector<GeoPoint> Lattice() {
  std::vector<GeoPoint> pts;
  for (int x = 0; x < 100; ++x) {
    for (int y = 0; y < 100; ++y) pts.push_back({double(x), double(y)});
  }
  return pts;
}

TEST(RTreeCountTest, BoxesSwallowingWholeSubtrees) {
  std::vector<GeoPoint> pts = Lattice();
  Table t("t", {{"p", ColumnType::kPoint}});
  RTreeIndex idx = PointIndex(pts, &t);
  ASSERT_EQ(idx.Height(), 3u);
  const BoundingBox boxes[] = {{-1, -1, 100, 100}, {-0.5, -0.5, 60.5, 99.5},
                               {10.5, -3, 89.5, 200},  {-50, 20.25, 150, 80.75},
                               {33.3, 33.3, 66.6, 66.6}, {0.5, 0.5, 0.6, 0.6}};
  for (const BoundingBox& box : boxes) {
    EXPECT_EQ(idx.Count(box), idx.Query(box).size());
    EXPECT_EQ(idx.Count(box), BruteCount(pts, box));
  }
}

TEST(RTreeCountTest, EdgesOnNodeBoxesAndPointsAreInclusive) {
  std::vector<GeoPoint> pts = Lattice();
  Table t("t", {{"p", ColumnType::kPoint}});
  RTreeIndex idx = PointIndex(pts, &t);
  Rng rng(11);
  for (int trial = 0; trial < 400; ++trial) {
    double x0 = static_cast<double>(rng.UniformInt(-1, 99));
    double y0 = static_cast<double>(rng.UniformInt(-1, 99));
    BoundingBox box{x0, y0, x0 + static_cast<double>(rng.UniformInt(0, 60)),
                    y0 + static_cast<double>(rng.UniformInt(0, 60))};
    EXPECT_EQ(idx.Count(box), idx.Query(box).size());
    EXPECT_EQ(idx.Count(box), BruteCount(pts, box));
  }
  EXPECT_EQ(idx.Count({7, 7, 7, 7}), 1u);    // a degenerate box on one point
  EXPECT_EQ(idx.Count({7, 0, 7, 99}), 100u);  // a zero-width column
}

TEST(RTreeCountTest, BoundsCountsEverything) {
  Rng rng(5);
  std::vector<GeoPoint> pts;
  for (int i = 0; i < 4321; ++i) pts.push_back({rng.Uniform(-180, 180), rng.Uniform(-90, 90)});
  Table t("t", {{"p", ColumnType::kPoint}});
  RTreeIndex idx = PointIndex(pts, &t);
  EXPECT_EQ(idx.Count(idx.Bounds()), idx.size());
  EXPECT_EQ(idx.Query(idx.Bounds()).size(), idx.size());
}

TEST(RTreeCountTest, EmptyTree) {
  Table t("t", {{"p", ColumnType::kPoint}});
  RTreeIndex idx = PointIndex({}, &t);
  EXPECT_EQ(idx.Count(idx.Bounds()), 0u);
  EXPECT_EQ(idx.Count({-1e300, -1e300, 1e300, 1e300}), 0u);
  EXPECT_TRUE(idx.Query(idx.Bounds()).empty());
}

TEST(RTreeCountTest, DuplicatePoints) {
  std::vector<GeoPoint> pts(500, GeoPoint{3.0, 4.0});
  for (int i = 0; i < 300; ++i) pts.push_back({double(i % 10), double(i / 10)});
  Table t("t", {{"p", ColumnType::kPoint}});
  RTreeIndex idx = PointIndex(pts, &t);
  const BoundingBox boxes[] = {{3, 4, 3, 4}, {0, 0, 9, 29}, {2.5, 3.5, 3.5, 4.5},
                               {3, 4, 9, 29}, {0, 0, 2.9, 3.9}, idx.Bounds()};
  for (const BoundingBox& box : boxes) {
    EXPECT_EQ(idx.Count(box), idx.Query(box).size());
    EXPECT_EQ(idx.Count(box), BruteCount(pts, box));
  }
  EXPECT_EQ(idx.Count({3, 4, 3, 4}), 501u);  // 500 copies + the lattice (3, 4)
}

TEST(RTreeCountTest, LeafHoldingNaNNeverTakesTheShortcut) {
  // NaN latitudes at varied longitudes, so some land mid-leaf (their leaf box
  // drops them) and the whole-tree box would otherwise claim them.
  std::vector<GeoPoint> pts = Lattice();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int i = 0; i < 40; ++i) pts.push_back({2.5 * i, nan});
  pts.push_back({nan, 50.0});
  Table t("t", {{"p", ColumnType::kPoint}});
  RTreeIndex idx = PointIndex(pts, &t);
  const BoundingBox boxes[] = {idx.Bounds(), {-1, -1, 100, 100}, {10, 10, 60, 60},
                               {0, 0, 0, 99}, {-1e300, -1e300, 1e300, 1e300}};
  for (const BoundingBox& box : boxes) {
    EXPECT_EQ(idx.Count(box), idx.Query(box).size());
    EXPECT_EQ(idx.Count(box), BruteCount(pts, box));
  }
  EXPECT_EQ(idx.Count({-1, -1, 100, 100}), 10000u);  // the NaN points match nothing
}

// ---------- InvertedIndex ----------

TEST(InvertedIndexTest, LookupMatchesTokenization) {
  Table t("t", {{"text", ColumnType::kText}});
  t.MutableColumnAt(0).AppendText("covid vaccine news");
  t.MutableColumnAt(0).AppendText("Weather today. COVID update");
  t.MutableColumnAt(0).AppendText("sports scores");
  t.MutableColumnAt(0).AppendText("covid covid covid");  // distinct once
  ASSERT_TRUE(t.Seal().ok());
  InvertedIndex idx(t, "text");
  EXPECT_EQ(idx.Lookup("covid"), (RowIdList{0, 1, 3}));
  EXPECT_EQ(idx.Lookup("COVID"), (RowIdList{0, 1, 3}));  // case-insensitive
  EXPECT_EQ(idx.DocFreq("weather"), 1u);
  EXPECT_TRUE(idx.Lookup("absent").empty());
}

TEST(InvertedIndexTest, PostingsSorted) {
  Rng rng(7);
  Table t("t", {{"text", ColumnType::kText}});
  for (int i = 0; i < 1000; ++i) {
    std::string s;
    for (int w = 0; w < 4; ++w) s += "w" + std::to_string(rng.UniformInt(0, 30)) + " ";
    t.MutableColumnAt(0).AppendText(s);
  }
  ASSERT_TRUE(t.Seal().ok());
  InvertedIndex idx(t, "text");
  for (int w = 0; w <= 30; ++w) {
    EXPECT_TRUE(IsSortedUnique(idx.Lookup("w" + std::to_string(w))));
  }
}

TEST(InvertedIndexTest, VocabularySize) {
  Table t("t", {{"text", ColumnType::kText}});
  t.MutableColumnAt(0).AppendText("a b c");
  t.MutableColumnAt(0).AppendText("b c d");
  ASSERT_TRUE(t.Seal().ok());
  InvertedIndex idx(t, "text");
  EXPECT_EQ(idx.VocabularySize(), 4u);
}

// ---------- HashIndex ----------

TEST(HashIndexTest, LookupWithDuplicates) {
  Table t("t", {{"k", ColumnType::kInt64}});
  for (int64_t v : {5, 7, 5, 9, 7, 5}) t.MutableColumnAt(0).AppendInt64(v);
  ASSERT_TRUE(t.Seal().ok());
  HashIndex idx(t, "k");
  EXPECT_EQ(idx.Lookup(5), (RowIdList{0, 2, 5}));
  EXPECT_EQ(idx.Lookup(7), (RowIdList{1, 4}));
  EXPECT_EQ(idx.Lookup(9), (RowIdList{3}));
  EXPECT_TRUE(idx.Lookup(404).empty());
  EXPECT_EQ(idx.DistinctKeys(), 3u);
}

}  // namespace
}  // namespace maliva
