// Unit tests for storage: Column, Table, sampling.

#include <gtest/gtest.h>

#include "storage/table.h"
#include "util/rng.h"

namespace maliva {
namespace {

Schema TestSchema() {
  return {{"id", ColumnType::kInt64},
          {"price", ColumnType::kDouble},
          {"ts", ColumnType::kTimestamp},
          {"loc", ColumnType::kPoint},
          {"text", ColumnType::kText}};
}

std::unique_ptr<Table> MakeTable(size_t rows) {
  auto t = std::make_unique<Table>("t", TestSchema());
  for (size_t i = 0; i < rows; ++i) {
    t->MutableColumnAt(0).AppendInt64(static_cast<int64_t>(i));
    t->MutableColumnAt(1).AppendDouble(static_cast<double>(i) * 1.5);
    t->MutableColumnAt(2).AppendTimestamp(1000 + static_cast<int64_t>(i));
    t->MutableColumnAt(3).AppendPoint({static_cast<double>(i), -static_cast<double>(i)});
    t->MutableColumnAt(4).AppendText("row " + std::to_string(i));
  }
  EXPECT_TRUE(t->Seal().ok());
  return t;
}

TEST(ColumnTest, TypedAppendAndRead) {
  Column c("x", ColumnType::kInt64);
  c.AppendInt64(5);
  c.AppendInt64(-3);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.Int64At(0), 5);
  EXPECT_EQ(c.Int64At(1), -3);
}

TEST(ColumnTest, NumericAtWidens) {
  Column i("i", ColumnType::kInt64);
  i.AppendInt64(7);
  EXPECT_DOUBLE_EQ(i.NumericAt(0), 7.0);
  Column d("d", ColumnType::kDouble);
  d.AppendDouble(2.5);
  EXPECT_DOUBLE_EQ(d.NumericAt(0), 2.5);
  Column ts("ts", ColumnType::kTimestamp);
  ts.AppendTimestamp(123);
  EXPECT_DOUBLE_EQ(ts.NumericAt(0), 123.0);
}

TEST(ColumnTest, PointAndText) {
  Column p("p", ColumnType::kPoint);
  p.AppendPoint({1.0, 2.0});
  EXPECT_EQ(p.PointAt(0), (GeoPoint{1.0, 2.0}));
  Column t("t", ColumnType::kText);
  t.AppendText("hello");
  EXPECT_EQ(t.TextAt(0), "hello");
}

TEST(TableTest, SchemaAndColumnLookup) {
  auto t = MakeTable(10);
  EXPECT_EQ(t->NumRows(), 10u);
  EXPECT_EQ(t->NumColumns(), 5u);
  Result<size_t> idx = t->ColumnIndex("price");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx.value(), 1u);
  EXPECT_FALSE(t->ColumnIndex("nope").ok());
  EXPECT_EQ(t->GetColumn("ts").type(), ColumnType::kTimestamp);
}

TEST(TableTest, SealRejectsRagged) {
  Table t("t", {{"a", ColumnType::kInt64}, {"b", ColumnType::kInt64}});
  t.MutableColumnAt(0).AppendInt64(1);
  EXPECT_FALSE(t.Seal().ok());
}

TEST(TableTest, SealEmptyOk) {
  Table t("t", TestSchema());
  EXPECT_TRUE(t.Seal().ok());
  EXPECT_EQ(t.NumRows(), 0u);
}

TEST(TableSampleTest, ApproximatesFraction) {
  auto t = MakeTable(10000);
  Rng rng(1);
  auto s = t->Sample(0.2, &rng, "t#s");
  double frac = static_cast<double>(s->NumRows()) / 10000.0;
  EXPECT_NEAR(frac, 0.2, 0.02);
  EXPECT_EQ(s->name(), "t#s");
  EXPECT_EQ(s->NumColumns(), t->NumColumns());
}

TEST(TableSampleTest, PreservesRowValues) {
  auto t = MakeTable(1000);
  Rng rng(2);
  auto s = t->Sample(0.5, &rng, "t#s");
  // Every sampled row must be a faithful copy: id and price stay consistent.
  const Column& ids = s->GetColumn("id");
  const Column& prices = s->GetColumn("price");
  for (RowId r = 0; r < s->NumRows(); ++r) {
    EXPECT_DOUBLE_EQ(prices.DoubleAt(r), static_cast<double>(ids.Int64At(r)) * 1.5);
  }
}

TEST(TableSampleTest, DeterministicPerSeed) {
  auto t = MakeTable(1000);
  Rng rng1(3), rng2(3);
  auto s1 = t->Sample(0.3, &rng1, "a");
  auto s2 = t->Sample(0.3, &rng2, "b");
  ASSERT_EQ(s1->NumRows(), s2->NumRows());
  for (RowId r = 0; r < s1->NumRows(); ++r) {
    EXPECT_EQ(s1->GetColumn("id").Int64At(r), s2->GetColumn("id").Int64At(r));
  }
}

TEST(BoundingBoxTest, ContainsAndIntersects) {
  BoundingBox a{0, 0, 10, 10};
  EXPECT_TRUE(a.Contains({5, 5}));
  EXPECT_TRUE(a.Contains({0, 0}));    // inclusive
  EXPECT_TRUE(a.Contains({10, 10}));  // inclusive
  EXPECT_FALSE(a.Contains({10.01, 5}));
  BoundingBox b{9, 9, 20, 20};
  BoundingBox c{11, 11, 20, 20};
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(c));
}

TEST(BoundingBoxTest, UnionExtendArea) {
  BoundingBox a{0, 0, 1, 1};
  BoundingBox u = a.Union({2, 2, 3, 3});
  EXPECT_DOUBLE_EQ(u.max_lon, 3);
  EXPECT_DOUBLE_EQ(u.min_lat, 0);
  BoundingBox e = a.Extend({-1, 0.5});
  EXPECT_DOUBLE_EQ(e.min_lon, -1);
  EXPECT_DOUBLE_EQ(a.Area(), 1.0);
}

TEST(NumericRangeTest, ContainsInclusive) {
  NumericRange r{1.0, 2.0};
  EXPECT_TRUE(r.Contains(1.0));
  EXPECT_TRUE(r.Contains(2.0));
  EXPECT_FALSE(r.Contains(2.0001));
  EXPECT_DOUBLE_EQ(r.Length(), 1.0);
}

TEST(ColumnTypeTest, Names) {
  EXPECT_STREQ(ColumnTypeName(ColumnType::kInt64), "int64");
  EXPECT_STREQ(ColumnTypeName(ColumnType::kText), "text");
  EXPECT_STREQ(ColumnTypeName(ColumnType::kPoint), "point");
}

}  // namespace
}  // namespace maliva
