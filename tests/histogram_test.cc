// Accuracy and epoch tests for the full-table selectivity histograms
// (engine/histogram.h): estimates must land within a stated relative-error
// bound of TrueSelectivity on uniform, skewed, and spatially clustered data,
// and the engine's epoch guard must refuse stale reads.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "engine/histogram.h"
#include "query/predicate.h"
#include "util/rng.h"

namespace maliva {
namespace {

constexpr size_t kRows = 20000;

// Shared bound for the accuracy tests below: full-table equi-width
// histograms are exact up to the within-bucket uniformity assumption, so a
// generous 15% relative error (with an absolute floor for tiny
// selectivities) is comfortably met on smooth distributions while still
// catching sign/off-by-one-bucket bugs.
void ExpectWithinRelError(double estimate, double truth, const char* what) {
  double tolerance = std::max(0.15 * truth, 0.01);
  EXPECT_NEAR(estimate, truth, tolerance) << what << ": estimate " << estimate
                                          << " vs true " << truth;
}

std::unique_ptr<Table> NumericTable(const std::string& column,
                                    const std::vector<double>& values) {
  Schema schema = {{"id", ColumnType::kInt64}, {column, ColumnType::kDouble}};
  auto t = std::make_unique<Table>("t", schema);
  for (size_t i = 0; i < values.size(); ++i) {
    t->MutableColumnAt(0).AppendInt64(static_cast<int64_t>(i));
    t->MutableColumnAt(1).AppendDouble(values[i]);
  }
  EXPECT_TRUE(t->Seal().ok());
  return t;
}

std::unique_ptr<Engine> EngineWith(std::unique_ptr<Table> table) {
  auto engine = std::make_unique<Engine>(EngineProfile::PostgresLike(), 7);
  EXPECT_TRUE(engine->RegisterTable(std::move(table), {}).ok());
  return engine;
}

TEST(Histogram, UniformNumericWithinBound) {
  Rng rng(11);
  std::vector<double> values;
  values.reserve(kRows);
  for (size_t i = 0; i < kRows; ++i) values.push_back(rng.Uniform(0.0, 1000.0));
  std::unique_ptr<Engine> engine = EngineWith(NumericTable("v", values));

  const double ranges[][2] = {{0, 100}, {250, 300}, {100, 900}, {990, 1000}, {-50, 50}};
  for (const auto& r : ranges) {
    Predicate pred = Predicate::Numeric("v", r[0], r[1]);
    double truth = engine->TrueSelectivity("t", pred).value();
    double est =
        engine->HistogramSelectivity("t", pred, engine->catalog_version()).value();
    ExpectWithinRelError(est, truth, "uniform range");
  }
}

TEST(Histogram, SkewedNumericWithinBound) {
  // Exponentially distributed values: most mass near 0, a long thin tail —
  // the shape equi-width histograms handle worst.
  Rng rng(13);
  std::vector<double> values;
  values.reserve(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    double u = rng.Uniform(1e-6, 1.0);
    values.push_back(-100.0 * std::log(u));
  }
  std::unique_ptr<Engine> engine = EngineWith(NumericTable("v", values));

  const double ranges[][2] = {{0, 50}, {0, 200}, {50, 150}, {200, 800}};
  for (const auto& r : ranges) {
    Predicate pred = Predicate::Numeric("v", r[0], r[1]);
    double truth = engine->TrueSelectivity("t", pred).value();
    double est =
        engine->HistogramSelectivity("t", pred, engine->catalog_version()).value();
    ExpectWithinRelError(est, truth, "skewed range");
  }
}

TEST(Histogram, SpatialClusteredWithinBound) {
  // Three dense Gaussian-ish clusters over a sparse uniform background.
  Rng rng(17);
  Schema schema = {{"id", ColumnType::kInt64}, {"pt", ColumnType::kPoint}};
  auto t = std::make_unique<Table>("t", schema);
  const double centers[][2] = {{20, 10}, {70, 40}, {50, 25}};
  for (size_t i = 0; i < kRows; ++i) {
    GeoPoint p;
    if (rng.Bernoulli(0.85)) {
      const auto& c = centers[i % 3];
      // Sum of uniforms: a cheap bell-shaped spread around the center.
      p.lon = c[0] + (rng.Uniform(0, 4) + rng.Uniform(0, 4) - 4.0);
      p.lat = c[1] + (rng.Uniform(0, 3) + rng.Uniform(0, 3) - 3.0);
    } else {
      p.lon = rng.Uniform(0, 100);
      p.lat = rng.Uniform(0, 50);
    }
    t->MutableColumnAt(0).AppendInt64(static_cast<int64_t>(i));
    t->MutableColumnAt(1).AppendPoint(p);
  }
  ASSERT_TRUE(t->Seal().ok());
  std::unique_ptr<Engine> engine = EngineWith(std::move(t));

  const double boxes[][4] = {
      {15, 5, 25, 15},   // covers cluster 1
      {60, 30, 80, 50},  // covers cluster 2
      {0, 0, 100, 50},   // everything
      {40, 20, 60, 30},  // cluster 3 plus background
      {0, 0, 10, 5},     // background only
  };
  for (const auto& b : boxes) {
    Predicate pred = Predicate::Spatial("pt", BoundingBox{b[0], b[1], b[2], b[3]});
    double truth = engine->TrueSelectivity("t", pred).value();
    double est =
        engine->HistogramSelectivity("t", pred, engine->catalog_version()).value();
    ExpectWithinRelError(est, truth, "spatial box");
  }
}

TEST(Histogram, DegenerateAllEqualColumnIsPointMass) {
  std::vector<double> values(100, 42.0);
  std::unique_ptr<Engine> engine = EngineWith(NumericTable("v", values));
  uint64_t epoch = engine->catalog_version();
  EXPECT_DOUBLE_EQ(
      engine->HistogramSelectivity("t", Predicate::Numeric("v", 40, 45), epoch).value(),
      1.0);
  EXPECT_DOUBLE_EQ(
      engine->HistogramSelectivity("t", Predicate::Numeric("v", 43, 45), epoch).value(),
      0.0);
}

TEST(Histogram, KeywordAndUnknownColumnsAreUncovered) {
  Rng rng(19);
  std::vector<double> values;
  for (size_t i = 0; i < 100; ++i) values.push_back(rng.Uniform(0, 1));
  std::unique_ptr<Engine> engine = EngineWith(NumericTable("v", values));
  uint64_t epoch = engine->catalog_version();

  Result<double> keyword =
      engine->HistogramSelectivity("t", Predicate::Keyword("text", "w1"), epoch);
  EXPECT_EQ(keyword.status().code(), Status::Code::kNotFound);
  Result<double> unknown =
      engine->HistogramSelectivity("t", Predicate::Numeric("nope", 0, 1), epoch);
  EXPECT_EQ(unknown.status().code(), Status::Code::kNotFound);
  Result<double> missing_table =
      engine->HistogramSelectivity("zzz", Predicate::Numeric("v", 0, 1), epoch);
  EXPECT_EQ(missing_table.status().code(), Status::Code::kNotFound);
}

TEST(Histogram, StaleEpochIsRefused) {
  Rng rng(23);
  std::vector<double> values;
  for (size_t i = 0; i < 1000; ++i) values.push_back(rng.Uniform(0, 100));
  std::unique_ptr<Engine> engine = EngineWith(NumericTable("v", values));
  uint64_t old_epoch = engine->catalog_version();
  Predicate pred = Predicate::Numeric("v", 0, 50);
  ASSERT_TRUE(engine->HistogramSelectivity("t", pred, old_epoch).ok());

  // Any catalog mutation bumps the version; the old epoch must be refused.
  ASSERT_TRUE(engine->BuildSampleTables("t", {0.1}, 99).ok());
  ASSERT_NE(engine->catalog_version(), old_epoch);
  Result<double> stale = engine->HistogramSelectivity("t", pred, old_epoch);
  EXPECT_EQ(stale.status().code(), Status::Code::kFailedPrecondition);
  EXPECT_TRUE(
      engine->HistogramSelectivity("t", pred, engine->catalog_version()).ok());
}

}  // namespace
}  // namespace maliva
