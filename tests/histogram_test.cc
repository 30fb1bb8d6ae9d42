// Accuracy and epoch tests for the full-table selectivity histograms
// (engine/histogram.h): estimates must land within a stated relative-error
// bound of TrueSelectivity on uniform, skewed, and spatially clustered data,
// every estimate over the generated datasets must lie in [0, 1] (a seeded
// property over inverted, zero-width, out-of-domain and infinite ranges and
// boxes), and the engine's epoch guard must refuse stale reads.

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "engine/histogram.h"
#include "index/rtree_index.h"
#include "query/predicate.h"
#include "util/rng.h"
#include "workload/scenario.h"

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

/// One seeded histogram estimate, checked against [0, 1] and, where the
/// predicate's geometry decides it, against the exact answer (0 for an
/// inverted or disjoint range, 1 for one that covers the whole domain).
void ExpectEstimateInUnitInterval(const Engine& engine, const std::string& table,
                                  const Predicate& pred, std::optional<double> exact,
                                  const std::string& what) {
  Result<double> est = engine.HistogramSelectivity(table, pred, engine.catalog_version());
  ASSERT_TRUE(est.ok()) << what << ": " << est.status().ToString();
  EXPECT_GE(est.value(), 0.0) << what;
  EXPECT_LE(est.value(), 1.0) << what;
  if (exact.has_value()) EXPECT_NEAR(est.value(), *exact, 1e-9) << what;
}

TEST(Histogram, SeededEstimatesLieInTheUnitIntervalOnEveryDataset) {
  // Property: on the three generated datasets, every numeric, time and
  // spatial estimate lies in [0, 1] — for random ranges and boxes (either
  // orientation), inverted ones, zero-width ones at data values, ones
  // wholly outside the column's domain or the R-tree's Bounds(), ones
  // covering everything, ones with infinite or huge endpoints, and ones with
  // a NaN endpoint or corner.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr size_t kDrawsPerColumn = 300;
  for (DatasetKind kind : {DatasetKind::kTwitter, DatasetKind::kTaxi, DatasetKind::kTpch}) {
    ScenarioConfig cfg;
    cfg.kind = kind;
    cfg.num_attrs = kind == DatasetKind::kTwitter ? 5 : 3;
    cfg.num_rows = 4000;
    cfg.num_queries = 20;
    cfg.seed = 43;
    const Scenario scenario = BuildScenario(cfg);
    const std::string table_name = scenario.queries.front().table;
    const TableEntry* entry = scenario.engine->FindEntry(table_name);
    ASSERT_NE(entry, nullptr);
    const Table& table = *entry->table;
    Rng rng(0x4849 + static_cast<uint64_t>(kind));
    size_t numeric_columns = 0;
    size_t spatial_columns = 0;

    for (size_t idx = 0; idx < table.NumColumns(); ++idx) {
      const Column& col = table.ColumnAt(idx);
      const std::string what_col =
          std::string(DatasetKindName(kind)) + "." + col.name();
      if (col.type() == ColumnType::kInt64 || col.type() == ColumnType::kDouble ||
          col.type() == ColumnType::kTimestamp) {
        ++numeric_columns;
        double lo_dom = col.NumericAt(0);
        double hi_dom = lo_dom;
        for (size_t row = 1; row < col.size(); ++row) {
          lo_dom = std::min(lo_dom, col.NumericAt(row));
          hi_dom = std::max(hi_dom, col.NumericAt(row));
        }
        const double ext = std::max(hi_dom - lo_dom, 1.0);
        auto make = [&](double lo, double hi) {
          return col.type() == ColumnType::kTimestamp
                     ? Predicate::Time(col.name(), lo, hi)
                     : Predicate::Numeric(col.name(), lo, hi);
        };
        auto at_row = [&]() {
          return col.NumericAt(static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(col.size()) - 1)));
        };
        for (size_t draw = 0; draw < kDrawsPerColumn; ++draw) {
          const std::string what = what_col + " draw " + std::to_string(draw);
          double a = rng.Uniform(lo_dom - ext, hi_dom + ext);
          double b = rng.Uniform(lo_dom - ext, hi_dom + ext);
          switch (draw % 6) {
            case 0:  // random, either orientation
              ExpectEstimateInUnitInterval(*scenario.engine, table_name, make(a, b),
                                           a > b ? std::optional<double>(0.0)
                                                 : std::nullopt,
                                           what);
              break;
            case 1:  // inverted
              if (a == b) b = a - 1.0;
              ExpectEstimateInUnitInterval(*scenario.engine, table_name,
                                           make(std::max(a, b), std::min(a, b)), 0.0,
                                           what);
              break;
            case 2: {  // zero width at a data value
              const double v = at_row();
              ExpectEstimateInUnitInterval(*scenario.engine, table_name, make(v, v),
                                           std::nullopt, what);
              break;
            }
            case 3: {  // wholly below or wholly above the domain
              const double gap = rng.Uniform(1e-6, ext);
              const double width = rng.Uniform(0.0, ext);
              const Predicate pred =
                  rng.Bernoulli(0.5) ? make(lo_dom - gap - width, lo_dom - gap)
                                     : make(hi_dom + gap, hi_dom + gap + width);
              ExpectEstimateInUnitInterval(*scenario.engine, table_name, pred, 0.0, what);
              break;
            }
            case 4:  // covers the whole domain
              ExpectEstimateInUnitInterval(
                  *scenario.engine, table_name,
                  make(lo_dom - rng.Uniform(0.0, ext), hi_dom + rng.Uniform(0.0, ext)),
                  1.0, what);
              break;
            default: {  // infinite and huge endpoints
              const double ends[] = {-kInf, kInf, -1e300, 1e300, at_row()};
              const double lo = ends[rng.UniformInt(0, 4)];
              const double hi = ends[rng.UniformInt(0, 4)];
              ExpectEstimateInUnitInterval(*scenario.engine, table_name, make(lo, hi),
                                           std::nullopt, what);
              break;
            }
          }
        }
        // A NaN endpoint matches no row under Range::Contains.
        for (double other : {-kInf, lo_dom, hi_dom, kInf, kNan}) {
          ExpectEstimateInUnitInterval(*scenario.engine, table_name, make(kNan, other), 0.0,
                                       what_col + " NaN lo");
          ExpectEstimateInUnitInterval(*scenario.engine, table_name, make(other, kNan), 0.0,
                                       what_col + " NaN hi");
        }
      } else if (col.type() == ColumnType::kPoint) {
        auto rtree = entry->rtrees.find(col.name());
        ASSERT_NE(rtree, entry->rtrees.end()) << what_col;
        ++spatial_columns;
        const BoundingBox bounds = rtree->second->Bounds();
        const double w = std::max(bounds.Width(), 1e-3);
        const double h = std::max(bounds.Height(), 1e-3);
        auto lon = [&](double pad) {
          return rng.Uniform(bounds.min_lon - pad * w, bounds.max_lon + pad * w);
        };
        auto lat = [&](double pad) {
          return rng.Uniform(bounds.min_lat - pad * h, bounds.max_lat + pad * h);
        };
        auto box = [&](double x0, double y0, double x1, double y1) {
          return Predicate::Spatial(col.name(), BoundingBox{x0, y0, x1, y1});
        };
        for (size_t draw = 0; draw < kDrawsPerColumn; ++draw) {
          const std::string what = what_col + " draw " + std::to_string(draw);
          const double x0 = lon(1.0), x1 = lon(1.0), y0 = lat(1.0), y1 = lat(1.0);
          switch (draw % 6) {
            case 0:  // random corners, possibly inverted on either axis
              ExpectEstimateInUnitInterval(
                  *scenario.engine, table_name, box(x0, y0, x1, y1),
                  (x0 > x1 || y0 > y1) ? std::optional<double>(0.0) : std::nullopt,
                  what);
              break;
            case 1:  // inverted on at least one axis
              ExpectEstimateInUnitInterval(
                  *scenario.engine, table_name,
                  box(std::max(x0, x1) + w, std::min(y0, y1), std::min(x0, x1),
                      std::max(y0, y1)),
                  0.0, what);
              break;
            case 2: {  // zero area at a data point
              const GeoPoint& p = col.PointAt(static_cast<size_t>(
                  rng.UniformInt(0, static_cast<int64_t>(col.size()) - 1)));
              ExpectEstimateInUnitInterval(*scenario.engine, table_name,
                                           box(p.lon, p.lat, p.lon, p.lat),
                                           std::nullopt, what);
              break;
            }
            case 3: {  // wholly outside Bounds() on one side
              const double gap_x = rng.Uniform(1e-6, w), gap_y = rng.Uniform(1e-6, h);
              const double ly = std::min(y0, y1), hy = std::max(y0, y1);
              const double lx = std::min(x0, x1), hx = std::max(x0, x1);
              Predicate pred = box(0, 0, 0, 0);
              switch (rng.UniformInt(0, 3)) {
                case 0:
                  pred = box(bounds.min_lon - gap_x - w, ly, bounds.min_lon - gap_x, hy);
                  break;
                case 1:
                  pred = box(bounds.max_lon + gap_x, ly, bounds.max_lon + gap_x + w, hy);
                  break;
                case 2:
                  pred = box(lx, bounds.min_lat - gap_y - h, hx, bounds.min_lat - gap_y);
                  break;
                default:
                  pred = box(lx, bounds.max_lat + gap_y, hx, bounds.max_lat + gap_y + h);
                  break;
              }
              ExpectEstimateInUnitInterval(*scenario.engine, table_name, pred, 0.0, what);
              break;
            }
            case 4:  // covers Bounds()
              ExpectEstimateInUnitInterval(
                  *scenario.engine, table_name,
                  box(bounds.min_lon - rng.Uniform(0.0, w), bounds.min_lat - rng.Uniform(0.0, h),
                      bounds.max_lon + rng.Uniform(0.0, w), bounds.max_lat + rng.Uniform(0.0, h)),
                  1.0, what);
              break;
            default: {  // infinite and huge corners
              const double ends[] = {-kInf, kInf, -1e300, 1e300};
              ExpectEstimateInUnitInterval(
                  *scenario.engine, table_name,
                  box(rng.Bernoulli(0.5) ? ends[rng.UniformInt(0, 3)] : x0,
                      rng.Bernoulli(0.5) ? ends[rng.UniformInt(0, 3)] : y0,
                      rng.Bernoulli(0.5) ? ends[rng.UniformInt(0, 3)] : x1,
                      rng.Bernoulli(0.5) ? ends[rng.UniformInt(0, 3)] : y1),
                  std::nullopt, what);
              break;
            }
          }
        }
        // A NaN corner matches no point under BoundingBox::Contains.
        for (int corner = 0; corner <= 4; ++corner) {
          double c[] = {bounds.min_lon, bounds.min_lat, bounds.max_lon, bounds.max_lat};
          for (int i = 0; i < 4; ++i) {
            if (i == corner || corner == 4) c[i] = kNan;
          }
          ExpectEstimateInUnitInterval(*scenario.engine, table_name,
                                       box(c[0], c[1], c[2], c[3]), 0.0,
                                       what_col + " NaN corner " + std::to_string(corner));
        }
      }
    }
    EXPECT_GE(numeric_columns, 2u) << DatasetKindName(kind);
    // TPC-H's lineitem has no point column: a box predicate there is
    // uncovered, never an estimate.
    if (kind == DatasetKind::kTpch) {
      EXPECT_EQ(spatial_columns, 0u);
      Result<double> uncovered = scenario.engine->HistogramSelectivity(
          table_name, Predicate::Spatial("ship_date", BoundingBox{0, 0, 1, 1}),
          scenario.engine->catalog_version());
      EXPECT_EQ(uncovered.status().code(), Status::Code::kNotFound);
    } else {
      EXPECT_EQ(spatial_columns, 1u) << DatasetKindName(kind);
    }
  }
}

}  // namespace
}  // namespace maliva
