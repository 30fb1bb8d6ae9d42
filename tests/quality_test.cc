// Quality-function tests: Jaccard over ids/bins and the caching
// QualityOracle.

#include <gtest/gtest.h>

#include "quality/quality.h"
#include "test_helpers.h"

namespace maliva {
namespace {

VisResult Ids(std::vector<int64_t> ids) {
  VisResult v;
  v.ids = std::move(ids);
  return v;
}

VisResult Bins(std::vector<std::pair<int64_t, int64_t>> bins) {
  VisResult v;
  for (auto& [b, c] : bins) v.bins[b] = c;
  return v;
}

TEST(JaccardIdsTest, IdenticalIsOne) {
  VisResult a = Ids({1, 2, 3});
  EXPECT_DOUBLE_EQ(JaccardIds(a, a), 1.0);
}

TEST(JaccardIdsTest, DisjointIsZero) {
  EXPECT_DOUBLE_EQ(JaccardIds(Ids({1, 2}), Ids({3, 4})), 0.0);
}

TEST(JaccardIdsTest, PartialOverlap) {
  // |{2,3}| / |{1,2,3,4}| = 0.5
  EXPECT_DOUBLE_EQ(JaccardIds(Ids({1, 2, 3}), Ids({2, 3, 4})), 0.5);
}

TEST(JaccardIdsTest, EmptyBothIsOne) {
  EXPECT_DOUBLE_EQ(JaccardIds(Ids({}), Ids({})), 1.0);
  EXPECT_DOUBLE_EQ(JaccardIds(Ids({1}), Ids({})), 0.0);
}

TEST(JaccardIdsTest, DuplicatesCollapse) {
  EXPECT_DOUBLE_EQ(JaccardIds(Ids({1, 1, 2}), Ids({1, 2, 2})), 1.0);
}

TEST(JaccardBinsTest, BinSetsNotCounts) {
  VisResult a = Bins({{0, 100}, {1, 1}});
  VisResult b = Bins({{0, 1}, {1, 100}});
  EXPECT_DOUBLE_EQ(JaccardBins(a, b), 1.0);  // same non-empty bins
  VisResult c = Bins({{0, 5}, {2, 5}});
  EXPECT_DOUBLE_EQ(JaccardBins(a, c), 1.0 / 3.0);
}

TEST(VisQualityTest, DispatchesOnOutputKind) {
  Query scatter;
  scatter.output = OutputKind::kScatter;
  Query heatmap;
  heatmap.output = OutputKind::kHeatmap;
  VisResult a = Ids({1, 2});
  a.bins[0] = 2;
  VisResult b = Ids({1, 2});
  b.bins[1] = 2;
  EXPECT_DOUBLE_EQ(VisQuality(scatter, a, b), 1.0);  // ids equal
  EXPECT_DOUBLE_EQ(VisQuality(heatmap, a, b), 0.0);  // bins disjoint
}

class QualityOracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = testing_helpers::SmallEngine(4000, 7);
    ASSERT_TRUE(engine_->BuildSampleTables("tweets", {0.2, 0.6}, 3).ok());
    oracle_ = std::make_unique<QualityOracle>(engine_.get());
  }
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<QualityOracle> oracle_;
};

TEST_F(QualityOracleTest, ExactOptionsScoreOneWithoutExecution) {
  Query q = testing_helpers::SmallQuery(1, "w1", 0, 9999, {0, 0, 100, 50});
  RewriteOption exact;
  exact.hints.index_mask = 3;
  EXPECT_DOUBLE_EQ(oracle_->Quality(q, exact), 1.0);
}

TEST_F(QualityOracleTest, LargerSampleHigherQuality) {
  Query q = testing_helpers::SmallQuery(2, "w0", 0, 9999, {0, 0, 100, 50});
  RewriteOption s20, s60;
  s20.hints.index_mask = 1;
  s20.approx = {ApproxKind::kSampleTable, 0.2};
  s60.hints.index_mask = 1;
  s60.approx = {ApproxKind::kSampleTable, 0.6};
  double q20 = oracle_->Quality(q, s20);
  double q60 = oracle_->Quality(q, s60);
  EXPECT_GT(q20, 0.05);
  EXPECT_LT(q20, 0.45);   // ~20% of ids retained -> Jaccard ~0.2
  EXPECT_GT(q60, q20);    // bigger sample, better quality
  EXPECT_LT(q60, 1.0);
}

TEST_F(QualityOracleTest, LimitQualityTracksFraction) {
  Query q = testing_helpers::SmallQuery(3, "w0", 0, 9999, {0, 0, 100, 50});
  double prev = -1.0;
  for (double frac : {0.02, 0.2, 0.9}) {
    RewriteOption ro;
    ro.hints.index_mask = 1;
    ro.approx = {ApproxKind::kLimit, frac};
    double quality = oracle_->Quality(q, ro);
    EXPECT_GT(quality, prev);
    prev = quality;
  }
}

TEST_F(QualityOracleTest, CachedResultsStable) {
  Query q = testing_helpers::SmallQuery(4, "w1", 0, 9999, {0, 0, 100, 50});
  RewriteOption ro;
  ro.hints.index_mask = 1;
  ro.approx = {ApproxKind::kSampleTable, 0.2};
  double a = oracle_->Quality(q, ro);
  double b = oracle_->Quality(q, ro);
  EXPECT_DOUBLE_EQ(a, b);
}

}  // namespace
}  // namespace maliva
