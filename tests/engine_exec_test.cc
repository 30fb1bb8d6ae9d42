// Executor correctness: every hinted plan must compute the same (exact)
// result as a brute-force evaluation, while charging plan-dependent times.

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <limits>
#include <set>

#include "engine/optimizer.h"
#include "test_helpers.h"
#include "workload/scenario.h"

namespace maliva {
namespace {

using testing_helpers::BruteForceMatch;
using testing_helpers::SmallEngine;
using testing_helpers::SmallQuery;

class ExecAllMasks : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ExecAllMasks, AllHintedPlansReturnSameExactResult) {
  auto engine = SmallEngine(4000, 7);
  Query q = SmallQuery(1, "w1", 2000, 7000, {20, 10, 80, 40});
  const Table& table = *engine->FindEntry("tweets")->table;
  std::vector<RowId> expect_rows = BruteForceMatch(table, q);
  std::set<int64_t> expect_ids(expect_rows.begin(), expect_rows.end());

  PlanSpec spec;
  spec.index_mask = GetParam();
  Result<ExecResult> r = engine->ExecutePlan(q, spec);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::set<int64_t> got(r.value().vis.ids.begin(), r.value().vis.ids.end());
  EXPECT_EQ(got, expect_ids) << "mask=" << GetParam();
  EXPECT_GT(r.value().exec_ms, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Masks, ExecAllMasks, ::testing::Range(0u, 8u));

TEST(ExecutorTest, DifferentPlansDifferentTimes) {
  auto engine = SmallEngine(4000, 7);
  Query q = SmallQuery(2, "w0", 0, 9999, {0, 0, 100, 50});  // unselective
  PlanSpec full, kw;
  full.index_mask = 0;
  kw.index_mask = 1;
  double t_full = engine->ExecutePlan(q, full).value().exec_ms;
  double t_kw = engine->ExecutePlan(q, kw).value().exec_ms;
  EXPECT_NE(t_full, t_kw);
}

TEST(ExecutorTest, DeterministicRepeatedExecution) {
  auto engine = SmallEngine(2000, 9);
  Query q = SmallQuery(3, "w2", 1000, 8000, {10, 5, 90, 45});
  PlanSpec spec;
  spec.index_mask = 3;
  double a = engine->ExecutePlan(q, spec).value().exec_ms;
  double b = engine->ExecutePlan(q, spec).value().exec_ms;
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(ExecutorTest, HeatmapBinsSumToMatchCount) {
  auto engine = SmallEngine(4000, 7);
  Query q = SmallQuery(4, "w1", 0, 9999, {20, 10, 80, 40}, OutputKind::kHeatmap);
  const Table& table = *engine->FindEntry("tweets")->table;
  size_t expect = BruteForceMatch(table, q).size();
  PlanSpec spec;
  spec.index_mask = 1;
  Result<ExecResult> r = engine->ExecutePlan(q, spec);
  ASSERT_TRUE(r.ok());
  int64_t total = 0;
  for (const auto& [bin, count] : r.value().vis.bins) {
    EXPECT_GE(bin, 0);
    EXPECT_LT(bin, static_cast<int64_t>(q.heatmap_bins) * q.heatmap_bins);
    total += count;
  }
  EXPECT_EQ(static_cast<size_t>(total), expect);
}

TEST(ExecutorTest, CardsReflectPlanShape) {
  auto engine = SmallEngine(4000, 7);
  Query q = SmallQuery(5, "w1", 2000, 7000, {20, 10, 80, 40});

  PlanSpec full;
  full.index_mask = 0;
  ExecResult r_full = engine->ExecutePlan(q, full).value();
  EXPECT_GT(r_full.cards.scanned_rows, 0.0);
  EXPECT_TRUE(r_full.cards.postings.empty());

  PlanSpec two;
  two.index_mask = 0b011;
  ExecResult r_two = engine->ExecutePlan(q, two).value();
  EXPECT_EQ(r_two.cards.postings.size(), 2u);
  EXPECT_DOUBLE_EQ(r_two.cards.residual_preds, 1.0);
  EXPECT_EQ(r_two.cards.scanned_rows, 0.0);
}

TEST(ExecutorTest, CardinalityScaleAppliesToCards) {
  EngineProfile p = EngineProfile::PostgresLike();
  p.cardinality_scale = 100.0;
  auto engine = SmallEngine(2000, 11, p);
  Query q = SmallQuery(6, "w0", 0, 9999, {0, 0, 100, 50});
  PlanSpec spec;
  spec.index_mask = 0;
  ExecResult r = engine->ExecutePlan(q, spec).value();
  EXPECT_DOUBLE_EQ(r.cards.scanned_rows, 2000.0 * 100.0);
}

TEST(ExecutorTest, MissingIndexIsFailedPrecondition) {
  // Register without the text index; hinting it must fail cleanly.
  auto engine = std::make_unique<Engine>(EngineProfile::PostgresLike(), 1);
  ASSERT_TRUE(engine
                  ->RegisterTable(testing_helpers::SmallTweets(500, 3),
                                  {"created_at", "coordinates"})
                  .ok());
  Query q = SmallQuery(7, "w0", 0, 9999, {0, 0, 100, 50});
  PlanSpec spec;
  spec.index_mask = 1;  // text index was not built
  Result<ExecResult> r = engine->ExecutePlan(q, spec);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kFailedPrecondition);
}

TEST(ExecutorTest, UnknownTableIsNotFound) {
  auto engine = SmallEngine(500, 3);
  Query q = SmallQuery(8, "w0", 0, 9999, {0, 0, 100, 50});
  q.table = "nope";
  PlanSpec spec;
  Result<ExecResult> r = engine->ExecutePlan(q, spec);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kNotFound);
}

TEST(ExecutorTest, ExecuteUnhintedUsesOptimizer) {
  auto engine = SmallEngine(4000, 7);
  Query q = SmallQuery(9, "w3", 1000, 3000, {10, 5, 60, 30});
  RewrittenQuery rq{&q, RewriteOption{}};  // no hints at all
  Result<ExecResult> r = engine->Execute(rq);
  ASSERT_TRUE(r.ok());
  // The plan actually run must equal the optimizer's free choice.
  PlanSpec expected = engine->optimizer().ResolvePlan(q, RewriteOption{});
  EXPECT_EQ(r.value().plan.index_mask, expected.index_mask);
}

TEST(ExecutorTest, TrueSelectivityMatchesBruteForce) {
  auto engine = SmallEngine(3000, 15);
  const Table& table = *engine->FindEntry("tweets")->table;
  Predicate pred = Predicate::Time("created_at", 1000, 4000);
  Result<double> sel = engine->TrueSelectivity("tweets", pred);
  ASSERT_TRUE(sel.ok());
  Query probe;
  probe.table = "tweets";
  probe.predicates = {pred};
  size_t matches = BruteForceMatch(table, probe).size();
  EXPECT_NEAR(sel.value(), static_cast<double>(matches) / 3000.0, 1e-12);
}

TEST(ExecutorTest, NoiseProfileChangesTimesDeterministically) {
  EngineProfile noisy = EngineProfile::PostgresLike();
  noisy.noise_sigma = 0.3;
  auto engine = SmallEngine(2000, 21, noisy);
  Query q1 = SmallQuery(10, "w1", 0, 9999, {0, 0, 100, 50});
  Query q2 = SmallQuery(11, "w1", 0, 9999, {0, 0, 100, 50});
  PlanSpec spec;
  spec.index_mask = 1;
  double a1 = engine->ExecutePlan(q1, spec).value().exec_ms;
  double a1_again = engine->ExecutePlan(q1, spec).value().exec_ms;
  double a2 = engine->ExecutePlan(q2, spec).value().exec_ms;
  EXPECT_DOUBLE_EQ(a1, a1_again);  // deterministic per identity
  EXPECT_NE(a1, a2);               // but varies across query ids
}

TEST(ExecutorTest, EmptyResultQueries) {
  auto engine = SmallEngine(1000, 5);
  Query q = SmallQuery(12, "doesnotexist", 0, 9999, {0, 0, 100, 50});
  for (uint32_t mask : {0u, 1u, 7u}) {
    PlanSpec spec;
    spec.index_mask = mask;
    Result<ExecResult> r = engine->ExecutePlan(q, spec);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().vis.ids.empty());
  }
}

TEST(ExecutorTest, NanBoundsMatchNothingOnEveryPath) {
  // A NaN bound matches no row under Range::Contains and BoundingBox::Contains,
  // so the B-tree, the R-tree, the full scan and every selectivity tier must
  // agree that it selects nothing.
  auto engine = SmallEngine(4000, 7);
  ASSERT_TRUE(engine->BuildSampleTables("tweets", {0.05}, 3).ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Query> queries = {
      SmallQuery(41, "w1", nan, 7000, {0, 0, 100, 50}, OutputKind::kHeatmap),
      SmallQuery(42, "w1", 2000, nan, {0, 0, 100, 50}, OutputKind::kHeatmap),
      SmallQuery(43, "w1", nan, nan, {0, 0, 100, 50}, OutputKind::kHeatmap),
      SmallQuery(44, "w1", 0, 9999, {nan, 0, 100, 50}, OutputKind::kHeatmap),
      SmallQuery(45, "w1", 0, 9999, {0, 0, 100, nan}, OutputKind::kHeatmap)};
  const size_t sample_n = engine->FindEntry("tweets#sample50")->table->NumRows();
  for (const Query& q : queries) {
    SCOPED_TRACE(q.id);
    for (uint32_t mask = 0; mask < 8; ++mask) {
      PlanSpec spec;
      spec.index_mask = mask;
      Result<ExecResult> r = engine->ExecutePlan(q, spec);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(r.value().vis.bins.empty()) << "mask " << mask;
      EXPECT_EQ(r.value().cards.output_rows, 0.0) << "mask " << mask;
    }
    const Predicate& nan_pred = q.id <= 43 ? q.predicates[1] : q.predicates[2];
    EXPECT_EQ(engine->TrueSelectivity("tweets", nan_pred).value(), 0.0);
    EXPECT_DOUBLE_EQ(engine->SampledSelectivity("tweets", nan_pred, 0.05).value(),
                     0.5 / static_cast<double>(sample_n + 1));
    EXPECT_EQ(engine->HistogramSelectivity("tweets", nan_pred, engine->catalog_version())
                  .value(),
              0.0);
  }
}

// ---------------------------------------------------------------------------
// Execution golden: a digest of everything ExecutePlan reports (exec_ms bits,
// every PlanCards field, the plan that ran, vis ids in order and bins sorted)
// over every plan shape the executor has: full scans, multi-index
// intersections with residual filters, LIMIT and sample-table approximations,
// all three join methods, and keyword predicates with and without an inverted
// index. Any change to the executor that moves a row count, a virtual time or
// an output row changes a digest.

class ExecDigest {
 public:
  void Add(uint64_t v) {
    h_ ^= v + 0x9e3779b97f4a7c15ULL + (h_ << 6) + (h_ >> 2);
    h_ *= 0xff51afd7ed558ccdULL;
  }
  void Add(double v) { Add(std::bit_cast<uint64_t>(v)); }

  void Add(const Result<ExecResult>& r) {
    ++runs_;
    Add(static_cast<uint64_t>(r.status().code()));
    if (!r.ok()) return;
    const ExecResult& e = r.value();
    Add(e.exec_ms);
    Add(static_cast<uint64_t>(e.plan.index_mask));
    Add(static_cast<uint64_t>(e.plan.join_method));
    Add(static_cast<uint64_t>(e.plan.approx.kind));
    Add(e.plan.approx.fraction);
    const PlanCards& c = e.cards;
    for (double v : {c.scanned_rows, c.scan_preds, c.candidates, c.residual_preds,
                     c.output_rows, c.right_scanned, c.build_rows, c.probe_rows,
                     c.nl_outer, c.sort_rows, c.merge_rows, c.join_output}) {
      Add(v);
    }
    Add(static_cast<uint64_t>(c.postings.size()));
    for (double v : c.postings) Add(v);
    Add(static_cast<uint64_t>(c.heatmap));
    Add(static_cast<uint64_t>(c.has_join));
    Add(static_cast<uint64_t>(c.join_method));
    Add(static_cast<uint64_t>(e.vis.ids.size()));
    for (int64_t id : e.vis.ids) Add(static_cast<uint64_t>(id));
    std::vector<std::pair<int64_t, int64_t>> bins(e.vis.bins.begin(), e.vis.bins.end());
    std::sort(bins.begin(), bins.end());
    Add(static_cast<uint64_t>(bins.size()));
    for (const auto& [bin, count] : bins) {
      Add(static_cast<uint64_t>(bin));
      Add(static_cast<uint64_t>(count));
    }
  }

  uint64_t value() const { return h_; }
  size_t runs() const { return runs_; }

 private:
  uint64_t h_ = 0x6d616c697661ULL;
  size_t runs_ = 0;
};

/// Runs every option of each of the first `num_queries` queries: every index
/// mask under every applicable join method, and for the full scan and the
/// all-index plan also LIMIT 10% / 50% and each approximation sample table.
ExecDigest DigestScenario(const ScenarioConfig& config, size_t num_queries) {
  Scenario s = BuildScenario(config);
  ExecDigest digest;
  auto run = [&](const Query& q, const PlanSpec& spec) {
    Result<ExecResult> r = s.engine->ExecutePlan(q, spec);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    digest.Add(r);
  };
  for (size_t qi = 0; qi < num_queries && qi < s.queries.size(); ++qi) {
    Query q = s.queries[qi];
    std::vector<Query> variants = {q};
    if (q.join.has_value()) {
      // A second right predicate, the upper half of the first, exercises the
      // join's residual right filter: it rejects rows the first one passes.
      Query two = q;
      Predicate upper = two.join->right_predicates[0];
      upper.range.lo = 0.5 * (upper.range.lo + upper.range.hi);
      two.join->right_predicates.push_back(upper);
      variants.push_back(std::move(two));
    }
    for (const Query& v : variants) {
      const uint32_t full = (1u << v.predicates.size()) - 1;
      std::vector<JoinMethod> methods = {JoinMethod::kNestedLoop};
      if (v.join.has_value()) {
        methods = {JoinMethod::kNestedLoop, JoinMethod::kHash, JoinMethod::kMerge};
      }
      std::vector<ApproxRule> approx = {{ApproxKind::kLimit, 0.1}, {ApproxKind::kLimit, 0.5}};
      for (double rate : config.approx_sample_rates) {
        approx.push_back({ApproxKind::kSampleTable, rate});
      }
      for (JoinMethod method : methods) {
        for (uint32_t mask = 0; mask <= full; ++mask) {
          PlanSpec spec;
          spec.index_mask = mask;
          spec.join_method = method;
          run(v, spec);
        }
        for (uint32_t mask : {0u, full}) {
          for (const ApproxRule& rule : approx) {
            PlanSpec spec;
            spec.index_mask = mask;
            spec.join_method = method;
            spec.approx = rule;
            run(v, spec);
          }
        }
      }
    }
  }
  return digest;
}

ScenarioConfig GoldenConfig(DatasetKind kind, uint64_t seed) {
  ScenarioConfig c;
  c.kind = kind;
  c.num_rows = 3000;
  c.num_users = 400;
  c.num_queries = 12;
  c.seed = seed;
  return c;
}

void ExpectDigest(const char* name, const ExecDigest& d, uint64_t expect_digest,
                  size_t expect_runs) {
  std::printf("%s: digest 0x%016llxULL over %zu runs\n", name,
              static_cast<unsigned long long>(d.value()), d.runs());
  EXPECT_EQ(d.runs(), expect_runs) << name;
  EXPECT_EQ(d.value(), expect_digest) << name;
}

TEST(ExecutionGoldenTest, TwitterHeatmap) {
  ScenarioConfig c = GoldenConfig(DatasetKind::kTwitter, 11);
  c.num_attrs = 4;
  c.approx_sample_rates = {0.2};
  ExpectDigest("twitter", DigestScenario(c, 5), 0x1bd7cc27cf414861ULL, 110);
}

TEST(ExecutionGoldenTest, TwitterJoin) {
  ScenarioConfig c = GoldenConfig(DatasetKind::kTwitter, 12);
  c.join = true;
  c.output = OutputKind::kScatter;
  ExpectDigest("twitter-join", DigestScenario(c, 4), 0x2c7185549badf656ULL, 288);
}

TEST(ExecutionGoldenTest, TaxiCommercialProfile) {
  // Noise, warm-buffer speedups and dynamic re-planning all draw from the
  // execution's seeded RNG.
  ScenarioConfig c = GoldenConfig(DatasetKind::kTaxi, 13);
  c.output = OutputKind::kScatter;
  c.profile = EngineProfile::CommercialLike();
  ExpectDigest("taxi", DigestScenario(c, 5), 0x0adcd689d270c3eaULL, 60);
}

TEST(ExecutionGoldenTest, TpchSampleTables) {
  ScenarioConfig c = GoldenConfig(DatasetKind::kTpch, 14);
  c.approx_sample_rates = {0.2, 0.4};
  ExpectDigest("tpch", DigestScenario(c, 5), 0x67dbc1a7c434e3c6ULL, 80);
}

TEST(ExecutionGoldenTest, KeywordWithoutInvertedIndex) {
  // Without a text index the keyword predicate is evaluated by tokenizing
  // each row, in the full scan, the residual filter and the selectivity scan.
  auto engine = std::make_unique<Engine>(EngineProfile::PostgresLike(), 5);
  ASSERT_TRUE(engine
                  ->RegisterTable(testing_helpers::SmallTweets(3000, 5),
                                  {"created_at", "coordinates"})
                  .ok());
  ExecDigest digest;
  const std::vector<Query> queries = {
      SmallQuery(21, "w1", 2000, 7000, {20, 10, 80, 40}),
      SmallQuery(22, "burst", 0, 9999, {0, 0, 100, 50}, OutputKind::kHeatmap),
      SmallQuery(23, "absent", 1000, 3000, {10, 5, 60, 30})};
  for (const Query& q : queries) {
    for (uint32_t mask : {0u, 2u, 4u, 6u}) {
      PlanSpec spec;
      spec.index_mask = mask;
      digest.Add(engine->ExecutePlan(q, spec));
    }
    PlanSpec limited;
    limited.approx = {ApproxKind::kLimit, 0.5};
    digest.Add(engine->ExecutePlan(q, limited));
    for (const Predicate& p : q.predicates) {
      Result<double> sel = engine->TrueSelectivity("tweets", p);
      ASSERT_TRUE(sel.ok());
      digest.Add(sel.value());
    }
  }
  ExpectDigest("no-inverted-index", digest, 0x714bade53c96c960ULL, 15);
}

}  // namespace
}  // namespace maliva
