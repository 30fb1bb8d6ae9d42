// QTE tests: cost accounting, selectivity-cache sharing (the C_i updates of
// the MDP transition), accurate vs sampling estimation behaviour.

#include <gtest/gtest.h>

#include <bit>

#include "qte/accurate_qte.h"
#include "qte/sampling_qte.h"
#include "test_helpers.h"
#include "workload/scenario.h"

namespace maliva {
namespace {

using testing_helpers::SmallEngine;
using testing_helpers::SmallQuery;

class QteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = SmallEngine(4000, 7);
    ASSERT_TRUE(engine_->BuildSampleTables("tweets", {0.01}, 3).ok());
    oracle_ = std::make_unique<PlanTimeOracle>(engine_.get());
    options_ = EnumerateHintOnlyOptions(3);
    query_ = SmallQuery(1, "w1", 2000, 7000, {20, 10, 80, 40});
    ctx_.query = &query_;
    ctx_.options = &options_;
    ctx_.engine = engine_.get();
    ctx_.oracle = oracle_.get();
    ctx_.params.unit_cost_ms = 40.0;
    ctx_.params.model_eval_ms = 2.0;
    ctx_.params.qte_sample_rate = 0.01;
  }

  std::unique_ptr<Engine> engine_;
  std::unique_ptr<PlanTimeOracle> oracle_;
  RewriteOptionSet options_;
  Query query_;
  QteContext ctx_;
};

TEST_F(QteTest, NumSlotsEqualsPredicates) { EXPECT_EQ(ctx_.NumSlots(), 3u); }

TEST_F(QteTest, NeededSlotsFollowMask) {
  // Option index == mask for EnumerateHintOnlyOptions.
  EXPECT_EQ(ctx_.NeededSlotMask(0b101), 0b101u);
  EXPECT_EQ(ctx_.NeededSlotMask(0b010), 0b010u);
  // Forced full scan needs every selectivity for the output estimate.
  EXPECT_EQ(ctx_.NeededSlotMask(0), 0b111u);

  // Join: the right-side slots follow the base slots and are always needed.
  Query join = query_;
  join.join = JoinSpec{"users", "user_id", "id",
                       {Predicate::Numeric("tweet_cnt", 1, 50),
                        Predicate::Numeric("followers", 0, 9)}};
  RewriteOptionSet join_options = EnumerateJoinOptions(3);
  QteContext jctx = ctx_;
  jctx.query = &join;
  jctx.options = &join_options;
  ASSERT_EQ(jctx.NumSlots(), 5u);
  // EnumerateJoinOptions: option 3 * (mask - 1) + method.
  EXPECT_EQ(jctx.NeededSlotMask(3 * (0b101 - 1)), 0b11101u);
  EXPECT_EQ(jctx.NeededSlotMask(3 * (0b010 - 1) + 2), 0b11010u);
  EXPECT_EQ(jctx.NeededSlotMask(3 * (0b111 - 1) + 1), 0b11111u);

  std::vector<size_t> visited;
  ForEachSlot(0b11010u, [&](size_t slot) { visited.push_back(slot); });
  EXPECT_EQ(visited, (std::vector<size_t>{1, 3, 4}));  // ascending slot order
}

TEST_F(QteTest, ActualSlotCostJittersAroundUnit) {
  for (size_t slot = 0; slot < 3; ++slot) {
    double c = ctx_.ActualSlotCostMs(slot);
    EXPECT_GE(c, 0.75 * ctx_.params.unit_cost_ms);
    EXPECT_LE(c, 1.25 * ctx_.params.unit_cost_ms);
    EXPECT_DOUBLE_EQ(c, ctx_.ActualSlotCostMs(slot));  // deterministic
  }
}

TEST_F(QteTest, PredictCostDropsAsSlotsCollected) {
  AccurateQte qte;
  SelectivityCache cache(ctx_.NumSlots());
  double c_before = qte.PredictCostMs(ctx_, 0b111, cache);
  EXPECT_NEAR(c_before, qte.CostFactor() * 3 * 40.0 + 2.0, 1e-9);
  cache.Set(0, 0.01);
  double c_after = qte.PredictCostMs(ctx_, 0b111, cache);
  EXPECT_NEAR(c_after, qte.CostFactor() * 2 * 40.0 + 2.0, 1e-9);
}

TEST_F(QteTest, EstimateChargesOnlyMissingSlots) {
  // Estimating RQ_1 (keyword index) then RQ_5 (keyword+spatial) only pays for
  // the spatial slot the second time — the paper's Fig 7 transition.
  AccurateQte qte;
  SelectivityCache cache(ctx_.NumSlots());
  QteEstimate first = qte.Estimate(ctx_, 0b001, &cache);
  EXPECT_NEAR(first.cost_ms, qte.CostFactor() * ctx_.ActualSlotCostMs(0) + 2.0, 1e-9);
  QteEstimate second = qte.Estimate(ctx_, 0b101, &cache);
  EXPECT_NEAR(second.cost_ms, qte.CostFactor() * ctx_.ActualSlotCostMs(2) + 2.0, 1e-9);
  QteEstimate third = qte.Estimate(ctx_, 0b100, &cache);
  EXPECT_NEAR(third.cost_ms, 2.0, 1e-9);  // everything cached
}

TEST_F(QteTest, AccurateQteReturnsTrueTime) {
  AccurateQte qte;
  SelectivityCache cache(ctx_.NumSlots());
  for (size_t i = 0; i < options_.size(); ++i) {
    QteEstimate est = qte.Estimate(ctx_, i, &cache);
    EXPECT_DOUBLE_EQ(est.est_ms, oracle_->TrueTimeMs(query_, options_[i]));
  }
}

TEST_F(QteTest, AccurateQteFillsTrueSelectivities) {
  AccurateQte qte;
  SelectivityCache cache(ctx_.NumSlots());
  qte.Estimate(ctx_, 0b111, &cache);
  for (size_t slot = 0; slot < 3; ++slot) {
    ASSERT_TRUE(cache.Has(slot));
    Result<double> truth = engine_->TrueSelectivity("tweets", query_.predicates[slot]);
    EXPECT_DOUBLE_EQ(cache.Get(slot), truth.value());
  }
}

TEST_F(QteTest, SamplingQteWithinErrorBand) {
  SamplingQte qte;
  SelectivityCache cache(ctx_.NumSlots());
  // Estimate the time-index plan: time selectivity ~0.5 is well measurable on
  // the 1% sample, so the estimate should be within ~3x of the truth.
  QteEstimate est = qte.Estimate(ctx_, 0b010, &cache);
  double truth = oracle_->TrueTimeMs(query_, options_[0b010]);
  EXPECT_GT(est.est_ms, truth / 3.0);
  EXPECT_LT(est.est_ms, truth * 3.0);
}

TEST_F(QteTest, SamplingQteDeterministic) {
  SamplingQte qte;
  SelectivityCache c1(ctx_.NumSlots()), c2(ctx_.NumSlots());
  EXPECT_DOUBLE_EQ(qte.Estimate(ctx_, 3, &c1).est_ms, qte.Estimate(ctx_, 3, &c2).est_ms);
}

TEST_F(QteTest, SamplingQteCostsSameUnits) {
  SamplingQte qte;
  SelectivityCache cache(ctx_.NumSlots());
  QteEstimate est = qte.Estimate(ctx_, 0b011, &cache);
  EXPECT_NEAR(est.cost_ms, ctx_.ActualSlotCostMs(0) + ctx_.ActualSlotCostMs(1) + 2.0,
              1e-9);
  EXPECT_EQ(cache.NumCollected(), 2u);
}

TEST(SelectivityCacheTest, Basics) {
  SelectivityCache cache(4);
  EXPECT_EQ(cache.num_slots(), 4u);
  EXPECT_FALSE(cache.Has(0));
  cache.Set(0, 0.25);
  EXPECT_TRUE(cache.Has(0));
  EXPECT_DOUBLE_EQ(cache.Get(0), 0.25);
  EXPECT_EQ(cache.NumCollected(), 1u);
  cache.Set(0, 0.5);  // overwrite allowed
  EXPECT_DOUBLE_EQ(cache.Get(0), 0.5);
}

TEST_F(QteTest, PendingProbeReadsAsCollectedAndMaterializesExactly) {
  SelectivityCache cache(ctx_.NumSlots());
  for (size_t slot = 0; slot < 3; ++slot) {
    cache.SetPendingProbe(slot, *engine_, query_.table, query_.predicates[slot]);
  }
  EXPECT_TRUE(cache.Has(0));
  EXPECT_EQ(cache.NumCollected(), 3u);

  // A copy (QueryEnv's inherited cache) carries the pending probes with it.
  SelectivityCache copy = cache;
  for (size_t slot = 0; slot < 3; ++slot) {
    double truth = engine_->TrueSelectivity(query_.table, query_.predicates[slot]).value();
    EXPECT_EQ(cache.Get(slot), truth);
    EXPECT_EQ(cache.Get(slot), truth);  // the second read is the stored value
    EXPECT_EQ(copy.Get(slot), truth);
  }

  // Set() over a pending probe replaces it without counting a new slot.
  SelectivityCache replaced(ctx_.NumSlots());
  replaced.SetPendingProbe(1, *engine_, query_.table, query_.predicates[1]);
  replaced.Set(1, 0.125);
  EXPECT_EQ(replaced.Get(1), 0.125);
  EXPECT_EQ(replaced.NumCollected(), 1u);
}

TEST_F(QteTest, SamplingQteReadsAccurateQtePendingProbesExactly) {
  // The accurate QTE leaves its slots pending; a sampling estimate on the
  // same cache must see the exact values, as if they had been probed eagerly.
  AccurateQte accurate;
  SamplingQte sampling;
  SelectivityCache lazy(ctx_.NumSlots());
  accurate.Estimate(ctx_, 0b111, &lazy);
  EXPECT_EQ(lazy.NumCollected(), 3u);
  EXPECT_EQ(lazy.probes(), 3u);

  SelectivityCache eager(ctx_.NumSlots());
  for (size_t slot = 0; slot < 3; ++slot) {
    eager.Set(slot, engine_->TrueSelectivity(query_.table, query_.predicates[slot]).value());
  }
  for (size_t i = 0; i < options_.size(); ++i) {
    EXPECT_EQ(sampling.Estimate(ctx_, i, &lazy).est_ms,
              sampling.Estimate(ctx_, i, &eager).est_ms);
  }
}

TEST(PlanTimeOracleTest, CachesExecutions) {
  auto engine = SmallEngine(2000, 5);
  PlanTimeOracle oracle(engine.get());
  Query q = SmallQuery(9, "w1", 0, 9999, {0, 0, 100, 50});
  RewriteOption ro;
  ro.hints.index_mask = 1;
  double a = oracle.TrueTimeMs(q, ro);
  EXPECT_EQ(oracle.CacheSize(), 1u);
  double b = oracle.TrueTimeMs(q, ro);
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_EQ(oracle.CacheSize(), 1u);
  ro.hints.index_mask = 2;
  oracle.TrueTimeMs(q, ro);
  EXPECT_EQ(oracle.CacheSize(), 2u);
}

TEST(PlanTimeOracleTest, DistinguishesApproxOptions) {
  auto engine = SmallEngine(2000, 5);
  ASSERT_TRUE(engine->BuildSampleTables("tweets", {0.2}, 3).ok());
  PlanTimeOracle oracle(engine.get());
  Query q = SmallQuery(10, "w0", 0, 9999, {0, 0, 100, 50});
  RewriteOption exact;
  exact.hints.index_mask = 1;
  RewriteOption sampled = exact;
  sampled.approx = {ApproxKind::kSampleTable, 0.2};
  EXPECT_GT(oracle.TrueTimeMs(q, exact), oracle.TrueTimeMs(q, sampled));
  EXPECT_EQ(oracle.CacheSize(), 2u);
}

/// One training grid: a scenario's own option set crossed with approximation
/// rules, executed over its first queries.
struct GridCase {
  const char* name;
  ScenarioConfig config;
  std::vector<ApproxRule> rules;
};

std::vector<GridCase> GridCases() {
  auto config = [](DatasetKind kind, uint64_t seed) {
    ScenarioConfig c;
    c.kind = kind;
    c.num_rows = 3000;
    c.num_users = 400;
    c.num_queries = 24;
    c.seed = seed;
    return c;
  };
  const ApproxRule limit10{ApproxKind::kLimit, 0.1};
  std::vector<GridCase> cases;
  cases.push_back({"twitter", config(DatasetKind::kTwitter, 31), {limit10}});
  // Plan instability on: some executions re-plan and ignore their hints.
  GridCase taxi{"taxi-commercial", config(DatasetKind::kTaxi, 32), {limit10}};
  taxi.config.output = OutputKind::kScatter;
  taxi.config.profile = EngineProfile::CommercialLike();
  cases.push_back(taxi);
  GridCase tpch{"tpch-samples",
                config(DatasetKind::kTpch, 33),
                {{ApproxKind::kSampleTable, 0.2}, {ApproxKind::kSampleTable, 0.4}, limit10}};
  tpch.config.approx_sample_rates = {0.2, 0.4};
  cases.push_back(tpch);
  GridCase join{"twitter-join", config(DatasetKind::kTwitter, 34), {}};
  join.config.join = true;
  join.config.output = OutputKind::kScatter;
  cases.push_back(join);
  GridCase join_commercial = join;
  join_commercial.name = "twitter-join-commercial";
  join_commercial.config.profile = EngineProfile::CommercialLike();
  cases.push_back(join_commercial);
  return cases;
}

std::vector<const Query*> GridQueries(const Scenario& s) {
  std::vector<const Query*> queries;
  for (size_t i = 0; i < s.queries.size() && i < 12; ++i) queries.push_back(&s.queries[i]);
  return queries;
}

TEST(PlanTimeOracleTest, PrefillMatchesPerOptionExecution) {
  // The parallel prefill fills the memo with exactly the times that executing
  // each option on its own would give, bit for bit, and nothing else.
  for (const GridCase& gc : GridCases()) {
    SCOPED_TRACE(gc.name);
    Scenario s = BuildScenario(gc.config);
    const RewriteOptionSet options = CrossWithApproxRules(s.options, gc.rules, true);
    const std::vector<const Query*> queries = GridQueries(s);
    PlanTimeOracle prefilled(s.engine.get());
    PrefillTrueTimes(prefilled, queries, options);
    const size_t prefilled_size = prefilled.CacheSize();

    PlanTimeOracle single(s.engine.get());
    for (const Query* q : queries) {
      for (const RewriteOption& option : options) {
        const double want = single.TrueTimeMs(*q, option);
        const double got = prefilled.TrueTimeMs(*q, option);
        EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
            << "query " << q->id << " option " << option.ToString(q->predicates.size())
            << ": " << got << " vs " << want;
      }
    }
    EXPECT_EQ(prefilled_size, single.CacheSize());
    EXPECT_EQ(prefilled.CacheSize(), prefilled_size);
  }
}

/// Field-by-field equality of two executions: the virtual time's bits, the
/// plan that ran, every PlanCards field and the visualization output.
void ExpectSameExecution(const ExecResult& got, const ExecResult& want) {
  EXPECT_EQ(std::bit_cast<uint64_t>(got.exec_ms), std::bit_cast<uint64_t>(want.exec_ms));
  EXPECT_EQ(got.plan.index_mask, want.plan.index_mask);
  EXPECT_EQ(got.plan.join_method, want.plan.join_method);
  EXPECT_EQ(got.plan.approx.kind, want.plan.approx.kind);
  EXPECT_EQ(got.plan.approx.fraction, want.plan.approx.fraction);
  const PlanCards& a = got.cards;
  const PlanCards& b = want.cards;
  EXPECT_EQ(a.scanned_rows, b.scanned_rows);
  EXPECT_EQ(a.scan_preds, b.scan_preds);
  EXPECT_EQ(a.postings, b.postings);
  EXPECT_EQ(a.candidates, b.candidates);
  EXPECT_EQ(a.residual_preds, b.residual_preds);
  EXPECT_EQ(a.output_rows, b.output_rows);
  EXPECT_EQ(a.heatmap, b.heatmap);
  EXPECT_EQ(a.has_join, b.has_join);
  EXPECT_EQ(a.join_method, b.join_method);
  EXPECT_EQ(a.right_scanned, b.right_scanned);
  EXPECT_EQ(a.build_rows, b.build_rows);
  EXPECT_EQ(a.probe_rows, b.probe_rows);
  EXPECT_EQ(a.nl_outer, b.nl_outer);
  EXPECT_EQ(a.sort_rows, b.sort_rows);
  EXPECT_EQ(a.merge_rows, b.merge_rows);
  EXPECT_EQ(a.join_output, b.join_output);
  EXPECT_EQ(got.vis.ids, want.vis.ids);
  EXPECT_EQ(got.vis.bins, want.vis.bins);
}

TEST(PlanTimeOracleTest, MemoizedGridMatchesLoneExecutions) {
  // The engine half of the prefill's equivalence: one ProbeMemo carried
  // across a query's options in the prefill's order (reverse, so the
  // full-scan option reads its rows from earlier probes) executes each option
  // exactly as a lone Execute without a memo does.
  for (const GridCase& gc : GridCases()) {
    SCOPED_TRACE(gc.name);
    Scenario s = BuildScenario(gc.config);
    const RewriteOptionSet options = CrossWithApproxRules(s.options, gc.rules, true);
    for (const Query* q : GridQueries(s)) {
      ProbeMemo memo;
      for (auto it = options.rbegin(); it != options.rend(); ++it) {
        SCOPED_TRACE("query " + std::to_string(q->id) + " option " +
                     it->ToString(q->predicates.size()));
        const RewrittenQuery rq{q, *it};
        Result<ExecResult> shared = s.engine->Execute(rq, &memo);
        Result<ExecResult> alone = s.engine->Execute(rq);
        ASSERT_TRUE(shared.ok()) << shared.status().ToString();
        ASSERT_TRUE(alone.ok()) << alone.status().ToString();
        ExpectSameExecution(shared.value(), alone.value());
      }
    }
  }
}

}  // namespace
}  // namespace maliva
