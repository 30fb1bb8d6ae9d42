// End-to-end integration: the full Maliva pipeline — served through
// MalivaService — on a small Twitter scenario must reproduce the paper's
// qualitative claims.

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "service/service.h"

namespace maliva {
namespace {

const std::vector<ApproxRule> kRules = {{ApproxKind::kSampleTable, 0.2},
                                        {ApproxKind::kSampleTable, 0.4},
                                        {ApproxKind::kSampleTable, 0.8}};

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScenarioConfig cfg;
    cfg.kind = DatasetKind::kTwitter;
    cfg.num_rows = 50000;
    cfg.num_queries = 400;
    cfg.tau_ms = 500.0;
    cfg.seed = 33;
    cfg.approx_sample_rates = {0.2, 0.4, 0.8};
    scenario_ = new Scenario(BuildScenario(cfg));

    service_ = new MalivaService(scenario_, ServiceConfig()
                                                .WithTrainerIterations(15)
                                                .WithAgentSeeds(1)
                                                .WithApproxRules(kRules));
  }
  static void TearDownTestSuite() {
    delete service_;
    delete scenario_;
    service_ = nullptr;
    scenario_ = nullptr;
  }

  static Scenario* scenario_;
  static MalivaService* service_;
};

Scenario* IntegrationTest::scenario_ = nullptr;
MalivaService* IntegrationTest::service_ = nullptr;

TEST_F(IntegrationTest, MdpBeatsBaselineOnHardQueries) {
  BucketedWorkload bw = BucketQueries(*scenario_->oracle, scenario_->evaluation,
                                      scenario_->options, 500.0,
                                      BucketScheme::Exact0To4());
  ExperimentResult r = RunExperiment(
      {ApproachFor(*service_, "baseline"), ApproachFor(*service_, "mdp/accurate")}, bw);

  // Aggregate VQP over the hard buckets (1 and 2 viable plans).
  double base = 0.0, mdp = 0.0;
  size_t n = 0;
  for (size_t b = 1; b <= 2; ++b) {
    size_t bn = r.buckets[b].num_queries;
    if (bn == 0) continue;
    base += r.buckets[b].per_approach[0].vqp * static_cast<double>(bn);
    mdp += r.buckets[b].per_approach[1].vqp * static_cast<double>(bn);
    n += bn;
  }
  ASSERT_GT(n, 20u) << "scenario produced too few hard queries";
  base /= static_cast<double>(n);
  mdp /= static_cast<double>(n);
  EXPECT_GT(mdp, base + 10.0) << "MDP must clearly beat the baseline on hard queries";
}

TEST_F(IntegrationTest, ZeroViableBucketUnservableWithoutApproximation) {
  BucketedWorkload bw = BucketQueries(*scenario_->oracle, scenario_->evaluation,
                                      scenario_->options, 500.0,
                                      BucketScheme::Exact0To4());
  ExperimentResult r = RunExperiment({ApproachFor(*service_, "baseline"), ApproachFor(*service_, "mdp/accurate")}, bw);
  if (r.buckets[0].num_queries > 0) {
    EXPECT_DOUBLE_EQ(r.buckets[0].per_approach[0].vqp, 0.0);
    EXPECT_DOUBLE_EQ(r.buckets[0].per_approach[1].vqp, 0.0);
  }
}

TEST_F(IntegrationTest, QualityAwareServesZeroViableQueries) {
  Approach one_stage = ApproachFor(*service_, "quality/one-stage");

  BucketedWorkload bw = BucketQueries(*scenario_->oracle, scenario_->evaluation,
                                      scenario_->options, 500.0,
                                      BucketScheme::Exact0To4());
  ASSERT_GE(bw.buckets[0].size(), 10u) << "not enough 0-viable queries";

  ExperimentResult r = RunExperiment({ApproachFor(*service_, "baseline"), one_stage}, bw);
  // Approximation unlocks some of the 0-viable bucket (paper Fig 20a).
  EXPECT_GT(r.buckets[0].per_approach[1].vqp, 5.0);
  // And quality on served queries is below 1 but far above 0.
  EXPECT_LT(r.buckets[0].per_approach[1].quality, 1.0);
  EXPECT_GT(r.buckets[0].per_approach[1].quality, 0.05);
}

TEST_F(IntegrationTest, TwoStagePreservesQualityBetterThanOneStage) {
  Approach one_stage = ApproachFor(*service_, "quality/one-stage");
  Approach two_stage = ApproachFor(*service_, "quality/two-stage");

  BucketedWorkload bw = BucketQueries(*scenario_->oracle, scenario_->evaluation,
                                      scenario_->options, 500.0,
                                      BucketScheme::Exact0To4());
  ExperimentResult r = RunExperiment({one_stage, two_stage}, bw);

  // On queries with >= 3 viable exact plans, the two-stage approach should
  // essentially never approximate, so its quality must be >= one-stage's.
  double q1 = 0.0, q2 = 0.0;
  size_t n = 0;
  for (size_t b = 3; b < r.buckets.size(); ++b) {
    size_t bn = r.buckets[b].num_queries;
    q1 += r.buckets[b].per_approach[0].quality * static_cast<double>(bn);
    q2 += r.buckets[b].per_approach[1].quality * static_cast<double>(bn);
    n += bn;
  }
  ASSERT_GE(n, 10u) << "not enough easy queries";
  EXPECT_GE(q2 / static_cast<double>(n), q1 / static_cast<double>(n) - 1e-9);
}

TEST_F(IntegrationTest, ExperimentRunnerMetricsConsistent) {
  BucketedWorkload bw = BucketQueries(*scenario_->oracle, scenario_->evaluation,
                                      scenario_->options, 500.0,
                                      BucketScheme::Exact0To4());
  ExperimentResult r = RunExperiment({ApproachFor(*service_, "baseline")}, bw);
  for (const BucketMetrics& bm : r.buckets) {
    for (const ApproachMetrics& m : bm.per_approach) {
      EXPECT_GE(m.vqp, 0.0);
      EXPECT_LE(m.vqp, 100.0);
      if (bm.num_queries > 0) {
        EXPECT_NEAR(m.aqrt_ms, m.plan_ms + m.exec_ms, 1e-6);
      }
    }
  }
}

TEST_F(IntegrationTest, RewriteOutcomeDeterministic) {
  Approach mdp = ApproachFor(*service_, "mdp/accurate");
  const Query& q = *scenario_->evaluation[0];
  RewriteOutcome a = mdp.rewrite(q);
  RewriteOutcome b = mdp.rewrite(q);
  EXPECT_EQ(a.option_index, b.option_index);
  EXPECT_DOUBLE_EQ(a.total_ms, b.total_ms);
}

TEST_F(IntegrationTest, PlanningTimeBoundedByBudgetPlusOneStep) {
  // The agent stops exploring once the budget is spent: planning time can
  // overshoot tau by at most one estimation step.
  Approach mdp = ApproachFor(*service_, "mdp/accurate");
  for (size_t i = 0; i < std::min<size_t>(50, scenario_->evaluation.size()); ++i) {
    RewriteOutcome out = mdp.rewrite(*scenario_->evaluation[i]);
    EXPECT_LE(out.planning_ms, 500.0 + 2.0 * 3 * 50.0 + 5.0);
    EXPECT_GE(out.steps, 1u);
  }
}

}  // namespace
}  // namespace maliva
