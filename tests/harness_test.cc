// Harness tests: experiment runner aggregation, table rendering, claim
// verdicts, and the service hooks bench_paper_claims drives (ApproachFor,
// MakeEnv, TrainAgentOn).

#include <gtest/gtest.h>

#include <sstream>

#include "harness/experiment.h"
#include "qte/accurate_qte.h"
#include "service/service.h"

namespace maliva {
namespace {

class HarnessTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScenarioConfig cfg;
    cfg.kind = DatasetKind::kTwitter;
    cfg.num_rows = 20000;
    cfg.num_queries = 120;
    cfg.tau_ms = 500.0;
    cfg.seed = 51;
    scenario_ = new Scenario(BuildScenario(cfg));
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }
  static Scenario* scenario_;
};

Scenario* HarnessTest::scenario_ = nullptr;

Approach ConstantApproach(const std::string& name, double total_ms, bool viable) {
  return {name, [total_ms, viable](const Query&) {
            RewriteOutcome out;
            out.planning_ms = 10.0;
            out.exec_ms = total_ms - 10.0;
            out.total_ms = total_ms;
            out.viable = viable;
            out.quality = 0.5;
            return out;
          }};
}

TEST_F(HarnessTest, RunExperimentAggregates) {
  BucketedWorkload bw = BucketQueries(*scenario_->oracle, scenario_->evaluation,
                                      scenario_->options, 500.0,
                                      BucketScheme::Exact0To4());
  std::vector<Approach> approaches = {ConstantApproach("always", 100.0, true),
                                      ConstantApproach("never", 900.0, false)};
  ExperimentResult r = RunExperiment(approaches, bw);
  ASSERT_EQ(r.approach_names.size(), 2u);
  ASSERT_EQ(r.buckets.size(), 6u);
  for (const BucketMetrics& bm : r.buckets) {
    if (bm.num_queries == 0) continue;
    EXPECT_DOUBLE_EQ(bm.per_approach[0].vqp, 100.0);
    EXPECT_DOUBLE_EQ(bm.per_approach[1].vqp, 0.0);
    EXPECT_DOUBLE_EQ(bm.per_approach[0].aqrt_ms, 100.0);
    EXPECT_DOUBLE_EQ(bm.per_approach[0].plan_ms, 10.0);
    EXPECT_DOUBLE_EQ(bm.per_approach[0].exec_ms, 90.0);
    EXPECT_DOUBLE_EQ(bm.per_approach[0].quality, 0.5);
  }
}

TEST_F(HarnessTest, TablePrintersEmitAllBucketsAndApproaches) {
  BucketedWorkload bw = BucketQueries(*scenario_->oracle, scenario_->evaluation,
                                      scenario_->options, 500.0,
                                      BucketScheme::Exact0To4());
  // A name exactly as wide as a column (22 characters) must still be
  // separated from the next column's name.
  const std::string wide = "2-stage MDP (Accu-QTE)";
  ASSERT_EQ(wide.size(), 22u);
  ExperimentResult r = RunExperiment(
      {ConstantApproach(wide, 50.0, true), ConstantApproach("alpha", 50.0, true)}, bw);
  std::ostringstream vqp, aqrt, quality, sizes;
  PrintVqpTable(r, "t", vqp);
  PrintAqrtTable(r, "t", aqrt);
  PrintQualityTable(r, "t", quality);
  PrintBucketSizes(bw, "t", sizes);
  for (const std::string& s :
       {vqp.str(), aqrt.str(), quality.str()}) {
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find(wide + " alpha"), std::string::npos) << s;
    EXPECT_NE(s.find(">=5"), std::string::npos);
    EXPECT_NE(s.find("bucket"), std::string::npos);
  }
  EXPECT_NE(sizes.str().find(">=5"), std::string::npos);
}

TEST_F(HarnessTest, ClaimVerdictsCoverAllFourOutcomes) {
  BucketedWorkload bw = BucketQueries(*scenario_->oracle, scenario_->evaluation,
                                      scenario_->options, 500.0,
                                      BucketScheme::Exact0To4());
  ExperimentResult r = RunExperiment({ConstantApproach("fast", 100.0, true),
                                      ConstantApproach("slow", 900.0, false)},
                                     bw);
  // Column `winner` beats column `loser` on VQP in every non-empty bucket.
  auto beats = [](size_t winner, size_t loser) {
    return [winner, loser](const ExperimentResult& res) {
      for (const BucketMetrics& bm : res.buckets) {
        if (bm.num_queries > 0 &&
            bm.per_approach[winner].vqp <= bm.per_approach[loser].vqp) {
          return false;
        }
      }
      return true;
    };
  };
  Claim holds{"fast_beats_slow", beats(0, 1)};
  Claim fails{"slow_beats_fast", beats(1, 0)};

  EXPECT_EQ(JudgeClaim(holds, r, /*known_failing=*/false), ClaimVerdict::kHeld);
  EXPECT_EQ(JudgeClaim(fails, r, /*known_failing=*/true), ClaimVerdict::kKnownFailing);
  EXPECT_EQ(JudgeClaim(fails, r, /*known_failing=*/false),
            ClaimVerdict::kUnexpectedFailure);
  EXPECT_EQ(JudgeClaim(holds, r, /*known_failing=*/true), ClaimVerdict::kUnexpectedPass);

  EXPECT_TRUE(AllVerdictsExpected({}));
  EXPECT_TRUE(
      AllVerdictsExpected({ClaimVerdict::kHeld, ClaimVerdict::kKnownFailing}));
  EXPECT_FALSE(AllVerdictsExpected(
      {ClaimVerdict::kHeld, ClaimVerdict::kUnexpectedFailure}));
  EXPECT_FALSE(AllVerdictsExpected(
      {ClaimVerdict::kKnownFailing, ClaimVerdict::kUnexpectedPass}));
  EXPECT_STREQ(ClaimVerdictName(ClaimVerdict::kHeld), "held");
  EXPECT_STREQ(ClaimVerdictName(ClaimVerdict::kKnownFailing), "known-failing");
  EXPECT_STREQ(ClaimVerdictName(ClaimVerdict::kUnexpectedFailure),
               "UNEXPECTED FAILURE");
  EXPECT_STREQ(ClaimVerdictName(ClaimVerdict::kUnexpectedPass), "UNEXPECTED PASS");
}

TEST_F(HarnessTest, SetupBaselineIsCached) {
  MalivaService service(scenario_,
                        ServiceConfig().WithTrainerIterations(3).WithAgentSeeds(1));
  Approach a = ApproachFor(service, "baseline");
  Approach b = ApproachFor(service, "baseline");
  const Query& q = *scenario_->evaluation[0];
  EXPECT_DOUBLE_EQ(a.rewrite(q).total_ms, b.rewrite(q).total_ms);
}

TEST_F(HarnessTest, SetupEnvWiring) {
  MalivaService service(scenario_,
                        ServiceConfig().WithTrainerIterations(2).WithAgentSeeds(1));
  AccurateQte qte;
  RewriterEnv renv = service.MakeEnv(&qte);
  EXPECT_EQ(renv.engine, scenario_->engine.get());
  EXPECT_EQ(renv.oracle, scenario_->oracle.get());
  EXPECT_EQ(renv.options, &scenario_->options);
  EXPECT_DOUBLE_EQ(renv.env_config.tau_ms, 500.0);
  EXPECT_DOUBLE_EQ(renv.env_config.beta, 1.0);
  EXPECT_EQ(renv.env_config.quality, nullptr);

  RewriterEnv qa = service.MakeEnv(&qte, 0.5);
  EXPECT_NE(qa.env_config.quality, nullptr);
}

TEST_F(HarnessTest, TrainAgentOnRecordsHistory) {
  ServiceConfig config = ServiceConfig().WithTrainerIterations(4).WithAgentSeeds(1);
  config.trainer.patience = 100;
  MalivaService service(scenario_, config);
  std::vector<Trainer::IterationStats> history;
  std::unique_ptr<QAgent> agent = service.TrainAgentOn(scenario_->train, 7, &history);
  ASSERT_NE(agent, nullptr);
  EXPECT_EQ(history.size(), 4u);
  double vqp = service.EvaluateAgentVqp(*agent, scenario_->validation);
  EXPECT_GE(vqp, 0.0);
  EXPECT_LE(vqp, 100.0);
}

TEST_F(HarnessTest, EmptyBucketMetricsAreZeroed) {
  // Force an empty bucket by using an impossible tau for bucketing.
  BucketedWorkload bw = BucketQueries(*scenario_->oracle, scenario_->evaluation,
                                      scenario_->options, 1e-6,
                                      BucketScheme::Exact0To4());
  // Everything lands in bucket 0 (no viable plans at tau ~ 0).
  EXPECT_EQ(bw.buckets[0].size(), scenario_->evaluation.size());
  ExperimentResult r = RunExperiment({ConstantApproach("a", 1.0, true)}, bw);
  for (size_t b = 1; b < r.buckets.size(); ++b) {
    EXPECT_EQ(r.buckets[b].num_queries, 0u);
  }
}

}  // namespace
}  // namespace maliva
