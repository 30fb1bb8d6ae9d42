// Rewriter tests: Algorithm 2 invariants, outcome accounting, and the
// two-stage hand-off semantics (Section 6.2).

#include <gtest/gtest.h>

#include "core/trainer.h"
#include "qte/accurate_qte.h"
#include "workload/difficulty.h"
#include "workload/scenario.h"

namespace maliva {
namespace {

class RewriterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScenarioConfig cfg;
    cfg.kind = DatasetKind::kTwitter;
    cfg.num_rows = 30000;
    cfg.num_queries = 200;
    cfg.tau_ms = 500.0;
    cfg.seed = 61;
    cfg.approx_sample_rates = {0.2, 0.4};
    scenario_ = new Scenario(BuildScenario(cfg));
    qte_ = new AccurateQte();
    quality_ = new QualityOracle(scenario_->engine.get());

    // Train one small exact agent shared across tests.
    RewriterEnv renv = ExactEnv();
    TrainerConfig tc;
    tc.max_iterations = 8;
    tc.seed = 3;
    Trainer trainer(renv, tc);
    exact_agent_ = trainer.Train(scenario_->train).release();
  }
  static void TearDownTestSuite() {
    delete exact_agent_;
    delete quality_;
    delete qte_;
    delete scenario_;
    exact_agent_ = nullptr;
    quality_ = nullptr;
    qte_ = nullptr;
    scenario_ = nullptr;
  }

  static RewriterEnv ExactEnv() {
    RewriterEnv renv;
    renv.engine = scenario_->engine.get();
    renv.oracle = scenario_->oracle.get();
    renv.options = &scenario_->options;
    renv.qte = qte_;
    renv.env_config.tau_ms = 500.0;
    return renv;
  }

  static Scenario* scenario_;
  static AccurateQte* qte_;
  static QualityOracle* quality_;
  static QAgent* exact_agent_;
};

Scenario* RewriterTest::scenario_ = nullptr;
AccurateQte* RewriterTest::qte_ = nullptr;
QualityOracle* RewriterTest::quality_ = nullptr;
QAgent* RewriterTest::exact_agent_ = nullptr;

TEST_F(RewriterTest, OutcomeAccountingConsistent) {
  MalivaRewriter rewriter(ExactEnv(), exact_agent_, "mdp");
  for (size_t i = 0; i < 40; ++i) {
    const Query& q = *scenario_->evaluation[i];
    RewriteOutcome out = rewriter.Rewrite(q);
    EXPECT_NEAR(out.total_ms, out.planning_ms + out.exec_ms, 1e-9);
    EXPECT_EQ(out.viable, out.total_ms <= 500.0);
    EXPECT_GE(out.steps, 1u);
    EXPECT_LE(out.steps, scenario_->options.size());
    EXPECT_LT(out.option_index, scenario_->options.size());
    EXPECT_FALSE(out.approximate);  // exact option set
    EXPECT_DOUBLE_EQ(out.quality, 1.0);
    // The reported execution time must equal the oracle's ground truth.
    EXPECT_DOUBLE_EQ(out.exec_ms,
                     scenario_->oracle->TrueTimeMs(q, scenario_->options[out.option_index]));
  }
}

TEST_F(RewriterTest, CommitsToEstimatedViableOption) {
  // Whenever the outcome is viable, Algorithm 2's commit condition implies
  // the chosen option's true time fits within (tau - planning time).
  MalivaRewriter rewriter(ExactEnv(), exact_agent_, "mdp");
  for (size_t i = 0; i < 40; ++i) {
    RewriteOutcome out = rewriter.Rewrite(*scenario_->evaluation[i]);
    if (out.viable) {
      EXPECT_LE(out.exec_ms, 500.0 - out.planning_ms + 1e-9);
    }
  }
}

TEST_F(RewriterTest, GreedyEpisodeMatchesRewriter) {
  MalivaRewriter rewriter(ExactEnv(), exact_agent_, "mdp");
  const Query& q = *scenario_->evaluation[5];
  RewriteOutcome a = rewriter.Rewrite(q);
  RewriteOutcome b = RunGreedyEpisode(ExactEnv(), *exact_agent_, q);
  EXPECT_EQ(a.option_index, b.option_index);
  EXPECT_DOUBLE_EQ(a.total_ms, b.total_ms);
}

class TwoStageTest : public RewriterTest {
 protected:
  static RewriteOptionSet ApproxOptions() {
    std::vector<ApproxRule> rules = {{ApproxKind::kSampleTable, 0.2},
                                     {ApproxKind::kSampleTable, 0.4}};
    return CrossWithApproxRules(scenario_->options, rules, /*include_exact=*/false);
  }
};

TEST_F(TwoStageTest, HandoffOnlyWhenExactExhausted) {
  RewriteOptionSet approx_options = ApproxOptions();
  RewriterEnv approx_env = ExactEnv();
  approx_env.options = &approx_options;
  approx_env.env_config.beta = 0.5;
  approx_env.env_config.quality = quality_;

  // Train a tiny stage-2 agent.
  TrainerConfig tc;
  tc.max_iterations = 5;
  tc.seed = 9;
  Trainer trainer(approx_env, tc);
  std::unique_ptr<QAgent> approx_agent = trainer.Train(scenario_->train);

  TwoStageRewriter two_stage(ExactEnv(), exact_agent_, approx_env,
                             approx_agent.get(), "2-stage");
  MalivaRewriter exact_only(ExactEnv(), exact_agent_, "exact");

  size_t approximated = 0, exact_viable_kept = 0;
  for (size_t i = 0; i < 60 && i < scenario_->evaluation.size(); ++i) {
    const Query& q = *scenario_->evaluation[i];
    RewriteOutcome exact = exact_only.Rewrite(q);
    RewriteOutcome staged = two_stage.Rewrite(q);
    if (exact.viable) {
      // Stage 1 found a viable exact plan: two-stage must not approximate.
      EXPECT_FALSE(staged.approximate);
      EXPECT_DOUBLE_EQ(staged.quality, 1.0);
      ++exact_viable_kept;
    }
    approximated += staged.approximate ? 1 : 0;
  }
  EXPECT_GT(exact_viable_kept, 10u);
  EXPECT_GT(approximated, 0u);  // some hopeless queries were approximated
}

TEST_F(TwoStageTest, ApproximationImprovesZeroViableVqp) {
  RewriteOptionSet approx_options = ApproxOptions();
  RewriterEnv approx_env = ExactEnv();
  approx_env.options = &approx_options;
  approx_env.env_config.beta = 0.5;
  approx_env.env_config.quality = quality_;
  TrainerConfig tc;
  tc.max_iterations = 5;
  tc.seed = 10;
  Trainer trainer(approx_env, tc);
  std::unique_ptr<QAgent> approx_agent = trainer.Train(scenario_->train);
  TwoStageRewriter two_stage(ExactEnv(), exact_agent_, approx_env,
                             approx_agent.get(), "2-stage");

  // Zero-viable queries are rare in any one split, so draw them from the
  // scenario's whole query pool.
  size_t rescued = 0, zero_viable = 0;
  for (const Query& q : scenario_->queries) {
    if (CountViablePlans(*scenario_->oracle, q, scenario_->options, 500.0) > 0) {
      continue;
    }
    ++zero_viable;
    RewriteOutcome out = two_stage.Rewrite(q);
    rescued += out.viable ? 1 : 0;
  }
  ASSERT_GE(zero_viable, 5u) << "the fixture must hold zero-viable queries";
  EXPECT_GT(rescued, 0u);
}

}  // namespace
}  // namespace maliva
