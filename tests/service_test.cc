// Service-layer tests: RewriterFactory round-trips, Serve/ServeBatch
// semantics, per-request overrides, and Status (not crash) error paths.

#include <gtest/gtest.h>

#include <bit>
#include <span>

#include "baselines/baseline.h"
#include "core/query_env.h"
#include "core/trainer.h"
#include "service/service.h"

namespace maliva {
namespace {

class ServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScenarioConfig cfg;
    cfg.kind = DatasetKind::kTwitter;
    cfg.num_rows = 20000;
    cfg.num_queries = 120;
    cfg.tau_ms = 500.0;
    cfg.seed = 71;
    cfg.approx_sample_rates = {0.2, 0.4};
    scenario_ = new Scenario(BuildScenario(cfg));
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }

  /// Cheap training so every strategy can be built in-test.
  static ServiceConfig SmallConfig() {
    return ServiceConfig()
        .WithTrainerIterations(3)
        .WithAgentSeeds(1)
        .WithApproxRules({{ApproxKind::kSampleTable, 0.2},
                          {ApproxKind::kSampleTable, 0.4}});
  }

  static Scenario* scenario_;
};

Scenario* ServiceTest::scenario_ = nullptr;

void ExpectSameOutcome(const RewriteOutcome& a, const RewriteOutcome& b) {
  EXPECT_EQ(a.option_index, b.option_index);
  EXPECT_DOUBLE_EQ(a.planning_ms, b.planning_ms);
  EXPECT_DOUBLE_EQ(a.exec_ms, b.exec_ms);
  EXPECT_DOUBLE_EQ(a.total_ms, b.total_ms);
  EXPECT_EQ(a.viable, b.viable);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_DOUBLE_EQ(a.quality, b.quality);
  EXPECT_EQ(a.approximate, b.approximate);
}

TEST_F(ServiceTest, FactoryRoundTripsEveryRegisteredStrategy) {
  MalivaService service(scenario_, SmallConfig());
  std::vector<std::string> names = RewriterFactory::Global().KnownStrategies();
  ASSERT_GE(names.size(), 7u);
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    Result<const Rewriter*> built = service.GetRewriter(name);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    EXPECT_FALSE(built.value()->name().empty());
    EXPECT_GT(built.value()->default_tau_ms(), 0.0);
    // Second lookup returns the cached instance.
    Result<const Rewriter*> again = service.GetRewriter(name);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(built.value(), again.value());
    // And the strategy actually serves.
    RewriteRequest req;
    req.query = scenario_->evaluation[0];
    req.strategy = name;
    Result<RewriteResponse> resp = service.Serve(req);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp.value().strategy, name);
    EXPECT_FALSE(resp.value().rewritten_sql.empty());
  }
}

TEST_F(ServiceTest, RegisteredStrategiesContainTheBuiltins) {
  std::vector<std::string> names = RewriterFactory::Global().KnownStrategies();
  for (const char* expected : {"baseline", "naive", "mdp/accurate", "mdp/sampling",
                               "bao", "quality/one-stage", "quality/two-stage"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing builtin strategy " << expected;
  }
}

TEST_F(ServiceTest, ServeBatchMatchesSequentialServe) {
  // Two fresh services train identical agents (seeded training), so batch
  // results on one must match sequential results on the other byte for byte.
  MalivaService sequential(scenario_, SmallConfig());
  MalivaService batched(scenario_, SmallConfig());

  std::vector<RewriteRequest> requests;
  for (size_t i = 0; i < 12 && i < scenario_->evaluation.size(); ++i) {
    RewriteRequest req;
    req.query = scenario_->evaluation[i];
    req.strategy = (i % 3 == 0) ? "baseline" : (i % 3 == 1) ? "mdp/accurate" : "naive";
    if (i % 4 == 0) req.tau_ms = 250.0 + 50.0 * static_cast<double>(i);
    requests.push_back(req);
  }

  std::vector<Result<RewriteResponse>> batch = batched.ServeBatch(requests);
  ASSERT_EQ(batch.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE(i);
    Result<RewriteResponse> one = sequential.Serve(requests[i]);
    ASSERT_TRUE(one.ok());
    ASSERT_TRUE(batch[i].ok());
    ExpectSameOutcome(one.value().outcome, batch[i].value().outcome);
    EXPECT_EQ(one.value().rewritten_sql, batch[i].value().rewritten_sql);
    EXPECT_EQ(one.value().strategy, batch[i].value().strategy);
  }
}

TEST_F(ServiceTest, ServeBatchIsDeterministic) {
  MalivaService service(scenario_, SmallConfig());
  std::vector<RewriteRequest> requests;
  for (size_t i = 0; i < 8 && i < scenario_->evaluation.size(); ++i) {
    RewriteRequest req;
    req.query = scenario_->evaluation[i];
    req.strategy = "mdp/sampling";
    requests.push_back(req);
  }
  std::vector<Result<RewriteResponse>> first = service.ServeBatch(requests);
  std::vector<Result<RewriteResponse>> second = service.ServeBatch(requests);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_TRUE(first[i].ok());
    ASSERT_TRUE(second[i].ok());
    ExpectSameOutcome(first[i].value().outcome, second[i].value().outcome);
  }
}

TEST_F(ServiceTest, UnknownStrategyReturnsNotFound) {
  MalivaService service(scenario_, SmallConfig());
  Result<const Rewriter*> built = service.GetRewriter("definitely/not-a-strategy");
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), Status::Code::kNotFound);

  RewriteRequest req;
  req.query = scenario_->evaluation[0];
  req.strategy = "definitely/not-a-strategy";
  Result<RewriteResponse> resp = service.Serve(req);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), Status::Code::kNotFound);
}

TEST_F(ServiceTest, QualityStrategiesWithoutRulesReturnFailedPrecondition) {
  MalivaService service(scenario_, ServiceConfig()
                                       .WithTrainerIterations(2)
                                       .WithAgentSeeds(1));  // no approx rules
  for (const char* name : {"quality/one-stage", "quality/two-stage"}) {
    SCOPED_TRACE(name);
    Result<const Rewriter*> built = service.GetRewriter(name);
    ASSERT_FALSE(built.ok());
    EXPECT_EQ(built.status().code(), Status::Code::kFailedPrecondition);
  }
}

TEST_F(ServiceTest, ExactRuleInApproxRulesIsRejected) {
  ServiceConfig config = ServiceConfig().WithTrainerIterations(2).WithAgentSeeds(1);
  config.approx_rules = {{ApproxKind::kNone, 1.0}};
  MalivaService service(scenario_, config);
  Result<const Rewriter*> built = service.GetRewriter("quality/one-stage");
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), Status::Code::kInvalidArgument);
}

TEST_F(ServiceTest, MissingAgentReturnsStatusInsteadOfCrashing) {
  // A scenario without a training split cannot train agents: strategies that
  // need one must fail with a Status, while "baseline" still serves.
  ScenarioConfig cfg;
  cfg.kind = DatasetKind::kTwitter;
  cfg.num_rows = 5000;
  cfg.num_queries = 40;
  cfg.seed = 72;
  Scenario scenario = BuildScenario(cfg);
  scenario.train.clear();

  MalivaService service(&scenario, ServiceConfig().WithAgentSeeds(1));
  Result<const Rewriter*> mdp = service.GetRewriter("mdp/accurate");
  ASSERT_FALSE(mdp.ok());
  EXPECT_EQ(mdp.status().code(), Status::Code::kFailedPrecondition);
  Result<const Rewriter*> bao = service.GetRewriter("bao");
  ASSERT_FALSE(bao.ok());
  EXPECT_EQ(bao.status().code(), Status::Code::kFailedPrecondition);

  RewriteRequest req;
  req.query = scenario.evaluation[0];
  req.strategy = "baseline";
  EXPECT_TRUE(service.Serve(req).ok());
}

TEST_F(ServiceTest, InvalidRequestsAreRejected) {
  MalivaService service(scenario_, SmallConfig());

  RewriteRequest null_query;
  null_query.strategy = "baseline";
  EXPECT_EQ(service.Serve(null_query).status().code(),
            Status::Code::kInvalidArgument);

  RewriteRequest bad_tau;
  bad_tau.query = scenario_->evaluation[0];
  bad_tau.strategy = "baseline";
  bad_tau.tau_ms = -5.0;
  EXPECT_EQ(service.Serve(bad_tau).status().code(), Status::Code::kInvalidArgument);

  RewriteRequest bad_floor;
  bad_floor.query = scenario_->evaluation[0];
  bad_floor.strategy = "baseline";
  bad_floor.quality_floor = 1.5;
  EXPECT_EQ(service.Serve(bad_floor).status().code(),
            Status::Code::kInvalidArgument);
}

TEST_F(ServiceTest, PerRequestTauOverrideControlsViability) {
  MalivaService service(scenario_, SmallConfig());
  RewriteRequest req;
  req.query = scenario_->evaluation[0];
  req.strategy = "baseline";

  req.tau_ms = 1e9;  // everything is viable under an enormous budget
  Result<RewriteResponse> generous = service.Serve(req);
  ASSERT_TRUE(generous.ok());
  EXPECT_TRUE(generous.value().outcome.viable);

  req.tau_ms = 1e-3;  // nothing is viable under a microscopic one
  Result<RewriteResponse> strict = service.Serve(req);
  ASSERT_TRUE(strict.ok());
  EXPECT_FALSE(strict.value().outcome.viable);

  // The override changes viability accounting only, not the plan choice.
  EXPECT_DOUBLE_EQ(generous.value().outcome.total_ms,
                   strict.value().outcome.total_ms);
}

TEST_F(ServiceTest, QualityFloorFallsBackToExactPlan) {
  MalivaService service(scenario_, SmallConfig());
  // Find a query the quality-aware strategy serves approximately.
  const Query* approximated = nullptr;
  for (const Query* q : scenario_->evaluation) {
    RewriteRequest req;
    req.query = q;
    req.strategy = "quality/one-stage";
    Result<RewriteResponse> resp = service.Serve(req);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    if (resp.value().outcome.approximate && resp.value().outcome.quality < 0.99) {
      approximated = q;
      break;
    }
  }
  ASSERT_NE(approximated, nullptr) << "no query was served approximately";

  RewriteRequest strict;
  strict.query = approximated;
  strict.strategy = "quality/one-stage";
  strict.quality_floor = 0.99;
  Result<RewriteResponse> resp = service.Serve(strict);
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp.value().exact_fallback);
  EXPECT_EQ(resp.value().strategy, "baseline");  // who actually served it
  EXPECT_DOUBLE_EQ(resp.value().outcome.quality, 1.0);
  EXPECT_FALSE(resp.value().outcome.approximate);
  // The first attempt's planning time stays on the bill: baseline alone
  // makes zero QTE calls and pays only the optimizer pass.
  EXPECT_GT(resp.value().outcome.steps, 0u);
  EXPECT_NEAR(resp.value().outcome.total_ms,
              resp.value().outcome.planning_ms + resp.value().outcome.exec_ms,
              1e-9);
}

TEST_F(ServiceTest, ExplicitQteJitterSeedIsHonored) {
  QteParams custom;
  custom.jitter_seed = 424242;
  ServiceConfig config = SmallConfig();
  config.qte = custom;
  MalivaService service(scenario_, config);
  EXPECT_EQ(service.qte_params().jitter_seed, 424242u);
}

TEST_F(ServiceTest, CustomStrategyCanBeRegistered) {
  // One-time global registration (the registry outlives the test).
  static bool registered = [] {
    Status st = RewriterFactory::Global().Register(
        "custom/lenient-baseline",
        [](MalivaService& s) -> Result<std::unique_ptr<Rewriter>> {
          return std::unique_ptr<Rewriter>(std::make_unique<BaselineRewriter>(
              s.scenario()->engine.get(), s.scenario()->oracle.get(),
              /*tau_ms=*/10.0 * s.scenario()->config.tau_ms));
        });
    return st.ok();
  }();
  ASSERT_TRUE(registered);

  // Duplicate registration is rejected.
  Status dup = RewriterFactory::Global().Register(
      "custom/lenient-baseline",
      [](MalivaService&) -> Result<std::unique_ptr<Rewriter>> {
        return Status::Internal("never built");
      });
  EXPECT_FALSE(dup.ok());

  MalivaService service(scenario_, SmallConfig());
  RewriteRequest req;
  req.query = scenario_->evaluation[0];
  req.strategy = "custom/lenient-baseline";
  Result<RewriteResponse> resp = service.Serve(req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  // 10x budget: the baseline plan is judged against 5000ms, not 500ms.
  EXPECT_EQ(resp.value().outcome.viable,
            resp.value().outcome.total_ms <= 5000.0);
}

TEST_F(ServiceTest, QteParamsResolveFromScenarioAndConfig) {
  // By default the service adopts the scenario's QTE cost parameters.
  MalivaService from_scenario(scenario_, SmallConfig());
  EXPECT_DOUBLE_EQ(from_scenario.qte_params().unit_cost_ms,
                   scenario_->config.qte.unit_cost_ms);

  // An explicit config override wins.
  QteParams custom;
  custom.unit_cost_ms = 99.0;
  ServiceConfig config = SmallConfig();
  config.qte = custom;
  MalivaService overridden(scenario_, config);
  EXPECT_DOUBLE_EQ(overridden.qte_params().unit_cost_ms, 99.0);

  // Either way the env wiring carries the resolved values.
  EXPECT_DOUBLE_EQ(overridden.MakeEnv(nullptr).qte_params.unit_cost_ms, 99.0);
}

/// Asserts `a` and `b` give bit-equal Q-values on each query's initial state.
void ExpectBitEqualQValues(const RewriterEnv& renv, const QAgent& a, const QAgent& b,
                           const std::vector<const Query*>& queries) {
  for (const Query* q : queries) {
    QteContext ctx = renv.MakeContext(*q);
    QueryEnv env(&ctx, renv.qte, renv.env_config);
    std::vector<double> features = env.Features();
    std::vector<double> qa = a.QValues(features);
    std::vector<double> qb = b.QValues(features);
    ASSERT_EQ(qa.size(), qb.size());
    for (size_t i = 0; i < qa.size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(qa[i]), std::bit_cast<uint64_t>(qb[i]))
          << "query " << q->id << " action " << i;
    }
  }
}

TEST(ServiceTrainingTest, SingleSeedSkipsValidationAndMatchesBareTrainer) {
  // With one agent seed there is nothing to choose between, so building
  // mdp/accurate runs no hold-out validation episode: the scenario's oracle
  // holds exactly the training split's (query, option) grid, which the
  // multi-threaded service executes before training, and nothing a
  // validation episode would add. The served agent is a bare
  // Trainer::Train's agent on the same split, bit for bit.
  ScenarioConfig cfg;
  cfg.kind = DatasetKind::kTwitter;
  cfg.num_rows = 5000;
  cfg.num_queries = 90;
  cfg.seed = 83;
  const ServiceConfig config = ServiceConfig().WithTrainerIterations(2).WithAgentSeeds(1);

  Scenario served_scenario = BuildScenario(cfg);
  ASSERT_FALSE(served_scenario.validation.empty());
  ServiceConfig served_config = config;
  served_config.num_threads = 4;
  MalivaService service(&served_scenario, served_config);
  Result<const Rewriter*> built = service.GetRewriter("mdp/accurate");
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const auto* rewriter = dynamic_cast<const MalivaRewriter*>(built.value());
  ASSERT_NE(rewriter, nullptr);

  Scenario bare_scenario = BuildScenario(cfg);
  MalivaService bare_service(&bare_scenario, config);
  RewriterEnv renv = bare_service.MakeEnv(bare_service.accurate_qte());
  Trainer trainer(renv, config.trainer);
  std::unique_ptr<QAgent> bare = trainer.Train(bare_scenario.train);

  const size_t grid = served_scenario.train.size() * served_scenario.options.size();
  EXPECT_EQ(served_scenario.oracle->CacheSize(), grid);
  EXPECT_GT(bare_scenario.oracle->CacheSize(), 0u);
  EXPECT_LE(bare_scenario.oracle->CacheSize(), grid);

  ExpectBitEqualQValues(renv, rewriter->agent(), *bare, bare_scenario.validation);
}

TEST(ServiceTrainingTest, ParallelPrefillMatchesSequentialBuild) {
  // Ground-truth execution is deterministic and the DQN loop draws the same
  // RNG sequence whatever the oracle memo already holds, so a four-thread
  // service trains every agent bit-identically to a one-thread one, and the
  // one-thread service executes exactly the plans a bare Trainer::Train does.
  ScenarioConfig cfg;
  cfg.kind = DatasetKind::kTpch;
  cfg.num_rows = 5000;
  cfg.num_queries = 60;
  cfg.seed = 47;
  cfg.approx_sample_rates = {0.2, 0.4};
  const ServiceConfig config =
      ServiceConfig().WithTrainerIterations(2).WithAgentSeeds(1).WithApproxRules(
          {{ApproxKind::kSampleTable, 0.2}, {ApproxKind::kSampleTable, 0.4}});

  Scenario sequential_scenario = BuildScenario(cfg);
  Scenario parallel_scenario = BuildScenario(cfg);
  ASSERT_FALSE(sequential_scenario.validation.empty());
  ServiceConfig sequential_config = config;
  sequential_config.num_threads = 1;
  ServiceConfig parallel_config = config;
  parallel_config.num_threads = 4;
  MalivaService sequential(&sequential_scenario, sequential_config);
  MalivaService parallel(&parallel_scenario, parallel_config);

  Result<const Rewriter*> built = sequential.GetRewriter("mdp/accurate");
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Scenario bare_scenario = BuildScenario(cfg);
  MalivaService bare_service(&bare_scenario, config);
  Trainer trainer(bare_service.MakeEnv(bare_service.accurate_qte()), config.trainer);
  trainer.Train(bare_scenario.train);
  EXPECT_GT(bare_scenario.oracle->CacheSize(), 0u);
  EXPECT_EQ(sequential_scenario.oracle->CacheSize(), bare_scenario.oracle->CacheSize());

  for (const char* name : {"mdp/accurate", "mdp/sampling", "quality/two-stage"}) {
    SCOPED_TRACE(name);
    Result<const Rewriter*> seq = sequential.GetRewriter(name);
    Result<const Rewriter*> par = parallel.GetRewriter(name);
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
    ASSERT_TRUE(par.ok()) << par.status().ToString();
    if (const auto* two_stage = dynamic_cast<const TwoStageRewriter*>(seq.value())) {
      const auto* other = dynamic_cast<const TwoStageRewriter*>(par.value());
      ASSERT_NE(other, nullptr);
      ExpectBitEqualQValues(two_stage->approx_renv(), two_stage->approx_agent(),
                            other->approx_agent(), sequential_scenario.validation);
      continue;
    }
    const auto* seq_agent = dynamic_cast<const MalivaRewriter*>(seq.value());
    const auto* par_agent = dynamic_cast<const MalivaRewriter*>(par.value());
    ASSERT_NE(seq_agent, nullptr);
    ASSERT_NE(par_agent, nullptr);
    ExpectBitEqualQValues(seq_agent->renv(), seq_agent->agent(), par_agent->agent(),
                          sequential_scenario.validation);
  }
}


}  // namespace
}  // namespace maliva
