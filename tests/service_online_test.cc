// Online learning plane tests at the service layer. The serve+retrain
// stress test below is the TSan/ASan coverage of the ModelRegistry /
// ContinualTrainer / ShardedReplaySink interplay.
//
// Covered contracts:
//   * off (default): ServeBatch results stay byte-identical at 1/4/8
//     threads, and online-on-before-any-retrain serves decisions identical
//     to the frozen service (snapshot v1 is a faithful clone);
//   * snapshot versions only move up under concurrent serve + background
//     retrain pressure;
//   * a failed validation gate leaves the serving snapshot untouched, and
//     ModelRegistry::Rollback restores the predecessor (never past v1);
//   * a background round that throws is counted as rejected, publishes
//     nothing, and leaves the key able to train again;
//   * ServiceConfig::Validate() rejects online-knob pathologies;
//   * on a drifted query stream, continual retraining publishes new
//     versions and serves more viable queries than the frozen agent.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "qte/accurate_qte.h"
#include "service/continual_trainer.h"
#include "service/service.h"
#include "workload/query_gen.h"

namespace maliva {
namespace {

class ServiceOnlineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScenarioConfig cfg;
    cfg.kind = DatasetKind::kTwitter;
    cfg.num_rows = 20000;
    cfg.num_queries = 120;
    cfg.tau_ms = 500.0;
    cfg.seed = 151;
    scenario_ = new Scenario(BuildScenario(cfg));
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }

  static ServiceConfig SmallConfig() {
    return ServiceConfig().WithTrainerIterations(3).WithAgentSeeds(1);
  }

  static std::vector<RewriteRequest> MdpRequests(size_t n) {
    std::vector<RewriteRequest> requests;
    requests.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      RewriteRequest req;
      req.query = scenario_->evaluation[i % scenario_->evaluation.size()];
      req.strategy = "mdp/accurate";
      requests.push_back(req);
    }
    return requests;
  }

  static void ExpectSameDecision(const Result<RewriteResponse>& a,
                                 const Result<RewriteResponse>& b) {
    ASSERT_EQ(a.ok(), b.ok());
    if (!a.ok()) {
      EXPECT_EQ(a.status().code(), b.status().code());
      return;
    }
    const RewriteResponse& ra = a.value();
    const RewriteResponse& rb = b.value();
    EXPECT_EQ(ra.strategy, rb.strategy);
    EXPECT_EQ(ra.rewritten_sql, rb.rewritten_sql);
    EXPECT_EQ(ra.outcome.option_index, rb.outcome.option_index);
    EXPECT_EQ(ra.outcome.planning_ms, rb.outcome.planning_ms);
    EXPECT_EQ(ra.outcome.exec_ms, rb.outcome.exec_ms);
    EXPECT_EQ(ra.outcome.total_ms, rb.outcome.total_ms);
    EXPECT_EQ(ra.outcome.viable, rb.outcome.viable);
    EXPECT_EQ(ra.outcome.steps, rb.outcome.steps);
    EXPECT_EQ(ra.outcome.quality, rb.outcome.quality);
  }

  static Scenario* scenario_;
};

Scenario* ServiceOnlineTest::scenario_ = nullptr;

TEST_F(ServiceOnlineTest, OffModeStaysByteIdenticalAcrossThreadCounts) {
  // Regression of the PR 2/3 contract with the online code paths compiled
  // in but disabled: identical results at 1/4/8 threads, no online
  // telemetry, no snapshot versions on responses.
  std::vector<RewriteRequest> requests = MdpRequests(48);
  std::vector<Result<RewriteResponse>> reference;
  for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    ServiceConfig config = SmallConfig();
    config.num_threads = threads;
    MalivaService service(scenario_, config);
    ASSERT_TRUE(service.Warmup({"mdp/accurate"}).ok());
    std::vector<Result<RewriteResponse>> responses = service.ServeBatch(requests);
    ASSERT_EQ(responses.size(), requests.size());
    for (const Result<RewriteResponse>& resp : responses) {
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      EXPECT_EQ(resp.value().stats.agent_snapshot_version, 0u);
    }
    if (threads == 1) {
      reference = std::move(responses);
    } else {
      for (size_t i = 0; i < requests.size(); ++i) {
        ExpectSameDecision(reference[i], responses[i]);
      }
    }
    ServiceStats stats = service.Stats();
    EXPECT_EQ(stats.online_snapshot_version, 0u);
    EXPECT_EQ(stats.online_transitions, 0u);
    EXPECT_EQ(stats.online_retrains, 0u);
    EXPECT_EQ(service.online_trainer(), nullptr);
    EXPECT_EQ(service.model_registry(), nullptr);
  }
}

TEST_F(ServiceOnlineTest, SnapshotV1ServesDecisionsIdenticalToFrozen) {
  MalivaService frozen(scenario_, SmallConfig());
  // No background workers: the plane is on but no round can fire, so the
  // online service keeps serving the offline warm-up clone.
  ServiceConfig online_config = SmallConfig();
  online_config.online_learning = true;
  online_config.online_trainer_threads = 0;
  MalivaService online(scenario_, online_config);
  ASSERT_TRUE(frozen.Warmup({"mdp/accurate"}).ok());
  ASSERT_TRUE(online.Warmup({"mdp/accurate"}).ok());

  std::vector<RewriteRequest> requests = MdpRequests(32);
  std::vector<Result<RewriteResponse>> a = frozen.ServeBatch(requests);
  std::vector<Result<RewriteResponse>> b = online.ServeBatch(requests);
  for (size_t i = 0; i < requests.size(); ++i) {
    ExpectSameDecision(a[i], b[i]);
    ASSERT_TRUE(b[i].ok());
    EXPECT_EQ(b[i].value().stats.agent_snapshot_version, 1u);
  }

  ServiceStats stats = online.Stats();
  EXPECT_EQ(stats.online_snapshot_version, 1u);
  EXPECT_GT(stats.online_transitions, 0u);  // feedback flows even before retrains
  EXPECT_EQ(stats.online_retrains, 0u);
  ASSERT_NE(online.model_registry(), nullptr);
  EXPECT_EQ(online.model_registry()->CurrentVersion("agent/exact-accurate"), 1u);
}

TEST_F(ServiceOnlineTest, SnapshotVersionMonotonicUnderServeRetrainStress) {
  // 8 serving threads + background fine-tunes with a low trigger threshold:
  // versions observed by requests and by Stats() must only move up. This is
  // the suite's TSan/ASan stress leg.
  ServiceConfig config = SmallConfig();
  config.num_threads = 8;
  config.online_learning = true;
  config.online_min_transitions = 64;
  config.online_gradient_steps = 8;
  config.online_gate_tolerance = 10.0;
  MalivaService service(scenario_, config);
  ASSERT_TRUE(service.Warmup({"mdp/accurate"}).ok());

  std::vector<RewriteRequest> requests = MdpRequests(64);
  uint64_t last_version = 0;
  for (int round = 0; round < 6; ++round) {
    std::vector<Result<RewriteResponse>> responses = service.ServeBatch(requests);
    for (const Result<RewriteResponse>& resp : responses) {
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      EXPECT_GE(resp.value().stats.agent_snapshot_version, 1u);
    }
    uint64_t version = service.Stats().online_snapshot_version;
    EXPECT_GE(version, last_version);
    last_version = version;
  }
  service.online_trainer()->WaitIdle();

  ServiceStats stats = service.Stats();
  EXPECT_GE(stats.online_snapshot_version, last_version);
  EXPECT_GT(stats.online_transitions, 0u);
  // The gate tolerance is wide open, so crossing the trigger threshold six
  // batches in a row must have published at least one fine-tune.
  EXPECT_GE(stats.online_retrains, 1u);
  EXPECT_EQ(stats.online_snapshot_version, 1u + stats.online_retrains);
}

TEST_F(ServiceOnlineTest, FailedValidationGateKeepsServingOldSnapshot) {
  // Strict gate + adversarial feedback: the fine-tuned clone must validate
  // below the warm-up bar, so the round consumes the feedback, rejects the
  // clone, and leaves version 1 live. The poison teaches the clone to
  // *invert* the incumbent's preferences (reward -5 for its best action, +5
  // for its worst, over random states) — a reliably terrible policy on any
  // scenario, unlike "absurd learning rate" destruction, whose degenerate
  // fixed-order policies can accidentally score well on easy validation
  // splits. One Record call keeps the reservoir order deterministic.
  // 16 rewrite options under a 250ms budget make exploration order matter.
  ScenarioConfig cfg;
  cfg.kind = DatasetKind::kTwitter;
  cfg.num_rows = 20000;
  cfg.num_queries = 120;
  cfg.num_attrs = 4;  // 16 rewrite options
  cfg.tau_ms = 250.0;
  cfg.seed = 151;
  Scenario scenario = BuildScenario(cfg);
  ServiceConfig config = SmallConfig().WithTrainerIterations(6);
  config.num_threads = 1;
  config.online_learning = true;
  config.online_gradient_steps = 256;
  config.online_learning_rate = 1e-2;
  config.online_gate_tolerance = 0.0;
  config.online_trainer_threads = 0;
  MalivaService service(&scenario, config);
  ASSERT_TRUE(service.Warmup({"mdp/accurate"}).ok());
  const std::string key = "agent/exact-accurate";
  PublishedModel incumbent = service.online_trainer()->Current(key);
  ASSERT_TRUE(incumbent);
  const size_t num_actions = incumbent.agent->num_actions();
  const size_t feature_dim = 2 * num_actions + 1;

  std::mt19937_64 gen(7);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  std::vector<Experience> poison;
  for (int i = 0; i < 512; ++i) {
    std::vector<double> state(feature_dim);
    for (double& v : state) v = uniform(gen);
    std::vector<double> q = incumbent.agent->QValues(state);
    size_t best = 0;
    size_t worst = 0;
    for (size_t a = 1; a < q.size(); ++a) {
      if (q[a] > q[best]) best = a;
      if (q[a] < q[worst]) worst = a;
    }
    Experience bad;
    bad.state = state;
    bad.action = static_cast<int>(best);
    bad.reward = -5.0;
    bad.terminal = true;
    bad.next_state = state;
    bad.next_valid.assign(num_actions, 0);
    Experience good = bad;
    good.action = static_cast<int>(worst);
    good.reward = 5.0;
    poison.push_back(std::move(bad));
    poison.push_back(std::move(good));
  }
  service.online_trainer()->Record(key, std::move(poison));
  ASSERT_GT(service.Stats().online_transitions_pending, 0u);

  EXPECT_FALSE(service.online_trainer()->RetrainNow(key));

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.online_rejected, 1u);
  EXPECT_EQ(stats.online_retrains, 0u);
  EXPECT_EQ(stats.online_snapshot_version, 1u);
  EXPECT_LT(stats.last_retrain_reward_post, stats.last_retrain_reward_pre);
  EXPECT_EQ(stats.online_transitions_pending, 0u);  // feedback was consumed

  // Requests keep being served by the untouched version-1 snapshot.
  RewriteRequest req;
  req.query = scenario.evaluation[0];
  req.strategy = "mdp/accurate";
  Result<RewriteResponse> resp = service.Serve(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().stats.agent_snapshot_version, 1u);
}

/// The accurate QTE until armed; armed, every estimate throws.
class ThrowingQte : public QueryTimeEstimator {
 public:
  const char* name() const override { return "throwing"; }
  QteEstimate Estimate(const QteContext& ctx, size_t ro_index,
                       SelectivityCache* cache) const override {
    if (armed.load()) throw std::runtime_error("estimator failed");
    return accurate_.Estimate(ctx, ro_index, cache);
  }

  std::atomic<bool> armed{false};

 private:
  AccurateQte accurate_;
};

TEST_F(ServiceOnlineTest, ThrowingBackgroundRoundIsRejectedAndTheNextPublishes) {
  // A round's validation sweep estimates through the key's QTE; one that
  // throws on the trainer's pool must not end the process. It publishes
  // nothing, counts as rejected, and the key's next round runs as usual.
  ThrowingQte qte;
  RewriterEnv renv;
  renv.engine = scenario_->engine.get();
  renv.oracle = scenario_->oracle.get();
  renv.options = &scenario_->options;
  renv.qte = &qte;
  renv.qte_params = scenario_->config.qte;
  renv.env_config.tau_ms = scenario_->config.tau_ms;
  ModelRegistry registry;
  const std::vector<const Query*> validation(scenario_->validation.begin(),
                                             scenario_->validation.begin() + 4);
  ContinualTrainer::Config config;
  config.min_transitions = 16;
  config.gradient_steps = 4;
  config.gate_tolerance = 1e9;  // the gate itself never refuses
  ContinualTrainer trainer(&registry, config);
  const std::string key = "agent/throwing";
  const size_t num_actions = scenario_->options.size();
  trainer.RegisterKey(key, renv, &validation, QAgent(num_actions, 5));
  ASSERT_EQ(trainer.Snapshot().snapshot_version, 1u);

  auto feedback = [&] {
    std::vector<Experience> transitions(config.min_transitions);
    for (size_t i = 0; i < transitions.size(); ++i) {
      Experience& e = transitions[i];
      e.state.assign(2 * num_actions + 1, 0.1 * static_cast<double>(i % 7));
      e.action = static_cast<int>(i % num_actions);
      e.reward = 0.5;
      e.terminal = true;
      e.next_state = e.state;
      e.next_valid.assign(num_actions, 0);
    }
    return transitions;
  };

  qte.armed = true;
  trainer.Record(key, feedback());
  trainer.WaitIdle();
  ContinualTrainer::StatsSnapshot stats = trainer.Snapshot();
  EXPECT_EQ(stats.retrains_rejected, 1u);
  EXPECT_EQ(stats.retrains_published, 0u);
  EXPECT_EQ(stats.snapshot_version, 1u);
  EXPECT_EQ(stats.transitions_pending, 0u);

  qte.armed = false;
  trainer.Record(key, feedback());
  trainer.WaitIdle();
  stats = trainer.Snapshot();
  EXPECT_EQ(stats.retrains_rejected, 1u);
  EXPECT_EQ(stats.retrains_published, 1u);
  EXPECT_EQ(stats.snapshot_version, 2u);
}

TEST_F(ServiceOnlineTest, RegistryRollbackRestoresPredecessorButNeverV1) {
  ServiceConfig config = SmallConfig();
  config.online_learning = true;
  config.online_gradient_steps = 4;
  config.online_gate_tolerance = 10.0;
  config.online_trainer_threads = 0;
  MalivaService service(scenario_, config);
  ASSERT_TRUE(service.Warmup({"mdp/accurate"}).ok());
  ModelRegistry* registry = service.model_registry();
  ASSERT_NE(registry, nullptr);
  const std::string key = "agent/exact-accurate";

  // Publish version 2 through a real (wide-open gate) fine-tune round.
  std::vector<RewriteRequest> requests = MdpRequests(32);
  for (const Result<RewriteResponse>& resp : service.ServeBatch(requests)) {
    ASSERT_TRUE(resp.ok());
  }
  ASSERT_TRUE(service.online_trainer()->RetrainNow(key));
  ASSERT_EQ(registry->CurrentVersion(key), 2u);
  ASSERT_EQ(registry->ChainLength(key), 2u);
  EXPECT_EQ(registry->Current(key).snapshot->meta().retrain_round, 1u);

  // Rollback restores version 1; requests in flight would keep their own
  // shared_ptr, new requests see the predecessor.
  EXPECT_TRUE(registry->Rollback(key));
  EXPECT_EQ(registry->CurrentVersion(key), 1u);
  Result<RewriteResponse> resp = service.Serve(requests[0]);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().stats.agent_snapshot_version, 1u);

  // The offline warm-up snapshot is never rolled back away.
  EXPECT_FALSE(registry->Rollback(key));
  EXPECT_EQ(registry->CurrentVersion(key), 1u);
  EXPECT_FALSE(registry->Rollback("definitely/unknown-key"));

  // A later publish does not reuse the rolled-back version number.
  for (const Result<RewriteResponse>& r : service.ServeBatch(requests)) {
    ASSERT_TRUE(r.ok());
  }
  ASSERT_TRUE(service.online_trainer()->RetrainNow(key));
  EXPECT_EQ(registry->CurrentVersion(key), 3u);
}

TEST_F(ServiceOnlineTest, BoundedSnapshotChainKeepsWarmupFloorAndNewest) {
  // ServiceConfig::online_max_snapshots bounds each agent key's chain: a
  // long-running online shard must not accumulate every model it ever
  // published. Version 1 (the rollback floor) and the newest versions stay;
  // older middles are pruned on publish.
  ServiceConfig config = SmallConfig();
  config.online_learning = true;
  config.online_gradient_steps = 4;
  config.online_gate_tolerance = 10.0;
  config.online_trainer_threads = 0;
  config.online_max_snapshots = 3;
  MalivaService service(scenario_, config);
  ASSERT_TRUE(service.Warmup({"mdp/accurate"}).ok());
  ModelRegistry* registry = service.model_registry();
  ASSERT_NE(registry, nullptr);
  EXPECT_EQ(registry->max_retained_per_key(), 3u);
  const std::string key = "agent/exact-accurate";

  // Five wide-open-gate fine-tune rounds publish versions 2..6.
  std::vector<RewriteRequest> requests = MdpRequests(32);
  for (int round = 0; round < 5; ++round) {
    for (const Result<RewriteResponse>& resp : service.ServeBatch(requests)) {
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    }
    ASSERT_TRUE(service.online_trainer()->RetrainNow(key));
  }
  EXPECT_EQ(registry->CurrentVersion(key), 6u);
  EXPECT_EQ(registry->ChainLength(key), 3u);  // v1 + the newest two

  // Rolling back walks the retained versions and stops at the warm-up
  // floor: 6 -> 5 -> 1 (the pruned middles 2..4 are gone), never past v1.
  EXPECT_TRUE(registry->Rollback(key));
  EXPECT_EQ(registry->CurrentVersion(key), 5u);
  EXPECT_TRUE(registry->Rollback(key));
  EXPECT_EQ(registry->CurrentVersion(key), 1u);
  EXPECT_FALSE(registry->Rollback(key));
  EXPECT_EQ(registry->CurrentVersion(key), 1u);
}

TEST_F(ServiceOnlineTest, ValidateRejectsOnlinePathologies) {
  EXPECT_TRUE(ServiceConfig{.online_learning = true}.Validate().ok());

  auto expect_invalid = [](const ServiceConfig& config) {
    Status st = config.Validate();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  };
  expect_invalid({.online_learning = true, .online_min_transitions = 0});
  // A trigger threshold the bounded sink can never reach would make the
  // plane silently inert.
  expect_invalid({.online_learning = true,
                  .online_min_transitions = ContinualTrainer::Config{}.replay_capacity + 1});
  expect_invalid({.online_learning = true, .online_gradient_steps = 0});
  expect_invalid({.online_learning = true, .online_learning_rate = 0.0});
  expect_invalid({.online_learning = true, .online_learning_rate = -1.0});
  expect_invalid({.online_learning = true, .online_gate_tolerance = -0.5});
  expect_invalid({.online_learning = true,
                  .online_trainer_threads = static_cast<size_t>(-1)});
  // The snapshot-chain bound needs room for the warm-up floor (version 1)
  // plus the serving head.
  expect_invalid({.online_learning = true, .online_max_snapshots = 0});
  expect_invalid({.online_learning = true, .online_max_snapshots = 1});
  EXPECT_TRUE(
      (ServiceConfig{.online_learning = true, .online_max_snapshots = 2}.Validate().ok()));
  // Trainer fields the fine-tune rounds copy are guarded too (a zero
  // target_sync_every would be a modulo divisor of zero).
  {
    ServiceConfig config{.online_learning = true};
    config.trainer.target_sync_every = 0;
    expect_invalid(config);
    config.online_learning = false;
    EXPECT_TRUE(config.Validate().ok());
  }
  {
    ServiceConfig config{.online_learning = true};
    config.trainer.batch_size = 0;
    expect_invalid(config);
  }

  // With the plane off, online knob values are inert and not rejected.
  EXPECT_TRUE(ServiceConfig{.online_min_transitions = 0}.Validate().ok());
}

TEST_F(ServiceOnlineTest, NonAgentStrategiesServeFrozenUnderOnlineMode) {
  ServiceConfig config = SmallConfig();
  config.online_learning = true;
  config.online_trainer_threads = 0;
  MalivaService service(scenario_, config);
  RewriteRequest req;
  req.query = scenario_->evaluation[0];
  for (const char* strategy : {"baseline", "naive", "bao"}) {
    req.strategy = strategy;
    Result<RewriteResponse> resp = service.Serve(req);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp.value().stats.agent_snapshot_version, 0u);
  }
  EXPECT_EQ(service.Stats().online_transitions, 0u);
}

// Drift: a frozen agent and a continually retrained one serve the same
// stream of mid-zoom pan-out tiles (zoom 4-7) that the offline training mix
// rarely contains, with 16 rewrite options under a 250 ms budget that cannot
// cover them, so exploration order decides viability. Serving is sequential
// and every fine-tune round runs synchronously, so the run is deterministic.
TEST_F(ServiceOnlineTest, OnlineAgentBeatsFrozenOnDriftedStream) {
  ScenarioConfig cfg;
  cfg.kind = DatasetKind::kTwitter;
  cfg.num_rows = 60000;
  cfg.num_queries = 400;
  cfg.num_attrs = 4;  // 16 rewrite options
  cfg.tau_ms = 250.0;
  cfg.seed = 101;
  Scenario scenario = BuildScenario(cfg);

  QueryGenConfig drift_gen;
  drift_gen.attrs = scenario.attrs;
  drift_gen.num_queries = 160;
  drift_gen.seed = 22;
  drift_gen.id_base = 20000000;
  drift_gen.output = OutputKind::kHeatmap;
  drift_gen.output_column = "coordinates";
  drift_gen.range_zoom_min = 4;
  drift_gen.range_zoom_max = 7;
  drift_gen.spatial_zoom_min = 4;
  drift_gen.spatial_zoom_max = 11;
  const Table& tweets = *scenario.engine->FindEntry("tweets")->table;
  std::vector<Query> drift_pool = GenerateQueries(tweets, nullptr, drift_gen);

  ServiceConfig frozen_config = ServiceConfig().WithTrainerIterations(12).WithAgentSeeds(1);
  frozen_config.num_threads = 1;
  ServiceConfig online_config = frozen_config;
  online_config.online_learning = true;
  online_config.online_gradient_steps = 48;
  online_config.online_learning_rate = 2e-4;
  online_config.online_gate_tolerance = 0.3;
  online_config.online_trainer_threads = 0;
  MalivaService frozen(&scenario, frozen_config);
  MalivaService online(&scenario, online_config);
  ASSERT_TRUE(frozen.Warmup({"mdp/accurate"}).ok());
  ASSERT_TRUE(online.Warmup({"mdp/accurate"}).ok());

  auto requests = [](const std::vector<Query>& pool, size_t n) {
    std::vector<RewriteRequest> out(n);
    for (size_t i = 0; i < n; ++i) {
      out[i].query = &pool[i % pool.size()];
      out[i].strategy = "mdp/accurate";
    }
    return out;
  };
  auto viable_pct = [](const std::vector<Result<RewriteResponse>>& responses) {
    size_t viable = 0;
    for (const Result<RewriteResponse>& resp : responses) {
      EXPECT_TRUE(resp.ok()) << resp.status().ToString();
      viable += resp.ok() && resp.value().outcome.viable ? 1 : 0;
    }
    return 100.0 * static_cast<double>(viable) / static_cast<double>(responses.size());
  };

  // Base distribution first: snapshot v1 clones the frozen weights, and its
  // serving transitions join the first fine-tune round's feedback.
  std::vector<RewriteRequest> base = requests(scenario.queries, scenario.queries.size());
  EXPECT_EQ(viable_pct(frozen.ServeBatch(base)), viable_pct(online.ServeBatch(base)));

  std::vector<RewriteRequest> drift = requests(drift_pool, 320);
  const int kRounds = 8;
  double frozen_total = 0.0;
  double online_total = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    frozen_total += viable_pct(frozen.ServeBatch(drift));
    online_total += viable_pct(online.ServeBatch(drift));
    (void)online.online_trainer()->RetrainNow("agent/exact-accurate");
  }
  EXPECT_GT(online.Stats().online_snapshot_version, 1u);
  EXPECT_GT(online_total / kRounds, frozen_total / kRounds);
}

}  // namespace
}  // namespace maliva
