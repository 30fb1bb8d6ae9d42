// Multi-scenario shard plane tests. The register/serve/drain stress test
// below is the TSan/ASan coverage of the ShardRouter / background-warm-up /
// fleet-ServeBatch interplay.
//
// Covered contracts:
//   * a mixed-scenario batch through MalivaFleet is byte-identical at every
//     fleet thread count, and each shard's slice equals the shard's own
//     standalone ServeBatch (per-shard determinism survives routing);
//   * a single-shard fleet is a drop-in MalivaService (empty routing keys);
//   * routing errors: empty/duplicate ids rejected at registration, unknown
//     keys are NotFound listing every registered scenario;
//   * per-shard ServiceConfig overrides layer over fleet defaults and are
//     Validate()d at registration;
//   * lifecycle: background warm-up reaches Ready, Drain refuses new serves
//     while Evict requires a prior drain, and stats stay per-shard.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "service/service_fleet.h"

namespace maliva {
namespace {

class FleetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScenarioConfig twitter;
    twitter.kind = DatasetKind::kTwitter;
    twitter.num_rows = 12000;
    twitter.num_queries = 80;
    twitter.tau_ms = 500.0;
    twitter.seed = 91;
    twitter_ = new Scenario(BuildScenario(twitter));

    ScenarioConfig taxi;
    taxi.kind = DatasetKind::kTaxi;
    taxi.num_rows = 12000;
    taxi.num_queries = 80;
    taxi.tau_ms = 1000.0;
    taxi.seed = 92;
    taxi_ = new Scenario(BuildScenario(taxi));
  }
  static void TearDownTestSuite() {
    delete twitter_;
    twitter_ = nullptr;
    delete taxi_;
    taxi_ = nullptr;
  }

  /// Cheap training so agent strategies build in-test.
  static ServiceConfig SmallConfig() {
    return ServiceConfig().WithTrainerIterations(3).WithAgentSeeds(1);
  }

  /// Fleet over SmallConfig, warming only the strategies the tests use.
  static FleetConfig SmallFleetConfig(size_t threads = 0) {
    FleetConfig config = FleetConfig().WithDefaults(SmallConfig()).WithNumThreads(threads);
    config.warmup_strategies = {"mdp/accurate", "baseline", "naive"};
    return config;
  }

  /// Mixed twitter/taxi requests with mixed strategies.
  static std::vector<RewriteRequest> MixedRequests(size_t n) {
    std::vector<RewriteRequest> requests;
    requests.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      RewriteRequest req;
      if (i % 3 == 0) {
        req.scenario = "taxi";
        req.query = taxi_->evaluation[i % taxi_->evaluation.size()];
      } else {
        req.scenario = "twitter";
        req.query = twitter_->evaluation[i % twitter_->evaluation.size()];
      }
      req.strategy = (i % 4 == 1) ? "baseline" : (i % 4 == 3) ? "naive" : "mdp/accurate";
      if (i % 5 == 0) req.tau_ms = 300.0 + 40.0 * static_cast<double>(i % 7);
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

  static Scenario* twitter_;
  static Scenario* taxi_;
};

Scenario* FleetTest::twitter_ = nullptr;
Scenario* FleetTest::taxi_ = nullptr;

TEST_F(FleetTest, MixedBatchByteIdenticalAcrossThreadCountsAndStandalone) {
  std::vector<RewriteRequest> requests = MixedRequests(24);
  std::vector<Result<RewriteResponse>> reference;
  for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    MalivaFleet fleet(SmallFleetConfig(threads));
    ASSERT_TRUE(fleet.RegisterScenario("twitter", twitter_).ok());
    ASSERT_TRUE(fleet.RegisterScenario("taxi", taxi_).ok());
    fleet.WaitWarmups();
    std::vector<Result<RewriteResponse>> responses = fleet.ServeBatch(requests);
    ASSERT_EQ(responses.size(), requests.size());
    for (const Result<RewriteResponse>& resp : responses) {
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    }
    if (threads == 1) {
      reference = std::move(responses);
    } else {
      for (size_t i = 0; i < requests.size(); ++i) {
        SCOPED_TRACE(i);
        ExpectSameDecision(reference[i], responses[i]);
      }
    }
  }

  // Each shard's slice must equal the shard's own standalone service serving
  // the slice as a batch: routing adds requests from other scenarios in
  // between, but per-shard session indices (and so every byte) are
  // unchanged. Identical training seeds make the services interchangeable.
  for (const char* id : {"twitter", "taxi"}) {
    SCOPED_TRACE(id);
    std::vector<RewriteRequest> slice;
    std::vector<const Result<RewriteResponse>*> fleet_slice;
    for (size_t i = 0; i < requests.size(); ++i) {
      if (requests[i].scenario == id) {
        slice.push_back(requests[i]);
        fleet_slice.push_back(&reference[i]);
      }
    }
    ASSERT_FALSE(slice.empty());
    Scenario* scenario = std::string(id) == "twitter" ? twitter_ : taxi_;
    ServiceConfig standalone_config = SmallConfig();
    standalone_config.num_threads = 2;
    MalivaService standalone(scenario, standalone_config);
    std::vector<Result<RewriteResponse>> expected = standalone.ServeBatch(slice);
    for (size_t i = 0; i < slice.size(); ++i) {
      SCOPED_TRACE(i);
      ExpectSameDecision(expected[i], *fleet_slice[i]);
    }
  }
}

TEST_F(FleetTest, SingleShardFleetServesEmptyRoutingKeys) {
  MalivaFleet fleet(SmallFleetConfig());
  ASSERT_TRUE(fleet.RegisterScenario("only", twitter_).ok());
  fleet.WaitWarmups();
  MalivaService standalone(twitter_, SmallConfig());

  // Ported single-service callers: no scenario field, same responses.
  std::vector<RewriteRequest> requests;
  for (size_t i = 0; i < 6; ++i) {
    RewriteRequest req;
    req.query = twitter_->evaluation[i];
    req.strategy = (i % 2 == 0) ? "mdp/accurate" : "baseline";
    requests.push_back(req);
  }
  std::vector<Result<RewriteResponse>> through_fleet = fleet.ServeBatch(requests);
  std::vector<Result<RewriteResponse>> direct = standalone.ServeBatch(requests);
  for (size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectSameDecision(direct[i], through_fleet[i]);
  }
  ExpectSameDecision(standalone.Serve(requests[0]), fleet.Serve(requests[0]));

  // A second scenario makes the empty key ambiguous.
  ASSERT_TRUE(fleet.RegisterScenario("second", taxi_).ok());
  Result<RewriteResponse> ambiguous = fleet.Serve(requests[0]);
  ASSERT_FALSE(ambiguous.ok());
  EXPECT_EQ(ambiguous.status().code(), Status::Code::kInvalidArgument);
  EXPECT_NE(ambiguous.status().message().find("only"), std::string::npos);
  EXPECT_NE(ambiguous.status().message().find("second"), std::string::npos);
}

TEST_F(FleetTest, UnknownScenarioIsNotFoundListingRegistered) {
  MalivaFleet fleet(SmallFleetConfig());
  ASSERT_TRUE(fleet.RegisterScenario("twitter", twitter_).ok());
  ASSERT_TRUE(fleet.RegisterScenario("taxi", taxi_).ok());

  RewriteRequest req;
  req.query = twitter_->evaluation[0];
  req.scenario = "definitely/not-a-scenario";
  req.strategy = "baseline";
  Result<RewriteResponse> resp = fleet.Serve(req);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), Status::Code::kNotFound);
  // The message lists every registered scenario (KnownStrategies ergonomics).
  EXPECT_NE(resp.status().message().find("taxi"), std::string::npos);
  EXPECT_NE(resp.status().message().find("twitter"), std::string::npos);

  EXPECT_EQ(fleet.ServiceFor("nope").status().code(), Status::Code::kNotFound);
  EXPECT_EQ(fleet.DrainScenario("nope").code(), Status::Code::kNotFound);
  EXPECT_EQ(fleet.EvictScenario("nope").code(), Status::Code::kNotFound);
  EXPECT_EQ(fleet.Stats().routing_errors, 1u);  // only the Serve counts
}

TEST_F(FleetTest, QueriesOffTheCatalogAreInvalidArgumentAndServingContinues) {
  ScenarioConfig join_cfg;
  join_cfg.kind = DatasetKind::kTwitter;
  join_cfg.join = true;
  join_cfg.num_rows = 4000;
  join_cfg.num_users = 400;
  join_cfg.num_queries = 40;
  join_cfg.seed = 93;
  Scenario joined = BuildScenario(join_cfg);

  // With and without the result cache: on the cached path an invalid query
  // leads its flight and must abort it, not publish or wedge followers.
  for (bool cached : {false, true}) {
    SCOPED_TRACE(cached ? "result cache on" : "result cache off");
    FleetConfig config = SmallFleetConfig();
    config.defaults.WithResultCache(cached);
    MalivaFleet fleet(config);
    ASSERT_TRUE(fleet.RegisterScenario("twitter", twitter_).ok());
    ASSERT_TRUE(fleet.RegisterScenario("join", &joined).ok());
    fleet.WaitWarmups();

    struct Case {
      const char* what;
      const char* scenario;
      void (*mutate)(Query&);
    };
    const Case cases[] = {
        {"unknown table", "twitter", [](Query& q) { q.table = "no_such_table"; }},
        {"unknown predicate column", "twitter",
         [](Query& q) { q.predicates[0].column = "no_such_column"; }},
        {"keyword on a timestamp", "twitter",
         [](Query& q) { q.predicates[0].column = "created_at"; }},
        {"range on text", "twitter", [](Query& q) { q.predicates[1].column = "text"; }},
        {"box on a timestamp", "twitter",
         [](Query& q) { q.predicates[2].column = "created_at"; }},
        {"unknown output column", "twitter",
         [](Query& q) { q.output_column = "no_such_column"; }},
        {"non-point output column", "twitter",
         [](Query& q) { q.output_column = "created_at"; }},
        {"unknown join table", "join",
         [](Query& q) { q.join->right_table = "no_such_table"; }},
        {"unknown left key", "join", [](Query& q) { q.join->left_key = "no_such_column"; }},
        {"non-int64 left key", "join", [](Query& q) { q.join->left_key = "coordinates"; }},
        {"unknown right key", "join",
         [](Query& q) { q.join->right_key = "no_such_column"; }},
        {"unknown right predicate column", "join",
         [](Query& q) { q.join->right_predicates[0].column = "no_such_column"; }},
        {"more predicates than slot masks hold", "join",
         [](Query& q) { q.join->right_predicates.resize(QteContext::kMaxSlots + 1); }},
    };
    for (const Case& c : cases) {
      for (const char* strategy : {"baseline", "mdp/accurate"}) {
        SCOPED_TRACE(std::string(c.what) + " / " + strategy);
        Scenario* s = std::string(c.scenario) == "join" ? &joined : twitter_;
        Query bad = *s->evaluation[0];
        c.mutate(bad);
        RewriteRequest req;
        req.scenario = c.scenario;
        req.strategy = strategy;
        req.query = &bad;
        for (int attempt = 0; attempt < 2; ++attempt) {
          Result<RewriteResponse> resp = fleet.Serve(req);
          ASSERT_FALSE(resp.ok());
          EXPECT_EQ(resp.status().code(), Status::Code::kInvalidArgument)
              << resp.status().ToString();
        }
      }
    }

    // The shards keep serving valid traffic, including the untouched query.
    for (const char* scenario : {"twitter", "join"}) {
      Scenario* s = std::string(scenario) == "join" ? &joined : twitter_;
      for (size_t i = 0; i < 3; ++i) {
        RewriteRequest req;
        req.scenario = scenario;
        req.strategy = i % 2 == 0 ? "mdp/accurate" : "baseline";
        req.query = s->evaluation[i];
        Result<RewriteResponse> resp = fleet.Serve(req);
        ASSERT_TRUE(resp.ok()) << resp.status().ToString();
        EXPECT_FALSE(resp.value().rewritten_sql.empty());
      }
    }
  }
}

TEST_F(FleetTest, DuplicateAndEmptyScenarioIdsAreRejected) {
  MalivaFleet fleet(SmallFleetConfig());
  ASSERT_TRUE(fleet.RegisterScenario("twitter", twitter_).ok());

  Status dup = fleet.RegisterScenario("twitter", taxi_);
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(dup.message().find("already registered"), std::string::npos);

  Status empty = fleet.RegisterScenario("", taxi_);
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.code(), Status::Code::kInvalidArgument);

  Status null_scenario = fleet.RegisterScenario("null", nullptr);
  ASSERT_FALSE(null_scenario.ok());
  EXPECT_EQ(null_scenario.code(), Status::Code::kInvalidArgument);

  // The failed registrations left nothing behind.
  EXPECT_EQ(fleet.ListScenarios().size(), 1u);
}

TEST_F(FleetTest, PerShardOverridesLayerOverFleetDefaultsAndAreValidated) {
  FleetConfig config = SmallFleetConfig();
  config.defaults.default_strategy = "baseline";
  MalivaFleet fleet(config);
  ASSERT_TRUE(fleet.RegisterScenario("plain", twitter_).ok());
  ASSERT_TRUE(fleet.RegisterScenario("tuned", taxi_, [](ServiceConfig& c) {
    c.default_strategy = "naive";
    c.cross_request_cache = true;
  }).ok());

  // The overridden shard serves its own default strategy and runs its own
  // knowledge plane; the plain shard keeps the fleet defaults.
  RewriteRequest plain;
  plain.scenario = "plain";
  plain.query = twitter_->evaluation[0];
  Result<RewriteResponse> plain_resp = fleet.Serve(plain);
  ASSERT_TRUE(plain_resp.ok()) << plain_resp.status().ToString();
  EXPECT_EQ(plain_resp.value().strategy, "baseline");

  RewriteRequest tuned;
  tuned.scenario = "tuned";
  tuned.query = taxi_->evaluation[0];
  Result<RewriteResponse> tuned_resp = fleet.Serve(tuned);
  ASSERT_TRUE(tuned_resp.ok()) << tuned_resp.status().ToString();
  EXPECT_EQ(tuned_resp.value().strategy, "naive");

  Result<std::shared_ptr<const MalivaService>> tuned_service = fleet.ServiceFor("tuned");
  ASSERT_TRUE(tuned_service.ok());
  EXPECT_TRUE(tuned_service.value()->config().cross_request_cache);
  Result<std::shared_ptr<const MalivaService>> plain_service = fleet.ServiceFor("plain");
  ASSERT_TRUE(plain_service.ok());
  EXPECT_FALSE(plain_service.value()->config().cross_request_cache);

  // An override that produces an invalid ServiceConfig is rejected at
  // registration (the chokepoint), and registers nothing.
  Status bad = fleet.RegisterScenario("broken", twitter_,
                                      [](ServiceConfig& c) { c.beta = 7.0; });
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(fleet.ListScenarios().size(), 2u);
  EXPECT_EQ(fleet.ServiceFor("broken").status().code(), Status::Code::kNotFound);
}

TEST_F(FleetTest, BackgroundWarmupReachesReadyAndIsObservable) {
  MalivaFleet fleet(SmallFleetConfig());
  ASSERT_TRUE(fleet.RegisterScenario("twitter", twitter_).ok());
  fleet.WaitWarmups();
  std::vector<ScenarioInfo> scenarios = fleet.ListScenarios();
  ASSERT_EQ(scenarios.size(), 1u);
  EXPECT_EQ(scenarios[0].id, "twitter");
  EXPECT_EQ(scenarios[0].state, ShardState::kReady);
  EXPECT_TRUE(scenarios[0].warmup.ok()) << scenarios[0].warmup.ToString();
  EXPECT_EQ(scenarios[0].dataset, std::string("Twitter"));

  // Warmed strategies serve without paying lazy-build latency; verify the
  // strategy is already resident via the underlying service.
  Result<std::shared_ptr<const MalivaService>> service = fleet.ServiceFor("twitter");
  ASSERT_TRUE(service.ok());
  Result<const Rewriter*> warmed = service.value()->GetRewriter("mdp/accurate");
  ASSERT_TRUE(warmed.ok());

  // warmup_threads = 0: no background pool, shards are Ready immediately
  // and build lazily (the standalone-service behavior).
  MalivaFleet lazy(SmallFleetConfig().WithWarmupThreads(0));
  ASSERT_TRUE(lazy.RegisterScenario("taxi", taxi_).ok());
  std::vector<ScenarioInfo> lazy_scenarios = lazy.ListScenarios();
  ASSERT_EQ(lazy_scenarios.size(), 1u);
  EXPECT_EQ(lazy_scenarios[0].state, ShardState::kReady);
  RewriteRequest req;
  req.scenario = "taxi";
  req.query = taxi_->evaluation[0];
  req.strategy = "baseline";
  EXPECT_TRUE(lazy.Serve(req).ok());
}

TEST_F(FleetTest, DrainRefusesNewServesAndEvictRequiresDrain) {
  MalivaFleet fleet(SmallFleetConfig());
  ASSERT_TRUE(fleet.RegisterScenario("twitter", twitter_).ok());
  ASSERT_TRUE(fleet.RegisterScenario("taxi", taxi_).ok());
  fleet.WaitWarmups();

  RewriteRequest req;
  req.scenario = "taxi";
  req.query = taxi_->evaluation[0];
  req.strategy = "baseline";
  ASSERT_TRUE(fleet.Serve(req).ok());

  // Evicting a serving shard is refused: drain first.
  Status premature = fleet.EvictScenario("taxi");
  ASSERT_FALSE(premature.ok());
  EXPECT_EQ(premature.code(), Status::Code::kFailedPrecondition);

  ASSERT_TRUE(fleet.DrainScenario("taxi").ok());
  ASSERT_TRUE(fleet.DrainScenario("taxi").ok());  // idempotent
  Result<RewriteResponse> refused = fleet.Serve(req);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), Status::Code::kFailedPrecondition);
  std::vector<ScenarioInfo> scenarios = fleet.ListScenarios();
  ASSERT_EQ(scenarios.size(), 2u);
  EXPECT_EQ(scenarios[0].id, "taxi");
  EXPECT_EQ(scenarios[0].state, ShardState::kDraining);

  // The other shard is untouched throughout.
  RewriteRequest other;
  other.scenario = "twitter";
  other.query = twitter_->evaluation[0];
  other.strategy = "baseline";
  ASSERT_TRUE(fleet.Serve(other).ok());

  ASSERT_TRUE(fleet.EvictScenario("taxi").ok());
  EXPECT_EQ(fleet.Serve(req).status().code(), Status::Code::kNotFound);
  EXPECT_EQ(fleet.EvictScenario("taxi").code(), Status::Code::kNotFound);
  EXPECT_EQ(fleet.ListScenarios().size(), 1u);
  ASSERT_TRUE(fleet.Serve(other).ok());
}

TEST_F(FleetTest, StatsStayPerShardAndAggregate) {
  MalivaFleet fleet(SmallFleetConfig());
  ASSERT_TRUE(fleet.RegisterScenario("twitter", twitter_).ok());
  ASSERT_TRUE(fleet.RegisterScenario("taxi", taxi_, [](ServiceConfig& c) {
    c.cross_request_cache = true;
  }).ok());
  fleet.WaitWarmups();

  // Traffic to the taxi shard only.
  std::vector<RewriteRequest> requests;
  for (size_t i = 0; i < 10; ++i) {
    RewriteRequest req;
    req.scenario = "taxi";
    req.query = taxi_->evaluation[i % taxi_->evaluation.size()];
    req.strategy = "mdp/accurate";
    requests.push_back(req);
  }
  for (const Result<RewriteResponse>& resp : fleet.ServeBatch(requests)) {
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  }

  FleetStats stats = fleet.Stats();
  EXPECT_EQ(stats.scenarios, 2u);
  ASSERT_EQ(stats.shards.size(), 2u);
  EXPECT_EQ(stats.shards[0].first, "taxi");
  EXPECT_EQ(stats.shards[1].first, "twitter");
  EXPECT_EQ(stats.shards[0].second.requests, 10u);
  EXPECT_GT(stats.shards[0].second.store_size, 0u);  // its own knowledge plane
  EXPECT_EQ(stats.shards[1].second.requests, 0u);    // idle shard stays zero
  EXPECT_EQ(stats.shards[1].second.store_size, 0u);
  EXPECT_EQ(stats.totals.requests, 10u);
  EXPECT_EQ(stats.totals.store_size, stats.shards[0].second.store_size);
  EXPECT_EQ(stats.routing_errors, 0u);

  // Online plane: learning on for the twitter shard only. Both shards serve
  // agent traffic, then one synchronous fine-tune round runs on twitter;
  // taxi must hold no snapshot and have recorded no transitions.
  MalivaFleet online_fleet(SmallFleetConfig());
  ASSERT_TRUE(online_fleet.RegisterScenario("twitter", twitter_, [](ServiceConfig& c) {
    c.online_learning = true;
    c.online_trainer_threads = 0;
  }).ok());
  ASSERT_TRUE(online_fleet.RegisterScenario("taxi", taxi_).ok());
  online_fleet.WaitWarmups();
  requests.clear();
  for (size_t i = 0; i < 20; ++i) {
    const bool taxi = i % 2 == 0;
    const Scenario* scenario = taxi ? taxi_ : twitter_;
    RewriteRequest req;
    req.scenario = taxi ? "taxi" : "twitter";
    req.query = scenario->evaluation[i % scenario->evaluation.size()];
    req.strategy = "mdp/accurate";
    requests.push_back(req);
  }
  for (const Result<RewriteResponse>& resp : online_fleet.ServeBatch(requests)) {
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  }
  Result<std::shared_ptr<const MalivaService>> twitter = online_fleet.ServiceFor("twitter");
  ASSERT_TRUE(twitter.ok());
  (void)twitter.value()->online_trainer()->RetrainNow("agent/exact-accurate");
  FleetStats online_stats = online_fleet.Stats();
  ASSERT_EQ(online_stats.shards.size(), 2u);
  const ServiceStats& taxi = online_stats.shards[0].second;
  const ServiceStats& online = online_stats.shards[1].second;
  EXPECT_EQ(taxi.requests, 10u);
  EXPECT_GE(online.online_snapshot_version, 1u);
  EXPECT_GT(online.online_transitions, 0u);
  EXPECT_EQ(taxi.online_snapshot_version, 0u);
  EXPECT_EQ(taxi.online_transitions, 0u);
}

TEST_F(FleetTest, FleetConfigValidateRejectsPathologies) {
  // Fleet-level thread wrap-arounds and defective defaults surface from
  // every entry point, not as silent clamps.
  for (FleetConfig config :
       {FleetConfig().WithNumThreads(static_cast<size_t>(-1)),
        FleetConfig().WithWarmupThreads(static_cast<size_t>(-1)),
        FleetConfig().WithDefaults({.beta = 7.0})}) {
    Status st = config.Validate();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);

    MalivaFleet fleet(config);
    EXPECT_EQ(fleet.RegisterScenario("twitter", twitter_).code(),
              Status::Code::kInvalidArgument);
    RewriteRequest req;
    req.query = twitter_->evaluation[0];
    EXPECT_EQ(fleet.Serve(req).status().code(), Status::Code::kInvalidArgument);
  }
  EXPECT_TRUE(FleetConfig().Validate().ok());
}

class FleetConcurrencyTest : public FleetTest {};

TEST_F(FleetConcurrencyTest, ConcurrentRegisterServeDrainStress) {
  // A stable shard serves from 4 threads while the main thread churns other
  // shards through the full lifecycle (register -> background warm-up ->
  // drain -> evict). Stable serves must never fail; churn serves may see
  // any lifecycle answer but must never crash or deadlock. This is the
  // suite's TSan/ASan leg.
  MalivaFleet fleet(SmallFleetConfig().WithNumThreads(4));
  ASSERT_TRUE(fleet.RegisterScenario("stable", twitter_).ok());
  fleet.WaitWarmups();

  std::atomic<bool> stop{false};
  std::atomic<size_t> stable_failures{0};
  std::atomic<size_t> stable_served{0};
  std::vector<std::thread> servers;
  for (int t = 0; t < 4; ++t) {
    servers.emplace_back([this, &fleet, &stop, &stable_failures, &stable_served, t] {
      size_t i = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        RewriteRequest req;
        req.scenario = "stable";
        req.query = twitter_->evaluation[i++ % twitter_->evaluation.size()];
        req.strategy = (i % 2 == 0) ? "mdp/accurate" : "baseline";
        if (fleet.Serve(req).ok()) {
          stable_served.fetch_add(1, std::memory_order_relaxed);
        } else {
          stable_failures.fetch_add(1, std::memory_order_relaxed);
        }
        // A churn-shard request races registration/drain/evict: OK,
        // FailedPrecondition (draining), and NotFound (evicted/not yet
        // registered) are all legal; anything else is a bug.
        RewriteRequest churn;
        churn.scenario = "churn";
        churn.query = taxi_->evaluation[i % taxi_->evaluation.size()];
        churn.strategy = "baseline";
        Result<RewriteResponse> resp = fleet.Serve(churn);
        if (!resp.ok()) {
          Status::Code code = resp.status().code();
          if (code != Status::Code::kNotFound &&
              code != Status::Code::kFailedPrecondition) {
            stable_failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  // Churn failures are collected, not ASSERTed mid-loop: an early return
  // with the server threads still joinable would std::terminate the whole
  // test binary instead of failing this test.
  Status churn_error;
  for (int round = 0; round < 8 && churn_error.ok(); ++round) {
    churn_error = fleet.RegisterScenario("churn", taxi_);
    if (!churn_error.ok()) break;
    RewriteRequest req;
    req.scenario = "churn";
    req.query = taxi_->evaluation[0];
    req.strategy = "baseline";
    (void)fleet.Serve(req);  // may race the drain below; any Status is fine
    churn_error = fleet.DrainScenario("churn");
    if (!churn_error.ok()) break;
    churn_error = fleet.EvictScenario("churn");
  }
  fleet.WaitWarmups();  // scheduled churn warm-ups finish against live shards
  // On a starved scheduler the churn loop can finish before any server
  // thread ran; hold the stop until at least one stable serve landed. A
  // stable *failure* also ends the wait — otherwise the very regression
  // this test guards against would hang here instead of failing below.
  while (stable_served.load(std::memory_order_relaxed) == 0 &&
         stable_failures.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& server : servers) server.join();

  EXPECT_TRUE(churn_error.ok()) << churn_error.ToString();
  EXPECT_EQ(stable_failures.load(), 0u);
  EXPECT_GT(stable_served.load(), 0u);
  std::vector<ScenarioInfo> scenarios = fleet.ListScenarios();
  ASSERT_EQ(scenarios.size(), 1u);
  EXPECT_EQ(scenarios[0].id, "stable");
  FleetStats stats = fleet.Stats();
  EXPECT_EQ(stats.shards.size(), 1u);
  EXPECT_GE(stats.shards[0].second.requests, stable_served.load());
}

}  // namespace
}  // namespace maliva
