// Cross-request knowledge plane tests at the service layer: warm-store
// requests collect fewer selectivities than cold ones, off-mode behaviour is
// unchanged and reports no shared traffic, epoch invalidation via engine
// catalog changes, ServiceConfig::Validate(), the Stats() snapshot, and that
// accurate-QTE requests publish exact selectivities.

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <vector>

#include "query/signature.h"
#include "service/service.h"

namespace maliva {
namespace {

class ServiceKnowledgePlaneTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScenarioConfig cfg;
    cfg.kind = DatasetKind::kTwitter;
    cfg.num_rows = 20000;
    cfg.num_queries = 120;
    cfg.tau_ms = 500.0;
    cfg.seed = 131;
    scenario_ = new Scenario(BuildScenario(cfg));
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }

  static ServiceConfig SmallConfig() {
    return ServiceConfig().WithTrainerIterations(3).WithAgentSeeds(1);
  }

  /// SmallConfig with the knowledge plane on.
  static ServiceConfig StoreConfig() {
    ServiceConfig config = SmallConfig();
    config.cross_request_cache = true;
    return config;
  }

  static Scenario* scenario_;
};

Scenario* ServiceKnowledgePlaneTest::scenario_ = nullptr;

TEST_F(ServiceKnowledgePlaneTest, WarmStoreServesSharedHitsAndCollectsLess) {
  MalivaService service(scenario_, StoreConfig());

  // "naive" enumerates every option, so a cold request collects every slot
  // and a fully warmed one collects none — the cleanest cold/warm contrast.
  RewriteRequest req;
  req.query = scenario_->evaluation[0];
  req.strategy = "naive";

  Result<RewriteResponse> cold = service.Serve(req);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_GT(cold.value().stats.selectivities_collected, 0u);
  EXPECT_EQ(cold.value().stats.shared_hits, 0u);
  EXPECT_GT(cold.value().stats.shared_published, 0u);

  Result<RewriteResponse> warm = service.Serve(req);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.value().stats.selectivities_collected, 0u);
  EXPECT_EQ(warm.value().stats.shared_hits,
            cold.value().stats.selectivities_collected);
  EXPECT_EQ(warm.value().stats.shared_published, 0u);

  // Shared hits are free (the Fig 7 mechanism across requests): the warmed
  // request pays model evaluations only, so planning time strictly drops
  // while the decision itself — estimates are value-identical — stays put.
  EXPECT_LT(warm.value().outcome.planning_ms, cold.value().outcome.planning_ms);
  EXPECT_EQ(warm.value().outcome.option_index, cold.value().outcome.option_index);
  EXPECT_EQ(warm.value().outcome.steps, cold.value().outcome.steps);
}

TEST_F(ServiceKnowledgePlaneTest, SharingCrossesDistinctQueriesWithSharedPredicates) {
  MalivaService service(scenario_, StoreConfig());

  // Two distinct Query objects (different ids) with identical predicates —
  // a dashboard refresh. Canonicalization maps them to the same slot keys.
  Query refresh = *scenario_->evaluation[0];
  refresh.id = 999999;
  ASSERT_EQ(Canonicalize(refresh).signature,
            Canonicalize(*scenario_->evaluation[0]).signature);

  RewriteRequest first;
  first.query = scenario_->evaluation[0];
  first.strategy = "naive";
  ASSERT_TRUE(service.Serve(first).ok());

  RewriteRequest second;
  second.query = &refresh;
  second.strategy = "naive";
  Result<RewriteResponse> resp = service.Serve(second);
  ASSERT_TRUE(resp.ok());
  EXPECT_GT(resp.value().stats.shared_hits, 0u);
  EXPECT_EQ(resp.value().stats.selectivities_collected, 0u);
}

TEST_F(ServiceKnowledgePlaneTest, OffModeReportsNoSharedTrafficAndStaysCold) {
  MalivaService service(scenario_, SmallConfig());  // cross_request_cache off

  RewriteRequest req;
  req.query = scenario_->evaluation[0];
  req.strategy = "naive";

  Result<RewriteResponse> first = service.Serve(req);
  Result<RewriteResponse> second = service.Serve(req);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  for (const Result<RewriteResponse>* resp : {&first, &second}) {
    EXPECT_EQ(resp->value().stats.shared_hits, 0u);
    EXPECT_EQ(resp->value().stats.shared_published, 0u);
    EXPECT_GT(resp->value().stats.selectivities_collected, 0u);
  }
  // No cross-request memory: the second request repays the full bill.
  EXPECT_EQ(first.value().stats.selectivities_collected,
            second.value().stats.selectivities_collected);
  EXPECT_EQ(first.value().outcome.planning_ms, second.value().outcome.planning_ms);

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.store_size, 0u);
  EXPECT_EQ(stats.shared_hits, 0u);
  EXPECT_DOUBLE_EQ(stats.SharedHitRatio(), 0.0);
}

TEST_F(ServiceKnowledgePlaneTest, CatalogChangeInvalidatesSharedKnowledge) {
  // Own scenario: the test mutates the engine catalog (a stats refresh).
  ScenarioConfig cfg;
  cfg.kind = DatasetKind::kTwitter;
  cfg.num_rows = 5000;
  cfg.num_queries = 40;
  cfg.seed = 137;
  Scenario scenario = BuildScenario(cfg);

  MalivaService service(&scenario, StoreConfig());
  RewriteRequest req;
  req.query = scenario.evaluation[0];
  req.strategy = "naive";

  ASSERT_TRUE(service.Serve(req).ok());
  Result<RewriteResponse> warm = service.Serve(req);
  ASSERT_TRUE(warm.ok());
  ASSERT_GT(warm.value().stats.shared_hits, 0u);

  // Registering new sample tables moves Engine::catalog_version(): the
  // store's knowledge predates the new statistics ground truth and must
  // read as a miss.
  uint64_t before = scenario.engine->catalog_version();
  ASSERT_TRUE(scenario.engine->BuildSampleTables("tweets", {0.33}, 4242).ok());
  ASSERT_GT(scenario.engine->catalog_version(), before);

  Result<RewriteResponse> after = service.Serve(req);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().stats.shared_hits, 0u);
  EXPECT_GT(after.value().stats.selectivities_collected, 0u);

  // And the re-collected knowledge warms the new epoch.
  Result<RewriteResponse> rewarmed = service.Serve(req);
  ASSERT_TRUE(rewarmed.ok());
  EXPECT_GT(rewarmed.value().stats.shared_hits, 0u);
}

TEST_F(ServiceKnowledgePlaneTest, StatsAggregatesAcrossRequests) {
  MalivaService service(scenario_, StoreConfig());

  RewriteRequest req;
  req.query = scenario_->evaluation[0];
  req.strategy = "naive";
  ASSERT_TRUE(service.Serve(req).ok());
  ASSERT_TRUE(service.Serve(req).ok());

  RewriteRequest bad;
  bad.query = scenario_->evaluation[0];
  bad.strategy = "definitely/not-a-strategy";
  ASSERT_FALSE(service.Serve(bad).ok());

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_GT(stats.selectivities_collected, 0u);
  EXPECT_GT(stats.shared_hits, 0u);
  EXPECT_GT(stats.shared_published, 0u);
  EXPECT_GT(stats.store_size, 0u);
  EXPECT_GT(stats.SharedHitRatio(), 0.0);
  EXPECT_LT(stats.SharedHitRatio(), 1.0);
  EXPECT_GE(stats.serve_wall_ms_total, 0.0);
  EXPECT_GE(stats.MeanServeWallMs(), 0.0);
}

TEST_F(ServiceKnowledgePlaneTest, ValidateRejectsPathologies) {
  // Valid defaults pass, with and without the knowledge plane.
  EXPECT_TRUE(ServiceConfig().Validate().ok());
  EXPECT_TRUE(ServiceConfig{.cross_request_cache = true}.Validate().ok());

  auto expect_invalid = [](const ServiceConfig& config) {
    Status st = config.Validate();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  };

  // num_threads pathologies (unsigned wrap-around, absurd counts).
  expect_invalid({.num_threads = static_cast<size_t>(-1)});
  expect_invalid({.num_threads = ServiceConfig::kMaxNumThreads + 1});

  // Other numeric knobs share the same chokepoint.
  expect_invalid({.beta = 1.5});
  expect_invalid({.beta = -0.1});

  // With the flag off, cache knob values are inert and not rejected.
  EXPECT_TRUE(ServiceConfig{.result_cache_capacity = 0}.Validate().ok());
}

TEST_F(ServiceKnowledgePlaneTest, MisconfiguredServiceFailsServeAndWarmup) {
  ServiceConfig config = StoreConfig();
  config.beta = 1.5;
  MalivaService service(scenario_, config);

  RewriteRequest req;
  req.query = scenario_->evaluation[0];
  req.strategy = "baseline";
  Result<RewriteResponse> resp = service.Serve(req);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), Status::Code::kInvalidArgument);

  Status warm = service.Warmup({"baseline"});
  ASSERT_FALSE(warm.ok());
  EXPECT_EQ(warm.code(), Status::Code::kInvalidArgument);

  // The failed requests still count in telemetry.
  EXPECT_EQ(service.Stats().requests, 1u);
  EXPECT_EQ(service.Stats().errors, 1u);
}

TEST_F(ServiceKnowledgePlaneTest, BatchServingWarmsTheStoreAcrossRequests) {
  ServiceConfig config = StoreConfig();
  config.num_threads = 4;
  MalivaService service(scenario_, config);

  // A pan/zoom-style stream: a handful of distinct tiles, each requested
  // many times. After the batch, the store must hold each tile's slots once
  // and most requests must have been served from shared knowledge.
  std::vector<RewriteRequest> requests;
  for (size_t i = 0; i < 64; ++i) {
    RewriteRequest req;
    req.query = scenario_->evaluation[i % 4];
    req.strategy = "naive";
    requests.push_back(req);
  }
  std::vector<Result<RewriteResponse>> responses = service.ServeBatch(requests);
  ASSERT_EQ(responses.size(), requests.size());
  for (const Result<RewriteResponse>& resp : responses) {
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  }

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.requests, 64u);
  EXPECT_GT(stats.shared_hits, stats.selectivities_collected);
  EXPECT_GT(stats.SharedHitRatio(), 0.5);
}

TEST_F(ServiceKnowledgePlaneTest, AccurateQtePublishesExactSelectivities) {
  MalivaService service(scenario_, StoreConfig());
  const SharedSelectivityStore* store = service.shared_store();
  ASSERT_NE(store, nullptr);
  const Engine& engine = *scenario_->engine;
  const uint64_t epoch = engine.catalog_version();

  // Every entry a request adds to the store comes from that request's own
  // caches, so each slot key absent before the serve and present after it
  // must hold the exact selectivity of the served query's predicate.
  size_t checked = 0;
  size_t nonzero = 0;
  for (size_t i = 0; i < 24; ++i) {
    const Query& query = *scenario_->evaluation[i];
    CanonicalQuery canonical = Canonicalize(query);
    std::vector<bool> was_resident;
    for (uint64_t key : canonical.slot_keys) {
      was_resident.push_back(store->Lookup(key, epoch).has_value());
    }

    RewriteRequest req;
    req.query = &query;
    req.strategy = "mdp/accurate";
    Result<RewriteResponse> resp = service.Serve(req);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();

    size_t m = query.predicates.size();
    for (size_t slot = 0; slot < canonical.slot_keys.size(); ++slot) {
      std::optional<double> published = store->Lookup(canonical.slot_keys[slot], epoch);
      if (was_resident[slot] || !published.has_value()) continue;
      Result<double> truth =
          slot < m ? engine.TrueSelectivity(query.table, query.predicates[slot])
                   : engine.TrueSelectivity(query.join->right_table,
                                            query.join->right_predicates[slot - m]);
      ASSERT_TRUE(truth.ok()) << truth.status().ToString();
      EXPECT_EQ(*published, truth.value()) << "query " << i << " slot " << slot;
      ++checked;
      if (*published != 0.0) ++nonzero;
    }
  }
  EXPECT_GT(checked, 0u);
  EXPECT_GT(nonzero, 0u);
}

}  // namespace
}  // namespace maliva
