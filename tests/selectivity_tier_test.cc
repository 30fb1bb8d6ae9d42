// Ladder arbitration tests for the histogram selectivity tier
// (qte/selectivity_tier.h): rung-2 answers agree with the engine's
// histograms, untrustworthy columns demote (and re-promote) from probe
// feedback, and a catalog epoch bump silently disables the tier until
// Refresh. The service-level tests cover the end-to-end wiring: per-rung
// request stats and the off-default byte-identity contract.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "qte/selectivity_tier.h"
#include "query/predicate.h"
#include "service/service.h"
#include "tests/test_helpers.h"
#include "workload/scenario.h"

namespace maliva {
namespace {

TEST(SelectivityTier, AnswersMatchEngineHistograms) {
  std::unique_ptr<Engine> engine = testing_helpers::SmallEngine();
  SelectivityTier tier(engine.get(), {});

  Predicate pred = Predicate::Time("created_at", 1000, 4000);
  std::optional<double> est = tier.Estimate("tweets", pred);
  ASSERT_TRUE(est.has_value());
  EXPECT_DOUBLE_EQ(
      *est,
      engine->HistogramSelectivity("tweets", pred, engine->catalog_version()).value());

  // Keyword predicates have no histogram: the tier declines (rung 3's job).
  EXPECT_FALSE(tier.Estimate("tweets", Predicate::Keyword("text", "burst")).has_value());
  EXPECT_FALSE(tier.CanEstimate("tweets", Predicate::Keyword("text", "burst")));
  EXPECT_TRUE(tier.CanEstimate("tweets", pred));

  SelectivityTier::Stats stats = tier.Snapshot();
  EXPECT_EQ(stats.histogram_hits, 1u);  // CanEstimate does not count
}

TEST(SelectivityTier, DemotionAndRepromotionFromProbeFeedback) {
  std::unique_ptr<Engine> engine = testing_helpers::SmallEngine();
  SelectivityTierConfig config;
  config.max_rel_error = 0.25;
  config.error_window = 8;
  SelectivityTier tier(engine.get(), config);

  Predicate pred = Predicate::Time("created_at", 2000, 7000);
  double est = *tier.Estimate("tweets", pred);

  // Feed probes wildly disagreeing with the histogram: after the minimum
  // evidence count the column is demoted and rung 2 declines.
  for (int i = 0; i < 4; ++i) tier.RecordProbe("tweets", pred, est * 3.0);
  EXPECT_FALSE(tier.Estimate("tweets", pred).has_value());
  EXPECT_FALSE(tier.CanEstimate("tweets", pred));
  EXPECT_EQ(tier.Snapshot().demoted_columns, 1u);

  // Demotion is per column: other columns keep answering.
  EXPECT_TRUE(
      tier.CanEstimate("tweets", Predicate::Spatial("coordinates",
                                                    BoundingBox{10, 10, 60, 40})));

  // Rung 3 keeps probing the demoted column; accurate probes push the bad
  // samples out of the bounded window and the column re-promotes itself.
  for (int i = 0; i < 8; ++i) tier.RecordProbe("tweets", pred, est);
  EXPECT_TRUE(tier.Estimate("tweets", pred).has_value());
  EXPECT_EQ(tier.Snapshot().demoted_columns, 0u);
}

TEST(SelectivityTier, CatalogEpochBumpDisablesUntilRefresh) {
  std::unique_ptr<Engine> engine = testing_helpers::SmallEngine();
  SelectivityTier tier(engine.get(), {});
  Predicate pred = Predicate::Time("created_at", 0, 5000);
  ASSERT_TRUE(tier.Estimate("tweets", pred).has_value());
  tier.RecordProbe("tweets", pred, 0.5);
  EXPECT_EQ(tier.Snapshot().probe_records, 1u);

  // A stats refresh (sample build) moves the ground truth: the stale tier
  // must decline every estimate — and drop probe feedback — until re-armed.
  uint64_t old_epoch = tier.epoch();
  ASSERT_TRUE(engine->BuildSampleTables("tweets", {0.05}, 3).ok());
  ASSERT_NE(engine->catalog_version(), old_epoch);
  EXPECT_FALSE(tier.Estimate("tweets", pred).has_value());
  EXPECT_FALSE(tier.CanEstimate("tweets", pred));
  tier.RecordProbe("tweets", pred, 0.5);
  EXPECT_EQ(tier.Snapshot().probe_records, 1u);  // stale feedback dropped

  // Refresh re-arms against the new epoch and clears the old evidence.
  tier.Refresh();
  EXPECT_EQ(tier.epoch(), engine->catalog_version());
  EXPECT_TRUE(tier.Estimate("tweets", pred).has_value());
  EXPECT_EQ(tier.Snapshot().error_samples, 0u);
}

TEST(SelectivityTier, ServiceReportsPerRungHitsAndTelemetry) {
  ScenarioConfig sc;
  sc.num_rows = 4000;
  sc.num_queries = 40;
  sc.seed = 5;
  Scenario scenario = BuildScenario(sc);

  // With the shared store on, the second pass over the same queries is
  // seeded from the first: rung 0 fires and must stay out of the paid rungs.
  for (bool shared_store : {false, true}) {
    SCOPED_TRACE(shared_store ? "shared store on" : "shared store off");
    ServiceConfig config;
    config.default_strategy = "naive";  // sampling QTE, no training needed
    config.histogram_selectivity = true;
    config.cross_request_cache = shared_store;
    MalivaService service(&scenario, config);

    std::vector<RewriteRequest> requests;
    for (size_t i = 0; i < 10 && i < scenario.evaluation.size(); ++i) {
      requests.push_back(RewriteRequest{scenario.evaluation[i]});
    }
    size_t histogram_hits = 0;
    size_t probes = 0;
    size_t shared_hits = 0;
    for (int pass = 0; pass < 2; ++pass) {
      std::vector<Result<RewriteResponse>> responses = service.ServeBatch(requests);
      for (const Result<RewriteResponse>& r : responses) {
        ASSERT_TRUE(r.ok()) << r.status().message();
        const RequestStats& stats = r.value().stats;
        histogram_hits += stats.selectivity_tier_hits[1];
        probes += stats.selectivity_tier_hits[2];
        shared_hits += stats.shared_hits;
        // The two paid rungs partition the request's collected slots;
        // shared-store seeds are free and counted on rung 0 alone.
        EXPECT_EQ(stats.selectivity_tier_hits[1] + stats.selectivity_tier_hits[2],
                  stats.selectivities_collected);
        EXPECT_EQ(stats.selectivity_tier_hits[0], stats.shared_hits);
      }
    }
    // Range/spatial predicates dominate the workload, so rung 2 must fire.
    EXPECT_GT(histogram_hits, 0u);
    EXPECT_EQ(shared_hits > 0, shared_store);

    ServiceStats stats = service.Stats();
    EXPECT_EQ(stats.histogram_hits, histogram_hits);
    EXPECT_EQ(stats.probe_collections, probes);
  }
}

TEST(SelectivityTier, OffByDefaultKeepsServeBatchByteIdentical) {
  ScenarioConfig sc;
  sc.num_rows = 4000;
  sc.num_queries = 40;
  sc.seed = 9;

  // Baseline: tier off (the default).
  Scenario off_scenario = BuildScenario(sc);
  ServiceConfig off_config;
  off_config.default_strategy = "naive";
  MalivaService off(&off_scenario, off_config);

  // Same scenario, tier constructed but... off stays off; this test pins the
  // default, the enabled path is covered above. Compare two thread counts.
  Scenario threaded_scenario = BuildScenario(sc);
  ServiceConfig threaded_config;
  threaded_config.default_strategy = "naive";
  threaded_config.num_threads = 4;
  MalivaService threaded(&threaded_scenario, threaded_config);

  std::vector<RewriteRequest> requests;
  for (size_t i = 0; i < 12 && i < off_scenario.evaluation.size(); ++i) {
    requests.push_back(RewriteRequest{off_scenario.evaluation[i]});
  }
  std::vector<RewriteRequest> threaded_requests;
  for (size_t i = 0; i < 12 && i < threaded_scenario.evaluation.size(); ++i) {
    threaded_requests.push_back(RewriteRequest{threaded_scenario.evaluation[i]});
  }

  std::vector<Result<RewriteResponse>> a = off.ServeBatch(requests);
  std::vector<Result<RewriteResponse>> b = threaded.ServeBatch(threaded_requests);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].ok() && b[i].ok());
    EXPECT_EQ(a[i].value().rewritten_sql, b[i].value().rewritten_sql);
    EXPECT_DOUBLE_EQ(a[i].value().outcome.total_ms, b[i].value().outcome.total_ms);
    EXPECT_EQ(a[i].value().stats.selectivity_tier_hits[1], 0u);  // tier off
  }
}

}  // namespace
}  // namespace maliva
