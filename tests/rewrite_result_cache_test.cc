// Rewrite-result cache tests (service/rewrite_result_cache.h): the cache
// module's single-flight / CLOCK / context-validation mechanics, the service
// wiring (hit byte-identity, in-batch dedup, probe-only admission path, and
// a seeded property that every hit and coalesced replay through every entry
// point carries its miss's bytes), and the invalidation races (catalog epoch
// + agent snapshot bumps mid-stream).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "service/rewrite_result_cache.h"
#include "service/service.h"
#include "service/service_fleet.h"
#include "util/rng.h"
#include "workload/replay_driver.h"

namespace maliva {
namespace {

// ------------------------------------------------------------ unit tests ---

/// The cache's counters, resolved in a registry the test owns.
struct TestCounters {
  MetricsRegistry registry;
  RewriteResultCache::Counters handles = RewriteResultCache::CountersIn(&registry);
};

/// Marker payloads: entries are told apart by outcome.total_ms.
CachedRewrite Marked(double marker) {
  CachedRewrite value;
  value.strategy = "marker";
  value.outcome.total_ms = marker;
  return value;
}

TEST(ResultCacheUnitTest, BeginMissPublishHitRoundTrip) {
  TestCounters counted;
  RewriteResultCache cache({.capacity = 16, .shards = 2}, counted.handles);
  RewriteResultCache::Ticket miss = cache.Begin(42, 1, 1);
  ASSERT_EQ(miss.role, RewriteResultCache::Role::kLeader);
  cache.Publish(miss, 42, 1, 1, Marked(7.0));

  RewriteResultCache::Ticket hit = cache.Begin(42, 1, 1);
  ASSERT_EQ(hit.role, RewriteResultCache::Role::kHit);
  ASSERT_TRUE(hit.value.has_value());
  EXPECT_DOUBLE_EQ(hit.value->outcome.total_ms, 7.0);

  EXPECT_EQ(counted.handles.hits->Value(), 1u);
  EXPECT_EQ(counted.handles.misses->Value(), 1u);
  EXPECT_EQ(cache.Size(), 1u);
  EXPECT_EQ(counted.handles.stale_declines->Value(), 0u);
}

TEST(ResultCacheUnitTest, ContextMismatchDeclinesAndReplacesInPlace) {
  TestCounters counted;
  RewriteResultCache cache({.capacity = 16, .shards = 1}, counted.handles);
  RewriteResultCache::Ticket t = cache.Begin(42, /*epoch=*/1, /*snapshot=*/1);
  cache.Publish(t, 42, 1, 1, Marked(1.0));

  // Same fingerprint, moved epoch: never trusted, and the recompute's
  // publish replaces the resident entry without growing the map.
  RewriteResultCache::Ticket stale = cache.Begin(42, /*epoch=*/2, 1);
  ASSERT_EQ(stale.role, RewriteResultCache::Role::kLeader);
  cache.Publish(stale, 42, 2, 1, Marked(2.0));
  EXPECT_EQ(cache.Size(), 1u);
  EXPECT_EQ(counted.handles.stale_declines->Value(), 1u);

  RewriteResultCache::Ticket hit = cache.Begin(42, 2, 1);
  ASSERT_EQ(hit.role, RewriteResultCache::Role::kHit);
  EXPECT_DOUBLE_EQ(hit.value->outcome.total_ms, 2.0);

  // A snapshot-version move declines the same way.
  RewriteResultCache::Ticket snap = cache.Begin(42, 2, /*snapshot=*/9);
  EXPECT_EQ(snap.role, RewriteResultCache::Role::kLeader);
  cache.Abort(snap, 42);
  EXPECT_EQ(counted.handles.stale_declines->Value(), 2u);
}

TEST(ResultCacheUnitTest, ClockEvictionGivesReferencedEntriesASecondChance) {
  TestCounters counted;
  RewriteResultCache cache({.capacity = 4, .shards = 1}, counted.handles);
  for (uint64_t key = 1; key <= 4; ++key) {
    RewriteResultCache::Ticket t = cache.Begin(key, 1, 1);
    ASSERT_EQ(t.role, RewriteResultCache::Role::kLeader);
    cache.Publish(t, key, 1, 1, Marked(static_cast<double>(key)));
  }
  // Reference key 2 — the first entry the hand will reach. The sweep must
  // clear its bit and evict key 3 (the first unreferenced victim) instead.
  ASSERT_EQ(cache.Begin(2, 1, 1).role, RewriteResultCache::Role::kHit);

  RewriteResultCache::Ticket t5 = cache.Begin(5, 1, 1);
  ASSERT_EQ(t5.role, RewriteResultCache::Role::kLeader);
  cache.Publish(t5, 5, 1, 1, Marked(5.0));

  EXPECT_EQ(counted.handles.evictions->Value(), 1u);
  EXPECT_EQ(cache.Size(), 4u);
  EXPECT_EQ(cache.Begin(2, 1, 1).role, RewriteResultCache::Role::kHit);
  EXPECT_EQ(cache.Begin(5, 1, 1).role, RewriteResultCache::Role::kHit);
  RewriteResultCache::Ticket evicted = cache.Begin(3, 1, 1);
  EXPECT_EQ(evicted.role, RewriteResultCache::Role::kLeader);
  cache.Abort(evicted, 3);
}

TEST(ResultCacheUnitTest, ShardCountIsClampedToCapacity) {
  TestCounters counted;
  RewriteResultCache cache({.capacity = 3, .shards = 64}, counted.handles);
  EXPECT_EQ(cache.capacity(), 3u);
  EXPECT_EQ(cache.num_shards(), 3u);
  RewriteResultCache floor({.capacity = 0, .shards = 0}, counted.handles);
  EXPECT_EQ(floor.capacity(), 1u);
  EXPECT_EQ(floor.num_shards(), 1u);
}

TEST(ResultCacheUnitTest, FollowerReceivesLeaderValue) {
  TestCounters counted;
  RewriteResultCache cache({.capacity = 16, .shards = 1}, counted.handles);
  RewriteResultCache::Ticket leader = cache.Begin(42, 1, 1);
  ASSERT_EQ(leader.role, RewriteResultCache::Role::kLeader);

  std::optional<CachedRewrite> followed;
  std::atomic<bool> enrolled{false};
  std::thread follower([&cache, &followed, &enrolled] {
    RewriteResultCache::Ticket t = cache.Begin(42, 1, 1);
    ASSERT_EQ(t.role, RewriteResultCache::Role::kFollower);
    enrolled.store(true);
    followed = cache.WaitForLeader(t);
  });
  // Publish only after the follower holds its ticket; whether it has
  // reached WaitForLeader yet must not matter (done is latched, not
  // pulsed).
  while (!enrolled.load()) std::this_thread::yield();
  cache.Publish(leader, 42, 1, 1, Marked(7.0));
  follower.join();

  ASSERT_TRUE(followed.has_value());
  EXPECT_DOUBLE_EQ(followed->outcome.total_ms, 7.0);
  EXPECT_EQ(counted.handles.coalesced->Value(), 1u);
}

TEST(ResultCacheUnitTest, AbortWakesFollowersEmptyAndFreesTheKey) {
  TestCounters counted;
  RewriteResultCache cache({.capacity = 16, .shards = 1}, counted.handles);
  RewriteResultCache::Ticket leader = cache.Begin(42, 1, 1);
  ASSERT_EQ(leader.role, RewriteResultCache::Role::kLeader);

  std::optional<CachedRewrite> followed = Marked(0.0);
  std::atomic<bool> enrolled{false};
  std::thread follower([&cache, &followed, &enrolled] {
    RewriteResultCache::Ticket t = cache.Begin(42, 1, 1);
    ASSERT_EQ(t.role, RewriteResultCache::Role::kFollower);
    enrolled.store(true);
    followed = cache.WaitForLeader(t);
  });
  while (!enrolled.load()) std::this_thread::yield();
  cache.Abort(leader, 42);
  follower.join();

  EXPECT_FALSE(followed.has_value());  // compute solo, not coalesced
  EXPECT_EQ(counted.handles.coalesced->Value(), 0u);
  EXPECT_EQ(cache.Size(), 0u);

  // The aborted flight is deregistered: the key is free to lead again.
  RewriteResultCache::Ticket retry = cache.Begin(42, 1, 1);
  EXPECT_EQ(retry.role, RewriteResultCache::Role::kLeader);
  cache.Abort(retry, 42);
}

TEST(ResultCacheUnitTest, FlightUnderDifferentContextYieldsSolo) {
  TestCounters counted;
  RewriteResultCache cache({.capacity = 16, .shards = 1}, counted.handles);
  RewriteResultCache::Ticket leader = cache.Begin(42, /*epoch=*/1, 1);
  ASSERT_EQ(leader.role, RewriteResultCache::Role::kLeader);

  // A new-epoch request must not inherit the old-epoch leader's answer.
  RewriteResultCache::Ticket solo = cache.Begin(42, /*epoch=*/2, 1);
  EXPECT_EQ(solo.role, RewriteResultCache::Role::kSolo);
  EXPECT_EQ(solo.flight, nullptr);
  cache.Publish(leader, 42, 1, 1, Marked(1.0));
  cache.Publish(solo, 42, 2, 1, Marked(2.0));

  // The solo's newer-context publish landed last and is the resident entry.
  RewriteResultCache::Ticket hit = cache.Begin(42, 2, 1);
  ASSERT_EQ(hit.role, RewriteResultCache::Role::kHit);
  EXPECT_DOUBLE_EQ(hit.value->outcome.total_ms, 2.0);
}

TEST(ResultCacheUnitTest, ProbeNeverCountsMissesOrEnrollsFlights) {
  TestCounters counted;
  RewriteResultCache cache({.capacity = 16, .shards = 1}, counted.handles);
  EXPECT_FALSE(cache.Probe(42, 1, 1).has_value());
  EXPECT_EQ(counted.handles.misses->Value(), 0u);

  // The probe did not become a leader: the next Begin leads.
  RewriteResultCache::Ticket t = cache.Begin(42, 1, 1);
  ASSERT_EQ(t.role, RewriteResultCache::Role::kLeader);
  cache.Publish(t, 42, 1, 1, Marked(7.0));

  std::optional<CachedRewrite> probed = cache.Probe(42, 1, 1);
  ASSERT_TRUE(probed.has_value());
  EXPECT_DOUBLE_EQ(probed->outcome.total_ms, 7.0);
  EXPECT_FALSE(cache.Probe(42, /*epoch=*/2, 1).has_value());  // context-exact
  EXPECT_EQ(counted.handles.hits->Value(), 1u);
  EXPECT_EQ(counted.handles.misses->Value(), 1u);
}

// --------------------------------------------------------- service tests ---

class ResultCacheServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScenarioConfig cfg;
    cfg.kind = DatasetKind::kTwitter;
    cfg.num_rows = 20000;
    cfg.num_queries = 120;
    cfg.tau_ms = 500.0;
    cfg.seed = 211;
    cfg.approx_sample_rates = {0.2, 0.4};
    scenario_ = new Scenario(BuildScenario(cfg));
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }

  static ServiceConfig SmallConfig() {
    return ServiceConfig()
        .WithTrainerIterations(3)
        .WithAgentSeeds(1)
        .WithApproxRules({{ApproxKind::kSampleTable, 0.2},
                          {ApproxKind::kSampleTable, 0.4}});
  }

  static RewriteRequest Request(size_t query_index,
                                const std::string& strategy = "mdp/accurate") {
    RewriteRequest req;
    req.query = scenario_->evaluation[query_index % scenario_->evaluation.size()];
    req.strategy = strategy;
    return req;
  }

  /// The decision bytes a hit must replay exactly (wall clock and the
  /// result_cache_* how-served flags are the documented exclusions).
  static void ExpectSameDecision(const Result<RewriteResponse>& a,
                                 const Result<RewriteResponse>& b) {
    ASSERT_EQ(a.ok(), b.ok());
    if (!a.ok()) {
      EXPECT_EQ(a.status().code(), b.status().code());
      EXPECT_EQ(a.status().message(), b.status().message());
      return;
    }
    const RewriteResponse& ra = a.value();
    const RewriteResponse& rb = b.value();
    EXPECT_EQ(ra.strategy, rb.strategy);
    EXPECT_EQ(ra.rewritten_sql, rb.rewritten_sql);
    EXPECT_EQ(ra.exact_fallback, rb.exact_fallback);
    EXPECT_EQ(ra.outcome.option_index, rb.outcome.option_index);
    EXPECT_EQ(ra.outcome.planning_ms, rb.outcome.planning_ms);
    EXPECT_EQ(ra.outcome.exec_ms, rb.outcome.exec_ms);
    EXPECT_EQ(ra.outcome.total_ms, rb.outcome.total_ms);
    EXPECT_EQ(ra.outcome.viable, rb.outcome.viable);
    EXPECT_EQ(ra.outcome.steps, rb.outcome.steps);
    EXPECT_EQ(ra.outcome.quality, rb.outcome.quality);
    EXPECT_EQ(ra.outcome.approximate, rb.outcome.approximate);
    EXPECT_EQ(ra.stats.selectivities_collected, rb.stats.selectivities_collected);
    EXPECT_EQ(ra.stats.agent_snapshot_version, rb.stats.agent_snapshot_version);
  }

  static Scenario* scenario_;
};

Scenario* ResultCacheServiceTest::scenario_ = nullptr;

TEST_F(ResultCacheServiceTest, OffByDefaultWithZeroTelemetry) {
  MalivaService service(scenario_, SmallConfig());
  RewriteRequest req = Request(0);
  Result<RewriteResponse> a = service.Serve(req);
  Result<RewriteResponse> b = service.Serve(req);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(a.value().stats.result_cache_hit);
  EXPECT_FALSE(b.value().stats.result_cache_hit);
  EXPECT_FALSE(service.TryServeCached(req).has_value());

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.result_cache_hits, 0u);
  EXPECT_EQ(stats.result_cache_misses, 0u);
  EXPECT_EQ(stats.result_cache_coalesced, 0u);
  EXPECT_EQ(stats.result_cache_size, 0u);
}

TEST_F(ResultCacheServiceTest, HitReplaysTheMissByteForByte) {
  MalivaService service(scenario_, SmallConfig().WithResultCache(true));
  RewriteRequest req = Request(0);

  Result<RewriteResponse> miss = service.Serve(req);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss.value().stats.result_cache_hit);

  Result<RewriteResponse> hit = service.Serve(req);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().stats.result_cache_hit);
  EXPECT_FALSE(hit.value().stats.result_cache_coalesced);
  ExpectSameDecision(miss, hit);
  // The replayed template carries the original search's bill; the hit
  // itself did no selectivity work.
  EXPECT_EQ(hit.value().stats.shared_hits, miss.value().stats.shared_hits);

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.result_cache_hits, 1u);
  EXPECT_EQ(stats.result_cache_misses, 1u);
  EXPECT_EQ(stats.result_cache_size, 1u);
  EXPECT_EQ(stats.requests, 2u);

  // Distinct query, distinct fingerprint: a miss, not a collision.
  Result<RewriteResponse> other = service.Serve(Request(1));
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other.value().stats.result_cache_hit);
  EXPECT_EQ(service.Stats().result_cache_misses, 2u);
}

TEST_F(ResultCacheServiceTest, SeededHitsReplayTheirMissBytesThroughEveryEntryPoint) {
  // Property: over 240 seeded requests (24 queries, five strategies, mixed
  // tau overrides and quality floors), every cache hit and every coalesced
  // replay carries the bytes of the miss that computed its decision context
  // — through Serve, ServeBatch at 1 and 4 threads, and the fleet's Serve,
  // ServeBatch and ServeAsync — and replays bill no selectivity work.
  const char* strategies[] = {"baseline", "naive", "mdp/accurate", "bao",
                              "quality/one-stage"};
  const double taus[] = {150.0, 250.0, 300.0, 310.0, 500.0, 1000.0};
  const double floors[] = {0.5, 0.9, 0.95};
  Rng rng(0x6361636865);  // "cache"
  std::vector<RewriteRequest> requests;
  for (size_t i = 0; i < 240; ++i) {
    RewriteRequest req = Request(static_cast<size_t>(rng.UniformInt(0, 23)),
                                 strategies[rng.UniformInt(0, 4)]);
    if (rng.Bernoulli(0.5)) req.tau_ms = taus[rng.UniformInt(0, 5)];
    if (rng.Bernoulli(0.3)) req.quality_floor = floors[rng.UniformInt(0, 2)];
    req.scenario = "tweets";
    requests.push_back(req);
  }

  // The miss that first computed each decision context, by fingerprint.
  ServiceConfig config = SmallConfig().WithResultCache(true);
  config.num_threads = 1;
  MalivaService reference(scenario_, config);
  std::map<uint64_t, Result<RewriteResponse>> misses;
  size_t hits = 0;
  size_t replays = 0;
  auto check = [&](const RewriteRequest& req, uint64_t fp,
                   const Result<RewriteResponse>& got, const std::string& where) {
    SCOPED_TRACE(where);
    ASSERT_NE(fp, 0u);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const RewriteResponse& resp = got.value();
    auto it = misses.find(fp);
    if (!resp.stats.result_cache_hit) {
      // A miss: the first computation of its context must be new, and any
      // later recomputation (a fresh service) must reproduce it.
      ASSERT_FALSE(resp.stats.result_cache_coalesced);
      if (it == misses.end()) {
        misses.emplace(fp, got);
        return;
      }
    } else {
      ASSERT_NE(it, misses.end()) << "a hit on a context no miss computed";
      ++hits;
      if (resp.stats.result_cache_coalesced) ++replays;
    }
    ExpectSameDecision(it->second, got);
    EXPECT_EQ(ReplayDriver::ResponseDigest(got), ReplayDriver::ResponseDigest(it->second));
    const std::string sql = resp.option != nullptr
                                ? RewrittenQuery{req.query, *resp.option}.ToString()
                                : req.query->ToString();
    EXPECT_EQ(resp.rewritten_sql, sql);
  };

  // Serve, twice per request: the second call is always a hit.
  for (size_t i = 0; i < requests.size(); ++i) {
    const uint64_t fp = reference.FingerprintRequest(requests[i]);
    check(requests[i], fp, reference.Serve(requests[i]), "Serve #" + std::to_string(i));
    const uint64_t collected = reference.Stats().selectivities_collected;
    Result<RewriteResponse> hit = reference.Serve(requests[i]);
    ASSERT_TRUE(hit.ok());
    EXPECT_TRUE(hit.value().stats.result_cache_hit);
    check(requests[i], fp, hit, "Serve hit #" + std::to_string(i));
    EXPECT_EQ(reference.Stats().selectivities_collected, collected);
  }
  const size_t contexts = misses.size();
  EXPECT_GT(contexts, 40u);
  EXPECT_LT(contexts, requests.size());  // the draw repeats contexts

  // ServeBatch on fresh services: the first batch searches each context
  // once and coalesces its repeats, the second replays everything.
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ServiceConfig batch_config = config;
    batch_config.num_threads = threads;
    MalivaService service(scenario_, batch_config);
    for (int pass = 0; pass < 2; ++pass) {
      const uint64_t collected = service.Stats().selectivities_collected;
      std::vector<Result<RewriteResponse>> got = service.ServeBatch(requests);
      ASSERT_EQ(got.size(), requests.size());
      uint64_t searched = 0;
      for (size_t i = 0; i < requests.size(); ++i) {
        check(requests[i], service.FingerprintRequest(requests[i]), got[i],
              "ServeBatch threads " + std::to_string(threads) + " pass " +
                  std::to_string(pass) + " #" + std::to_string(i));
        if (got[i].ok() && !got[i].value().stats.result_cache_hit) {
          searched += got[i].value().stats.selectivities_collected;
        }
      }
      // Only the searches bill selectivity work; the second pass has none.
      EXPECT_EQ(service.Stats().selectivities_collected - collected, searched);
      if (pass == 1) EXPECT_EQ(searched, 0u);
    }
    EXPECT_EQ(service.Stats().result_cache_misses, contexts);
  }

  // The fleet, without admission: Serve twice per request, then a batch
  // that the cache answers whole.
  {
    MalivaFleet fleet(FleetConfig().WithDefaults(config).WithWarmupThreads(0));
    ASSERT_TRUE(fleet.RegisterScenario("tweets", scenario_).ok());
    const MalivaService& shard = *fleet.ServiceFor("tweets").value();
    for (size_t i = 0; i < requests.size(); ++i) {
      const uint64_t fp = shard.FingerprintRequest(requests[i]);
      for (int copy = 0; copy < 2; ++copy) {
        check(requests[i], fp, fleet.Serve(requests[i]),
              "fleet Serve #" + std::to_string(i) + "." + std::to_string(copy));
      }
    }
    const uint64_t collected = fleet.Stats().totals.selectivities_collected;
    std::vector<Result<RewriteResponse>> got = fleet.ServeBatch(requests);
    ASSERT_EQ(got.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      EXPECT_TRUE(got[i].ok() && got[i].value().stats.result_cache_hit) << i;
      check(requests[i], shard.FingerprintRequest(requests[i]), got[i],
            "fleet ServeBatch #" + std::to_string(i));
    }
    EXPECT_EQ(fleet.Stats().totals.selectivities_collected, collected);
  }

  // The fleet behind the admission gate, whose ServeAsync answers resident
  // contexts inline, before the gate decides. The strategies are trained up
  // front so no first-use training lands in the gate's serve-time estimate.
  {
    AdmissionConfig admission;
    admission.enabled = true;
    admission.slack_factor = 10.0;
    MalivaFleet fleet(FleetConfig()
                          .WithDefaults(config)
                          .WithWarmupThreads(0)
                          .WithAdmission(admission));
    ASSERT_TRUE(fleet.RegisterScenario("tweets", scenario_).ok());
    const MalivaService& shard = *fleet.ServiceFor("tweets").value();
    for (const char* name : strategies) ASSERT_TRUE(shard.GetRewriter(name).ok()) << name;
    for (size_t i = 0; i < requests.size(); ++i) {
      Result<RewriteResponse> got = fleet.Serve(requests[i]);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_FALSE(got.value().stats.degraded) << i;
      check(requests[i], shard.FingerprintRequest(requests[i]), got,
            "gated fleet Serve #" + std::to_string(i));
    }
    const uint64_t collected = fleet.Stats().totals.selectivities_collected;
    for (size_t i = 0; i < requests.size(); ++i) {
      std::optional<Result<RewriteResponse>> got;
      ASSERT_TRUE(fleet
                      .ServeAsync(requests[i],
                                  [&got](Result<RewriteResponse> response) {
                                    got = std::move(response);
                                  })
                      .ok());
      // A resident context is answered inline, so `done` has already run.
      ASSERT_TRUE(got.has_value()) << i;
      EXPECT_TRUE(got->ok() && got->value().stats.result_cache_hit) << i;
      check(requests[i], shard.FingerprintRequest(requests[i]), *got,
            "fleet ServeAsync #" + std::to_string(i));
    }
    EXPECT_EQ(fleet.Stats().totals.selectivities_collected, collected);
  }
  EXPECT_GE(hits, 4 * requests.size());
  EXPECT_GT(replays, 0u);
  EXPECT_EQ(misses.size(), contexts);
}

TEST_F(ResultCacheServiceTest, HitsDoNotRebillSelectivityTelemetry) {
  MalivaService service(scenario_, SmallConfig().WithResultCache(true));
  RewriteRequest req = Request(2);
  ASSERT_TRUE(service.Serve(req).ok());
  uint64_t collected_after_miss = service.Stats().selectivities_collected;
  ASSERT_TRUE(service.Serve(req).ok());
  ASSERT_TRUE(service.Serve(req).ok());
  // Replays bill no new selectivity work; only the request counter moves.
  EXPECT_EQ(service.Stats().selectivities_collected, collected_after_miss);
  EXPECT_EQ(service.Stats().requests, 3u);
}

TEST_F(ResultCacheServiceTest, MissPathMatchesCacheOffServiceByteForByte) {
  ServiceConfig off_config = SmallConfig();
  off_config.num_threads = 1;
  ServiceConfig on_config = SmallConfig().WithResultCache(true);
  on_config.num_threads = 8;
  MalivaService off(scenario_, off_config);
  MalivaService on(scenario_, on_config);

  // Mixed strategies, taus, floors, and error requests: with the cache on,
  // every decision (first-seen misses and replayed duplicates alike) must
  // carry the bytes the cache-off service computes.
  std::vector<RewriteRequest> requests;
  const char* strategies[] = {"baseline", "naive", "mdp/accurate", "bao"};
  for (size_t i = 0; i < 80; ++i) {
    RewriteRequest req = Request(i / 2, strategies[i % 4]);
    if (i % 5 == 0) req.tau_ms = 250.0 + 50.0 * static_cast<double>(i % 4);
    if (i % 7 == 0) req.quality_floor = 0.9;
    if (i % 17 == 0) req.strategy = "definitely/not-a-strategy";
    requests.push_back(req);
  }
  std::vector<Result<RewriteResponse>> expected = off.ServeBatch(requests);
  std::vector<Result<RewriteResponse>> got = on.ServeBatch(requests);
  ASSERT_EQ(expected.size(), got.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectSameDecision(expected[i], got[i]);
  }
  // And a second identical batch — now served mostly from the cache — still
  // reproduces the same bytes.
  std::vector<Result<RewriteResponse>> replayed = on.ServeBatch(requests);
  for (size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectSameDecision(expected[i], replayed[i]);
  }
  EXPECT_GT(on.Stats().result_cache_hits + on.Stats().result_cache_coalesced,
            0u);
}

TEST_F(ResultCacheServiceTest, BatchDedupCoalescesDuplicatesWithinOneBatch) {
  ServiceConfig config = SmallConfig().WithResultCache(true);
  config.num_threads = 4;
  MalivaService service(scenario_, config);
  ASSERT_TRUE(service.Warmup({"mdp/accurate"}).ok());

  // 4 distinct requests, 4 copies each, interleaved. The cache is cold, so
  // every replayed copy can only come from the in-batch dedup pre-pass.
  std::vector<RewriteRequest> requests;
  for (size_t copy = 0; copy < 4; ++copy) {
    for (size_t q = 0; q < 4; ++q) requests.push_back(Request(q));
  }
  std::vector<Result<RewriteResponse>> responses = service.ServeBatch(requests);
  ASSERT_EQ(responses.size(), requests.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_TRUE(responses[i].ok()) << responses[i].status().ToString();
    ExpectSameDecision(responses[i % 4], responses[i]);
    EXPECT_EQ(responses[i].value().stats.result_cache_coalesced, i >= 4);
  }
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.result_cache_coalesced, 12u);  // 3 replayed copies x 4
  EXPECT_EQ(stats.result_cache_misses, 4u);      // one search per distinct
  EXPECT_EQ(stats.requests, 16u);
}

TEST_F(ResultCacheServiceTest, TauAndFloorBinsShareDecisionsWithinABin) {
  MalivaService service(scenario_, SmallConfig().WithResultCache(true));

  RewriteRequest req = Request(0);
  req.tau_ms = 300.0;
  ASSERT_TRUE(service.Serve(req).ok());
  // 310ms falls in the same 25ms bin (floor(300/25) == floor(310/25) == 12).
  req.tau_ms = 310.0;
  Result<RewriteResponse> same_bin = service.Serve(req);
  ASSERT_TRUE(same_bin.ok());
  EXPECT_TRUE(same_bin.value().stats.result_cache_hit);
  // 330ms crosses into bin 13: its own search.
  req.tau_ms = 330.0;
  Result<RewriteResponse> next_bin = service.Serve(req);
  ASSERT_TRUE(next_bin.ok());
  EXPECT_FALSE(next_bin.value().stats.result_cache_hit);

  // Quality floors bin at 1/100 granularity; absent is its own key.
  RewriteRequest floored = Request(1);
  floored.quality_floor = 0.901;
  ASSERT_TRUE(service.Serve(floored).ok());
  floored.quality_floor = 0.909;
  Result<RewriteResponse> same_floor = service.Serve(floored);
  ASSERT_TRUE(same_floor.ok());
  EXPECT_TRUE(same_floor.value().stats.result_cache_hit);
  floored.quality_floor.reset();
  Result<RewriteResponse> no_floor = service.Serve(floored);
  ASSERT_TRUE(no_floor.ok());
  EXPECT_FALSE(no_floor.value().stats.result_cache_hit);
}

TEST_F(ResultCacheServiceTest, TryServeCachedIsProbeOnly) {
  MalivaService service(scenario_, SmallConfig().WithResultCache(true));
  RewriteRequest req = Request(0);

  // Cold cache, cold strategy: the probe refuses to build or train anything
  // and counts no miss.
  EXPECT_FALSE(service.TryServeCached(req).has_value());
  EXPECT_EQ(service.Stats().result_cache_misses, 0u);

  ASSERT_TRUE(service.Serve(req).ok());
  std::optional<RewriteResponse> cached = service.TryServeCached(req);
  ASSERT_TRUE(cached.has_value());
  EXPECT_TRUE(cached->stats.result_cache_hit);
  EXPECT_EQ(service.Stats().result_cache_hits, 1u);
  EXPECT_EQ(service.Stats().result_cache_misses, 1u);  // the Serve's only
}

TEST_F(ResultCacheServiceTest, OneDecisionContextAcrossEntryPoints) {
  // Every entry point that keys on a request's decision context — the
  // fingerprint accessor, the admission probe, the in-batch dedup, the trace
  // ring and the serve path's own cache — must agree on the key. Shared
  // store and result cache both on, so the serve path canonicalizes once
  // for both planes.
  ServiceConfig config = SmallConfig().WithResultCache(true);
  config.num_threads = 1;
  config.cross_request_cache = true;
  MalivaService service(scenario_, config);

  // Strategy-default tau resolves identically cold and built.
  const uint64_t cold = service.FingerprintRequest(Request(0));
  ASSERT_NE(cold, 0u);
  ASSERT_TRUE(service.Warmup({"mdp/accurate", "baseline"}).ok());
  EXPECT_EQ(service.FingerprintRequest(Request(0)), cold);

  // Bins: 300/310 share the 25 ms tau bin, 330 does not; floors 0.901/0.909
  // share a 1/100 bin, an absent floor is its own key.
  auto with = [](RewriteRequest req, std::optional<double> tau,
                 std::optional<double> floor) {
    req.tau_ms = tau;
    req.quality_floor = floor;
    return req;
  };
  const RewriteRequest tau300 = with(Request(1), 300.0, std::nullopt);
  const RewriteRequest tau310 = with(Request(1), 310.0, std::nullopt);
  const RewriteRequest tau330 = with(Request(1), 330.0, std::nullopt);
  const RewriteRequest floor901 = with(Request(2), std::nullopt, 0.901);
  const RewriteRequest floor909 = with(Request(2), std::nullopt, 0.909);
  const RewriteRequest no_floor = with(Request(2), std::nullopt, std::nullopt);
  EXPECT_EQ(service.FingerprintRequest(tau300), service.FingerprintRequest(tau310));
  EXPECT_NE(service.FingerprintRequest(tau300), service.FingerprintRequest(tau330));
  EXPECT_EQ(service.FingerprintRequest(floor901),
            service.FingerprintRequest(floor909));
  EXPECT_NE(service.FingerprintRequest(floor901),
            service.FingerprintRequest(no_floor));

  // TryServeCached hits exactly the contexts an earlier Serve made
  // resident, and counts nothing for the rest.
  std::vector<RewriteRequest> served = {Request(0), tau300, floor901,
                                        Request(3, "baseline")};
  std::vector<uint64_t> resident;
  for (const RewriteRequest& req : served) {
    ASSERT_TRUE(service.Serve(req).ok());
    resident.push_back(service.FingerprintRequest(req));
  }
  std::vector<RewriteRequest> probes = {
      Request(0),  tau300,   tau310,   tau330,   floor901, floor909,
      no_floor,    Request(3, "baseline"), Request(3), Request(4)};
  for (size_t i = 0; i < probes.size(); ++i) {
    SCOPED_TRACE(i);
    const uint64_t fp = service.FingerprintRequest(probes[i]);
    const bool expect_hit =
        std::find(resident.begin(), resident.end(), fp) != resident.end();
    const ServiceStats before = service.Stats();
    std::optional<RewriteResponse> cached = service.TryServeCached(probes[i]);
    const ServiceStats after = service.Stats();
    ASSERT_EQ(cached.has_value(), expect_hit);
    EXPECT_EQ(after.result_cache_misses, before.result_cache_misses);
    EXPECT_EQ(after.result_cache_hits, before.result_cache_hits + (expect_hit ? 1 : 0));
    EXPECT_EQ(after.requests, before.requests + (expect_hit ? 1 : 0));
    if (expect_hit) EXPECT_TRUE(cached->stats.result_cache_hit);
  }

  // ServeBatch (fresh cache) coalesces exactly the members repeating an
  // earlier member's fingerprint.
  MalivaService batch_service(scenario_, config);
  ASSERT_TRUE(batch_service.Warmup({"mdp/accurate", "baseline"}).ok());
  std::vector<RewriteRequest> batch = {Request(5), tau300,   tau310,
                                       tau330,     Request(5), floor901,
                                       floor909,   no_floor, Request(5, "baseline")};
  std::vector<Result<RewriteResponse>> responses = batch_service.ServeBatch(batch);
  ASSERT_EQ(responses.size(), batch.size());
  std::vector<uint64_t> seen;
  for (size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE(i);
    const uint64_t fp = batch_service.FingerprintRequest(batch[i]);
    const bool repeat = std::find(seen.begin(), seen.end(), fp) != seen.end();
    seen.push_back(fp);
    ASSERT_TRUE(responses[i].ok()) << responses[i].status().ToString();
    EXPECT_EQ(responses[i].value().stats.result_cache_coalesced, repeat);
  }

  // A fleet's trace events carry the same fingerprint the shard reports.
  FleetConfig fleet_config = FleetConfig().WithDefaults(config).WithWarmupThreads(0);
  fleet_config.trace_ring_capacity = 64;
  MalivaFleet fleet(fleet_config);
  ASSERT_TRUE(fleet.RegisterScenario("tweets", scenario_).ok());
  Result<std::shared_ptr<const MalivaService>> shard = fleet.ServiceFor("tweets");
  ASSERT_TRUE(shard.ok());
  std::vector<uint64_t> expected;
  for (RewriteRequest req : batch) {
    req.scenario = "tweets";
    ASSERT_TRUE(fleet.Serve(req).ok());
    expected.push_back(shard.value()->FingerprintRequest(req));
  }
  std::vector<uint64_t> traced;
  for (const TraceEvent& event : fleet.trace_ring()->SnapshotEvents()) {
    traced.push_back(event.fingerprint);
  }
  std::sort(expected.begin(), expected.end());
  std::sort(traced.begin(), traced.end());
  EXPECT_EQ(traced, expected);

  // The agent snapshot version keys the context: after RetrainNow publishes
  // v2, the probe declines a context resident under v1.
  ServiceConfig online_config = SmallConfig().WithResultCache(true);
  online_config.cross_request_cache = true;
  online_config.online_learning = true;
  online_config.online_gradient_steps = 4;
  online_config.online_gate_tolerance = 10.0;
  online_config.online_trainer_threads = 0;
  MalivaService online(scenario_, online_config);
  ASSERT_TRUE(online.Warmup({"mdp/accurate"}).ok());
  std::vector<RewriteRequest> feedback;
  for (size_t i = 0; i < 32; ++i) feedback.push_back(Request(i));
  for (const Result<RewriteResponse>& resp : online.ServeBatch(feedback)) {
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  }
  ASSERT_TRUE(online.TryServeCached(Request(0)).has_value());
  ASSERT_TRUE(online.online_trainer()->RetrainNow("agent/exact-accurate"));
  ASSERT_EQ(online.model_registry()->CurrentVersion("agent/exact-accurate"), 2u);
  const uint64_t misses = online.Stats().result_cache_misses;
  EXPECT_FALSE(online.TryServeCached(Request(0)).has_value());
  EXPECT_EQ(online.Stats().result_cache_misses, misses);
}

TEST_F(ResultCacheServiceTest, ValidateRejectsBadKnobs) {
  RewriteRequest req;
  req.query = scenario_->evaluation[0];
  req.strategy = "baseline";
  ServiceConfig bad[] = {
      SmallConfig().WithResultCache(true).WithResultCacheCapacity(0),
      SmallConfig().WithResultCache(true),
      SmallConfig().WithResultCache(true).WithResultCacheCapacity(4),
  };
  bad[1].result_cache_shards = 0;
  bad[2].result_cache_shards = 8;
  for (size_t i = 0; i < sizeof(bad) / sizeof(bad[0]); ++i) {
    SCOPED_TRACE(i);
    ASSERT_FALSE(bad[i].Validate().ok());
    MalivaService service(scenario_, bad[i]);
    EXPECT_EQ(service.Serve(req).status().code(),
              Status::Code::kInvalidArgument);
  }
  // The knobs are inert while the cache is off.
  EXPECT_TRUE(SmallConfig().WithResultCacheCapacity(0).Validate().ok());
}

TEST_F(ResultCacheServiceTest, FleetRollsUpCacheCountersAcrossShards) {
  MalivaFleet fleet(FleetConfig()
                        .WithDefaults(SmallConfig().WithResultCache(true))
                        .WithWarmupThreads(0));
  ASSERT_TRUE(fleet.RegisterScenario("tweets", scenario_).ok());

  RewriteRequest req = Request(0);
  req.scenario = "tweets";
  ASSERT_TRUE(fleet.Serve(req).ok());
  Result<RewriteResponse> hit = fleet.Serve(req);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().stats.result_cache_hit);

  FleetStats stats = fleet.Stats();
  EXPECT_EQ(stats.totals.result_cache_hits, 1u);
  EXPECT_EQ(stats.totals.result_cache_misses, 1u);
  EXPECT_EQ(stats.totals.result_cache_size, 1u);
  ASSERT_EQ(stats.shards.size(), 1u);
  EXPECT_EQ(stats.shards[0].second.result_cache_hits, 1u);
}

TEST_F(ResultCacheServiceTest, AdmissionGateServesCacheHitsBeforeDeciding) {
  // Admission on, cache on: a duplicate request must be answered from the
  // cache ahead of the Decide ladder (counted as admitted, never shed or
  // degraded, no scheduler dispatch).
  AdmissionConfig admission;
  admission.enabled = true;
  admission.slack_factor = 10.0;  // lazy first-use training must not shed
  MalivaFleet fleet(FleetConfig()
                        .WithDefaults(SmallConfig().WithResultCache(true))
                        .WithWarmupThreads(0)
                        .WithAdmission(admission));
  ASSERT_TRUE(fleet.RegisterScenario("tweets", scenario_).ok());

  RewriteRequest req = Request(0);
  req.scenario = "tweets";
  Result<RewriteResponse> miss = fleet.Serve(req);
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  Result<RewriteResponse> hit = fleet.Serve(req);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().stats.result_cache_hit);
  EXPECT_FALSE(hit.value().stats.degraded);
  ExpectSameDecision(miss, hit);

  FleetStats stats = fleet.Stats();
  EXPECT_EQ(stats.admission.admitted, 2u);
  EXPECT_EQ(stats.admission.shed_deadline + stats.admission.shed_overload, 0u);
  EXPECT_EQ(stats.totals.result_cache_hits, 1u);
}

// ---------------------------------------------------- invalidation races ---

class ResultCacheRaceTest : public ::testing::Test {
 protected:
  static ServiceConfig SmallConfig() {
    return ServiceConfig().WithTrainerIterations(3).WithAgentSeeds(1);
  }
};

TEST_F(ResultCacheRaceTest, CatalogBumpInvalidatesResidentDecisions) {
  ScenarioConfig cfg;
  cfg.kind = DatasetKind::kTwitter;
  cfg.num_rows = 5000;
  cfg.num_queries = 40;
  cfg.seed = 223;
  Scenario scenario = BuildScenario(cfg);
  MalivaService service(&scenario, SmallConfig().WithResultCache(true));

  RewriteRequest req;
  req.query = scenario.evaluation[0];
  req.strategy = "naive";
  ASSERT_TRUE(service.Serve(req).ok());
  Result<RewriteResponse> warm = service.Serve(req);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(warm.value().stats.result_cache_hit);

  // A stats refresh moves catalog_version(): the resident decision predates
  // the new ground truth and must never be replayed.
  uint64_t before = scenario.engine->catalog_version();
  ASSERT_TRUE(scenario.engine->BuildSampleTables("tweets", {0.33}, 4242).ok());
  ASSERT_GT(scenario.engine->catalog_version(), before);

  Result<RewriteResponse> recomputed = service.Serve(req);
  ASSERT_TRUE(recomputed.ok());
  EXPECT_FALSE(recomputed.value().stats.result_cache_hit);
  EXPECT_GE(service.Stats().result_cache_stale_declines, 1u);
  // The recompute re-warms the new epoch in place: same single entry.
  Result<RewriteResponse> rewarmed = service.Serve(req);
  ASSERT_TRUE(rewarmed.ok());
  EXPECT_TRUE(rewarmed.value().stats.result_cache_hit);
  EXPECT_EQ(service.Stats().result_cache_size, 1u);
}

TEST_F(ResultCacheRaceTest, SnapshotPublishInvalidatesResidentDecisions) {
  ScenarioConfig cfg;
  cfg.kind = DatasetKind::kTwitter;
  cfg.num_rows = 20000;
  cfg.num_queries = 120;
  cfg.seed = 227;
  Scenario scenario = BuildScenario(cfg);
  ServiceConfig config = SmallConfig().WithResultCache(true);
  config.online_learning = true;
  config.online_gradient_steps = 4;
  config.online_gate_tolerance = 10.0;
  config.online_trainer_threads = 0;
  MalivaService service(&scenario, config);
  ASSERT_TRUE(service.Warmup({"mdp/accurate"}).ok());
  const std::string key = "agent/exact-accurate";

  // Misses on distinct queries feed the replay sink (hits record no
  // feedback, so the fine-tune round below runs on miss transitions only).
  std::vector<RewriteRequest> requests;
  for (size_t i = 0; i < 32; ++i) {
    RewriteRequest req;
    req.query = scenario.evaluation[i % scenario.evaluation.size()];
    req.strategy = "mdp/accurate";
    requests.push_back(req);
  }
  for (const Result<RewriteResponse>& resp : service.ServeBatch(requests)) {
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp.value().stats.agent_snapshot_version, 1u);
  }
  Result<RewriteResponse> v1_hit = service.Serve(requests[0]);
  ASSERT_TRUE(v1_hit.ok());
  ASSERT_TRUE(v1_hit.value().stats.result_cache_hit);

  // Publish snapshot v2: every resident v1 decision is dead, O(1).
  ASSERT_TRUE(service.online_trainer()->RetrainNow(key));
  ASSERT_EQ(service.model_registry()->CurrentVersion(key), 2u);

  Result<RewriteResponse> recomputed = service.Serve(requests[0]);
  ASSERT_TRUE(recomputed.ok());
  EXPECT_FALSE(recomputed.value().stats.result_cache_hit);
  EXPECT_EQ(recomputed.value().stats.agent_snapshot_version, 2u);
  EXPECT_GE(service.Stats().result_cache_stale_declines, 1u);

  // And the v2 decision is the new resident entry.
  Result<RewriteResponse> v2_hit = service.Serve(requests[0]);
  ASSERT_TRUE(v2_hit.ok());
  EXPECT_TRUE(v2_hit.value().stats.result_cache_hit);
  EXPECT_EQ(v2_hit.value().stats.agent_snapshot_version, 2u);
}

TEST_F(ResultCacheRaceTest, EightThreadsUnderSnapshotAndCatalogChurn) {
  // The suite's TSan/ASan stress leg: 8 serving threads hammering a small
  // hot set (maximal hit/coalesce pressure) while the main thread publishes
  // new agent snapshots concurrently and bumps the catalog epoch between
  // rounds (engine catalog mutation is documented build-phase-only, so the
  // bump itself happens at a barrier; the *invalidations* land mid-stream).
  // Invariants: every response ok, and per thread the served snapshot
  // version never moves backwards — a replayed decision is never older than
  // one the thread already observed.
  ScenarioConfig cfg;
  cfg.kind = DatasetKind::kTwitter;
  cfg.num_rows = 20000;
  cfg.num_queries = 120;
  cfg.seed = 229;
  Scenario scenario = BuildScenario(cfg);
  ServiceConfig config = SmallConfig().WithResultCache(true).WithResultCacheCapacity(64);
  config.online_learning = true;
  config.online_gradient_steps = 4;
  config.online_gate_tolerance = 10.0;
  config.online_trainer_threads = 0;
  MalivaService service(&scenario, config);
  ASSERT_TRUE(service.Warmup({"mdp/accurate"}).ok());
  const std::string key = "agent/exact-accurate";

  std::atomic<bool> failed{false};
  auto run_round = [&] {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < 8; ++t) {
      threads.emplace_back([&, t] {
        uint64_t last_version = 0;
        for (size_t i = 0; i < 40; ++i) {
          RewriteRequest req;
          req.query = scenario.evaluation[(t + i) % 6];  // 6-query hot set
          req.strategy = "mdp/accurate";
          Result<RewriteResponse> resp = service.Serve(req);
          if (!resp.ok()) {
            failed.store(true);
            return;
          }
          uint64_t version = resp.value().stats.agent_snapshot_version;
          if (version < last_version) {
            failed.store(true);  // stale decision replayed
            return;
          }
          last_version = version;
        }
      });
    }
    // Concurrent snapshot churn while the 8 threads serve.
    for (int round = 0; round < 3; ++round) {
      (void)service.online_trainer()->RetrainNow(key);
    }
    for (std::thread& thread : threads) thread.join();
  };

  run_round();
  uint64_t before = scenario.engine->catalog_version();
  ASSERT_TRUE(scenario.engine->BuildSampleTables("tweets", {0.25}, 4242).ok());
  ASSERT_GT(scenario.engine->catalog_version(), before);
  run_round();

  EXPECT_FALSE(failed.load());
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.requests, 2u * 8u * 40u);
  EXPECT_GT(stats.result_cache_hits, 0u);
  // The catalog bump (and any mid-stream snapshot publish) must have forced
  // context declines rather than stale replays.
  EXPECT_GE(stats.result_cache_stale_declines, 1u);
}

}  // namespace
}  // namespace maliva
