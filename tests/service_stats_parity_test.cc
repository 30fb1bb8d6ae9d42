// ServiceStats / FleetStats field parity.
//
// Every counter field of a shard's ServiceStats row, of FleetStats::totals
// and of FleetStats::admission must equal a tally built independently from
// what the callers saw: the returned responses (their flags and per-request
// stats) and the Status codes of the refusals. Two fleets drive it:
//   * an ungated fleet with the shared selectivity store, the histogram tier
//     and a small result cache on, fed misses, hits, in-batch duplicates
//     (MalivaService::ServeBatch dedup), invalid requests, quality-floor
//     fallbacks and a routing error;
//   * an admission-gated fleet whose stream forces admits (cache hits
//     answered inline included), degrades, deadline sheds at the gate and
//     queue-overflow sheds.
//
// Wall-time sums are the one place the tally cannot be exact: an error
// response carries no serve_wall_ms, so each invalid request is served
// alone and its contribution measured as the Stats() delta around it, and
// the stats side rounds each sample to its recording resolution.

#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench/replay_golden.h"
#include "service/service_fleet.h"

namespace maliva {
namespace {

/// Per-sample rounding the stats side may apply to a recorded wall time:
/// samples are summed as whole microseconds (the latency histograms' tick).
constexpr double kWallToleranceMsPerSample = 0.0005;

/// What the callers observed for one shard.
struct Tally {
  uint64_t requests = 0;
  uint64_t errors = 0;
  uint64_t exact_fallbacks = 0;
  uint64_t selectivities_collected = 0;
  uint64_t shared_hits = 0;
  uint64_t shared_published = 0;
  uint64_t histogram_hits = 0;
  uint64_t probe_collections = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_coalesced = 0;
  uint64_t admitted = 0;
  uint64_t degraded = 0;
  uint64_t shed_deadline = 0;
  uint64_t shed_overload = 0;
  double wall_ms = 0.0;
  uint64_t wall_samples = 0;
  double queue_wait_ms = 0.0;
  uint64_t queue_wait_samples = 0;

  /// One response served by the shard. `cache_on`: the shard runs the
  /// result cache, so a non-replayed response was a cache miss.
  void AddServed(const RewriteResponse& resp, bool cache_on, bool gated) {
    const RequestStats& s = resp.stats;
    ++requests;
    exact_fallbacks += resp.exact_fallback ? 1 : 0;
    wall_ms += s.serve_wall_ms;
    ++wall_samples;
    if (s.result_cache_hit) {
      // Sequential streams only: a coalesced response here is an in-batch
      // dedup replay, which the cache counts as coalesced alone.
      (s.result_cache_coalesced ? cache_coalesced : cache_hits) += 1;
    } else {
      cache_misses += cache_on ? 1 : 0;
      selectivities_collected += s.selectivities_collected;
      shared_hits += s.shared_hits;
      shared_published += s.shared_published;
      histogram_hits += s.selectivity_tier_hits[1];
      probe_collections += s.selectivity_tier_hits[2];
    }
    if (gated) {
      (s.degraded ? degraded : admitted) += 1;
      // 0 for a cache hit the gate answered inline (it never queued).
      queue_wait_ms += s.queue_wait_ms;
      ++queue_wait_samples;
    }
  }

  /// One invalid request the shard answered with an error; `wall_ms` is
  /// its measured contribution to the wall sum.
  void AddError(double error_wall_ms) {
    ++requests;
    ++errors;
    wall_ms += error_wall_ms;
    ++wall_samples;
  }

  /// One request the gate refused before it reached the shard.
  void AddShed(const Status& status) {
    if (status.code() == Status::Code::kDeadlineExceeded) {
      ++shed_deadline;
    } else {
      ASSERT_EQ(status.code(), Status::Code::kResourceExhausted) << status.ToString();
      ++shed_overload;
    }
  }
};

void ExpectRowMatchesTally(const std::string& id, const ServiceStats& row,
                           const Tally& t) {
  SCOPED_TRACE("shard " + id);
  EXPECT_EQ(row.requests, t.requests);
  EXPECT_EQ(row.errors, t.errors);
  EXPECT_EQ(row.exact_fallbacks, t.exact_fallbacks);
  EXPECT_EQ(row.selectivities_collected, t.selectivities_collected);
  EXPECT_EQ(row.shared_hits, t.shared_hits);
  EXPECT_EQ(row.shared_published, t.shared_published);
  EXPECT_EQ(row.histogram_hits, t.histogram_hits);
  EXPECT_EQ(row.probe_collections, t.probe_collections);
  EXPECT_EQ(row.result_cache_hits, t.cache_hits);
  EXPECT_EQ(row.result_cache_misses, t.cache_misses);
  EXPECT_EQ(row.result_cache_coalesced, t.cache_coalesced);
  EXPECT_EQ(row.admission_admitted, t.admitted);
  EXPECT_EQ(row.admission_degraded, t.degraded);
  EXPECT_EQ(row.admission_shed_deadline, t.shed_deadline);
  EXPECT_EQ(row.admission_shed_overload, t.shed_overload);
  EXPECT_NEAR(row.serve_wall_ms_total, t.wall_ms,
              kWallToleranceMsPerSample * static_cast<double>(t.wall_samples) + 1e-9);
  EXPECT_NEAR(row.admission_queue_wait_ms_total, t.queue_wait_ms,
              kWallToleranceMsPerSample * static_cast<double>(t.queue_wait_samples) +
                  1e-9);
}

/// FleetStats::totals must be the field-wise sum of the rows and
/// FleetStats::admission the sum of the rows' gate fields.
void ExpectTotalsSumRows(const FleetStats& stats) {
  ServiceStats sum;
  for (const auto& [id, row] : stats.shards) {
    sum.requests += row.requests;
    sum.errors += row.errors;
    sum.exact_fallbacks += row.exact_fallbacks;
    sum.selectivities_collected += row.selectivities_collected;
    sum.shared_hits += row.shared_hits;
    sum.shared_published += row.shared_published;
    sum.histogram_hits += row.histogram_hits;
    sum.probe_collections += row.probe_collections;
    sum.result_cache_hits += row.result_cache_hits;
    sum.result_cache_misses += row.result_cache_misses;
    sum.result_cache_coalesced += row.result_cache_coalesced;
    sum.result_cache_evictions += row.result_cache_evictions;
    sum.result_cache_stale_declines += row.result_cache_stale_declines;
    sum.admission_admitted += row.admission_admitted;
    sum.admission_degraded += row.admission_degraded;
    sum.admission_shed_deadline += row.admission_shed_deadline;
    sum.admission_shed_overload += row.admission_shed_overload;
    sum.admission_queue_wait_ms_total += row.admission_queue_wait_ms_total;
    sum.serve_wall_ms_total += row.serve_wall_ms_total;
  }
  const ServiceStats& totals = stats.totals;
  EXPECT_EQ(totals.requests, sum.requests);
  EXPECT_EQ(totals.errors, sum.errors);
  EXPECT_EQ(totals.exact_fallbacks, sum.exact_fallbacks);
  EXPECT_EQ(totals.selectivities_collected, sum.selectivities_collected);
  EXPECT_EQ(totals.shared_hits, sum.shared_hits);
  EXPECT_EQ(totals.shared_published, sum.shared_published);
  EXPECT_EQ(totals.histogram_hits, sum.histogram_hits);
  EXPECT_EQ(totals.probe_collections, sum.probe_collections);
  EXPECT_EQ(totals.result_cache_hits, sum.result_cache_hits);
  EXPECT_EQ(totals.result_cache_misses, sum.result_cache_misses);
  EXPECT_EQ(totals.result_cache_coalesced, sum.result_cache_coalesced);
  EXPECT_EQ(totals.result_cache_evictions, sum.result_cache_evictions);
  EXPECT_EQ(totals.result_cache_stale_declines, sum.result_cache_stale_declines);
  EXPECT_EQ(totals.admission_admitted, sum.admission_admitted);
  EXPECT_EQ(totals.admission_degraded, sum.admission_degraded);
  EXPECT_EQ(totals.admission_shed_deadline, sum.admission_shed_deadline);
  EXPECT_EQ(totals.admission_shed_overload, sum.admission_shed_overload);
  EXPECT_NEAR(totals.admission_queue_wait_ms_total, sum.admission_queue_wait_ms_total,
              1e-9);
  EXPECT_NEAR(totals.serve_wall_ms_total, sum.serve_wall_ms_total, 1e-9);
  if (stats.admission.enabled) {
    EXPECT_EQ(stats.admission.admitted, sum.admission_admitted);
    EXPECT_EQ(stats.admission.degraded, sum.admission_degraded);
    EXPECT_EQ(stats.admission.shed_deadline, sum.admission_shed_deadline);
    EXPECT_EQ(stats.admission.shed_overload, sum.admission_shed_overload);
    EXPECT_NEAR(stats.admission.queue_wait_ms_total,
                sum.admission_queue_wait_ms_total, 1e-9);
  }
}

const ServiceStats& Row(const FleetStats& stats, const std::string& id) {
  for (const auto& [row_id, row] : stats.shards) {
    if (row_id == id) return row;
  }
  ADD_FAILURE() << "no row for shard " << id;
  static const ServiceStats kEmpty;
  return kEmpty;
}

class ServiceStatsParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload_ = new replay_golden::GoldenWorkload(replay_golden::BuildGoldenWorkload());
  }
  static void TearDownTestSuite() {
    delete workload_;
    workload_ = nullptr;
  }

  /// Serves one request the shard must refuse as invalid and folds it into
  /// `tally`, measuring its wall contribution as the Stats() delta.
  static void ServeInvalid(const MalivaFleet& fleet, const std::string& id,
                           const RewriteRequest& request, Tally* tally) {
    const double before = Row(fleet.Stats(), id).serve_wall_ms_total;
    Result<RewriteResponse> response = fleet.Serve(request);
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.status().code(), Status::Code::kInvalidArgument);
    tally->AddError(Row(fleet.Stats(), id).serve_wall_ms_total - before);
  }

  static replay_golden::GoldenWorkload* workload_;
};

replay_golden::GoldenWorkload* ServiceStatsParityTest::workload_ = nullptr;

TEST_F(ServiceStatsParityTest, UngatedFleetCountersEqualResponseTally) {
  constexpr size_t kCacheCapacity = 8;
  ServiceConfig service_config = replay_golden::GoldenServiceConfig()
                                     .WithResultCache(true)
                                     .WithResultCacheCapacity(kCacheCapacity);
  service_config.num_threads = 1;
  service_config.cross_request_cache = true;
  service_config.histogram_selectivity = true;
  service_config.result_cache_shards = 1;
  FleetConfig fleet_config =
      FleetConfig().WithDefaults(service_config).WithNumThreads(1).WithWarmupThreads(1);
  fleet_config.warmup_strategies = {"mdp/accurate", "baseline"};
  MalivaFleet fleet(fleet_config);
  ASSERT_TRUE(replay_golden::RegisterGolden(&fleet, workload_).ok());
  std::map<std::string, Tally> tallies;

  auto fold = [&](const RewriteRequest& req, const Result<RewriteResponse>& r) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    tallies[req.scenario].AddServed(r.value(), /*cache_on=*/true, /*gated=*/false);
  };
  auto twitter = [&](size_t i, const char* strategy) {
    RewriteRequest req;
    req.scenario = "twitter";
    req.query = workload_->twitter.evaluation[i % workload_->twitter.evaluation.size()];
    req.strategy = strategy;
    return req;
  };
  auto tpch_floor = [&](size_t i) {
    RewriteRequest req;
    req.scenario = "tpch";
    req.query = workload_->tpch.evaluation[i % workload_->tpch.evaluation.size()];
    req.strategy = "quality/one-stage";
    req.tau_ms = 120.0;
    req.quality_floor = 0.95;
    return req;
  };

  // Fleet batch: misses, repeats (hits while resident, misses again once
  // the 8-entry cache evicted them), histogram-tier estimates and
  // quality-floor fallbacks.
  std::vector<RewriteRequest> batch;
  for (size_t i = 0; i < 14; ++i) batch.push_back(twitter(i, "mdp/accurate"));
  for (size_t i = 0; i < 6; ++i) batch.push_back(twitter(i, "baseline"));
  // The sampling QTE reads the histogram rung; the accurate one never does.
  for (size_t i = 14; i < 20; ++i) batch.push_back(twitter(i, "mdp/sampling"));
  for (size_t i = 0; i < 24; ++i) batch.push_back(tpch_floor(i));
  for (size_t i = 10; i < 14; ++i) batch.push_back(twitter(i, "mdp/accurate"));
  for (size_t i = 20; i < 24; ++i) batch.push_back(tpch_floor(i));
  std::vector<Result<RewriteResponse>> responses = fleet.ServeBatch(batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) fold(batch[i], responses[i]);

  // Shard-level batch with duplicate members: the in-batch dedup replays
  // every copy after the first from its leader.
  Result<std::shared_ptr<const MalivaService>> twitter_service =
      fleet.ServiceFor("twitter");
  ASSERT_TRUE(twitter_service.ok());
  std::vector<RewriteRequest> dupes;
  for (size_t copy = 0; copy < 3; ++copy) {
    for (size_t i = 30; i < 33; ++i) dupes.push_back(twitter(i, "mdp/accurate"));
  }
  responses = twitter_service.value()->ServeBatch(dupes);
  for (size_t i = 0; i < dupes.size(); ++i) fold(dupes[i], responses[i]);

  // Single serves, one of them a hit on the entry the batch just published.
  for (size_t i : {32u, 40u}) {
    RewriteRequest req = twitter(i, "mdp/accurate");
    fold(req, fleet.Serve(req));
  }

  // Invalid requests reach the shard and come back InvalidArgument.
  RewriteRequest bad_tau = twitter(0, "mdp/accurate");
  bad_tau.tau_ms = -5.0;
  ServeInvalid(fleet, "twitter", bad_tau, &tallies["twitter"]);
  RewriteRequest bad_floor = tpch_floor(0);
  bad_floor.quality_floor = 1.5;
  ServeInvalid(fleet, "tpch", bad_floor, &tallies["tpch"]);

  // A routing error never reaches a shard.
  RewriteRequest unknown = twitter(0, "baseline");
  unknown.scenario = "nowhere";
  EXPECT_EQ(fleet.Serve(unknown).status().code(), Status::Code::kNotFound);

  // The stream covers every path the parity is about.
  const Tally& tw = tallies["twitter"];
  const Tally& tp = tallies["tpch"];
  ASSERT_GT(tw.cache_hits, 0u);
  ASSERT_GT(tw.cache_coalesced, 0u);
  ASSERT_GT(tw.shared_hits + tp.shared_hits, 0u);
  ASSERT_GT(tw.histogram_hits + tp.histogram_hits, 0u);
  ASSERT_GT(tp.exact_fallbacks, 0u);
  ASSERT_GT(tw.cache_misses, kCacheCapacity) << "the stream must force evictions";

  FleetStats stats = fleet.Stats();
  EXPECT_EQ(stats.routing_errors, 1u);
  EXPECT_FALSE(stats.admission.enabled);
  ASSERT_EQ(stats.shards.size(), 2u);
  for (const auto& [id, row] : stats.shards) {
    const Tally& t = tallies[id];
    ExpectRowMatchesTally(id, row, t);
    // Sequential serving, one cache shard, no epoch move: every miss
    // publishes one new entry and the CLOCK hand evicts one per overflow.
    EXPECT_EQ(row.result_cache_evictions,
              t.cache_misses > kCacheCapacity ? t.cache_misses - kCacheCapacity : 0u);
    EXPECT_EQ(row.result_cache_size, std::min<uint64_t>(t.cache_misses, kCacheCapacity));
    EXPECT_EQ(row.result_cache_stale_declines, 0u);
  }
  ExpectTotalsSumRows(stats);
  for (const ScenarioInfo& info : fleet.ListScenarios()) {
    EXPECT_EQ(info.requests, tallies[info.id].requests) << info.id;
  }
}

TEST_F(ServiceStatsParityTest, GatedFleetCountersEqualVerdictTally) {
  // One scheduler worker, a one-slot queue and a frozen 1 s serve estimate:
  // a request admits only with more than 1 s of budget, degrades with less,
  // sheds at the gate with none, and overflows the queue while the worker
  // is busy.
  MalivaFleet fleet(FleetConfig()
                        .WithDefaults(replay_golden::GoldenServiceConfig()
                                          .WithResultCache(true))
                        .WithNumThreads(1)
                        .WithWarmupThreads(0)
                        .WithAdmission({.enabled = true,
                                        .degrade_strategy = "baseline",
                                        .max_queue = 1,
                                        .initial_serve_estimate_ms = 1000.0,
                                        .serve_estimate_alpha = 1e-9}));
  ASSERT_TRUE(fleet.RegisterScenario("twitter", &workload_->twitter).ok());
  Tally tally;
  auto request = [&](size_t i, const char* strategy, double tau_ms) {
    RewriteRequest req;
    req.scenario = "twitter";
    req.query = workload_->twitter.evaluation[i % workload_->twitter.evaluation.size()];
    req.strategy = strategy;
    req.tau_ms = tau_ms;
    return req;
  };
  auto serve = [&](const RewriteRequest& req) {
    Result<RewriteResponse> r = fleet.Serve(req);
    if (r.ok()) {
      tally.AddServed(r.value(), /*cache_on=*/true, /*gated=*/true);
    } else {
      tally.AddShed(r.status());
    }
  };

  for (size_t i = 0; i < 6; ++i) serve(request(i, "mdp/accurate", 1e6));  // admit
  serve(request(0, "mdp/accurate", 1e6));  // admitted inline from the cache
  serve(request(1, "mdp/accurate", 1e6));
  for (size_t i = 0; i < 4; ++i) serve(request(i, "mdp/accurate", 50.0));  // degrade
  serve(request(0, "mdp/accurate", 50.0));  // degraded, then a cache hit
  serve(request(2, "mdp/accurate", 0.0));   // deadline already blown: shed

  // Overflow: the first request's completion callback holds the only
  // worker until the test releases it, so the next request takes the one
  // queue slot and the one after it is refused at the gate.
  std::mutex mutex;
  std::condition_variable cv;
  bool holding = false;
  bool released = false;
  size_t pending = 3;
  auto fold = [&](const Result<RewriteResponse>& r) {  // caller holds `mutex`
    if (r.ok()) {
      tally.AddServed(r.value(), /*cache_on=*/true, /*gated=*/true);
    } else {
      tally.AddShed(r.status());
    }
    --pending;
    cv.notify_all();
  };
  ASSERT_TRUE(fleet
                  .ServeAsync(request(10, "mdp/accurate", 1e6),
                              [&](Result<RewriteResponse> r) {
                                std::unique_lock<std::mutex> lock(mutex);
                                fold(r);
                                holding = true;
                                cv.wait(lock, [&] { return released; });
                              })
                  .ok());
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return holding; });
  }
  for (size_t i = 11; i < 13; ++i) {
    ASSERT_TRUE(fleet
                    .ServeAsync(request(i, "mdp/accurate", 1e6),
                                [&](Result<RewriteResponse> r) {
                                  std::lock_guard<std::mutex> lock(mutex);
                                  fold(r);
                                })
                    .ok());
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    released = true;
    cv.notify_all();
    cv.wait(lock, [&] { return pending == 0; });
  }
  EXPECT_EQ(tally.shed_overload, 1u);

  ASSERT_GT(tally.admitted, 0u);
  ASSERT_GT(tally.degraded, 0u);
  ASSERT_GT(tally.shed_deadline, 0u);
  ASSERT_GT(tally.shed_overload, 0u);
  ASSERT_GT(tally.cache_hits, 0u);

  FleetStats stats = fleet.Stats();
  EXPECT_TRUE(stats.admission.enabled);
  EXPECT_EQ(stats.admission.queue_depth, 0u);
  ASSERT_EQ(stats.shards.size(), 1u);
  ExpectRowMatchesTally("twitter", Row(stats, "twitter"), tally);
  ExpectTotalsSumRows(stats);
}

}  // namespace
}  // namespace maliva
