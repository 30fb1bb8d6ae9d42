// Metrics plane tests (ISSUE 10).
//
// Covered contracts:
//   * LatencyHistogram percentiles track an exact sorted-vector baseline
//     within 2% relative error (the ISSUE acceptance bound), are exact for
//     single-tick values, and snapshots merge/subtract bucket-wise;
//   * MetricsRegistry hands out stable, identical handles per (name,
//     labels), stamps base labels, and counts lookups — the proof that the
//     serve hot path performs zero registry map lookups;
//   * both exporters are golden-stable for a fixed label set;
//   * MetricsFlusher cuts windowed deltas and bounds its ring;
//   * MalivaService's always-on registry is never touched by map lookups
//     while serving, and its gauges refresh on Stats();
//   * FleetStats::metrics aggregation is safe under concurrent serves and
//     snapshots, monotone, and equals the sum of per-shard registries.

#include "util/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "service/service_fleet.h"
#include "util/rng.h"
#include "workload/scenario.h"

namespace maliva {
namespace {

// --------------------------------------------------------------- histogram --

/// Deterministic log-uniform latencies spanning 50us .. 2s.
std::vector<double> LogUniformLatencies(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out;
  out.reserve(n);
  const double lo = std::log(0.05);
  const double hi = std::log(2000.0);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(std::exp(rng.Uniform(lo, hi)));
  }
  return out;
}

/// The replay driver's percentile convention: sorted[floor(q * n)].
double ExactPercentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  size_t idx = static_cast<size_t>(q * static_cast<double>(values.size()));
  if (idx >= values.size()) idx = values.size() - 1;
  return values[idx];
}

TEST(MetricsHistogramTest, PercentilesWithinTwoPercentOfExactSort) {
  const std::vector<double> values = LogUniformLatencies(10000, 17);
  LatencyHistogram hist;
  for (double v : values) hist.Record(v);
  HistogramSnapshot snap = hist.Snapshot();
  ASSERT_EQ(snap.count, values.size());
  for (double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    const double exact = ExactPercentile(values, q);
    const double estimate = snap.Percentile(q);
    EXPECT_NEAR(estimate, exact, std::max(0.002, exact * 0.02))
        << "q=" << q << " exact=" << exact << " estimate=" << estimate;
  }
}

TEST(MetricsHistogramTest, SingleTickValuesAreExact) {
  // Ticks below 64 get one bucket each: percentiles are exact, not midpoint.
  LatencyHistogram hist;
  hist.Record(0.004);
  hist.Record(0.004);
  hist.Record(0.004);
  hist.Record(0.063);
  HistogramSnapshot snap = hist.Snapshot();
  EXPECT_DOUBLE_EQ(snap.Percentile(0.5), 0.004);
  EXPECT_DOUBLE_EQ(snap.Percentile(0.99), 0.063);
  EXPECT_DOUBLE_EQ(snap.min_ms, 0.004);
  EXPECT_DOUBLE_EQ(snap.max_ms, 0.063);
  EXPECT_DOUBLE_EQ(snap.sum_ms, 0.075);
}

TEST(MetricsHistogramTest, TicksForClampsAndRounds) {
  EXPECT_EQ(LatencyHistogram::TicksFor(0.0), 0u);
  EXPECT_EQ(LatencyHistogram::TicksFor(-3.0), 0u);
  EXPECT_EQ(LatencyHistogram::TicksFor(std::nan("")), 0u);
  EXPECT_EQ(LatencyHistogram::TicksFor(0.0015), 2u);  // 1.5us rounds to 2
  EXPECT_EQ(LatencyHistogram::TicksFor(1.0), 1000u);
  EXPECT_EQ(LatencyHistogram::TicksFor(1e18), LatencyHistogram::kMaxTicks);
}

TEST(MetricsHistogramTest, BucketIndexRoundTripsLowerBound) {
  // Every bucket's lower bound must map back to that bucket, and bucket
  // width never exceeds lower_bound/64 above the linear range.
  for (size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    const uint64_t lo = LatencyHistogram::BucketLowerTicks(i);
    if (lo > LatencyHistogram::kMaxTicks) break;
    EXPECT_EQ(LatencyHistogram::BucketIndex(lo), i) << "lower bound of " << i;
  }
  EXPECT_EQ(LatencyHistogram::BucketIndex(LatencyHistogram::kMaxTicks),
            LatencyHistogram::kNumBuckets - 1);
}

TEST(MetricsHistogramTest, MergeEqualsCombinedRecording) {
  const std::vector<double> values = LogUniformLatencies(2000, 23);
  LatencyHistogram all;
  LatencyHistogram left;
  LatencyHistogram right;
  for (size_t i = 0; i < values.size(); ++i) {
    all.Record(values[i]);
    (i % 2 == 0 ? left : right).Record(values[i]);
  }
  HistogramSnapshot merged = left.Snapshot();
  merged.MergeFrom(right.Snapshot());
  HistogramSnapshot whole = all.Snapshot();
  EXPECT_EQ(merged.count, whole.count);
  EXPECT_DOUBLE_EQ(merged.sum_ms, whole.sum_ms);
  EXPECT_DOUBLE_EQ(merged.min_ms, whole.min_ms);
  EXPECT_DOUBLE_EQ(merged.max_ms, whole.max_ms);
  ASSERT_EQ(merged.buckets, whole.buckets);
}

TEST(MetricsHistogramTest, DeltaSinceSubtractsWindows) {
  LatencyHistogram hist;
  hist.Record(1.0);
  hist.Record(2.0);
  HistogramSnapshot earlier = hist.Snapshot();
  hist.Record(4.0);
  hist.Record(1.0);
  HistogramSnapshot later = hist.Snapshot();
  HistogramSnapshot delta = later.DeltaSince(earlier);
  EXPECT_EQ(delta.count, 2u);
  EXPECT_DOUBLE_EQ(delta.sum_ms, 5.0);
  uint64_t bucket_total = 0;
  for (const auto& [index, c] : delta.buckets) bucket_total += c;
  EXPECT_EQ(bucket_total, 2u);
}

// ---------------------------------------------------------------- registry --

TEST(MetricsRegistryTest, HandlesAreStableAndLookupsCounted) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.lookups(), 0u);
  Counter* a = reg.GetCounter("maliva_requests_total", {{"verdict", "ok"}});
  Counter* b = reg.GetCounter("maliva_requests_total", {{"verdict", "ok"}});
  Counter* c = reg.GetCounter("maliva_requests_total", {{"verdict", "error"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(reg.lookups(), 3u);
  a->Increment(2);
  b->Increment();
  EXPECT_EQ(a->Value(), 3u);
  // Recording through resolved handles never bumps the lookup counter.
  EXPECT_EQ(reg.lookups(), 3u);
}

TEST(MetricsRegistryTest, BaseLabelsStampEverySeriesAndCallLabelsWin) {
  MetricsRegistry reg(MetricLabels{{"scenario", "tweets"}});
  reg.GetCounter("hits", {})->Increment();
  reg.GetCounter("hits", {{"scenario", "override"}})->Increment(5);
  MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].labels,
            MetricLabels({{"scenario", "override"}}));
  EXPECT_EQ(snap.counters[0].value, 5u);
  EXPECT_EQ(snap.counters[1].labels, MetricLabels({{"scenario", "tweets"}}));
  EXPECT_EQ(snap.counters[1].value, 1u);
}

TEST(MetricsRegistryTest, CounterSumMatchesLabelSubsets) {
  MetricsRegistry reg(MetricLabels{{"scenario", "taxi"}});
  reg.GetCounter("maliva_admission_total", {{"verdict", "admitted"}})->Increment(7);
  reg.GetCounter("maliva_admission_total", {{"verdict", "shed_overload"}})->Increment(3);
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterSum("maliva_admission_total"), 10u);
  EXPECT_EQ(snap.CounterSum("maliva_admission_total", {{"verdict", "admitted"}}), 7u);
  EXPECT_EQ(snap.CounterSum("maliva_admission_total", {{"scenario", "taxi"}}), 10u);
  EXPECT_EQ(snap.CounterSum("maliva_admission_total", {{"scenario", "tweets"}}), 0u);
}

/// Fixed registry behind both exporter goldens: two counter series, one
/// gauge, one histogram with exactly known single-tick samples.
MetricsRegistry& GoldenRegistry() {
  static MetricsRegistry* reg = [] {
    auto* r = new MetricsRegistry(MetricLabels{{"scenario", "tweets"}});
    r->GetCounter("maliva_requests_total", {{"verdict", "ok"}})->Increment(3);
    r->GetCounter("maliva_requests_total", {{"verdict", "error"}})->Increment(1);
    r->GetGauge("maliva_result_cache_entries", {})->Set(42);
    LatencyHistogram* h = r->GetHistogram("maliva_serve_latency_ms", {});
    h->Record(0.004);
    h->Record(0.004);
    h->Record(0.004);
    h->Record(0.063);
    return r;
  }();
  return *reg;
}

TEST(MetricsRegistryTest, PrometheusGolden) {
  const std::string expected =
      "# TYPE maliva_requests_total counter\n"
      "maliva_requests_total{scenario=\"tweets\",verdict=\"error\"} 1\n"
      "maliva_requests_total{scenario=\"tweets\",verdict=\"ok\"} 3\n"
      "# TYPE maliva_result_cache_entries gauge\n"
      "maliva_result_cache_entries{scenario=\"tweets\"} 42\n"
      "# TYPE maliva_serve_latency_ms summary\n"
      "maliva_serve_latency_ms{scenario=\"tweets\",quantile=\"0.5\"} 0.004\n"
      "maliva_serve_latency_ms{scenario=\"tweets\",quantile=\"0.9\"} 0.063\n"
      "maliva_serve_latency_ms{scenario=\"tweets\",quantile=\"0.95\"} 0.063\n"
      "maliva_serve_latency_ms{scenario=\"tweets\",quantile=\"0.99\"} 0.063\n"
      "maliva_serve_latency_ms{scenario=\"tweets\",quantile=\"0.999\"} 0.063\n"
      "maliva_serve_latency_ms_sum{scenario=\"tweets\"} 0.075\n"
      "maliva_serve_latency_ms_count{scenario=\"tweets\"} 4\n";
  EXPECT_EQ(GoldenRegistry().RenderPrometheus(), expected);
}

TEST(MetricsRegistryTest, JsonGolden) {
  const std::string expected =
      "{\"counters\": ["
      "{\"name\": \"maliva_requests_total\", \"labels\": {\"scenario\": "
      "\"tweets\", \"verdict\": \"error\"}, \"value\": 1}, "
      "{\"name\": \"maliva_requests_total\", \"labels\": {\"scenario\": "
      "\"tweets\", \"verdict\": \"ok\"}, \"value\": 3}"
      "], \"gauges\": ["
      "{\"name\": \"maliva_result_cache_entries\", \"labels\": {\"scenario\": "
      "\"tweets\"}, \"value\": 42}"
      "], \"histograms\": ["
      "{\"name\": \"maliva_serve_latency_ms\", \"labels\": {\"scenario\": "
      "\"tweets\"}, \"count\": 4, \"sum_ms\": 0.075, \"min_ms\": 0.004, "
      "\"max_ms\": 0.063, \"mean_ms\": 0.01875, \"p50\": 0.004, "
      "\"p90\": 0.063, \"p95\": 0.063, \"p99\": 0.063, \"p999\": 0.063}"
      "]}";
  EXPECT_EQ(GoldenRegistry().RenderJson(), expected);
}

TEST(MetricsRegistryTest, SnapshotMergeSumsAcrossRegistries) {
  MetricsRegistry a(MetricLabels{{"scenario", "a"}});
  MetricsRegistry b(MetricLabels{{"scenario", "b"}});
  a.GetCounter("requests", {})->Increment(2);
  b.GetCounter("requests", {})->Increment(3);
  a.GetHistogram("latency", {})->Record(1.0);
  b.GetHistogram("latency", {})->Record(2.0);
  MetricsSnapshot merged = a.Snapshot();
  merged.MergeFrom(b.Snapshot());
  // Distinct label sets stay distinct rows; the cross-scenario total is a
  // CounterSum query, not a lossy merge.
  ASSERT_EQ(merged.counters.size(), 2u);
  EXPECT_EQ(merged.CounterSum("requests"), 5u);
  ASSERT_EQ(merged.histograms.size(), 2u);

  // Identical label sets fold: merging a's snapshot into itself doubles it.
  MetricsSnapshot doubled = a.Snapshot();
  doubled.MergeFrom(a.Snapshot());
  EXPECT_EQ(doubled.CounterSum("requests"), 4u);
  ASSERT_EQ(doubled.histograms.size(), 1u);
  EXPECT_EQ(doubled.histograms[0].hist.count, 2u);
}

// ----------------------------------------------------------------- flusher --

TEST(MetricsFlusherTest, FlushNowCutsWindowedDeltas) {
  MetricsRegistry reg;
  Counter* served = reg.GetCounter("served", {});
  MetricsFlusher flusher([&reg] { return reg.Snapshot(); }, /*interval_ms=*/0);
  served->Increment(5);
  flusher.FlushNow();
  served->Increment(3);
  flusher.FlushNow();
  std::vector<MetricsFlusher::Window> windows = flusher.Windows();
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].delta.CounterSum("served"), 5u);
  EXPECT_EQ(windows[1].delta.CounterSum("served"), 3u);
  EXPECT_GE(windows[1].start_ms, windows[0].start_ms);
  EXPECT_GE(windows[1].end_ms, windows[1].start_ms);
}

TEST(MetricsFlusherTest, RingKeepsNewestWindows) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("c", {});
  MetricsFlusher flusher([&reg] { return reg.Snapshot(); }, /*interval_ms=*/0,
                         /*max_windows=*/2);
  for (uint64_t i = 1; i <= 4; ++i) {
    c->Increment(i);
    flusher.FlushNow();
  }
  std::vector<MetricsFlusher::Window> windows = flusher.Windows();
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].delta.CounterSum("c"), 3u);
  EXPECT_EQ(windows[1].delta.CounterSum("c"), 4u);
}

// ----------------------------------------------------------------- service --

class MetricsServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScenarioConfig config;
    config.kind = DatasetKind::kTwitter;
    config.num_rows = 8000;
    config.num_queries = 60;
    config.tau_ms = 500.0;
    config.seed = 101;
    scenario_ = new Scenario(BuildScenario(config));
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }

  /// Cheap config: baseline default strategy (no agent training).
  static ServiceConfig BaseConfig() {
    ServiceConfig config = ServiceConfig().WithTrainerIterations(3).WithAgentSeeds(1);
    config.default_strategy = "baseline";
    return config;
  }

  static Scenario* scenario_;
};

Scenario* MetricsServiceTest::scenario_ = nullptr;

TEST_F(MetricsServiceTest, ZeroRegistryLookupsOnServeHotPath) {
  MalivaService service(scenario_, BaseConfig().WithResultCache(true));
  ASSERT_TRUE(service.Warmup({"baseline"}).ok());
  const uint64_t resolved = service.metrics_registry().lookups();
  EXPECT_GT(resolved, 0u) << "construction resolves the handles";

  std::vector<RewriteRequest> requests;
  for (size_t i = 0; i < 24; ++i) {
    RewriteRequest req;
    req.query = scenario_->evaluation[i % scenario_->evaluation.size()];
    requests.push_back(req);
  }
  for (const RewriteRequest& req : requests) ASSERT_TRUE(service.Serve(req).ok());
  std::vector<Result<RewriteResponse>> batch =
      service.ServeBatch(std::span<const RewriteRequest>(requests));
  for (const Result<RewriteResponse>& r : batch) ASSERT_TRUE(r.ok());
  EXPECT_EQ(service.Stats().requests, 48u) << "Stats() reads the same handles";

  EXPECT_EQ(service.metrics_registry().lookups(), resolved)
      << "serving touched the registry map";
  MetricsSnapshot snap = service.metrics_registry().Snapshot();
  EXPECT_EQ(snap.CounterSum("maliva_requests_total", {{"verdict", "ok"}}), 48u);
  EXPECT_EQ(snap.CounterSum("maliva_requests_total", {{"verdict", "error"}}), 0u);
  // Every serve recorded a latency sample.
  uint64_t hist_count = 0;
  for (const MetricsSnapshot::HistogramRow& row : snap.histograms) {
    if (row.name == "maliva_serve_latency_ms") hist_count = row.hist.count;
  }
  EXPECT_EQ(hist_count, 48u);
  // Cache outcomes partition the serves.
  EXPECT_EQ(snap.CounterSum("maliva_result_cache_total", {{"outcome", "hit"}}) +
                snap.CounterSum("maliva_result_cache_total", {{"outcome", "miss"}}),
            48u);
}

TEST_F(MetricsServiceTest, GaugesRefreshOnStats) {
  MalivaService service(scenario_, BaseConfig().WithResultCache(true));
  ASSERT_TRUE(service.Warmup({"baseline"}).ok());
  RewriteRequest req;
  req.query = scenario_->evaluation[0];
  ASSERT_TRUE(service.Serve(req).ok());
  (void)service.Stats();
  MetricsSnapshot snap = service.metrics_registry().Snapshot();
  int64_t entries = -1;
  for (const MetricsSnapshot::GaugeRow& row : snap.gauges) {
    if (row.name == "maliva_result_cache_entries") entries = row.value;
  }
  EXPECT_GE(entries, 1) << "the served decision should be resident";
}

// ------------------------------------------------------------------- fleet --

class MetricsFleetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScenarioConfig a;
    a.kind = DatasetKind::kTwitter;
    a.num_rows = 8000;
    a.num_queries = 60;
    a.tau_ms = 500.0;
    a.seed = 111;
    scenario_a_ = new Scenario(BuildScenario(a));
    a.seed = 112;
    scenario_b_ = new Scenario(BuildScenario(a));
  }
  static void TearDownTestSuite() {
    delete scenario_a_;
    scenario_a_ = nullptr;
    delete scenario_b_;
    scenario_b_ = nullptr;
  }

  static Scenario* scenario_a_;
  static Scenario* scenario_b_;
};

Scenario* MetricsFleetTest::scenario_a_ = nullptr;
Scenario* MetricsFleetTest::scenario_b_ = nullptr;

TEST_F(MetricsFleetTest, SloWatchdogRequiresFlusherAndGate) {
  FleetConfig no_flusher{.admission = {.enabled = true}, .slo_watchdog = true};
  EXPECT_EQ(no_flusher.Validate().code(), Status::Code::kInvalidArgument);
  FleetConfig no_gate{.metrics_flush_ms = 100, .slo_watchdog = true};
  EXPECT_EQ(no_gate.Validate().code(), Status::Code::kInvalidArgument);
  EXPECT_TRUE(FleetConfig{.metrics_flush_ms = 100}.Validate().ok());
}

TEST_F(MetricsFleetTest, ConcurrentServesAndSnapshotsAggregateExactly) {
  // The ISSUE 10 concurrency satellite: 8 serving threads racing a
  // snapshotting thread; every intermediate cut is monotone, and the final
  // merged snapshot equals the sum of the per-shard registries.
  ServiceConfig service_config = ServiceConfig().WithTrainerIterations(3).WithAgentSeeds(1);
  service_config.default_strategy = "baseline";
  FleetConfig fleet_config = FleetConfig().WithDefaults(service_config);
  fleet_config.warmup_strategies = {"baseline"};
  MalivaFleet fleet(fleet_config);
  ASSERT_TRUE(fleet.RegisterScenario("a", scenario_a_).ok());
  ASSERT_TRUE(fleet.RegisterScenario("b", scenario_b_).ok());
  fleet.WaitWarmups();

  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 30;
  std::atomic<bool> serving_done{false};
  std::atomic<uint64_t> last_seen{0};
  std::atomic<bool> monotone{true};
  std::thread snapshotter([&] {
    while (!serving_done.load(std::memory_order_relaxed)) {
      FleetStats stats = fleet.Stats();
      const uint64_t total = stats.metrics.CounterSum("maliva_requests_total");
      uint64_t prev = last_seen.load(std::memory_order_relaxed);
      if (total < prev) monotone.store(false, std::memory_order_relaxed);
      last_seen.store(total, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> servers;
  for (size_t t = 0; t < kThreads; ++t) {
    servers.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        RewriteRequest req;
        Scenario* s = (t + i) % 2 == 0 ? scenario_a_ : scenario_b_;
        req.scenario = (t + i) % 2 == 0 ? "a" : "b";
        req.query = s->evaluation[(t * kPerThread + i) % s->evaluation.size()];
        ASSERT_TRUE(fleet.Serve(req).ok());
      }
    });
  }
  for (std::thread& th : servers) th.join();
  serving_done.store(true, std::memory_order_relaxed);
  snapshotter.join();
  EXPECT_TRUE(monotone.load()) << "merged counter total went backwards";

  FleetStats final_stats = fleet.Stats();
  const uint64_t expected = kThreads * kPerThread;
  EXPECT_EQ(final_stats.metrics.CounterSum("maliva_requests_total"), expected);
  EXPECT_EQ(final_stats.metrics.CounterSum("maliva_requests_total",
                                           {{"scenario", "a"}}) +
                final_stats.metrics.CounterSum("maliva_requests_total",
                                               {{"scenario", "b"}}),
            expected);

  // Merged histograms equal the bucket-wise sum of the per-shard cuts.
  MetricsSnapshot by_hand;
  for (const std::string& id : {"a", "b"}) {
    Result<std::shared_ptr<const MalivaService>> svc = fleet.ServiceFor(id);
    ASSERT_TRUE(svc.ok());
    by_hand.MergeFrom(svc.value()->metrics_registry().Snapshot());
  }
  uint64_t merged_count = 0;
  uint64_t by_hand_count = 0;
  for (const MetricsSnapshot::HistogramRow& row : final_stats.metrics.histograms) {
    if (row.name == "maliva_serve_latency_ms") merged_count += row.hist.count;
  }
  for (const MetricsSnapshot::HistogramRow& row : by_hand.histograms) {
    if (row.name == "maliva_serve_latency_ms") by_hand_count += row.hist.count;
  }
  EXPECT_EQ(merged_count, expected);
  EXPECT_EQ(by_hand_count, expected);
}

}  // namespace
}  // namespace maliva
