// TraceRing + SloWatchdog tests (ISSUE 10). Suite names carry "TraceRing"
// so the scripts/ci.sh sanitizer legs (-R '...|Metrics|TraceRing') run them.
//
// Covered contracts:
//   * capacity rounds down to a stripe multiple (at least one per stripe)
//     and the ring retains exactly the newest `capacity` events;
//   * TraceEvent::ToJson and ExportJsonLines are golden-stable;
//   * concurrent appends draw unique seqs, never lose the total count, and
//     keep the snapshot bounded;
//   * SloWatchdog evaluates only the newest window_count windows, flags a
//     shed-heavy scenario, leaves a healthy one alone, and never flags a
//     scenario below min_requests;
//   * end to end: a fleet with metrics + admission + trace ring + watchdog
//     records admitted events, and Stats() surfaces an unbreached SLO row.

#include "service/trace_ring.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "service/service_fleet.h"
#include "workload/scenario.h"

namespace maliva {
namespace {

TraceEvent EventWithFingerprint(uint64_t fp) {
  TraceEvent event;
  event.fingerprint = fp;
  event.scenario = "s";
  event.verdict = "admitted";
  event.cache = "off";
  return event;
}

TEST(TraceRingTest, CapacityRoundsDownToStripeMultiple) {
  TraceRing ring(10, /*stripes=*/4);
  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_EQ(ring.stripes(), 4u);

  // Degenerate shapes: zero capacity still holds one event; stripes clamp
  // to the capacity so no stripe is empty.
  TraceRing tiny(0);
  EXPECT_GE(tiny.capacity(), 1u);
  TraceRing narrow(3, /*stripes=*/8);
  EXPECT_GE(narrow.capacity(), 1u);
  EXPECT_LE(narrow.stripes(), 3u);
}

TEST(TraceRingTest, WrapKeepsNewestEvents) {
  TraceRing ring(4, /*stripes=*/1);
  for (uint64_t i = 0; i < 6; ++i) ring.Append(EventWithFingerprint(i));
  EXPECT_EQ(ring.total_appended(), 6u);
  std::vector<TraceEvent> events = ring.SnapshotEvents();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i + 2) << "oldest two events must be evicted";
    EXPECT_EQ(events[i].fingerprint, i + 2);
  }
}

TEST(TraceRingTest, EventToJsonGolden) {
  TraceEvent event;
  event.seq = 7;
  event.fingerprint = 0xabc;
  event.scenario = "tweets";
  event.verdict = "admitted";
  event.cache = "hit";
  event.tier_hits[0] = 1;
  event.tier_hits[1] = 2;
  event.tier_hits[2] = 3;
  event.snapshot_version = 5;
  event.queue_wait_ms = 1.25;
  event.serve_ms = 3.5;
  EXPECT_EQ(event.ToJson(),
            "{\"seq\": 7, \"fingerprint\": \"0000000000000abc\", "
            "\"scenario\": \"tweets\", \"verdict\": \"admitted\", "
            "\"cache\": \"hit\", \"tier_hits\": [1, 2, 3], "
            "\"snapshot_version\": 5, \"queue_wait_ms\": 1.250, "
            "\"serve_ms\": 3.500}");
}

TEST(TraceRingTest, ExportJsonLinesOneEventPerLine) {
  TraceRing ring(4, /*stripes=*/1);
  EXPECT_EQ(ring.ExportJsonLines(), "") << "empty ring renders nothing";
  ring.Append(EventWithFingerprint(1));
  ring.Append(EventWithFingerprint(2));
  const std::string jsonl = ring.ExportJsonLines();
  ASSERT_FALSE(jsonl.empty());
  EXPECT_EQ(jsonl.back(), '\n');
  size_t lines = 0;
  for (char c : jsonl) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 2u);
  EXPECT_EQ(jsonl.find("\"seq\": 0"), 1u) << "lines come back in seq order";
}

TEST(TraceRingTest, ConcurrentAppendsKeepUniqueSeqsAndBound) {
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 200;
  TraceRing ring(128, /*stripes=*/8);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ring, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        ring.Append(EventWithFingerprint(t * kPerThread + i));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(ring.total_appended(), kThreads * kPerThread);
  std::vector<TraceEvent> events = ring.SnapshotEvents();
  EXPECT_EQ(events.size(), ring.capacity());
  std::set<uint64_t> seqs;
  for (const TraceEvent& event : events) {
    EXPECT_LT(event.seq, kThreads * kPerThread);
    seqs.insert(event.seq);
  }
  EXPECT_EQ(seqs.size(), events.size()) << "duplicate seq retained";
}

// ---------------------------------------------------------------- watchdog --

/// One admission-counter row, as the fleet's gate path records it.
MetricsSnapshot::CounterRow AdmissionRow(const std::string& scenario,
                                         const std::string& verdict,
                                         uint64_t value) {
  return {"maliva_admission_total",
          {{"scenario", scenario}, {"verdict", verdict}},
          value};
}

MetricsFlusher::Window WindowOf(std::vector<MetricsSnapshot::CounterRow> rows) {
  MetricsFlusher::Window window;
  window.delta.counters = std::move(rows);
  return window;
}

SloConfig WatchdogConfig() {
  SloConfig config;
  config.enabled = true;
  config.target_hit_rate = 0.95;
  config.window_count = 4;
  config.min_requests = 32;
  return config;
}

TEST(TraceRingSloTest, FlagsShedHeavyScenarioNotSteadyOne) {
  std::vector<MetricsFlusher::Window> windows;
  windows.push_back(WindowOf({AdmissionRow("hot", "admitted", 5),
                              AdmissionRow("hot", "shed_overload", 45),
                              AdmissionRow("steady", "admitted", 98),
                              AdmissionRow("steady", "degraded", 2)}));
  std::vector<SloStatus> statuses = SloWatchdog(WatchdogConfig()).Evaluate(windows);
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_EQ(statuses[0].scenario, "hot");
  EXPECT_EQ(statuses[0].served, 5u);
  EXPECT_EQ(statuses[0].total, 50u);
  EXPECT_DOUBLE_EQ(statuses[0].hit_rate, 0.1);
  EXPECT_TRUE(statuses[0].breached);
  EXPECT_EQ(statuses[1].scenario, "steady");
  EXPECT_EQ(statuses[1].served, 100u) << "degraded counts as served";
  EXPECT_DOUBLE_EQ(statuses[1].hit_rate, 1.0);
  EXPECT_FALSE(statuses[1].breached);
}

TEST(TraceRingSloTest, BelowMinRequestsNeverBreaches) {
  std::vector<MetricsFlusher::Window> windows;
  windows.push_back(WindowOf({AdmissionRow("cold", "shed_overload", 10)}));
  std::vector<SloStatus> statuses = SloWatchdog(WatchdogConfig()).Evaluate(windows);
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].total, 10u);
  EXPECT_DOUBLE_EQ(statuses[0].hit_rate, 0.0);
  EXPECT_FALSE(statuses[0].breached) << "10 verdicts < min_requests 32";
}

TEST(TraceRingSloTest, EvaluatesOnlyNewestWindows) {
  // An old catastrophe followed by recovery: with window_count 1 only the
  // healthy newest window counts.
  std::vector<MetricsFlusher::Window> windows;
  windows.push_back(WindowOf({AdmissionRow("s", "shed_overload", 500)}));
  windows.push_back(WindowOf({AdmissionRow("s", "admitted", 40)}));
  SloConfig config = WatchdogConfig();
  config.window_count = 1;
  std::vector<SloStatus> statuses = SloWatchdog(config).Evaluate(windows);
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].total, 40u);
  EXPECT_FALSE(statuses[0].breached);

  // Widen the view to both windows and the burn reappears.
  config.window_count = 4;
  statuses = SloWatchdog(config).Evaluate(windows);
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].total, 540u);
  EXPECT_TRUE(statuses[0].breached);
}

TEST(TraceRingSloTest, NoWindowsMeansNoStatuses) {
  EXPECT_TRUE(SloWatchdog(WatchdogConfig()).Evaluate({}).empty());
}

// ------------------------------------------------------------- integration --

TEST(TraceRingFleetTest, FleetRecordsTracesAndUnbreachedSlo) {
  ScenarioConfig config;
  config.kind = DatasetKind::kTwitter;
  config.num_rows = 8000;
  config.num_queries = 60;
  config.tau_ms = 500.0;
  config.seed = 121;
  Scenario scenario = BuildScenario(config);

  ServiceConfig service_config = ServiceConfig().WithTrainerIterations(3).WithAgentSeeds(1);
  service_config.default_strategy = "baseline";
  FleetConfig fleet_config =
      FleetConfig()
          .WithDefaults(service_config)
          .WithAdmission(AdmissionConfig().WithEnabled(true).WithSlackFactor(50.0));
  fleet_config.warmup_strategies = {"baseline"};
  fleet_config.metrics_flush_ms = 600000;  // manual FlushNow only in the test
  fleet_config.trace_ring_capacity = 64;
  fleet_config.slo_watchdog = true;
  fleet_config.slo_min_requests = 4;
  MalivaFleet fleet(fleet_config);
  ASSERT_TRUE(fleet.RegisterScenario("tweets", &scenario).ok());
  fleet.WaitWarmups();

  constexpr size_t kRequests = 16;
  for (size_t i = 0; i < kRequests; ++i) {
    RewriteRequest req;
    req.scenario = "tweets";
    req.query = scenario.evaluation[i % scenario.evaluation.size()];
    ASSERT_TRUE(fleet.Serve(req).ok());
  }
  ASSERT_NE(fleet.metrics_flusher(), nullptr);
  fleet.metrics_flusher()->FlushNow();

  const TraceRing* ring = fleet.trace_ring();
  ASSERT_NE(ring, nullptr);
  EXPECT_EQ(ring->total_appended(), kRequests);
  std::vector<TraceEvent> events = ring->SnapshotEvents();
  ASSERT_EQ(events.size(), kRequests);
  for (const TraceEvent& event : events) {
    EXPECT_EQ(event.scenario, "tweets");
    EXPECT_EQ(event.verdict, "admitted");
    EXPECT_NE(event.fingerprint, 0u);
    EXPECT_GE(event.serve_ms, 0.0);
  }
  size_t lines = 0;
  for (char c : ring->ExportJsonLines()) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, kRequests);

  FleetStats stats = fleet.Stats();
  EXPECT_EQ(stats.metrics.CounterSum("maliva_admission_total",
                                     {{"verdict", "admitted"}}),
            kRequests);
  ASSERT_EQ(stats.slo.size(), 1u);
  EXPECT_EQ(stats.slo[0].scenario, "tweets");
  EXPECT_EQ(stats.slo[0].served, kRequests);
  EXPECT_EQ(stats.slo[0].total, kRequests);
  EXPECT_FALSE(stats.slo[0].breached);
}

}  // namespace
}  // namespace maliva
