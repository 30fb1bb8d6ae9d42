// Metrics dump: stand up a small fleet with the observability plane on,
// serve a workload, and print what an operator would actually see — a
// Prometheus scrape, the JSON snapshot, the SLO verdicts, and the tail of
// the trace-event ring.
//
//   $ ./build/metrics_dump
//
// Every service keeps its counters in an always-on metric registry; the
// flusher, the trace ring and the SLO watchdog are opt-in FleetConfig knobs
// (see docs/observability.md).

#include <cstdio>
#include <vector>

#include "service/service_fleet.h"
#include "service/trace_ring.h"

using namespace maliva;

int main() {
  std::printf("Building scenario (tweets table, 8 rewrite options)...\n");
  ScenarioConfig cfg;
  cfg.kind = DatasetKind::kTwitter;
  cfg.num_rows = 60000;
  cfg.num_queries = 400;
  cfg.tau_ms = 500.0;
  Scenario scenario = BuildScenario(cfg);

  // The opt-in half of the observability plane in one config: a background
  // windowed flusher over the per-shard registries, the trace-event ring,
  // and the SLO watchdog over the admission gate's verdicts.
  MalivaFleet fleet(FleetConfig{
      .defaults = ServiceConfig().WithTrainerIterations(20).WithAgentSeeds(1),
      .warmup_strategies = {"mdp/accurate", "baseline"},
      .admission = {.enabled = true, .slack_factor = 50.0},
      .metrics_flush_ms = 1000,
      .trace_ring_capacity = 256,
      .slo_watchdog = true,
      .slo_min_requests = 8});
  if (Status st = fleet.RegisterScenario("tweets", &scenario); !st.ok()) {
    std::printf("register failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("Warming up the \"tweets\" shard (training in the background)...\n");
  fleet.WaitWarmups();

  std::printf("Serving evaluation queries through the admission gate...\n");
  for (const Query* q : scenario.evaluation) {
    RewriteRequest req;
    req.scenario = "tweets";
    req.query = q;
    if (Result<RewriteResponse> resp = fleet.Serve(req); !resp.ok()) {
      std::printf("serve failed: %s\n", resp.status().ToString().c_str());
      return 1;
    }
  }

  // Cut a window now instead of waiting out the 1s cadence, then read the
  // merged fleet view the way a scraper would.
  fleet.metrics_flusher()->FlushNow();
  FleetStats stats = fleet.Stats();

  std::printf("\n---- Prometheus scrape (fleet-merged) ----\n%s",
              stats.metrics.RenderPrometheus().c_str());

  std::printf("\n---- JSON snapshot ----\n%s\n", stats.metrics.RenderJson().c_str());

  std::printf("\n---- SLO watchdog ----\n");
  for (const SloStatus& slo : stats.slo) {
    std::printf("%-8s served %llu of %llu verdicts, hit rate %.3f -> %s\n",
                slo.scenario.c_str(),
                static_cast<unsigned long long>(slo.served),
                static_cast<unsigned long long>(slo.total), slo.hit_rate,
                slo.breached ? "BREACHED" : "ok");
  }

  std::printf("\n---- trace ring (newest 5 of %llu events) ----\n",
              static_cast<unsigned long long>(fleet.trace_ring()->total_appended()));
  std::vector<TraceEvent> events = fleet.trace_ring()->SnapshotEvents();
  const size_t first = events.size() > 5 ? events.size() - 5 : 0;
  for (size_t i = first; i < events.size(); ++i) {
    std::printf("%s\n", events[i].ToJson().c_str());
  }
  return 0;
}
