// Metrics-plane cost and exporter audit (ISSUE 10).
//
// Not a paper figure — this measures the reproduction's own observability
// plane. Three phases:
//
//   0. hot-path probe — a request stream serves through one service (whose
//      registry is always on). Reports the throughput and proves the record
//      cost is pre-resolved handles only (the registry lookup counter must
//      not move while serving).
//   1. exporters — a two-scenario fleet with the flusher serves a mixed
//      batch, cuts a window, and renders both exporter formats; reports
//      render latency and output size, and checks the window carries every
//      serve, FleetStats counts the same requests the window does (both read
//      the one counter store), and the scrape carries the serve histogram
//      and the per-scenario request counters.
//   2. trace ring — the same fleet shape with the ring on; reports append
//      totals, retained events, and the JSONL export size.
//
// Results land in BENCH_metrics.json (override with --out); --smoke runs a
// seconds-scale variant for CI. Exit code is non-zero when any invariant
// fails.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "service/service_fleet.h"
#include "service/trace_ring.h"
#include "util/metrics.h"

namespace maliva {
namespace bench {
namespace {

struct MetricsBenchOptions {
  bool smoke = false;
  std::string out_path = "BENCH_metrics.json";
};

/// Round-robin requests over a scenario's evaluation split.
std::vector<RewriteRequest> RequestStream(const Scenario& scenario,
                                          const std::string& key, size_t n) {
  std::vector<RewriteRequest> requests;
  requests.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    RewriteRequest req;
    req.scenario = key;
    req.query = scenario.evaluation[i % scenario.evaluation.size()];
    requests.push_back(req);
  }
  return requests;
}

int Run(const MetricsBenchOptions& opts) {
  const size_t kRows = opts.smoke ? 8000 : 40000;
  const size_t kQueries = opts.smoke ? 60 : 240;
  const size_t kServes = opts.smoke ? 4000 : 40000;
  const size_t kRingCapacity = opts.smoke ? 512 : 4096;

  ScenarioConfig twitter_cfg = TwitterConfig500ms();
  twitter_cfg.num_rows = kRows;
  twitter_cfg.num_queries = kQueries;
  Scenario twitter = BuildScenario(twitter_cfg);
  ScenarioConfig tpch_cfg = TpchConfig500ms();
  tpch_cfg.num_rows = kRows;
  tpch_cfg.num_queries = kQueries;
  Scenario tpch = BuildScenario(tpch_cfg);

  // Cheap shards: the plane under test is instrumentation, not planning.
  ServiceConfig shard_cfg = ServiceConfig().WithTrainerIterations(3).WithAgentSeeds(1);
  shard_cfg.default_strategy = "baseline";

  // ---- Phase 0: hot-path probe ------------------------------------------
  PrintBanner("Phase 0 — serve throughput and registry lookups");
  double serve_qps = 0.0;
  uint64_t lookups_before = 0;
  uint64_t lookups_after = 0;
  {
    MalivaService service(&twitter, ServiceConfig(shard_cfg));
    if (!service.Warmup({"baseline"}).ok()) {
      std::printf("warmup failed\n");
      return 1;
    }
    std::vector<RewriteRequest> requests = RequestStream(twitter, "", kServes);
    std::span<const RewriteRequest> span(requests);
    (void)service.ServeBatch(span);  // untimed warm pass (oracle memos, caches)

    lookups_before = service.metrics_registry().lookups();
    Stopwatch watch;
    (void)service.ServeBatch(span);
    const double seconds = watch.Seconds();
    lookups_after = service.metrics_registry().lookups();

    serve_qps = static_cast<double>(kServes) / seconds;
    std::printf("serve: %10.0f QPS\nregistry lookups while serving: %llu\n",
                serve_qps,
                static_cast<unsigned long long>(lookups_after - lookups_before));
  }

  // ---- Phase 1: exporters -----------------------------------------------
  PrintBanner("Phase 1 — windowed flush + Prometheus/JSON exporters");
  std::string prometheus;
  std::string json;
  double prometheus_us = 0.0;
  double json_us = 0.0;
  uint64_t window_requests = 0;
  uint64_t stats_requests = 0;
  size_t windows = 0;
  {
    FleetConfig fleet_cfg = FleetConfig().WithDefaults(shard_cfg);
    fleet_cfg.warmup_strategies = {"baseline"};
    fleet_cfg.metrics_flush_ms = 600000;  // manual FlushNow
    MalivaFleet fleet(fleet_cfg);
    if (!fleet.RegisterScenario("twitter", &twitter).ok()) return 1;
    if (!fleet.RegisterScenario("tpch", &tpch).ok()) return 1;
    fleet.WaitWarmups();
    std::vector<RewriteRequest> requests = RequestStream(twitter, "twitter", kServes / 2);
    std::vector<RewriteRequest> tpch_requests =
        RequestStream(tpch, "tpch", kServes / 2);
    requests.insert(requests.end(), tpch_requests.begin(), tpch_requests.end());
    for (const Result<RewriteResponse>& r :
         fleet.ServeBatch(std::span<const RewriteRequest>(requests))) {
      if (!r.ok()) {
        std::printf("fleet serve failed: %s\n", r.status().ToString().c_str());
        return 1;
      }
    }
    fleet.metrics_flusher()->FlushNow();
    std::vector<MetricsFlusher::Window> cut = fleet.metrics_flusher()->Windows();
    windows = cut.size();
    if (!cut.empty()) {
      window_requests = cut.back().delta.CounterSum("maliva_requests_total");
    }
    FleetStats stats = fleet.Stats();
    stats_requests = stats.totals.requests;
    Stopwatch prom_watch;
    prometheus = stats.metrics.RenderPrometheus();
    prometheus_us = prom_watch.Seconds() * 1e6;
    Stopwatch json_watch;
    json = stats.metrics.RenderJson();
    json_us = json_watch.Seconds() * 1e6;
    std::printf("window: %zu cut(s), newest carries %llu requests; "
                "FleetStats counts %llu\n",
                windows, static_cast<unsigned long long>(window_requests),
                static_cast<unsigned long long>(stats_requests));
    std::printf("prometheus: %zu bytes in %.1f us\njson:       %zu bytes in "
                "%.1f us\n",
                prometheus.size(), prometheus_us, json.size(), json_us);
  }

  // ---- Phase 2: trace ring ----------------------------------------------
  PrintBanner("Phase 2 — trace-event ring retention and export");
  uint64_t ring_appended = 0;
  size_t ring_retained = 0;
  size_t jsonl_bytes = 0;
  {
    FleetConfig fleet_cfg = FleetConfig().WithDefaults(shard_cfg);
    fleet_cfg.warmup_strategies = {"baseline"};
    fleet_cfg.trace_ring_capacity = kRingCapacity;
    MalivaFleet fleet(fleet_cfg);
    if (!fleet.RegisterScenario("twitter", &twitter).ok()) return 1;
    fleet.WaitWarmups();
    std::vector<RewriteRequest> requests =
        RequestStream(twitter, "twitter", kServes);
    for (const Result<RewriteResponse>& r :
         fleet.ServeBatch(std::span<const RewriteRequest>(requests))) {
      if (!r.ok()) return 1;
    }
    const TraceRing* ring = fleet.trace_ring();
    ring_appended = ring->total_appended();
    ring_retained = ring->SnapshotEvents().size();
    jsonl_bytes = ring->ExportJsonLines().size();
    std::printf("appended %llu events, retained %zu (capacity %zu), JSONL "
                "export %zu bytes\n",
                static_cast<unsigned long long>(ring_appended), ring_retained,
                ring->capacity(), jsonl_bytes);
  }

  // ---- JSON -------------------------------------------------------------
  std::FILE* f = std::fopen(opts.out_path.c_str(), "w");
  if (f == nullptr) {
    std::printf("cannot open %s for writing\n", opts.out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"bench_metrics_plane\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", opts.smoke ? "smoke" : "full");
  std::fprintf(f, "  \"serves\": %zu,\n", kServes);
  std::fprintf(f, "  \"serve_qps\": %.1f,\n", serve_qps);
  std::fprintf(f, "  \"serve_lookups\": %llu,\n",
               static_cast<unsigned long long>(lookups_after - lookups_before));
  std::fprintf(f, "  \"window_requests\": %llu,\n",
               static_cast<unsigned long long>(window_requests));
  std::fprintf(f, "  \"stats_requests\": %llu,\n",
               static_cast<unsigned long long>(stats_requests));
  std::fprintf(f, "  \"prometheus_bytes\": %zu,\n", prometheus.size());
  std::fprintf(f, "  \"prometheus_render_us\": %.1f,\n", prometheus_us);
  std::fprintf(f, "  \"json_bytes\": %zu,\n", json.size());
  std::fprintf(f, "  \"json_render_us\": %.1f,\n", json_us);
  std::fprintf(f, "  \"ring_appended\": %llu,\n",
               static_cast<unsigned long long>(ring_appended));
  std::fprintf(f, "  \"ring_retained\": %zu\n", ring_retained);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", opts.out_path.c_str());

  // ---- Acceptance -------------------------------------------------------
  bool ok = true;
  if (lookups_after != lookups_before) {
    std::printf("CHECK FAILED: serving performed %llu registry lookups\n",
                static_cast<unsigned long long>(lookups_after - lookups_before));
    ok = false;
  }
  if (windows == 0 || window_requests != kServes) {
    std::printf("CHECK FAILED: flusher window carried %llu of %zu requests\n",
                static_cast<unsigned long long>(window_requests), kServes);
    ok = false;
  }
  if (stats_requests != window_requests) {
    std::printf("CHECK FAILED: FleetStats counted %llu requests, the window %llu\n",
                static_cast<unsigned long long>(stats_requests),
                static_cast<unsigned long long>(window_requests));
    ok = false;
  }
  if (prometheus.find("# TYPE maliva_serve_latency_ms summary") == std::string::npos ||
      prometheus.find("maliva_requests_total{scenario=\"twitter\"") == std::string::npos ||
      prometheus.find("maliva_requests_total{scenario=\"tpch\"") == std::string::npos) {
    std::printf("CHECK FAILED: prometheus scrape missing expected series\n");
    ok = false;
  }
  if (json.find("\"histograms\": [") == std::string::npos) {
    std::printf("CHECK FAILED: json export missing histograms\n");
    ok = false;
  }
  if (ring_appended != kServes || ring_retained != kRingCapacity) {
    std::printf("CHECK FAILED: ring appended %llu / retained %zu, expected "
                "%zu / %zu\n",
                static_cast<unsigned long long>(ring_appended), ring_retained,
                kServes, kRingCapacity);
    ok = false;
  }
  std::printf("%s\n", ok ? "all metrics-plane checks passed"
                         : "METRICS-PLANE CHECKS FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace maliva

int main(int argc, char** argv) {
  maliva::bench::MetricsBenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      opts.smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      opts.out_path = argv[++i];
    } else {
      std::printf("usage: %s [--smoke] [--out <path>]\n", argv[0]);
      return 2;
    }
  }
  return maliva::bench::Run(opts);
}
