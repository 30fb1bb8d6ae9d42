// Twitter heatmap dashboard: simulates an analyst exploring keyword activity
// on a map — the paper's motivating application (Fig 1). A session of
// pan/zoom/keyword-change requests is served once by the plain backend
// optimizer and once through Maliva, reporting per-request latency and the
// fraction served interactively.

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "service/service.h"
#include "util/stats.h"

using namespace maliva;

namespace {

/// Unwraps a serve result, exiting loudly on error.
RewriteResponse MustServe(MalivaService& service, const RewriteRequest& req) {
  Result<RewriteResponse> resp = service.Serve(req);
  if (!resp.ok()) {
    std::fprintf(stderr, "serve failed: %s\n", resp.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(resp).value();
}

/// A dashboard session: each step changes keyword, time window, or viewport.
std::vector<Query> MakeSession(const Scenario& scenario, size_t steps) {
  // Reuse generated workload queries as session steps: they are anchored at
  // real data rows, like a user drilling into visible activity.
  std::vector<Query> session;
  for (size_t i = 0; i < steps && i < scenario.evaluation.size(); ++i) {
    Query q = *scenario.evaluation[i];
    q.output = OutputKind::kHeatmap;
    session.push_back(q);
  }
  return session;
}

}  // namespace

int main() {
  std::printf("Building the tweet-map scenario...\n");
  ScenarioConfig cfg;
  cfg.kind = DatasetKind::kTwitter;
  cfg.num_rows = 80000;
  cfg.num_queries = 500;
  cfg.tau_ms = 500.0;
  Scenario scenario = BuildScenario(cfg);

  // The sampling QTE keeps planning fully online (no offline selectivity
  // collection), which suits a dashboard backend.
  ServiceConfig config = ServiceConfig().WithTrainerIterations(20).WithAgentSeeds(1);
  config.default_strategy = "mdp/sampling";
  MalivaService service(&scenario, config);

  std::vector<Query> session = MakeSession(scenario, 40);
  std::printf("Serving a %zu-step dashboard session (budget 500ms/request)...\n\n",
              session.size());

  std::vector<double> base_ms, mdp_ms;
  size_t base_ok = 0, mdp_ok = 0;
  for (const Query& q : session) {
    RewriteRequest base_req;
    base_req.query = &q;
    base_req.strategy = "baseline";
    RewriteRequest mdp_req;
    mdp_req.query = &q;  // strategy defaults to "mdp/sampling"
    RewriteOutcome b = MustServe(service, base_req).outcome;
    RewriteOutcome m = MustServe(service, mdp_req).outcome;
    base_ms.push_back(b.total_ms);
    mdp_ms.push_back(m.total_ms);
    base_ok += b.viable ? 1 : 0;
    mdp_ok += m.viable ? 1 : 0;
  }

  std::printf("%-22s %-12s %-12s\n", "", "backend only", "with Maliva");
  std::printf("%-22s %-12.1f %-12.1f\n", "interactive requests %",
              100.0 * static_cast<double>(base_ok) / session.size(),
              100.0 * static_cast<double>(mdp_ok) / session.size());
  std::printf("%-22s %-12.2f %-12.2f\n", "median latency (s)",
              Percentile(base_ms, 50) / 1000.0, Percentile(mdp_ms, 50) / 1000.0);
  std::printf("%-22s %-12.2f %-12.2f\n", "p90 latency (s)",
              Percentile(base_ms, 90) / 1000.0, Percentile(mdp_ms, 90) / 1000.0);
  std::printf("%-22s %-12.2f %-12.2f\n", "mean latency (s)", Mean(base_ms) / 1000.0,
              Mean(mdp_ms) / 1000.0);

  // Show the heatmap itself for the first request, ASCII-style.
  const Query& q = session.front();
  Result<RewriteResponse> resp = service.Serve({.query = &q});
  if (resp.ok() && resp.value().option != nullptr) {
    RewrittenQuery rq{&q, *resp.value().option};
    Result<ExecResult> exec = scenario.engine->Execute(rq);
    if (exec.ok()) {
      std::printf("\nFirst request's heatmap (%d x %d bins, '#' = dense):\n",
                  q.heatmap_bins, q.heatmap_bins);
      int bins = q.heatmap_bins;
      int64_t max_count = 1;
      for (const auto& [bin, c] : exec.value().vis.bins) {
        max_count = std::max(max_count, c);
      }
      for (int y = bins - 1; y >= 0; y -= 2) {  // downsample rows for terminal
        for (int x = 0; x < bins; ++x) {
          auto it = exec.value().vis.bins.find(static_cast<int64_t>(y) * bins + x);
          int64_t c = it == exec.value().vis.bins.end() ? 0 : it->second;
          const char* shades = " .:+#";
          int level = c == 0 ? 0 : 1 + static_cast<int>(3.0 * c / max_count);
          std::printf("%c", shades[std::min(level, 4)]);
        }
        std::printf("\n");
      }
    }
  }
  return 0;
}
