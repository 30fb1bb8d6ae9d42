// Quality-aware rewriting: when no exact plan fits the budget (paper Fig 2),
// Maliva trades visualization quality for responsiveness using LIMIT rules,
// maximizing Jaccard quality subject to the deadline (Section 6).
//
// Also demonstrates the service's per-request quality floor: a request that
// refuses to drop below a minimum quality falls back to the exact plan.

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "service/service.h"
#include "workload/difficulty.h"

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

}  // namespace

int main() {
  std::printf("Building the scatterplot scenario with LIMIT approximation rules...\n");
  ScenarioConfig cfg;
  cfg.kind = DatasetKind::kTwitter;
  cfg.num_rows = 60000;
  cfg.num_queries = 400;
  cfg.tau_ms = 500.0;
  cfg.output = OutputKind::kScatter;
  Scenario scenario = BuildScenario(cfg);

  std::vector<ApproxRule> rules = {{ApproxKind::kLimit, 0.0016},
                                   {ApproxKind::kLimit, 0.008},
                                   {ApproxKind::kLimit, 0.04},
                                   {ApproxKind::kLimit, 0.2}};
  ServiceConfig config =
      ServiceConfig().WithTrainerIterations(20).WithAgentSeeds(1).WithApproxRules(rules);
  config.beta = 0.5;  // Eq 2: equal weight
  MalivaService service(&scenario, config);

  // Focus on the queries no exact plan can serve.
  BucketedWorkload bw = BucketQueries(*scenario.oracle, scenario.evaluation,
                                      scenario.options, cfg.tau_ms,
                                      BucketScheme::Exact0To4());
  const std::vector<const Query*>& impossible = bw.buckets[0];
  std::printf("%zu of %zu evaluation queries have NO viable exact plan.\n\n",
              impossible.size(), scenario.evaluation.size());

  struct Tally {
    size_t viable = 0;
    double quality = 0.0;
    double total_ms = 0.0;
  };
  auto run = [&](const std::string& strategy) {
    Tally t;
    for (const Query* q : impossible) {
      RewriteRequest req;
      req.query = q;
      req.strategy = strategy;
      RewriteOutcome out = MustServe(service, req).outcome;
      t.viable += out.viable ? 1 : 0;
      t.quality += out.quality;
      t.total_ms += out.total_ms;
    }
    return t;
  };

  std::printf("%-26s %-10s %-10s %s\n", "strategy", "VQP %", "avg time s",
              "avg Jaccard quality");
  for (const char* strategy :
       {"mdp/accurate", "quality/two-stage", "quality/one-stage"}) {
    Tally t = run(strategy);
    double n = static_cast<double>(impossible.size());
    std::printf("%-26s %-10.1f %-10.2f %.3f\n", strategy,
                100.0 * static_cast<double>(t.viable) / n, t.total_ms / n / 1000.0,
                t.quality / n);
  }

  // Walk through one rescue in detail.
  if (!impossible.empty()) {
    const Query& q = *impossible[0];
    RewriteRequest req;
    req.query = &q;
    req.strategy = "quality/one-stage";
    RewriteResponse resp = MustServe(service, req);
    std::printf("\nExample: query %llu had no viable exact plan.\n",
                static_cast<unsigned long long>(q.id));
    std::printf("One-stage MDP served it in %.0f ms using an %s rewrite with "
                "Jaccard quality %.2f:\n  %s\n",
                resp.outcome.total_ms,
                resp.outcome.approximate ? "approximate" : "exact",
                resp.outcome.quality, resp.rewritten_sql.c_str());

    // The same request with a quality floor of 0.99 refuses the approximate
    // rescue and falls back to the exact plan (blowing the budget instead).
    req.quality_floor = 0.99;
    RewriteResponse strict = MustServe(service, req);
    std::printf("With quality_floor=0.99 the service %s (quality %.2f, %.0f ms, "
                "%s).\n",
                strict.exact_fallback ? "fell back to the exact plan"
                                      : "kept the strategy's choice",
                strict.outcome.quality, strict.outcome.total_ms,
                strict.outcome.viable ? "viable" : "NOT viable");
  }
  return 0;
}
