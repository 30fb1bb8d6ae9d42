// Quickstart: build a small Twitter-like scenario, host it in a MalivaFleet,
// and rewrite visualization queries under a 500ms budget.
//
//   $ ./build/quickstart
//
// Walks through the full public API: scenario assembly, fleet configuration,
// scenario registration (with background warm-up), strategy selection by
// name, per-request budgets, and batched serving. A single-shard fleet is a
// drop-in MalivaService — requests need no routing key until a second
// scenario is registered (bench/replay_golden.h registers two).

#include <cstdio>

#include "service/service_fleet.h"

using namespace maliva;

int main() {
  // 1. Build a scenario: synthetic tweets table (virtually 100M rows via the
  //    cardinality scale), indexes, statistics, a generated query workload,
  //    and the 8 hint-set rewrite options.
  std::printf("Building scenario (tweets table, 8 rewrite options)...\n");
  ScenarioConfig cfg;
  cfg.kind = DatasetKind::kTwitter;
  cfg.num_rows = 60000;
  cfg.num_queries = 400;
  cfg.tau_ms = 500.0;
  Scenario scenario = BuildScenario(cfg);

  // 2. Stand up the fleet and register the scenario under a routing key.
  //    Registration schedules a background warm-up of the named strategies
  //    (agents train off the serving path, Algorithm 1); WaitWarmups makes
  //    this walkthrough deterministic, but serving would work without it —
  //    cold strategies build lazily on first use.
  MalivaFleet fleet(FleetConfig{
      .defaults = ServiceConfig().WithTrainerIterations(20).WithAgentSeeds(1),
      .warmup_strategies = {"mdp/accurate", "baseline"}});
  if (Status st = fleet.RegisterScenario("tweets", &scenario); !st.ok()) {
    std::printf("register failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("Warming up the \"tweets\" shard (training in the background)...\n");
  fleet.WaitWarmups();

  // 3. Serve a batch: every evaluation query once through the MDP rewriter
  //    and once through the no-rewriting baseline. With one registered
  //    scenario the routing key can stay empty.
  std::printf("Serving evaluation queries...\n");
  std::vector<RewriteRequest> requests;
  for (const Query* q : scenario.evaluation) {
    RewriteRequest mdp;
    mdp.query = q;
    mdp.strategy = "mdp/accurate";
    requests.push_back(mdp);
    RewriteRequest base;
    base.query = q;
    base.strategy = "baseline";
    requests.push_back(base);
  }
  std::vector<Result<RewriteResponse>> responses = fleet.ServeBatch(requests);

  std::printf("\n%-6s %-11s %-11s %-9s %-9s\n", "query", "baseline(s)", "maliva(s)",
              "b.viable", "m.viable");
  size_t shown = 0;
  for (size_t i = 0; i + 1 < responses.size() && shown < 8; i += 2) {
    if (!responses[i].ok() || !responses[i + 1].ok()) {
      std::printf("serve failed: %s\n",
                  (responses[i].ok() ? responses[i + 1] : responses[i])
                      .status().ToString().c_str());
      return 1;
    }
    const RewriteOutcome& mdp = responses[i].value().outcome;
    const RewriteOutcome& base = responses[i + 1].value().outcome;
    if (base.viable && mdp.viable) continue;  // show the interesting cases
    std::printf("%-6llu %-11.3f %-11.3f %-9s %-9s\n",
                static_cast<unsigned long long>(requests[i].query->id),
                base.total_ms / 1000.0, mdp.total_ms / 1000.0,
                base.viable ? "yes" : "NO", mdp.viable ? "yes" : "NO");
    ++shown;
  }

  // 4. Inspect one rewriting in detail: explicit routing key, per-request
  //    budget override, and the chosen hint set rendered as SQL.
  RewriteRequest req;
  req.scenario = "tweets";
  req.query = scenario.evaluation[0];
  req.strategy = "mdp/accurate";
  req.tau_ms = 750.0;  // this dashboard tile tolerates a slower refresh
  Result<RewriteResponse> resp = fleet.Serve(req);
  if (!resp.ok()) {
    std::printf("serve failed: %s\n", resp.status().ToString().c_str());
    return 1;
  }
  const RewriteOutcome& out = resp.value().outcome;
  std::printf("\nOriginal query:\n  %s\n", req.query->ToString().c_str());
  std::printf("Maliva's rewritten query (planning took %.0f virtual ms, %zu QTE "
              "calls):\n  %s\n",
              out.planning_ms, out.steps, resp.value().rewritten_sql.c_str());
  std::printf("Execution: %.0f ms -> total %.0f ms (%s the %.0f ms budget)\n",
              out.exec_ms, out.total_ms, out.viable ? "within" : "exceeds",
              *req.tau_ms);

  // 5. Fleet introspection: the hosted scenarios and their lifecycle state.
  std::printf("\nHosted scenarios:\n");
  for (const ScenarioInfo& info : fleet.ListScenarios()) {
    std::printf("  %-8s %-8s dataset=%s served=%llu warmup=%s\n", info.id.c_str(),
                ShardStateName(info.state), info.dataset.c_str(),
                static_cast<unsigned long long>(info.requests),
                info.warmup.ok() ? "ok" : info.warmup.ToString().c_str());
  }
  return 0;
}
