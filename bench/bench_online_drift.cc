// Online learning under workload drift: frozen agent vs continual retraining.
//
// Not a paper figure — this measures the reproduction's own online learning
// plane (ISSUE 4), motivated by the paper's generalization experiments
// (Fig 19: trained agents degrade off their training distribution) and Bao's
// online plan-steering loop. Two services share one scenario (identical
// offline-trained agents):
//   * "frozen"  — online_learning off: the PR 2/3 serving core, agent fixed
//     after warm-up;
//   * "online"  — online_learning on: every served episode feeds observed
//     transitions to the replay sink, and fine-tune rounds publish new agent
//     snapshot versions behind the validation gate.
// Both serve the same drifted query stream — mid-zoom pan-out tiles the
// agents never trained on, in a 16-option / 250ms setting where the budget
// cannot cover the option set, so exploration order decides viability.
//
// The run is fully deterministic (and so reproducible on any machine):
// serving is sequential and fine-tune rounds are driven synchronously with
// ContinualTrainer::RetrainNow between rounds (online_trainer_threads = 0).
// The asynchronous background path is exercised by the ServiceOnline test
// suite's serve+retrain stress test instead, where exact numbers don't
// matter. Acceptance invariants: the online service's snapshot version
// advances, and its viable rate on the drifted stream beats the frozen
// service's.

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "workload/query_gen.h"

namespace maliva {
namespace bench {
namespace {

std::vector<RewriteRequest> MakeRequests(const std::vector<Query>& pool,
                                         size_t n) {
  std::vector<RewriteRequest> requests;
  requests.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    RewriteRequest req;
    req.query = &pool[i % pool.size()];
    req.strategy = "mdp/accurate";
    requests.push_back(req);
  }
  return requests;
}

double ViableRate(const std::vector<Result<RewriteResponse>>& responses) {
  size_t viable = 0;
  for (const Result<RewriteResponse>& resp : responses) {
    if (!resp.ok()) {
      std::printf("serve failed: %s\n", resp.status().ToString().c_str());
      return -1.0;
    }
    viable += resp.value().outcome.viable ? 1 : 0;
  }
  return 100.0 * static_cast<double>(viable) /
         static_cast<double>(responses.size());
}

int Run() {
  PrintBanner("Online learning plane: frozen vs continually retrained agent");

  // 16 rewrite options under a 250ms budget: exploration order decides
  // viability, so an agent mis-calibrated by drift visibly loses queries.
  ScenarioConfig cfg = TwitterConfig500ms();
  cfg.num_rows = 60000;
  cfg.num_queries = 400;
  cfg.num_attrs = 4;  // 16 rewrite options
  cfg.tau_ms = 250.0;
  std::printf("building scenario (%zu rows, %zu queries, 16 options, tau=%.0fms)...\n",
              cfg.num_rows, cfg.num_queries, cfg.tau_ms);
  Scenario scenario = BuildScenario(cfg);

  // Drifted workload: same tweets table and filter attributes, but mid-zoom
  // pan-out tiles only (zoom 4-7 — broader ranges and boxes than most of the
  // training mix), the regime where viable options are scarce and the
  // offline-trained exploration order goes wrong.
  QueryGenConfig drift_gen;
  drift_gen.attrs = scenario.attrs;
  drift_gen.num_queries = 160;
  drift_gen.seed = 22;
  drift_gen.id_base = 20000000;
  drift_gen.output = OutputKind::kHeatmap;
  drift_gen.output_column = "coordinates";
  drift_gen.range_zoom_min = 4;
  drift_gen.range_zoom_max = 7;
  drift_gen.spatial_zoom_min = 4;
  drift_gen.spatial_zoom_max = 11;
  const Table& tweets = *scenario.engine->FindEntry("tweets")->table;
  std::vector<Query> drift_pool = GenerateQueries(tweets, nullptr, drift_gen);

  ServiceConfig base = ServiceConfig().WithTrainerIterations(12).WithAgentSeeds(1);
  base.num_threads = 1;
  ServiceConfig online_config = base;
  online_config.online_learning = true;
  online_config.online_gradient_steps = 48;
  online_config.online_learning_rate = 2e-4;
  online_config.online_gate_tolerance = 0.3;
  online_config.online_trainer_threads = 0;
  MalivaService frozen(&scenario, base);
  MalivaService online(&scenario, online_config);
  if (!frozen.Warmup({"mdp/accurate"}).ok()) return 1;
  if (!online.Warmup({"mdp/accurate"}).ok()) return 1;
  const std::string agent_key = "agent/exact-accurate";

  // Phase 1 — base distribution: snapshot v1 is a faithful clone of the
  // frozen weights, so both services serve identical viable rates.
  std::vector<RewriteRequest> base_requests =
      MakeRequests(scenario.queries, scenario.queries.size());
  double frozen_base = ViableRate(frozen.ServeBatch(base_requests));
  double online_base = ViableRate(online.ServeBatch(base_requests));
  if (frozen_base < 0.0 || online_base < 0.0) return 1;
  std::printf("\nbase phase (no drift yet): frozen %.1f%% viable, online %.1f%%\n",
              frozen_base, online_base);
  if (frozen_base != online_base) {
    std::printf("SNAPSHOT V1 DIVERGED FROM FROZEN WEIGHTS — BUG\n");
    return 1;
  }
  // Phase 2 — drifted stream: rounds of the same dashboard-style pool, one
  // synchronous fine-tune round after each.
  PrintBanner("Drift phase: mid-zoom pan-out tiles, rounds of 320 requests");
  std::printf("%-7s %-14s %-14s %-10s %-13s %s\n", "round", "frozen-viable%",
              "online-viable%", "snapshot", "transitions", "gate pre -> post");
  std::vector<RewriteRequest> drift_requests = MakeRequests(drift_pool, 320);
  const int kRounds = 8;
  double frozen_total = 0.0;
  double online_total = 0.0;
  for (int round = 1; round <= kRounds; ++round) {
    double frozen_rate = ViableRate(frozen.ServeBatch(drift_requests));
    double online_rate = ViableRate(online.ServeBatch(drift_requests));
    if (frozen_rate < 0.0 || online_rate < 0.0) return 1;
    frozen_total += frozen_rate;
    online_total += online_rate;
    (void)online.online_trainer()->RetrainNow(agent_key);
    ServiceStats stats = online.Stats();
    std::printf("%-7d %-14.1f %-14.1f v%-9llu %-13llu %.3f -> %.3f\n", round,
                frozen_rate, online_rate,
                static_cast<unsigned long long>(stats.online_snapshot_version),
                static_cast<unsigned long long>(stats.online_transitions),
                stats.last_retrain_reward_pre, stats.last_retrain_reward_post);
  }

  double frozen_mean = frozen_total / kRounds;
  double online_mean = online_total / kRounds;
  ServiceStats stats = online.Stats();
  std::printf("\ndrift phase mean: frozen %.1f%%, online %.1f%% "
              "(%llu retrains published, %llu rejected by the gate)\n",
              frozen_mean, online_mean,
              static_cast<unsigned long long>(stats.online_retrains),
              static_cast<unsigned long long>(stats.online_rejected));

  // Acceptance invariants (ISSUE 4): the snapshot version advanced and the
  // adapted agent serves more viable drifted queries than the frozen one.
  if (stats.online_snapshot_version <= 1) {
    std::printf("SNAPSHOT VERSION NEVER ADVANCED — BUG\n");
    return 1;
  }
  if (!(online_mean > frozen_mean)) {
    std::printf("NO ONLINE IMPROVEMENT ON DRIFT — BUG (frozen %.1f%%, online %.1f%%)\n",
                frozen_mean, online_mean);
    return 1;
  }

  // Phase 3 — no catastrophic forgetting: the validation gate bounds how far
  // any published snapshot may fall below the warm-up weights on the base
  // split, so base-distribution viability stays in the frozen agent's
  // neighbourhood (informational — the gate is the enforced contract).
  double online_base_after = ViableRate(online.ServeBatch(base_requests));
  if (online_base_after < 0.0) return 1;
  std::printf("base phase after drift adaptation: online %.1f%% (frozen stays %.1f%%)\n",
              online_base_after, frozen_base);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace maliva

int main() { return maliva::bench::Run(); }
