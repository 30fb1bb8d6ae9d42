// Multi-scenario shard plane: mixed-scenario serving through MalivaFleet.
//
// Not a paper figure — this measures the reproduction's own shard plane
// (ISSUE 5): one fleet hosting three datasets (Twitter 500ms, Taxi 1s,
// TPC-H 500ms), served a mixed request stream through the fleet-level
// ServeBatch. Three invariants must hold everywhere, wall-clock aside:
//
//   1. per-shard byte-determinism — the fleet's mixed-batch responses are
//      byte-identical at every fleet thread count, and each shard's slice
//      equals what that shard's own standalone service produces;
//   2. per-shard throughput — the stream partitions across shards and the
//      fleet reports per-shard QPS from one shared pool;
//   3. isolation — knowledge-plane and online-plane state never leaks
//      across shards: a shard that saw no traffic stays at zero, and an
//      online-enabled shard's snapshot versions advance alone.
//
// Exit code is non-zero when any invariant fails (CI treats this bench as
// the shard plane's acceptance check).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "service/service_fleet.h"

namespace maliva {
namespace bench {
namespace {

struct NamedScenario {
  const char* id;
  Scenario scenario;
};

/// Three small scenarios (fleet warm-up trains one agent per shard, so the
/// figure-bench scales would dominate the run time).
std::vector<NamedScenario> BuildScenarios() {
  std::vector<NamedScenario> scenarios;
  ScenarioConfig twitter = TwitterConfig500ms();
  twitter.num_rows = 40000;
  twitter.num_queries = 240;
  ScenarioConfig taxi = TaxiConfig1s();
  taxi.num_rows = 40000;
  taxi.num_queries = 240;
  ScenarioConfig tpch = TpchConfig500ms();
  tpch.num_rows = 40000;
  tpch.num_queries = 240;
  scenarios.push_back({"twitter", BuildScenario(twitter)});
  scenarios.push_back({"taxi", BuildScenario(taxi)});
  scenarios.push_back({"tpch", BuildScenario(tpch)});
  return scenarios;
}

/// Mixed stream, deliberately uneven (3:2:1) so per-shard QPS differs.
std::vector<RewriteRequest> MakeMixedRequests(const std::vector<NamedScenario>& scenarios,
                                              size_t n) {
  const char* strategies[] = {"mdp/accurate", "mdp/accurate", "naive", "baseline"};
  const size_t weights[] = {3, 2, 1};
  std::vector<RewriteRequest> requests;
  requests.reserve(n);
  size_t scenario_index = 0;
  size_t remaining = weights[0];
  for (size_t i = 0; i < n; ++i) {
    const NamedScenario& named = scenarios[scenario_index];
    RewriteRequest req;
    req.scenario = named.id;
    req.query = named.scenario.evaluation[i % named.scenario.evaluation.size()];
    req.strategy = strategies[i % (sizeof(strategies) / sizeof(strategies[0]))];
    requests.push_back(req);
    if (--remaining == 0) {
      scenario_index = (scenario_index + 1) % scenarios.size();
      remaining = weights[scenario_index];
    }
  }
  return requests;
}

bool SameResponse(const Result<RewriteResponse>& a, const Result<RewriteResponse>& b) {
  if (a.ok() != b.ok()) return false;
  if (!a.ok()) return a.status().code() == b.status().code();
  const RewriteResponse& ra = a.value();
  const RewriteResponse& rb = b.value();
  return ra.strategy == rb.strategy && ra.rewritten_sql == rb.rewritten_sql &&
         ra.outcome.option_index == rb.outcome.option_index &&
         ra.outcome.planning_ms == rb.outcome.planning_ms &&
         ra.outcome.exec_ms == rb.outcome.exec_ms &&
         ra.outcome.total_ms == rb.outcome.total_ms &&
         ra.outcome.viable == rb.outcome.viable &&
         ra.outcome.steps == rb.outcome.steps &&
         ra.outcome.quality == rb.outcome.quality;
}

ServiceConfig ShardServiceConfig() {
  return ServiceConfig().WithTrainerIterations(8).WithAgentSeeds(1);
}

FleetConfig MakeFleetConfig(size_t threads) {
  FleetConfig config = FleetConfig()
                           .WithDefaults(ShardServiceConfig())
                           .WithNumThreads(threads)
                           .WithWarmupThreads(2);
  config.warmup_strategies = {"mdp/accurate", "naive", "baseline"};
  return config;
}

Status RegisterAll(MalivaFleet& fleet, std::vector<NamedScenario>& scenarios) {
  for (NamedScenario& named : scenarios) {
    MALIVA_RETURN_NOT_OK(fleet.RegisterScenario(named.id, &named.scenario));
  }
  return Status::OK();
}

/// Phase 1: mixed-batch QPS per thread count + the two byte-identity audits.
int RunMixedThroughput(std::vector<NamedScenario>& scenarios) {
  PrintBanner("Fleet ServeBatch: mixed 3-scenario stream at 1/4/8 threads");
  const size_t kBatch = 3000;
  std::vector<RewriteRequest> requests = MakeMixedRequests(scenarios, kBatch);

  // Untimed warm pass: fills each scenario's PlanTimeOracle memo (owned by
  // the scenario, shared across the per-thread-count fleets below).
  {
    MalivaFleet warmer(MakeFleetConfig(4));
    if (!RegisterAll(warmer, scenarios).ok()) return 1;
    warmer.WaitWarmups();
    (void)warmer.ServeBatch(requests);
  }

  // FleetStats::shards is ordered by scenario id: taxi, tpch, twitter.
  std::printf("%-10s %-10s %-10s  %-28s %s\n", "threads", "seconds", "QPS",
              "per-shard QPS (taxi/tpch/tw)", "byte-identical");
  std::vector<Result<RewriteResponse>> reference;
  for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    MalivaFleet fleet(MakeFleetConfig(threads));
    if (!RegisterAll(fleet, scenarios).ok()) return 1;
    fleet.WaitWarmups();

    Stopwatch watch;
    std::vector<Result<RewriteResponse>> responses = fleet.ServeBatch(requests);
    double seconds = watch.Seconds();
    for (const Result<RewriteResponse>& resp : responses) {
      if (!resp.ok()) {
        std::printf("serve failed: %s\n", resp.status().ToString().c_str());
        return 1;
      }
    }

    FleetStats stats = fleet.Stats();
    std::string per_shard;
    for (const auto& [id, shard_stats] : stats.shards) {
      if (!per_shard.empty()) per_shard += " / ";
      per_shard +=
          std::to_string(static_cast<size_t>(
              static_cast<double>(shard_stats.requests) / seconds));
    }

    bool identical = true;
    if (threads == 1) {
      reference = std::move(responses);
    } else {
      for (size_t i = 0; i < reference.size(); ++i) {
        if (!SameResponse(reference[i], responses[i])) {
          identical = false;
          break;
        }
      }
    }
    std::printf("%-10zu %-10.3f %-10.0f  %-28s %s\n", threads, seconds,
                static_cast<double>(kBatch) / seconds, per_shard.c_str(),
                threads == 1 ? "(reference)" : (identical ? "yes" : "NO — BUG"));
    if (!identical) return 1;
  }

  // Slice audit: each shard's slice of the mixed batch must equal what that
  // shard's own standalone service (same config, same training seeds)
  // produces for the slice — the per-shard determinism contract, end to end.
  for (NamedScenario& named : scenarios) {
    std::vector<RewriteRequest> slice;
    std::vector<const Result<RewriteResponse>*> fleet_slice;
    for (size_t i = 0; i < requests.size(); ++i) {
      if (requests[i].scenario == named.id) {
        slice.push_back(requests[i]);
        fleet_slice.push_back(&reference[i]);
      }
    }
    ServiceConfig standalone_config = ShardServiceConfig();
    standalone_config.num_threads = 4;
    MalivaService standalone(&named.scenario, standalone_config);
    if (!standalone.Warmup({"mdp/accurate", "naive", "baseline"}).ok()) return 1;
    std::vector<Result<RewriteResponse>> expected = standalone.ServeBatch(slice);
    for (size_t i = 0; i < slice.size(); ++i) {
      if (!SameResponse(expected[i], *fleet_slice[i])) {
        std::printf("SLICE MISMATCH on shard %s at slice index %zu — BUG\n",
                    named.id, i);
        return 1;
      }
    }
    std::printf("slice audit %-8s %4zu requests: byte-identical to standalone\n",
                named.id, slice.size());
  }
  return 0;
}

/// Phase 2: knowledge- and online-plane isolation across shards.
int RunIsolation(std::vector<NamedScenario>& scenarios) {
  PrintBanner("Shard isolation: per-shard knowledge + online planes");

  // Knowledge plane on everywhere; online learning on the Twitter shard
  // only (a per-shard override layered over the fleet defaults).
  MalivaFleet fleet(MakeFleetConfig(4));
  for (NamedScenario& named : scenarios) {
    Status st = fleet.RegisterScenario(
        named.id, &named.scenario, [&named](ServiceConfig& config) {
          config.cross_request_cache = true;
          if (std::string(named.id) == "twitter") {
            config.online_learning = true;
            config.online_trainer_threads = 0;
          }
        });
    if (!st.ok()) {
      std::printf("register failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  fleet.WaitWarmups();

  // Traffic for Twitter and Taxi only; the TPC-H shard must stay untouched.
  std::vector<NamedScenario*> active = {&scenarios[0], &scenarios[1]};
  std::vector<RewriteRequest> requests;
  for (size_t i = 0; i < 1200; ++i) {
    NamedScenario* named = active[i % active.size()];
    RewriteRequest req;
    req.scenario = named->id;
    req.query = named->scenario.evaluation[i % named->scenario.evaluation.size()];
    req.strategy = "mdp/accurate";
    requests.push_back(req);
  }
  for (const Result<RewriteResponse>& resp : fleet.ServeBatch(requests)) {
    if (!resp.ok()) {
      std::printf("serve failed: %s\n", resp.status().ToString().c_str());
      return 1;
    }
  }
  // One deterministic fine-tune round on the online shard.
  Result<std::shared_ptr<const MalivaService>> twitter = fleet.ServiceFor("twitter");
  if (!twitter.ok()) return 1;
  (void)twitter.value()->online_trainer()->RetrainNow("agent/exact-accurate");

  FleetStats stats = fleet.Stats();
  std::printf("%-10s %-10s %-12s %-12s %-12s %s\n", "shard", "requests",
              "store-size", "shared-hits", "snapshot-v", "retrains");
  for (const auto& [id, s] : stats.shards) {
    std::printf("%-10s %-10llu %-12llu %-12llu %-12llu %llu\n", id.c_str(),
                static_cast<unsigned long long>(s.requests),
                static_cast<unsigned long long>(s.store_size),
                static_cast<unsigned long long>(s.shared_hits),
                static_cast<unsigned long long>(s.online_snapshot_version),
                static_cast<unsigned long long>(s.online_retrains));
  }
  std::printf("fleet totals: %llu requests over %zu scenarios, %llu routing errors\n",
              static_cast<unsigned long long>(stats.totals.requests),
              stats.scenarios,
              static_cast<unsigned long long>(stats.routing_errors));

  // Isolation invariants. Shard order in FleetStats is sorted by id:
  // taxi, tpch, twitter.
  const ServiceStats& taxi = stats.shards[0].second;
  const ServiceStats& tpch = stats.shards[1].second;
  const ServiceStats& tw = stats.shards[2].second;
  bool ok = true;
  if (tpch.requests != 0 || tpch.store_size != 0 || tpch.shared_hits != 0 ||
      tpch.online_snapshot_version != 0) {
    std::printf("CROSS-SHARD LEAKAGE into idle tpch shard — BUG\n");
    ok = false;
  }
  if (tw.requests == 0 || taxi.requests == 0 || tw.store_size == 0 ||
      taxi.store_size == 0) {
    std::printf("ACTIVE SHARDS MISSING THEIR OWN STATE — BUG\n");
    ok = false;
  }
  if (tw.online_snapshot_version < 1 || taxi.online_snapshot_version != 0 ||
      taxi.online_transitions != 0) {
    std::printf("ONLINE PLANE NOT ISOLATED to the twitter shard — BUG\n");
    ok = false;
  }
  return ok ? 0 : 1;
}

int Run() {
  std::printf("building 3 scenarios (twitter/taxi/tpch, 40k rows each)...\n");
  std::vector<NamedScenario> scenarios = BuildScenarios();
  int rc = RunMixedThroughput(scenarios);
  if (rc != 0) return rc;
  return RunIsolation(scenarios);
}

}  // namespace
}  // namespace bench
}  // namespace maliva

int main() { return maliva::bench::Run(); }
