// Golden-trace fixture shared by bench_replay and the replay regression
// tests (ISSUE 9).
//
// One tiny two-scenario fleet, one seeded 48-record trace, one committed
// pair of golden files under tests/data/:
//   golden_trace.txt          — the serialized trace (maliva-trace v1)
//   golden_trace_digests.txt  — per-record response digests, one hex per line
//
// The fixture is deliberately minimal (seconds to build) and deliberately
// deterministic: caches and the online plane stay off, the admission-on
// variant uses a gate so permissive it admits everything as asked, and the
// trace mixes strategies, per-request tau overrides, and a quality floor so
// the digests cover the fallback path too. Both the bench's --smoke leg and
// tests/replay_driver_test.cc replay this trace and compare digests —
// end-to-end drift anywhere in the rewrite stack (QTE costs, agent
// training, SQL rendering, session seeding) shows up as a digest mismatch.
//
// Regenerating after an *intentional* behavior change:
//   MALIVA_UPDATE_GOLDEN=1 ./build/maliva_tests --gtest_filter='ReplayDriverTest.*'

#ifndef MALIVA_BENCH_REPLAY_GOLDEN_H_
#define MALIVA_BENCH_REPLAY_GOLDEN_H_

#include <cstdio>
#include <string>
#include <vector>

#include "service/service_fleet.h"
#include "workload/scenario.h"
#include "workload/trace.h"

namespace maliva {
namespace replay_golden {

inline constexpr const char* kTraceFile = "golden_trace.txt";
inline constexpr const char* kDigestFile = "golden_trace_digests.txt";

/// Twitter shard: the paper's main setting, laptop-tiny.
inline ScenarioConfig GoldenTwitterConfig() {
  ScenarioConfig cfg;
  cfg.kind = DatasetKind::kTwitter;
  cfg.num_rows = 6000;
  cfg.num_queries = 48;
  cfg.tau_ms = 500.0;
  cfg.seed = 101;
  return cfg;
}

/// TPC-H shard: a second dataset so the trace exercises fleet routing.
inline ScenarioConfig GoldenTpchConfig() {
  ScenarioConfig cfg;
  cfg.kind = DatasetKind::kTpch;
  cfg.num_rows = 6000;
  cfg.num_queries = 48;
  cfg.tau_ms = 500.0;
  cfg.seed = 303;
  cfg.profile.cardinality_scale = 600.0;
  // Sample tables so the quality-aware strategy has approximate options —
  // the trace's quality floor needs something to trip over.
  cfg.approx_sample_rates = {0.2, 0.4};
  return cfg;
}

/// Both golden scenarios, built once per fixture user (construction is the
/// expensive part; the fleet borrows them).
struct GoldenWorkload {
  Scenario twitter;
  Scenario tpch;
};

inline GoldenWorkload BuildGoldenWorkload() {
  GoldenWorkload w;
  w.twitter = BuildScenario(GoldenTwitterConfig());
  w.tpch = BuildScenario(GoldenTpchConfig());
  return w;
}

/// Deterministic shard stack: short training, single agent seed, every cache
/// plane off (per-request decisions independent of serve order).
inline ServiceConfig GoldenServiceConfig() {
  return ServiceConfig().WithTrainerIterations(6).WithAgentSeeds(1);
}

/// `admission` turns the control plane on with a gate too permissive to ever
/// degrade or shed: astronomically slack deadlines, a queue nothing here can
/// fill, a tiny near-frozen serve estimate. Every request is admitted as
/// asked, so decision bytes match the admission-off fleet — which is exactly
/// what the golden test asserts (the plane's "inert when idle" contract,
/// end to end).
inline FleetConfig GoldenFleetConfig(size_t threads, bool admission) {
  FleetConfig cfg = FleetConfig()
                        .WithDefaults(GoldenServiceConfig())
                        .WithNumThreads(threads)
                        .WithWarmupThreads(2);
  cfg.warmup_strategies = {"mdp/accurate", "baseline"};
  if (admission) {
    cfg.admission = {.enabled = true,
                     .slack_factor = 1.0e6,
                     .max_queue = 1 << 16,
                     .initial_serve_estimate_ms = 0.01,
                     .serve_estimate_alpha = 0.0005};
  }
  return cfg;
}

inline Status RegisterGolden(MalivaFleet* fleet, GoldenWorkload* workload) {
  MALIVA_RETURN_NOT_OK(fleet->RegisterScenario("twitter", &workload->twitter));
  // The tpch shard alone carries approximation rules (matching its sample
  // tables), so its stream can exercise the quality-floor fallback path.
  MALIVA_RETURN_NOT_OK(fleet->RegisterScenario(
      "tpch", &workload->tpch, [](ServiceConfig& c) {
        c.WithApproxRules({{ApproxKind::kSampleTable, 0.2},
                           {ApproxKind::kSampleTable, 0.4}});
      }));
  fleet->WaitWarmups();
  return Status::OK();
}

/// The golden trace: 48 records over three streams (weighted 2:1:1) through
/// steady / ramp / gap / flash-burst / drift phases. The tpch stream carries
/// a tighter per-request tau and a quality floor, so the digests cover the
/// tau-override and exact-fallback paths. Seed 4242 — regenerated bytes are
/// identical on every platform (std::mt19937_64 is specified behavior).
inline Trace GoldenTrace() {
  TraceBuilder builder("golden-v1", 4242);
  TraceStream twitter_mdp;
  twitter_mdp.scenario = "twitter";
  twitter_mdp.strategy = "mdp/accurate";
  twitter_mdp.weight = 2.0;
  twitter_mdp.num_queries = 24;
  TraceStream twitter_baseline;
  twitter_baseline.scenario = "twitter";
  twitter_baseline.strategy = "baseline";
  twitter_baseline.weight = 1.0;
  twitter_baseline.num_queries = 24;
  TraceStream tpch_floor;
  tpch_floor.scenario = "tpch";
  // The quality-aware strategy under a tight tau reaches for approximate
  // options, whose quality then trips the floor on some queries — the
  // exact-fallback path must be inside the digest set. 120ms sits in the
  // band where sampled plans are viable but exact ones are not, so the
  // agent actually picks approximate (at 40ms nothing is viable and the
  // rational pick is exact/quality-1.0; the floor never trips).
  tpch_floor.strategy = "quality/one-stage";
  tpch_floor.tau_ms = 120.0;
  tpch_floor.quality_floor = 0.95;
  tpch_floor.weight = 1.0;
  tpch_floor.num_queries = 24;
  builder.AddStream(twitter_mdp)
      .AddStream(twitter_baseline)
      .AddStream(tpch_floor)
      .SteadyPhase(200.0, 20)
      .RampPhase(200.0, 400.0, 12)
      .GapMs(50.0)
      .BurstPhase(8)
      .DriftPhase(300.0, 8);
  return builder.Build();
}

/// One digest per line, "%016llx", trailing newline — committed as
/// tests/data/golden_trace_digests.txt.
inline std::string FormatDigests(const std::vector<uint64_t>& digests) {
  std::string out;
  out.reserve(digests.size() * 17);
  char buf[32];
  for (uint64_t d : digests) {
    std::snprintf(buf, sizeof(buf), "%016llx\n", static_cast<unsigned long long>(d));
    out.append(buf);
  }
  return out;
}

inline bool ParseDigests(const std::string& text, std::vector<uint64_t>* out) {
  out->clear();
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    unsigned long long v = 0;
    if (std::sscanf(line.c_str(), "%llx", &v) != 1) return false;
    out->push_back(v);
  }
  return true;
}

}  // namespace replay_golden
}  // namespace maliva

#endif  // MALIVA_BENCH_REPLAY_GOLDEN_H_
