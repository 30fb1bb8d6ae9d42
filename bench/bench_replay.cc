// Trace replay: the measurement plane end to end (ISSUE 9).
//
// Not a paper figure — this measures the reproduction's own replay driver
// and cost profiler. Four phases:
//
//   0. determinism audit — the golden trace (bench/replay_golden.h) replays
//      closed-loop through the two-shard golden fleet at 1 and 4 threads,
//      with the profiler off and on, and with the (permissive) admission
//      plane on: every leg must produce the identical per-record digest
//      vector. In --smoke mode the digests are additionally compared against
//      the committed tests/data/ golden files — the CI regression check.
//   1. closed-loop capacity probe — a steady two-scenario trace replayed
//      closed-loop calibrates the offered rates and the admission budget for
//      the load phases (bench_overload's calibration, fleet-wide).
//   2. open-loop load phases — the same two-scenario mix replayed open-loop
//      through a tight admission gate at 0.5x capacity (steady), at 2x
//      capacity (overload_2x), and at 2x capacity with a queue-overflowing
//      flash burst appended (flash_burst). Per-phase ReplayReports (latency
//      percentiles, per-scenario rollups, shed/degrade counts) land in the
//      JSON.
//   3. profiled replay — the golden trace again, profiler on, reporting the
//      aggregate per-phase cost breakdown.
//
// Results land in BENCH_replay.json (override with --out); --smoke runs a
// seconds-scale variant for CI. Exit code is non-zero when any invariant
// fails.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "replay_golden.h"
#include "workload/replay_driver.h"

namespace maliva {
namespace bench {
namespace {

struct ReplayBenchOptions {
  bool smoke = false;
  std::string out_path = "BENCH_replay.json";
};

/// Two-scenario load mix: twitter at weight 2, tpch at weight 1, both on the
/// served-by-default "mdp/accurate" strategy.
Trace LoadTrace(const std::string& name, uint64_t seed, double rate_qps,
                size_t count, size_t burst, uint32_t num_queries) {
  TraceBuilder builder(name, seed);
  TraceStream twitter;
  twitter.scenario = "twitter";
  twitter.strategy = "mdp/accurate";
  twitter.weight = 2.0;
  twitter.num_queries = num_queries;
  TraceStream tpch;
  tpch.scenario = "tpch";
  tpch.strategy = "mdp/accurate";
  tpch.weight = 1.0;
  tpch.num_queries = num_queries;
  builder.AddStream(twitter).AddStream(tpch).SteadyPhase(rate_qps, count);
  if (burst > 0) builder.BurstPhase(burst);
  return builder.Build();
}

/// Phase 0 fixture: replays the golden trace closed-loop on one fleet
/// variant and returns the report (records the digest vector).
Result<ReplayReport> GoldenLeg(replay_golden::GoldenWorkload* workload,
                               size_t threads, bool admission, bool profiled) {
  FleetConfig cfg = replay_golden::GoldenFleetConfig(threads, admission);
  if (profiled) cfg.defaults.WithProfileRequests(true);
  MalivaFleet fleet(cfg);
  MALIVA_RETURN_NOT_OK(replay_golden::RegisterGolden(&fleet, workload));
  ReplayDriver driver(&fleet);
  return driver.Replay(replay_golden::GoldenTrace(), ReplayOptions());
}

bool ReadFileText(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream text;
  text << in.rdbuf();
  *out = text.str();
  return true;
}

int Run(const ReplayBenchOptions& opts) {
  const size_t kRows = opts.smoke ? 8000 : 40000;
  const size_t kQueries = opts.smoke ? 60 : 240;
  const size_t kSteady = opts.smoke ? 200 : 2000;
  const size_t kOverload = opts.smoke ? 300 : 3000;
  const size_t kBurstPre = opts.smoke ? 150 : 1500;
  const size_t kBurst = opts.smoke ? 150 : 600;
  const size_t kMaxQueue = opts.smoke ? 64 : 256;
  const size_t kThreads = 4;
  const uint32_t kTraceQueries = static_cast<uint32_t>(kQueries / 2);

  // ---- Phase 0: golden-trace determinism audit --------------------------
  PrintBanner("Phase 0 — golden trace: digest identity across fleet variants");
  replay_golden::GoldenWorkload golden = replay_golden::BuildGoldenWorkload();
  struct Leg {
    const char* label;
    size_t threads;
    bool admission;
    bool profiled;
  };
  const Leg legs[] = {
      {"1 thread", 1, false, false},
      {"4 threads", 4, false, false},
      {"4 threads + profiler", 4, false, true},
      {"4 threads + admission(permissive)", 4, true, false},
  };
  bool determinism_ok = true;
  std::vector<uint64_t> reference_digests;
  uint64_t reference_digest = 0;
  for (const Leg& leg : legs) {
    Result<ReplayReport> report =
        GoldenLeg(&golden, leg.threads, leg.admission, leg.profiled);
    if (!report.ok()) {
      std::printf("golden leg \"%s\" failed: %s\n", leg.label,
                  report.status().ToString().c_str());
      return 1;
    }
    const ReplayReport& r = report.value();
    if (reference_digests.empty()) {
      reference_digests = r.record_digests;
      reference_digest = r.digest;
      std::printf("%-36s digest %016llx (reference)\n", leg.label,
                  static_cast<unsigned long long>(r.digest));
    } else {
      bool match = r.record_digests == reference_digests;
      std::printf("%-36s digest %016llx %s\n", leg.label,
                  static_cast<unsigned long long>(r.digest),
                  match ? "match" : "MISMATCH — BUG");
      determinism_ok = determinism_ok && match;
    }
  }

  // Committed-golden comparison: CI's drift check (the files live in
  // tests/data/ at the repo root, where ci.sh runs this bench from).
  const char* golden_state = "missing";
  {
    std::string trace_text;
    std::string digest_text;
    std::string trace_path = std::string("tests/data/") + replay_golden::kTraceFile;
    std::string digest_path = std::string("tests/data/") + replay_golden::kDigestFile;
    if (ReadFileText(trace_path, &trace_text) &&
        ReadFileText(digest_path, &digest_text)) {
      golden_state = "mismatch";
      std::vector<uint64_t> committed;
      if (replay_golden::GoldenTrace().Serialize() == trace_text &&
          replay_golden::ParseDigests(digest_text, &committed) &&
          committed == reference_digests) {
        golden_state = "ok";
      }
      std::printf("committed golden files: %s\n", golden_state);
    } else {
      std::printf("committed golden files not found (run from the repo root "
                  "to enable the drift check)\n");
    }
  }

  // ---- Phase 1: closed-loop capacity probe ------------------------------
  PrintBanner("Phase 1 — closed-loop capacity probe (admission off)");
  std::printf("building twitter+tpch scenarios (%zu rows, %zu queries each)...\n",
              kRows, kQueries);
  ScenarioConfig twitter_cfg = TwitterConfig500ms();
  twitter_cfg.num_rows = kRows;
  twitter_cfg.num_queries = kQueries;
  Scenario twitter = BuildScenario(twitter_cfg);
  ScenarioConfig tpch_cfg = TpchConfig500ms();
  tpch_cfg.num_rows = kRows;
  tpch_cfg.num_queries = kQueries;
  Scenario tpch = BuildScenario(tpch_cfg);

  ServiceConfig shard_cfg = ServiceConfig().WithTrainerIterations(8).WithAgentSeeds(1);
  FleetConfig base_cfg =
      FleetConfig().WithDefaults(shard_cfg).WithNumThreads(kThreads).WithWarmupThreads(2);
  base_cfg.warmup_strategies = {"mdp/accurate", "baseline"};

  double capacity_qps = 0.0;
  {
    MalivaFleet fleet(base_cfg);
    if (!fleet.RegisterScenario("twitter", &twitter).ok()) return 1;
    if (!fleet.RegisterScenario("tpch", &tpch).ok()) return 1;
    fleet.WaitWarmups();
    ReplayDriver driver(&fleet);
    Trace probe = LoadTrace("capacity-probe", 99, 1000.0, kOverload, 0, kTraceQueries);
    ReplayOptions closed;
    closed.collect_digests = false;
    (void)driver.Replay(probe, closed);  // untimed warm pass (oracle memos)
    // Median of kProbePasses timed passes: one smoke-size pass lasts about a
    // millisecond, so a single scheduler hiccup in it would skew every rate
    // and budget calibrated from it.
    constexpr size_t kProbePasses = 5;
    std::vector<double> pass_qps;
    for (size_t pass = 0; pass < kProbePasses; ++pass) {
      Result<ReplayReport> probe_report = driver.Replay(probe, closed);
      if (!probe_report.ok() || probe_report.value().errors != 0) {
        std::printf("capacity probe failed\n");
        return 1;
      }
      pass_qps.push_back(probe_report.value().achieved_qps);
    }
    std::nth_element(pass_qps.begin(), pass_qps.begin() + kProbePasses / 2,
                     pass_qps.end());
    capacity_qps = pass_qps[kProbePasses / 2];
    std::printf("capacity: median of %zu passes of %zu records = %.0f QPS at "
                "%zu threads\n",
                kProbePasses, kOverload, capacity_qps, kThreads);
  }

  // bench_overload's calibration: wall budget of ~8 serve slots per request,
  // conservative near-frozen serve estimate so the degrade band opens before
  // the overflow shed point.
  const double serve_slot_ms = 1000.0 * static_cast<double>(kThreads) / capacity_qps;
  const double budget_ms = std::max(25.0, 8.0 * serve_slot_ms);
  const double tau_ms = twitter_cfg.tau_ms;
  const double slack_factor = budget_ms / tau_ms;
  const AdmissionConfig admission{.enabled = true,
                                  .slack_factor = slack_factor,
                                  .degrade_strategy = "baseline",
                                  .max_queue = kMaxQueue,
                                  .initial_serve_estimate_ms = budget_ms / 9.0,
                                  .serve_estimate_alpha = 0.0005};

  // ---- Phase 2: open-loop load phases -----------------------------------
  PrintBanner("Phase 2 — open-loop replay: steady / 2x overload / flash burst");
  std::printf("budget %.1fms/request (slack %.4f of tau=%.0fms), max_queue %zu\n",
              budget_ms, slack_factor, tau_ms, kMaxQueue);
  struct LoadPhase {
    const char* key;
    Trace trace;
  };
  std::vector<LoadPhase> phases;
  phases.push_back({"steady", LoadTrace("steady-half-capacity", 1111,
                                        0.5 * capacity_qps, kSteady, 0,
                                        kTraceQueries)});
  phases.push_back({"overload_2x", LoadTrace("overload-2x", 2222,
                                             2.0 * capacity_qps, kOverload, 0,
                                             kTraceQueries)});
  phases.push_back({"flash_burst", LoadTrace("flash-burst", 3333,
                                             2.0 * capacity_qps, kBurstPre,
                                             kBurst, kTraceQueries)});
  std::vector<ReplayReport> load_reports;
  std::vector<std::vector<SloStatus>> load_slo;
  for (LoadPhase& phase : phases) {
    // Fresh fleet per phase: each report starts from a cold gate (EWMA and
    // queue state do not leak across phases). The metrics plane + SLO
    // watchdog ride along (ISSUE 10): the load phases are exactly the burn
    // signal the watchdog exists to flag.
    FleetConfig gated_cfg = FleetConfig(base_cfg).WithAdmission(admission);
    gated_cfg.metrics_flush_ms = 600000;  // flushed manually after the replay
    gated_cfg.slo_watchdog = true;
    gated_cfg.slo_target_hit_rate = 0.9;
    gated_cfg.slo_min_requests = 32;
    MalivaFleet gated(gated_cfg);
    if (!gated.RegisterScenario("twitter", &twitter).ok()) return 1;
    if (!gated.RegisterScenario("tpch", &tpch).ok()) return 1;
    gated.WaitWarmups();
    ReplayDriver driver(&gated);
    ReplayOptions open;
    open.open_loop = true;
    open.collect_digests = false;
    Result<ReplayReport> report = driver.Replay(phase.trace, open);
    if (!report.ok()) {
      std::printf("phase %s failed: %s\n", phase.key,
                  report.status().ToString().c_str());
      return 1;
    }
    const ReplayReport& r = report.value();
    std::printf("%-12s %zu records in %.2fs: ok=%zu degraded=%zu "
                "shed_deadline=%zu shed_overload=%zu errors=%zu  "
                "p50/p95/p99 = %.2f/%.2f/%.2f ms\n",
                phase.key, r.records, r.wall_seconds, r.ok, r.degraded,
                r.shed_deadline, r.shed_overload, r.errors, r.p50_ms, r.p95_ms,
                r.p99_ms);
    gated.metrics_flusher()->FlushNow();
    FleetStats stats = gated.Stats();
    for (const SloStatus& slo : stats.slo) {
      std::printf("  slo %-8s served %llu of %llu verdicts (hit rate %.3f) %s\n",
                  slo.scenario.c_str(),
                  static_cast<unsigned long long>(slo.served),
                  static_cast<unsigned long long>(slo.total), slo.hit_rate,
                  slo.breached ? "BREACHED" : "ok");
    }
    load_reports.push_back(r);
    load_slo.push_back(stats.slo);
  }

  // ---- Phase 3: profiled replay -----------------------------------------
  PrintBanner("Phase 3 — profiled golden replay: per-phase cost breakdown");
  Result<ReplayReport> profiled_report = GoldenLeg(&golden, kThreads, false, true);
  if (!profiled_report.ok()) {
    std::printf("profiled replay failed: %s\n",
                profiled_report.status().ToString().c_str());
    return 1;
  }
  const ReplayReport& profiled = profiled_report.value();
  std::printf("%zu of %zu responses profiled; cumulative phase ms:\n",
              profiled.profiled, profiled.records);
  for (int p = 0; p < ProfileBreakdown::kNumPhases; ++p) {
    std::printf("  %-12s total %8.3f ms  self %8.3f ms  cached %8.3f ms\n",
                ProfileBreakdown::PhaseName(p), profiled.profile.TotalMs(p),
                profiled.profile.SelfMs(p), profiled.profile.phases[p].cached_ms);
  }

  // ---- JSON -------------------------------------------------------------
  std::FILE* f = std::fopen(opts.out_path.c_str(), "w");
  if (f == nullptr) {
    std::printf("cannot open %s for writing\n", opts.out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"bench_replay\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", opts.smoke ? "smoke" : "full");
  std::fprintf(f, "  \"determinism\": {\"match\": %s, \"golden\": \"%s\", \"digest\": \"%016llx\"},\n",
               determinism_ok ? "true" : "false", golden_state,
               static_cast<unsigned long long>(reference_digest));
  std::fprintf(f, "  \"capacity_qps\": %.1f,\n", capacity_qps);
  std::fprintf(f, "  \"budget_ms\": %.3f,\n", budget_ms);
  std::fprintf(f, "  \"max_queue\": %zu,\n", kMaxQueue);
  std::fprintf(f, "  \"phases\": {\n");
  for (size_t i = 0; i < phases.size(); ++i) {
    std::fprintf(f, "    \"%s\": %s,\n", phases[i].key,
                 load_reports[i].ToJson().c_str());
  }
  std::fprintf(f, "    \"golden_profiled\": %s\n", profiled.ToJson().c_str());
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"slo\": {\n");
  for (size_t i = 0; i < phases.size(); ++i) {
    std::fprintf(f, "    \"%s\": [", phases[i].key);
    for (size_t s = 0; s < load_slo[i].size(); ++s) {
      const SloStatus& slo = load_slo[i][s];
      std::fprintf(f,
                   "%s{\"scenario\": \"%s\", \"hit_rate\": %.4f, "
                   "\"breached\": %s}",
                   s == 0 ? "" : ", ", slo.scenario.c_str(), slo.hit_rate,
                   slo.breached ? "true" : "false");
    }
    std::fprintf(f, "]%s\n", i + 1 < phases.size() ? "," : "");
  }
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", opts.out_path.c_str());

  // ---- Acceptance -------------------------------------------------------
  bool ok = true;
  if (!determinism_ok) {
    std::printf("CHECK FAILED: golden digests differ across fleet variants\n");
    ok = false;
  }
  if (opts.smoke && std::strcmp(golden_state, "ok") != 0) {
    std::printf("CHECK FAILED: committed golden files %s\n", golden_state);
    ok = false;
  }
  const ReplayReport& steady = load_reports[0];
  const ReplayReport& overload = load_reports[1];
  const ReplayReport& burst = load_reports[2];
  if (steady.errors != 0 || overload.errors != 0 || burst.errors != 0) {
    std::printf("CHECK FAILED: unexpected errors in a load phase\n");
    ok = false;
  }
  size_t steady_refused = steady.degraded + steady.shed_deadline + steady.shed_overload;
  if (steady_refused > steady.records / 5) {
    std::printf("CHECK FAILED: steady phase at half capacity degraded/shed "
                "%zu of %zu records\n", steady_refused, steady.records);
    ok = false;
  }
  if (overload.degraded + overload.shed_deadline + overload.shed_overload == 0) {
    std::printf("CHECK FAILED: 2x overload neither degraded nor shed\n");
    ok = false;
  }
  if (burst.shed_overload == 0) {
    std::printf("CHECK FAILED: flash burst past max_queue shed nothing\n");
    ok = false;
  }
  // ISSUE 10: the watchdog must flag the 2x-overload burn and stay quiet on
  // the half-capacity steady phase.
  bool steady_breached = false;
  bool overload_breached = false;
  for (const SloStatus& slo : load_slo[0]) steady_breached |= slo.breached;
  for (const SloStatus& slo : load_slo[1]) overload_breached |= slo.breached;
  if (steady_breached) {
    std::printf("CHECK FAILED: SLO watchdog flagged the steady phase\n");
    ok = false;
  }
  if (!overload_breached) {
    std::printf("CHECK FAILED: SLO watchdog missed the 2x overload burn\n");
    ok = false;
  }
  if (profiled.profiled != profiled.records ||
      profiled.profile.TotalMs(ProfileBreakdown::kSearch) <= 0.0) {
    std::printf("CHECK FAILED: profiled replay missing breakdowns\n");
    ok = false;
  }
  std::printf("%s\n", ok ? "all replay checks passed" : "REPLAY CHECKS FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace maliva

int main(int argc, char** argv) {
  maliva::bench::ReplayBenchOptions opts;
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
