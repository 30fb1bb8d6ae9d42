// Overload control plane: open-loop overload through the admission gate.
//
// Not a paper figure — this measures the reproduction's own overload plane
// (ISSUE 6). A closed-loop driver cannot overload a server: each in-flight
// request throttles the next, so the offered rate politely tracks capacity.
// This bench instead replays a *seeded open-loop arrival schedule*
// (ArrivalGenerator: Poisson arrivals at a configured rate, timestamps fixed
// before the run) against MalivaFleet::ServeAsync and keeps the schedule no
// matter how far behind the fleet falls. Three phases:
//
//   0. admission off — the byte-identity audit: the same batch at 1/4/8
//      fleet threads must produce identical responses (the pre-existing
//      contract the plane must not disturb);
//   1. closed-loop capacity probe — ServeBatch throughput with admission
//      off calibrates the offered rate (2x capacity) and the wall-clock
//      deadline budget for phase 2;
//   2. open-loop overload — steady 2x-capacity Poisson arrivals followed by
//      a flash burst past max_queue. The gate must shed (typed
//      DeadlineExceeded / ResourceExhausted) and degrade (forced
//      "baseline") nonzero work while the p95 latency of requests admitted
//      as asked stays within the configured budget (tau * slack_factor).
//
// Results land in BENCH_admission.json (override with --out); --smoke runs
// a seconds-scale variant for CI. Exit code is non-zero when any invariant
// fails (CI treats this bench as the overload plane's acceptance check).

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "service/service_fleet.h"
#include "util/stats.h"

namespace maliva {
namespace bench {
namespace {

struct OverloadOptions {
  bool smoke = false;
  std::string out_path = "BENCH_admission.json";
};

ServiceConfig ShardServiceConfig() {
  return ServiceConfig().WithTrainerIterations(8).WithAgentSeeds(1);
}

FleetConfig BaseFleetConfig(size_t threads) {
  FleetConfig config = FleetConfig()
                           .WithDefaults(ShardServiceConfig())
                           .WithNumThreads(threads)
                           .WithWarmupThreads(2);
  config.warmup_strategies = {"mdp/accurate", "baseline"};
  return config;
}

std::vector<RewriteRequest> MakeRequests(const Scenario& scenario, size_t n) {
  std::vector<RewriteRequest> requests;
  requests.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    RewriteRequest req;
    req.query = scenario.evaluation[i % scenario.evaluation.size()];
    req.strategy = "mdp/accurate";
    requests.push_back(req);
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
         ra.outcome.total_ms == rb.outcome.total_ms &&
         ra.outcome.viable == rb.outcome.viable &&
         ra.outcome.steps == rb.outcome.steps &&
         ra.outcome.quality == rb.outcome.quality;
}

/// Phase 0: with admission off the fleet must keep its byte-identical
/// serving contract at every thread count — the plane's "default is inert"
/// guarantee, checked end to end.
int RunOffModeAudit(Scenario& scenario, const std::vector<RewriteRequest>& requests) {
  PrintBanner("Phase 0 — admission off: byte-identity at 1/4/8 threads");
  std::vector<Result<RewriteResponse>> reference;
  for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    MalivaFleet fleet(BaseFleetConfig(threads));
    if (!fleet.RegisterScenario("twitter", &scenario).ok()) return 1;
    fleet.WaitWarmups();
    std::vector<Result<RewriteResponse>> responses = fleet.ServeBatch(requests);
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
    std::printf("threads=%zu  %zu responses  %s\n", threads, requests.size(),
                threads == 1 ? "(reference)" : (identical ? "byte-identical" : "MISMATCH — BUG"));
    if (!identical) return 1;
  }
  return 0;
}

/// One open-loop run's accounting, classified from each completion.
struct OpenLoopResult {
  std::vector<double> admitted_latency_ms;  ///< served with the asked strategy
  std::vector<double> degraded_latency_ms;  ///< served with the degrade strategy
  size_t shed_deadline = 0;
  size_t shed_overload = 0;
  size_t errors = 0;
};

/// Replays `arrivals` (virtual ms offsets) against ServeAsync on the wall
/// clock: the driver sleeps to each scheduled instant and fires — never
/// waiting for earlier requests, which is the whole point of open loop.
OpenLoopResult DriveOpenLoop(const MalivaFleet& fleet,
                             const std::vector<RewriteRequest>& requests,
                             const std::vector<double>& arrivals) {
  struct SharedState {
    std::mutex mutex;
    std::condition_variable cv;
    size_t remaining = 0;
    OpenLoopResult result;
  };
  auto state = std::make_shared<SharedState>();
  state->remaining = requests.size();

  auto origin = std::chrono::steady_clock::now();
  for (size_t i = 0; i < requests.size(); ++i) {
    auto scheduled = origin + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                  std::chrono::duration<double, std::milli>(arrivals[i]));
    std::this_thread::sleep_until(scheduled);  // no-op once the driver is "late"
    auto fired = std::chrono::steady_clock::now();
    Status st = fleet.ServeAsync(
        requests[i], [state, fired](Result<RewriteResponse> response) {
          double latency_ms = std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - fired)
                                  .count();
          std::unique_lock<std::mutex> lock(state->mutex);
          OpenLoopResult& r = state->result;
          if (response.ok()) {
            (response.value().stats.degraded ? r.degraded_latency_ms
                                             : r.admitted_latency_ms)
                .push_back(latency_ms);
          } else if (response.status().code() == Status::Code::kDeadlineExceeded) {
            ++r.shed_deadline;
          } else if (response.status().code() == Status::Code::kResourceExhausted) {
            ++r.shed_overload;
          } else {
            ++r.errors;
          }
          if (--state->remaining == 0) state->cv.notify_all();
        });
    if (!st.ok()) {
      std::printf("ServeAsync refused: %s\n", st.ToString().c_str());
      std::unique_lock<std::mutex> lock(state->mutex);
      ++state->result.errors;
      if (--state->remaining == 0) state->cv.notify_all();
    }
  }
  std::unique_lock<std::mutex> lock(state->mutex);
  state->cv.wait(lock, [&state] { return state->remaining == 0; });
  return std::move(state->result);
}

int WriteJson(const std::string& path, const OverloadOptions& opts,
              double capacity_qps, double offered_qps, double tau_ms,
              double slack_factor, double budget_ms, size_t total,
              const OpenLoopResult& r, double p50, double p95, double p99,
              const FleetStats& stats) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("cannot open %s for writing\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"bench_overload\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", opts.smoke ? "smoke" : "full");
  std::fprintf(f, "  \"scenario\": \"twitter\",\n");
  std::fprintf(f, "  \"capacity_qps\": %.1f,\n", capacity_qps);
  std::fprintf(f, "  \"offered_qps\": %.1f,\n", offered_qps);
  std::fprintf(f, "  \"tau_ms\": %.1f,\n", tau_ms);
  std::fprintf(f, "  \"slack_factor\": %.6f,\n", slack_factor);
  std::fprintf(f, "  \"budget_ms\": %.3f,\n", budget_ms);
  std::fprintf(f, "  \"requests\": %zu,\n", total);
  std::fprintf(f, "  \"admitted\": %zu,\n", r.admitted_latency_ms.size());
  std::fprintf(f, "  \"degraded\": %zu,\n", r.degraded_latency_ms.size());
  std::fprintf(f, "  \"shed_deadline\": %zu,\n", r.shed_deadline);
  std::fprintf(f, "  \"shed_overload\": %zu,\n", r.shed_overload);
  std::fprintf(f, "  \"errors\": %zu,\n", r.errors);
  std::fprintf(f, "  \"admitted_latency_ms\": {\"p50\": %.3f, \"p95\": %.3f, \"p99\": %.3f},\n",
               p50, p95, p99);
  std::fprintf(f, "  \"fleet\": {\"queue_wait_ms_total\": %.3f, \"estimated_serve_ms\": %.3f}\n",
               stats.admission.queue_wait_ms_total,
               stats.admission.estimated_serve_ms);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

int Run(const OverloadOptions& opts) {
  const size_t kRows = opts.smoke ? 8000 : 40000;
  const size_t kQueries = opts.smoke ? 60 : 240;
  const size_t kAuditBatch = opts.smoke ? 120 : 600;
  const size_t kCapacityBatch = opts.smoke ? 300 : 2000;
  const size_t kSteady = opts.smoke ? 300 : 3000;
  const size_t kBurst = opts.smoke ? 150 : 600;
  const size_t kMaxQueue = opts.smoke ? 64 : 256;
  const size_t kThreads = 4;

  std::printf("building twitter scenario (%zu rows, %zu queries)...\n", kRows, kQueries);
  ScenarioConfig cfg = TwitterConfig500ms();
  cfg.num_rows = kRows;
  cfg.num_queries = kQueries;
  Scenario scenario = BuildScenario(cfg);

  std::vector<RewriteRequest> audit_requests = MakeRequests(scenario, kAuditBatch);
  int rc = RunOffModeAudit(scenario, audit_requests);
  if (rc != 0) return rc;

  // Phase 1: closed-loop capacity probe, admission off. Also doubles as the
  // oracle warm pass for phase 2 (the plan-time memo lives on the scenario).
  PrintBanner("Phase 1 — closed-loop capacity probe (admission off)");
  double capacity_qps = 0.0;
  {
    MalivaFleet fleet(BaseFleetConfig(kThreads));
    if (!fleet.RegisterScenario("twitter", &scenario).ok()) return 1;
    fleet.WaitWarmups();
    std::vector<RewriteRequest> requests = MakeRequests(scenario, kCapacityBatch);
    (void)fleet.ServeBatch(requests);  // untimed warm pass
    Stopwatch watch;
    std::vector<Result<RewriteResponse>> responses = fleet.ServeBatch(requests);
    double seconds = watch.Seconds();
    for (const Result<RewriteResponse>& resp : responses) {
      if (!resp.ok()) {
        std::printf("serve failed: %s\n", resp.status().ToString().c_str());
        return 1;
      }
    }
    capacity_qps = static_cast<double>(kCapacityBatch) / seconds;
    std::printf("capacity: %zu requests in %.3fs = %.0f QPS at %zu threads\n",
                kCapacityBatch, seconds, capacity_qps, kThreads);
  }

  // Calibrate the overload point from the probe: offer 2x capacity; give
  // each request a wall budget of ~8 serve slots (generous enough that
  // admitted-as-asked work comfortably completes inside it, tight enough
  // that a 2x backlog forces the gate's hand). tau stays the scenario's
  // virtual 500ms budget — slack_factor maps it onto this wall budget.
  const double offered_qps = 2.0 * capacity_qps;
  const double serve_slot_ms = 1000.0 * static_cast<double>(kThreads) / capacity_qps;
  const double budget_ms = std::max(25.0, 8.0 * serve_slot_ms);
  const double tau_ms = cfg.tau_ms;
  const double slack_factor = budget_ms / tau_ms;

  PrintBanner("Phase 2 — open-loop overload at 2x capacity + flash burst");
  std::printf("offered %.0f QPS (2x capacity), budget %.1fms/request "
              "(slack_factor %.4f of tau=%.0fms), max_queue %zu\n",
              offered_qps, budget_ms, slack_factor, tau_ms, kMaxQueue);

  // The reproduction executes in virtual time, so a wall-clock serve is
  // microseconds — a real deployment spends a meaningful fraction of tau
  // rewriting. The gate therefore runs with a deliberately conservative
  // serve estimate (budget/9 per slot, near-frozen EWMA): the predicted-miss
  // degrade band opens at roughly half of max_queue, well before the
  // overflow shed point, exactly where it would sit with real rewrite
  // costs. Sheds still come from genuine queue overflow and the latency
  // check below is on really-measured wall time.
  const AdmissionConfig admission{.enabled = true,
                                  .slack_factor = slack_factor,
                                  .degrade_strategy = "baseline",
                                  .max_queue = kMaxQueue,
                                  .initial_serve_estimate_ms = budget_ms / 9.0,
                                  .serve_estimate_alpha = 0.0005};
  MalivaFleet fleet(BaseFleetConfig(kThreads).WithAdmission(admission));
  if (!fleet.RegisterScenario("twitter", &scenario).ok()) return 1;
  fleet.WaitWarmups();

  // The schedule: seeded Poisson steady state at 2x capacity, then a flash
  // burst of back-to-back arrivals that must blow past max_queue. The trace
  // is fixed before the run starts — this is what open loop means.
  const size_t total = kSteady + kBurst;
  std::vector<RewriteRequest> requests = MakeRequests(scenario, total);
  std::vector<double> arrivals;
  arrivals.reserve(total);
  ArrivalGenerator gen(offered_qps, /*seed=*/1234);
  for (size_t i = 0; i < kSteady; ++i) arrivals.push_back(gen.NextMs());
  for (size_t i = 0; i < kBurst; ++i) arrivals.push_back(arrivals[kSteady - 1]);

  Stopwatch watch;
  OpenLoopResult result = DriveOpenLoop(fleet, requests, arrivals);
  double seconds = watch.Seconds();

  const size_t admitted = result.admitted_latency_ms.size();
  const size_t degraded = result.degraded_latency_ms.size();
  const size_t shed = result.shed_deadline + result.shed_overload;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  if (admitted > 0) {
    p50 = Percentile(result.admitted_latency_ms, 50.0);
    p95 = Percentile(result.admitted_latency_ms, 95.0);
    p99 = Percentile(result.admitted_latency_ms, 99.0);
  }
  std::printf("%zu requests in %.2fs: %zu admitted, %zu degraded, "
              "%zu shed-deadline, %zu shed-overload, %zu errors\n",
              total, seconds, admitted, degraded, result.shed_deadline,
              result.shed_overload, result.errors);
  std::printf("admitted latency p50/p95/p99 = %.2f / %.2f / %.2f ms "
              "(budget %.1fms)\n", p50, p95, p99, budget_ms);

  FleetStats stats = fleet.Stats();
  std::printf("gate totals: admitted=%llu degraded=%llu shed_deadline=%llu "
              "shed_overload=%llu, est serve %.2fms\n",
              static_cast<unsigned long long>(stats.admission.admitted),
              static_cast<unsigned long long>(stats.admission.degraded),
              static_cast<unsigned long long>(stats.admission.shed_deadline),
              static_cast<unsigned long long>(stats.admission.shed_overload),
              stats.admission.estimated_serve_ms);

  rc = WriteJson(opts.out_path, opts, capacity_qps, offered_qps, tau_ms,
                 slack_factor, budget_ms, total, result, p50, p95, p99, stats);
  if (rc != 0) return rc;

  // Acceptance: overload must actually shed and degrade, and the work the
  // gate admitted as asked must stay inside its budget.
  bool ok = true;
  if (result.errors != 0) {
    std::printf("CHECK FAILED: %zu unexpected errors\n", result.errors);
    ok = false;
  }
  if (admitted == 0) {
    std::printf("CHECK FAILED: nothing admitted under overload\n");
    ok = false;
  }
  if (degraded == 0) {
    std::printf("CHECK FAILED: nothing degraded under 2x overload\n");
    ok = false;
  }
  if (shed == 0) {
    std::printf("CHECK FAILED: nothing shed despite the flash burst\n");
    ok = false;
  }
  if (admitted > 0 && p95 > budget_ms) {
    std::printf("CHECK FAILED: admitted p95 %.2fms exceeds budget %.2fms\n",
                p95, budget_ms);
    ok = false;
  }
  std::printf("%s\n", ok ? "all overload-plane checks passed" : "OVERLOAD PLANE CHECKS FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace maliva

int main(int argc, char** argv) {
  maliva::bench::OverloadOptions opts;
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
