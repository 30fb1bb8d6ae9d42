// ReplayDriver: fires a Trace through a MalivaFleet and aggregates what
// came back (ISSUE 9).
//
// Two drive modes:
//   * closed-loop (default) — the whole trace goes through
//     MalivaFleet::ServeBatch at once, arrival offsets ignored. This is the
//     deterministic mode: with admission off, responses are byte-identical
//     at any fleet thread count (the ServeBatch contract), so the per-record
//     response digests are a golden regression baseline for the entire
//     rewrite stack.
//   * open-loop — a dispatcher thread maps arrival offsets onto wall time
//     (scaled by ReplayOptions::time_scale) and fires each record through
//     MalivaFleet::ServeAsync on schedule, never waiting for completions:
//     the trace keeps offering load no matter how far behind the fleet
//     falls. Requires FleetConfig::admission (ServeAsync's precondition);
//     sheds and degrades are what the mode exists to measure.
//
// Either way the driver folds responses into a ReplayReport: latency
// percentiles, per-scenario rollups, shed/degrade/cache-hit counts, an
// aggregate profiler breakdown when profiling was on, and (optionally) the
// per-record digest vector whose combined hash is the golden-trace check.

#ifndef MALIVA_WORKLOAD_REPLAY_DRIVER_H_
#define MALIVA_WORKLOAD_REPLAY_DRIVER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "service/service_fleet.h"
#include "util/metrics.h"
#include "util/query_profiler.h"
#include "util/status.h"
#include "workload/trace.h"

namespace maliva {

struct ReplayOptions {
  /// false = closed-loop ServeBatch (deterministic, offsets ignored);
  /// true = open-loop ServeAsync on the trace's schedule (admission only).
  bool open_loop = false;
  /// Open-loop wall-time multiplier for virtual arrival offsets: 1.0 replays
  /// the trace in real time, 0.5 twice as fast. Must be > 0 in open loop.
  double time_scale = 1.0;
  /// Compute per-record response digests (ReplayReport::record_digests).
  /// Cheap; off only when replaying for load alone.
  bool collect_digests = true;
};

/// Per-scenario slice of a replay.
struct ScenarioRollup {
  size_t records = 0;
  size_t ok = 0;
  size_t errors = 0;           ///< non-OK other than the typed sheds
  size_t degraded = 0;
  size_t shed_deadline = 0;
  size_t shed_overload = 0;
  size_t result_cache_hits = 0;
  size_t exact_fallbacks = 0;
  double qps = 0.0;            ///< this scenario's achieved rate
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

/// Everything a replay measured. Latency is wall-clock and run-varying; the
/// digest fields are decision bytes only and — closed-loop, admission off —
/// run-invariant (the golden-trace regression contract).
struct ReplayReport {
  std::string trace_name;
  std::string mode;            ///< "closed_loop" | "open_loop"
  size_t records = 0;
  double trace_span_ms = 0.0;  ///< virtual span of the trace
  double wall_seconds = 0.0;   ///< host wall clock the replay took
  double offered_qps = 0.0;    ///< trace records over its (scaled) span
  double achieved_qps = 0.0;   ///< completions over wall_seconds

  size_t ok = 0;
  size_t errors = 0;
  size_t degraded = 0;
  size_t shed_deadline = 0;
  size_t shed_overload = 0;
  size_t result_cache_hits = 0;
  size_t result_cache_coalesced = 0;
  size_t exact_fallbacks = 0;

  /// Serve-latency percentiles over OK responses (closed-loop: the service's
  /// serve_wall_ms; open-loop: completion wall time minus scheduled arrival,
  /// so scheduler queueing is included). Estimated from `latency_hist` —
  /// the same log-linear LatencyHistogram the metrics plane serves — with
  /// <= ~1% relative error against an exact sort (the ISSUE 10 bound).
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  /// The full latency distribution behind the percentiles (count, sum,
  /// extrema, sparse log-linear buckets); mergeable across reports.
  HistogramSnapshot latency_hist;

  /// Aggregate phase breakdown over the `profiled` responses that carried
  /// one (ServiceConfig::profile_requests); zero when profiling was off.
  size_t profiled = 0;
  ProfileBreakdown profile;

  /// Rollups keyed by resolved scenario id (a trace stream's empty scenario
  /// resolves to the sole shard's id).
  std::map<std::string, ScenarioRollup> scenarios;

  /// Per-record decision digests in trace order (ReplayOptions::
  /// collect_digests), and their order-sensitive combination.
  std::vector<uint64_t> record_digests;
  uint64_t digest = 0;

  /// JSON object string (no trailing newline) — nestable into a bench's
  /// BENCH_*.json phase entry. Omits record_digests (bulk); carries the
  /// combined digest as hex.
  std::string ToJson() const;
};

/// Drives traces through a borrowed fleet (which must outlive the driver).
class ReplayDriver {
 public:
  explicit ReplayDriver(const MalivaFleet* fleet) : fleet_(fleet) {}

  /// Replays `trace` per `options`. Fails without serving anything when the
  /// trace fails Validate(), a stream's scenario cannot be routed, or
  /// open_loop is requested of an admission-off fleet.
  Result<ReplayReport> Replay(const Trace& trace,
                              const ReplayOptions& options = ReplayOptions()) const;

  /// FNV-1a over a response's *decision* bytes: status code for failures;
  /// strategy, rewritten SQL, outcome fields (doubles as bit patterns), and
  /// the exact-fallback flag for successes. RequestStats is excluded —
  /// wall-clock latency and cache/profile provenance describe how the
  /// decision was obtained, not the decision, and must not break golden
  /// comparisons.
  static uint64_t ResponseDigest(const Result<RewriteResponse>& response);

  /// Order-sensitive combination of per-record digests into one hash.
  static uint64_t CombineDigests(const std::vector<uint64_t>& digests);

 private:
  /// One resolved trace record: the request plus its rollup key.
  struct ResolvedRecord {
    RewriteRequest request;
    std::string scenario_key;
  };

  /// Maps records onto requests: resolves each stream's scenario to a shard
  /// (empty = sole shard), its query_index onto the shard scenario's
  /// evaluation split (mod size), and stamps strategy/tau/floor.
  Result<std::vector<ResolvedRecord>> BuildRequests(const Trace& trace) const;

  const MalivaFleet* fleet_;
};

}  // namespace maliva

#endif  // MALIVA_WORKLOAD_REPLAY_DRIVER_H_
