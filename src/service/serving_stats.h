// Serving stats: the per-request accounting carried on every response
// (RequestStats) and the service's counter view (ServiceStats).
//
// Every counter in ServiceStats is read from the service's MetricsRegistry
// (DESIGN.md "Observability plane"): each serve records into pre-resolved
// relaxed-atomic handles exactly once, and MalivaService::Stats() reads
// those same handles back. A snapshot is not a single atomic cut across
// counters, which is fine for monitoring (each counter is individually
// exact).
//
// Note the two time axes: everything in RewriteOutcome is deterministic
// *virtual* time (DESIGN.md "Virtual time"); serve latency here is host
// wall-clock time, the one quantity that must be measured, not modeled.

#ifndef MALIVA_SERVICE_SERVING_STATS_H_
#define MALIVA_SERVICE_SERVING_STATS_H_

#include <cstddef>
#include <cstdint>
#include <optional>

#include "util/query_profiler.h"

namespace maliva {

/// Per-request serving accounting carried on the response. The counters are
/// deterministic given the shared-store snapshot the request saw;
/// selectivities_collected is populated in every mode (it is the request's
/// full bill when cross_request_cache is off), while the shared_* fields
/// are identically zero with the plane off. serve_wall_ms is host
/// wall-clock time — the one non-virtual, run-varying number — and is
/// excluded from byte-identity guarantees (as are the result_cache_* flags,
/// which describe *how* the decision was obtained, not the decision).
struct RequestStats {
  /// Selectivity slots this request collected (and paid for) itself.
  size_t selectivities_collected = 0;
  /// Slots pre-seeded free from the shared store.
  size_t shared_hits = 0;
  /// Per-rung slot accounting of the selectivity ladder: [0] shared-store
  /// seeds (== shared_hits), [1] histogram-tier estimates, [2] probes
  /// (sample/true-selectivity collections, statistics fallbacks included).
  /// [1] + [2] == selectivities_collected; [1] is identically zero while
  /// ServiceConfig::histogram_selectivity is off.
  size_t selectivity_tier_hits[3] = {0, 0, 0};
  /// New entries this request contributed to the shared store.
  size_t shared_published = 0;
  /// Version of the agent snapshot that served this request; 0 when the
  /// online learning plane is off or the strategy serves frozen weights.
  uint64_t agent_snapshot_version = 0;
  /// Rewrite-result cache (service/rewrite_result_cache.h): true when this
  /// response replayed a cached decision instead of running the search. The
  /// selectivity counters above are then the *template* of the miss that
  /// computed the entry — the original search's bill, not new work.
  bool result_cache_hit = false;
  /// True when the decision came from another request's in-flight search
  /// (single-flight follower, or a ServeBatch in-batch dedup replay).
  bool result_cache_coalesced = false;
  /// Overload control plane (service_fleet.h): true when the admission gate
  /// predicted the requested strategy would miss its deadline and forced the
  /// configured degrade strategy instead. Always false off that path.
  bool degraded = false;
  /// Wall ms this request waited in the fleet's deadline scheduler between
  /// arrival and dispatch; 0 off the scheduler path.
  double queue_wait_ms = 0.0;
  /// Host wall-clock serving latency, milliseconds.
  double serve_wall_ms = 0.0;
  /// Per-phase cost breakdown (ISSUE 9): set only when this request was
  /// profiled (ServiceConfig::profile_requests). Wall-clock based and
  /// run-varying like serve_wall_ms — excluded from byte-identity; the
  /// decision bytes of a response are identical with profiling on or off.
  /// Cache-hit responses carry the hit path's own (partial) breakdown, never
  /// the template of the miss that computed the entry.
  std::optional<ProfileBreakdown> profile;
};

/// One consistent-enough snapshot of the service's serving counters. Every
/// counter field is a read of one registry series (docs/observability.md
/// maps field to series); the store_*, histogram health, result_cache_size
/// and online_* fields come from their planes at snapshot time.
struct ServiceStats {
  uint64_t requests = 0;         ///< Serve calls (batch members included)
  uint64_t errors = 0;           ///< requests answered with a non-OK Status
  uint64_t exact_fallbacks = 0;  ///< quality-floor fallbacks to "baseline"

  // Knowledge plane. selectivities_collected is meaningful in every mode
  // (with cross_request_cache off it is simply each request's full bill)
  // and always equals histogram_hits + probe_collections; the shared_* and
  // store_* fields are identically zero while the plane is off.
  uint64_t selectivities_collected = 0;  ///< slots paid for by requests
  uint64_t shared_hits = 0;              ///< slots served free from the store
  uint64_t shared_published = 0;         ///< new entries contributed
  uint64_t store_size = 0;               ///< resident entries at snapshot time
  uint64_t store_evictions = 0;          ///< FIFO evictions so far
  uint64_t store_epoch = 0;              ///< engine catalog version at snapshot

  // Selectivity ladder (DESIGN.md "Selectivity tiers"). histogram_hits and
  // probe_collections split selectivities_collected by rung: slots answered
  // O(1) from full-table histograms vs slots that paid a sample probe (or
  // statistics fallback). histogram_hits is identically zero while
  // ServiceConfig::histogram_selectivity is off; the health fields below it
  // come from the tier's trust windows at snapshot time.
  uint64_t histogram_hits = 0;        ///< slots answered by the histogram tier
  uint64_t probe_collections = 0;     ///< slots that paid a probe
  double histogram_mean_abs_rel_error = 0.0;  ///< windowed estimate-vs-probe error
  uint64_t histogram_error_samples = 0;       ///< samples behind that mean
  uint64_t histogram_demoted_columns = 0;     ///< columns demoted to probing

  // Rewrite-result cache (DESIGN.md "Rewrite-result cache"; identically
  // zero while ServiceConfig::result_cache is off), counted by the cache
  // itself. hits and misses partition the cache probes: replayed from a
  // resident entry (the admission gate's inline probe included), or not —
  // leader, solo, or single-flight follower. coalesced counts requests
  // served by another request's search: single-flight followers (also
  // counted as misses) and ServeBatch in-batch dedup replays (never
  // probed). stale_declines counts fingerprint matches refused because
  // their epoch or snapshot context had moved on — the O(1) invalidation
  // at work.
  uint64_t result_cache_hits = 0;       ///< probes replayed from an entry
  uint64_t result_cache_misses = 0;     ///< probes that found no live entry
  uint64_t result_cache_coalesced = 0;  ///< served by another's search
  uint64_t result_cache_evictions = 0;  ///< entries the CLOCK hand dropped
  uint64_t result_cache_stale_declines = 0;  ///< context-mismatch refusals
  uint64_t result_cache_size = 0;       ///< resident entries at snapshot time

  // Online learning plane (identically zero while ServiceConfig::
  // online_learning is off). online_snapshot_version is the newest
  // published agent snapshot across agent keys (1 = offline warm-up weights
  // only); the last_retrain_* rewards are the validation gate's evidence
  // from the most recent fine-tune round, whether it published or was
  // rejected.
  uint64_t online_transitions = 0;       ///< serving transitions recorded
  uint64_t online_transitions_dropped = 0;  ///< evicted before training
  uint64_t online_transitions_pending = 0;  ///< buffered, awaiting a round
  uint64_t online_retrains = 0;          ///< fine-tune rounds published
  uint64_t online_rejected = 0;          ///< rounds refused by the gate, dropped, or thrown
  uint64_t online_snapshot_version = 0;  ///< newest agent snapshot version
  double last_retrain_reward_pre = 0.0;  ///< incumbent validation reward
  double last_retrain_reward_post = 0.0; ///< fine-tuned clone's reward

  // Overload control plane (identically zero for a standalone MalivaService
  // and while FleetConfig::admission is off). The fleet's admission gate
  // records each verdict and queue wait into the shard's registry — shed
  // requests are refused before reaching the shard's serve path, so they
  // are counted here but never in `requests`.
  uint64_t admission_admitted = 0;       ///< gate verdicts: served as asked
  uint64_t admission_degraded = 0;       ///< served with the degrade strategy
  uint64_t admission_shed_deadline = 0;  ///< refused: deadline unmakeable
  uint64_t admission_shed_overload = 0;  ///< refused: queue at capacity
  double admission_queue_wait_ms_total = 0.0;  ///< summed scheduler queue wait

  double serve_wall_ms_total = 0.0;  ///< summed host wall-clock serve latency
  // The two wall sums are the latency histograms' sums: each sample is
  // rounded to the nearest microsecond (the exported `_sum` exactly).

  /// Fraction of needed selectivities that came free from the shared store.
  double SharedHitRatio() const {
    uint64_t total = shared_hits + selectivities_collected;
    return total == 0 ? 0.0 : static_cast<double>(shared_hits) / static_cast<double>(total);
  }

  double MeanServeWallMs() const {
    return requests == 0 ? 0.0 : serve_wall_ms_total / static_cast<double>(requests);
  }
};

}  // namespace maliva

#endif  // MALIVA_SERVICE_SERVING_STATS_H_
