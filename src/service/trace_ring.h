// Trace-event ring + SLO watchdog: per-request structured traces and
// windowed deadline-hit-rate burn evaluation (ISSUE 10).
//
// TraceRing is an off-default, bounded, lock-striped ring of TraceEvents —
// one per completed fleet request, carrying the request fingerprint, the
// scenario, the admission verdict, the cache outcome, the selectivity-tier
// rung split, the agent snapshot version, and the queue-wait/serve wall
// times. It answers "what sequence of verdicts did request X traverse"
// post hoc: ExportJsonLines() renders the retained events (newest
// `capacity`, in append order) as JSON Lines for offline analysis.
//
// Appends stripe by sequence number, so concurrent completions contend on
// capacity/stripes-sized locks, not one. The ring stores measurement only:
// nothing here feeds back into any decision, and with capacity 0 (the
// default) the fleet never constructs a ring — the serve paths hold a single
// null check (the QueryProfiler off-mode bar).
//
// SloWatchdog turns the MetricsFlusher's windowed views into per-scenario
// deadline-hit-rate verdicts: over the newest `window_count` windows, the
// fraction of admission-gate verdicts that were actually served (admitted +
// degraded, vs shed) must stay at or above `target_hit_rate` once at least
// `min_requests` verdicts accumulated. Breaches surface in
// FleetStats::slo — flags for operators, never inputs to the gate.

#ifndef MALIVA_SERVICE_TRACE_RING_H_
#define MALIVA_SERVICE_TRACE_RING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/metrics.h"

namespace maliva {

/// One completed request, as the fleet saw it.
struct TraceEvent {
  uint64_t seq = 0;             ///< fleet-wide append order (stamped by Append)
  uint64_t fingerprint = 0;     ///< decision-context fingerprint (0 = unresolvable)
  std::string scenario;         ///< routing key the request served under
  std::string verdict;          ///< admitted|degraded|shed_deadline|shed_overload|error|fifo
  std::string cache;            ///< hit|coalesced|miss|off
  uint64_t tier_hits[3] = {0, 0, 0};  ///< ladder rungs: shared/histogram/probe
  uint64_t snapshot_version = 0;      ///< agent snapshot that served it (0 = frozen)
  double queue_wait_ms = 0.0;   ///< scheduler wait (0 off the admission path)
  double serve_ms = 0.0;        ///< host wall serve latency

  /// One JSON object (no trailing newline) — one JSONL line.
  std::string ToJson() const;
};

/// Bounded lock-striped ring of the newest `capacity` TraceEvents.
class TraceRing {
 public:
  /// Capacity rounds down to a multiple of the stripe count (at least one
  /// event per stripe); `capacity()` reports the effective bound.
  explicit TraceRing(size_t capacity, size_t stripes = 8);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Stamps `event.seq` and appends, evicting the stripe's oldest event when
  /// full. Wait-free sequence draw; per-stripe mutex for the slot write.
  void Append(TraceEvent event);

  /// The retained events in append (seq) order. Thread-safe copy; each
  /// stripe is internally consistent, the cut across stripes is
  /// consistent-enough (the monitoring contract).
  std::vector<TraceEvent> SnapshotEvents() const;

  /// JSON Lines rendering of SnapshotEvents() — one event per line,
  /// trailing newline included when any event exists.
  std::string ExportJsonLines() const;

  /// Events ever appended (retained or evicted).
  uint64_t total_appended() const { return seq_.load(std::memory_order_relaxed); }

  size_t capacity() const { return per_stripe_ * stripes_.size(); }
  size_t stripes() const { return stripes_.size(); }

 private:
  struct Stripe {
    mutable std::mutex mutex;
    std::vector<TraceEvent> events;  ///< circular once full
    size_t next = 0;                 ///< overwrite cursor
  };

  std::atomic<uint64_t> seq_{0};
  size_t per_stripe_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
};

/// SLO watchdog configuration (FleetConfig::slo_* knobs).
struct SloConfig {
  bool enabled = false;
  /// Minimum acceptable served fraction of gate verdicts per scenario.
  double target_hit_rate = 0.95;
  /// Newest flusher windows the burn is evaluated over.
  size_t window_count = 4;
  /// Verdicts a scenario must accumulate in those windows before it can
  /// breach (cold scenarios never flag on one shed request).
  uint64_t min_requests = 32;
};

/// One scenario's verdict from SloWatchdog::Evaluate.
struct SloStatus {
  std::string scenario;
  uint64_t served = 0;    ///< admitted + degraded in the evaluated windows
  uint64_t total = 0;     ///< all gate verdicts in the evaluated windows
  double hit_rate = 1.0;  ///< served / total (1 when total == 0)
  bool breached = false;  ///< total >= min_requests and hit_rate < target
};

/// Stateless evaluator over the flusher's windowed views. The admission
/// counters it reads (maliva_admission_total{scenario=...,verdict=...}) are
/// recorded by the fleet's gate path into each shard's registry.
class SloWatchdog {
 public:
  explicit SloWatchdog(SloConfig config) : config_(config) {}

  /// Per-scenario statuses over the newest config.window_count entries of
  /// `windows`, ordered by scenario id. Scenarios with zero verdicts in the
  /// evaluated span report hit_rate 1 and never breach.
  std::vector<SloStatus> Evaluate(
      const std::vector<MetricsFlusher::Window>& windows) const;

 private:
  SloConfig config_;
};

}  // namespace maliva

#endif  // MALIVA_SERVICE_TRACE_RING_H_
