// MalivaFleet: many scenarios behind one routed serving facade.
//
// A MalivaService hosts exactly one scenario. The fleet hosts N of them as
// shards — each a full, isolated per-scenario stack (ServingState, shared
// selectivity store, model registry / continual trainer, metric registry) —
// and routes every request by its RewriteRequest::scenario key:
//
//   MalivaFleet fleet(FleetConfig().WithDefaults(
//       ServiceConfig().WithAgentSeeds(1)));
//   fleet.RegisterScenario("tweets", &tweets);          // fleet defaults
//   fleet.RegisterScenario("taxi", &taxi, [](ServiceConfig& c) {
//     c.cross_request_cache = true;                     // per-shard override
//   });
//   RewriteRequest req;
//   req.scenario = "taxi";
//   req.query = taxi.evaluation[0];
//   Result<RewriteResponse> resp = fleet.Serve(req);
//
// Lifecycle (see shard_router.h): RegisterScenario inserts the shard and
// schedules a background Warmup() on the fleet's warm-up pool, so
// registering scenario N+1 never blocks serves on scenarios 1..N; Drain
// refuses new serves while in-flight ones finish; Evict removes a drained
// shard (requests still holding its shared_ptr keep the stack alive).
//
// Determinism: the fleet-level ServeBatch routes a mixed-scenario batch by
// routing key and serves each request through its shard's Serve, whose
// decision depends on the request alone, so a shard's slice of the
// responses is byte-identical to serving that slice through the shard's own
// ServeBatch — at any fleet thread count, with any interleaving of other
// scenarios in the batch (the per-service contracts, fleet-wide).

#ifndef MALIVA_SERVICE_SERVICE_FLEET_H_
#define MALIVA_SERVICE_SERVICE_FLEET_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "service/admission_controller.h"
#include "service/shard_router.h"
#include "service/trace_ring.h"
#include "util/metrics.h"

namespace maliva {

class ThreadPool;          // util/thread_pool.h; pools are created lazily
class DeadlineScheduler;   // service/deadline_scheduler.h; created when
                           // admission is on

/// Configuration of one MalivaFleet. `defaults` is the base ServiceConfig
/// every shard starts from; RegisterScenario overloads layer per-shard
/// overrides on top of it (and Validate() the result, so one shard's bad
/// override cannot poison the fleet).
struct FleetConfig {
  /// Base ServiceConfig for every shard (per-shard `num_threads` is unused
  /// by fleet batches — the fleet pool below fans out mixed batches — but
  /// still applies when a shard's service is driven directly).
  ServiceConfig defaults;
  /// Workers of the fleet-level ServeBatch pool, shared by every shard.
  /// 0 = hardware concurrency; 1 = the sequential path. Mixed-batch results
  /// are byte-identical per shard at every value.
  size_t num_threads = 0;
  /// Background warm-up workers. 0 disables background warm-up entirely:
  /// shards are Ready immediately and build strategies lazily on first use.
  size_t warmup_threads = 1;
  /// Strategies each shard's background warm-up builds. Empty = every
  /// registered strategy the shard's configuration supports (Warmup()'s
  /// skip-unavailable semantics).
  std::vector<std::string> warmup_strategies;

  /// Overload control plane (DESIGN.md "Overload control plane"): a
  /// deadline-deriving admission gate plus an EDF / weighted-fair
  /// DeadlineScheduler that replaces the FIFO serve pool. Off (the default)
  /// preserves the fleet's byte-identical-at-any-thread-count serving
  /// contract exactly; on, requests can come back with the typed
  /// DeadlineExceeded/ResourceExhausted rejections or be degraded to
  /// admission.degrade_strategy (flagged in RewriteResponse::stats).
  AdmissionConfig admission;

  /// Metrics flusher cadence (DESIGN.md "Observability plane"): > 0 starts
  /// a background thread that snapshots the merged per-shard registries
  /// every `metrics_flush_ms` and retains a
  /// bounded ring of time-windowed deltas (the SLO watchdog's input;
  /// MetricsFlusher::Windows() for operators). 0 (the default) = no thread.
  size_t metrics_flush_ms = 0;
  /// Trace-event ring capacity. 0 (the default) = no ring is constructed
  /// and every serve path holds a single null check; > 0 = the fleet
  /// appends one structured TraceEvent per completed request (FIFO and
  /// admission paths alike), retaining the newest `trace_ring_capacity`.
  size_t trace_ring_capacity = 0;
  /// SLO watchdog (requires metrics_flush_ms > 0 and admission.enabled):
  /// evaluates per-scenario deadline-hit-rate burn over the flusher's
  /// newest SloConfig::window_count windows; breaches surface in
  /// FleetStats::slo.
  bool slo_watchdog = false;
  double slo_target_hit_rate = 0.95;
  uint64_t slo_min_requests = 32;

  /// Rejects fleet-level pathologies (thread-count wrap-arounds), any
  /// defect in `defaults` (ServiceConfig::Validate()), any bad admission
  /// knob (AdmissionConfig::Validate()), and inconsistent observability
  /// knobs (a watchdog without a flusher or a gate); checked once at fleet construction, a failure surfaces from
  /// every Register/Serve call.
  Status Validate() const;

  FleetConfig& WithDefaults(ServiceConfig config) {
    defaults = std::move(config);
    return *this;
  }
  FleetConfig& WithNumThreads(size_t threads) {
    num_threads = threads;
    return *this;
  }
  FleetConfig& WithWarmupThreads(size_t threads) {
    warmup_threads = threads;
    return *this;
  }
  FleetConfig& WithAdmission(AdmissionConfig config) {
    admission = std::move(config);
    return *this;
  }
};

/// One row of MalivaFleet::ListScenarios().
struct ScenarioInfo {
  std::string id;
  ShardState state = ShardState::kRegistered;
  /// Dataset behind the shard (DatasetKindName).
  std::string dataset;
  /// Background warm-up outcome: OK until the warm-up finishes (and forever
  /// when warm-up is disabled); a failure leaves the shard serving lazily
  /// but is surfaced here for operators.
  Status warmup;
  /// Requests this shard has served (errors included), from its registry's
  /// maliva_requests_total series.
  uint64_t requests = 0;
};

/// Overload-control snapshot inside FleetStats (all-zero with the plane
/// off). The counters are the sums of the registered shards' admission_*
/// rows — an evicted shard's verdicts leave the totals with its row.
struct FleetAdmissionStats {
  bool enabled = false;
  uint64_t admitted = 0;
  uint64_t degraded = 0;
  uint64_t shed_deadline = 0;
  uint64_t shed_overload = 0;
  /// Scheduler backlog (queued, undispatched jobs) at snapshot time — the
  /// gate's live load signal.
  size_t queue_depth = 0;
  double queue_wait_ms_total = 0.0;
  /// The gate's current EWMA of per-request serve wall time.
  double estimated_serve_ms = 0.0;
};

/// Fleet-wide counters: per-shard ServiceStats plus cross-shard aggregates.
struct FleetStats {
  /// Shards currently registered (draining included, evicted excluded).
  size_t scenarios = 0;
  /// Requests refused before reaching any shard: empty key with no sole
  /// shard, unknown routing keys, draining shards, misconfigured fleet.
  uint64_t routing_errors = 0;
  /// Counter sums across shards. The epoch/version/last-reward fields are
  /// per-shard quantities with no meaningful sum — `totals` carries the max
  /// for online_snapshot_version and zero for store_epoch and the
  /// last_retrain_* rewards; read the per-shard rows for those.
  ServiceStats totals;
  /// Overload control plane rollup (FleetConfig::admission).
  FleetAdmissionStats admission;
  /// Per-shard snapshots, ordered by scenario id. With admission on, each
  /// row's admission_* fields carry that shard's gate outcomes.
  std::vector<std::pair<std::string, ServiceStats>> shards;
  /// Merged per-shard metric registries: every shard's labeled counters/
  /// gauges/histograms in one snapshot, scenario label included, renderable
  /// via RenderPrometheus()/RenderJson().
  MetricsSnapshot metrics;
  /// SLO watchdog verdicts over the flusher's newest windows, ordered by
  /// scenario (empty while FleetConfig::slo_watchdog is off).
  std::vector<SloStatus> slo;
};

/// Hosts many scenarios behind one facade. Thread safety mirrors the
/// service: Serve/ServeBatch/ListScenarios/Stats are const and safe to call
/// concurrently with each other and with Register/Drain/Evict — shard
/// resolution is a shared-lock lookup, and every per-scenario stack is
/// internally synchronized.
class MalivaFleet {
 public:
  explicit MalivaFleet(FleetConfig config = FleetConfig());
  ~MalivaFleet();

  MalivaFleet(const MalivaFleet&) = delete;
  MalivaFleet& operator=(const MalivaFleet&) = delete;

  /// Registers `scenario` under routing key `id` with the fleet-default
  /// ServiceConfig, scheduling its background warm-up. The scenario is
  /// borrowed and must outlive the fleet (and any in-flight request after an
  /// eviction). Empty and duplicate ids are rejected with InvalidArgument.
  Status RegisterScenario(const std::string& id, Scenario* scenario);

  /// Same, layering per-shard overrides over the fleet defaults: `tune`
  /// receives a copy of FleetConfig::defaults to mutate. The tuned config is
  /// Validate()d before the shard is created — an invalid override is
  /// rejected here (InvalidArgument) and registers nothing.
  Status RegisterScenario(const std::string& id, Scenario* scenario,
                          const std::function<void(ServiceConfig&)>& tune);

  /// One-way gate: `id` refuses new serves from now on; in-flight requests
  /// finish undisturbed. Idempotent. NotFound for unknown ids.
  Status DrainScenario(const std::string& id);

  /// Removes a *drained* shard from the routing table (FailedPrecondition
  /// when not draining — drain first so no new request can race the
  /// removal). Requests still holding the shard finish on its stack; the
  /// stack is destroyed when the last holder lets go.
  Status EvictScenario(const std::string& id);

  /// Routes by request.scenario and serves on that shard. An empty key
  /// routes to the sole registered shard (a single-shard fleet is a drop-in
  /// MalivaService) and is InvalidArgument otherwise; unknown keys are
  /// NotFound listing every registered scenario; draining shards are
  /// FailedPrecondition.
  ///
  /// With FleetConfig::admission on, the request first passes the admission
  /// gate (arrival = now; deadline = arrival + effective tau *
  /// slack_factor, where the effective tau is the request's tau_ms or the
  /// shard scenario's default): shed requests come back as DeadlineExceeded
  /// or ResourceExhausted without touching any shard, degraded ones are
  /// served with admission.degrade_strategy (flagged in response stats),
  /// and admitted work dispatches through the EDF / weighted-fair
  /// DeadlineScheduler — this call blocks until its job completes.
  Result<RewriteResponse> Serve(const RewriteRequest& request) const;

  /// Admission-gated fire-and-forget serve: the gate runs inline (a shed
  /// request invokes `done` with its typed Status before returning), and
  /// admitted/degraded work completes on a scheduler worker, invoking
  /// `done` exactly once with the response. The open-loop bench/replay
  /// entry point — a single driver thread can offer load faster than it is
  /// served, which blocking Serve calls cannot. FailedPrecondition when
  /// admission is off (the FIFO paths have no completion hook).
  Status ServeAsync(const RewriteRequest& request,
                    std::function<void(Result<RewriteResponse>)> done) const;

  /// Serves a mixed-scenario batch: requests are routed per the rules above
  /// (failures land as per-request Status), each shard's strategies are
  /// pre-built, and the batch fans out over the fleet pool. Per shard the
  /// responses are byte-identical to that shard's own ServeBatch over its
  /// slice — at any fleet thread count.
  ///
  /// With admission on the batch routes through the gate + scheduler
  /// instead (all members share one arrival timestamp); gate decisions
  /// depend on live load, so the byte-identity contract is admission-off
  /// only.
  std::vector<Result<RewriteResponse>> ServeBatch(
      std::span<const RewriteRequest> requests) const;

  /// Introspection: every registered scenario with its lifecycle state,
  /// dataset, warm-up outcome, and served-request count; ordered by id.
  std::vector<ScenarioInfo> ListScenarios() const;

  /// Per-shard serving/knowledge/online counters plus fleet aggregates.
  FleetStats Stats() const;

  /// The shard's underlying service — stats drill-down, RetrainNow-style
  /// deterministic driving, registry access. Draining shards resolve too
  /// (operators inspect what they drain). NotFound for unknown ids. The
  /// returned shared_ptr aliases the shard, so holding it keeps the whole
  /// stack alive across a concurrent drain + evict.
  Result<std::shared_ptr<const MalivaService>> ServiceFor(const std::string& id) const;

  /// Blocks until every background warm-up scheduled so far has finished.
  /// Tests and benches use this to make Ready states deterministic; serving
  /// never requires it (cold shards build lazily).
  void WaitWarmups() const;

  const FleetConfig& config() const { return config_; }

  /// Observability plane accessors (null while the respective knob is off).
  /// The ring's SnapshotEvents/ExportJsonLines and the flusher's
  /// Windows()/FlushNow() are thread-safe.
  const TraceRing* trace_ring() const { return trace_ring_.get(); }
  MetricsFlusher* metrics_flusher() const { return flusher_.get(); }

 private:
  /// Resolves a routing key to a serveable shard (the Serve rules above).
  /// Failures count toward FleetStats::routing_errors.
  Result<std::shared_ptr<Shard>> Route(const std::string& key) const;

  /// Admission path shared by Serve/ServeAsync/ServeBatch: gate the routed
  /// request at `arrival_ms`, then either invoke `done` inline with the
  /// shed Status or submit the (possibly degraded) work to the scheduler.
  /// `done` is invoked exactly once either way.
  void SubmitAdmitted(const std::shared_ptr<Shard>& shard,
                      const RewriteRequest& request, double arrival_ms,
                      std::function<void(Result<RewriteResponse>)> done) const;

  /// Wall ms since fleet construction — the admission/deadline timeline.
  double NowMs() const;

  /// Appends one TraceEvent for a completed (or shed) request when the ring
  /// is on; a single null check when it is off. `response` may be null
  /// (shed, or the serve errored); `queue_wait_ms` is 0 off the admission
  /// path.
  void AppendTrace(const Shard& shard, const RewriteRequest& request,
                   const char* verdict, const RewriteResponse* response,
                   double queue_wait_ms) const;

  /// Merged MetricsSnapshot across every registered shard's registry — the
  /// flusher's snapshot fn.
  MetricsSnapshot SnapshotMetrics() const;

  /// FleetConfig::num_threads with 0 resolved to hardware concurrency; the
  /// one source for both ServeBatch's sequential-path gate and the pool
  /// size.
  size_t ResolvedNumThreads() const;

  ThreadPool& ServePool() const;
  ThreadPool& WarmupPool() const;
  DeadlineScheduler& Scheduler() const;

  FleetConfig config_;
  /// FleetConfig::Validate() outcome, computed once at construction.
  Status config_status_;
  /// Origin of NowMs() — the fleet's arrival/deadline timeline.
  std::chrono::steady_clock::time_point clock_origin_;

  ShardRouter router_;
  mutable std::atomic<uint64_t> routing_errors_{0};
  /// The overload gate; null while FleetConfig::admission is off.
  std::unique_ptr<AdmissionController> admission_;
  /// Trace-event ring; null while trace_ring_capacity is 0.
  std::unique_ptr<TraceRing> trace_ring_;

  mutable std::once_flag serve_pool_once_;
  mutable std::unique_ptr<ThreadPool> serve_pool_;
  /// Destroyed before the router: joining scheduled warm-ups (which hold
  /// their shard alive via shared_ptr) before the router goes away.
  mutable std::once_flag warmup_pool_once_;
  mutable std::unique_ptr<ThreadPool> warmup_pool_;
  /// Declared last: destroyed first, draining admitted jobs (which hold
  /// their shard via shared_ptr and read admission_/the clock through
  /// `this`) before anything above goes away.
  mutable std::once_flag scheduler_once_;
  mutable std::unique_ptr<DeadlineScheduler> scheduler_;
  /// Declared after the scheduler: its background thread snapshots the
  /// router's shard registries, so it must join before the router (and
  /// everything else it reads through `this`) is destroyed.
  std::unique_ptr<MetricsFlusher> flusher_;
};

}  // namespace maliva

#endif  // MALIVA_SERVICE_SERVICE_FLEET_H_
