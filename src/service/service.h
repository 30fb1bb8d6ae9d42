// MalivaService: the middleware's serving facade (see DESIGN.md).
//
// The paper's system is one service: it accepts a visualization query and a
// time budget tau and returns a rewritten query within the budget. This layer
// owns everything behind that contract — engine wiring, QTEs, option sets,
// and trained agents — and serves typed RewriteRequest -> RewriteResponse,
// with strategies selected by name through RewriterFactory.
//
//   Scenario scenario = BuildScenario(cfg);
//   MalivaService service(&scenario, ServiceConfig{.num_agent_seeds = 1});
//   service.Warmup({"mdp/accurate", "baseline"});   // optional: train now
//   RewriteRequest req;
//   req.query = scenario.evaluation[0];
//   req.strategy = "mdp/accurate";          // else trained lazily, first use
//   Result<RewriteResponse> resp = service.Serve(req);
//
// Concurrency model (two-phase, see DESIGN.md "Concurrency model"):
//   * build/train phase — Warmup (or the mutex-guarded first use of a
//     strategy) populates an immutable ServingState: engine catalog, trained
//     agents, Bao QTE, interned option sets. Published entries are frozen.
//   * serve phase — Serve is const and data-race-free; every request runs in
//     its own RewriteSession (selectivity caches, fallback accounting),
//     built only when the request misses the result cache.
//     ServeBatch fans requests out over ServiceConfig::num_threads workers
//     with results byte-identical to sequential Serve calls in request
//     order.
//   * knowledge plane (optional, ServiceConfig::cross_request_cache) — an
//     internally synchronized SharedSelectivityStore lets requests reuse the
//     selectivities earlier requests collected (canonicalized slot keys,
//     epoch-tagged to the engine catalog version). With it on, determinism
//     is per-request given a fixed store snapshot; off preserves the
//     byte-identical-at-any-thread-count contract above.
//   * online learning plane (optional, ServiceConfig::online_learning) —
//     single-agent MDP strategies serve the newest published AgentSnapshot
//     from a ModelRegistry instead of frozen weights; served episodes feed
//     observed transitions to a bounded replay sink, and a background
//     ContinualTrainer fine-tunes a cloned agent on them, publishing a new
//     snapshot version behind a validation gate. Off preserves byte-identity
//     above; on keeps each request deterministic given its snapshot.

#ifndef MALIVA_SERVICE_SERVICE_H_
#define MALIVA_SERVICE_SERVICE_H_

#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/trainer.h"
#include "query/signature.h"
#include "service/rewriter_factory.h"
#include "service/serving_state.h"
#include "service/serving_stats.h"
#include "util/metrics.h"
#include "util/status.h"
#include "workload/scenario.h"

namespace maliva {

class ThreadPool;  // util/thread_pool.h; owned pool is created lazily
class QueryProfiler;  // util/query_profiler.h

/// Configuration of one MalivaService instance; every knob has a sensible
/// default. Each plane's own tuning (store capacity, histogram resolution,
/// cache-key bins, replay sink bounds) is its component's default, not a
/// knob here.
struct ServiceConfig {
  /// QTE cost parameters. Unset means "use the scenario's parameters"
  /// (ScenarioConfig::qte); either way the resolved values are the single
  /// source of truth for every env the service builds.
  std::optional<QteParams> qte;
  /// Deep Q-learning hyper-parameters used when a strategy trains agents.
  TrainerConfig trainer;
  /// Agents trained per strategy; with two or more, the best on the
  /// validation workload is kept (hold-out validation, Section 7.1). A single
  /// agent is kept without running the validation pass.
  size_t num_agent_seeds = 2;
  /// Reward weight of efficiency vs quality for quality-aware agents (Eq 2).
  double beta = 0.5;
  /// Approximation rules for the "quality/*" strategies. Must be approximate
  /// rules only; empty means those strategies fail with FailedPrecondition.
  std::vector<ApproxRule> approx_rules;
  /// Strategy served when a request does not name one.
  std::string default_strategy = "mdp/accurate";
  /// Worker threads for ServeBatch. 0 = hardware concurrency; 1 = the
  /// sequential path. Above 1 it also lets strategy builds execute the
  /// training split's ground truth in parallel on the process-wide
  /// ThreadPool::Shared() before training; 1 spawns no thread at all.
  /// Results and trained agents are byte-identical at every thread count.
  /// Validate() rejects values above kMaxNumThreads (catches unsigned
  /// wrap-arounds like size_t(-1)).
  size_t num_threads = 0;

  /// Cross-request knowledge plane (DESIGN.md "Cross-request knowledge
  /// plane"). Off (default): every request starts with cold selectivity
  /// caches and ServeBatch results stay byte-identical at every thread
  /// count. On: requests read selectivities earlier requests collected from
  /// a SharedSelectivityStore and publish their own; each request is
  /// deterministic given a fixed store snapshot, but batch results may
  /// depend on request completion order (who publishes first).
  bool cross_request_cache = false;

  /// Histogram selectivity tier (DESIGN.md "Selectivity tiers"). Off
  /// (default): cold selectivity lookups pay the sample probe and ServeBatch
  /// stays byte-identical at every thread count. On: the sampling QTE
  /// answers slots from accurate full-table histograms
  /// (Engine::HistogramSelectivity, O(1), no table access) at the near-zero
  /// SelectivityTierConfig::histogram_cost_ms instead of the probe's unit
  /// cost, with per-column trust learned from estimate-vs-probe error;
  /// requests stay deterministic given the tier's trust state (like the
  /// shared store's snapshot semantics).
  bool histogram_selectivity = false;

  /// Rewrite-result cache (DESIGN.md "Rewrite-result cache"). Off (default):
  /// every request runs its strategy's full search and ServeBatch stays
  /// byte-identical at every thread count. On: a request whose decision
  /// context — canonical query signature, strategy, binned tau, binned
  /// quality floor, agent snapshot version, catalog epoch — was already
  /// solved replays the cached decision in O(1) (skipping QTE and agent
  /// entirely, stamped stats.result_cache_hit), concurrent identical misses
  /// coalesce behind one leader's search, and ServeBatch dedups identical
  /// contexts within a batch. Hit responses are byte-identical to the miss
  /// they were cached from; requests whose tau/floor differ only within a
  /// FingerprintOptions bin share a decision (the documented fidelity trade,
  /// like SignatureOptions::literal_bins).
  bool result_cache = false;
  /// Cached decisions retained (CLOCK/second-chance eviction, per shard).
  /// Must be > 0 when the cache is on.
  size_t result_cache_capacity = 4096;
  /// Result-cache lock shards. Must be > 0 and <= capacity when on.
  size_t result_cache_shards = 8;

  /// Online learning plane (DESIGN.md "Online learning plane"). Off
  /// (default): agents stay frozen after warm-up and ServeBatch results are
  /// byte-identical to pre-online behavior at every thread count. On:
  /// single-agent MDP strategies serve the newest published AgentSnapshot
  /// from a ModelRegistry, every served episode's transitions feed a
  /// bounded replay sink, and a background ContinualTrainer periodically
  /// fine-tunes a cloned agent on that feedback, publishing a new snapshot
  /// version when the validation gate passes. Each request stays
  /// deterministic given the snapshot it was served under.
  bool online_learning = false;
  /// Buffered transitions that trigger a background fine-tune round. Must
  /// be > 0 when online learning is on.
  size_t online_min_transitions = 512;
  /// Minibatch updates per fine-tune round. Must be > 0 when online
  /// learning is on; batch size / discount / target-sync cadence come from
  /// `trainer`.
  size_t online_gradient_steps = 48;
  /// Adam step size of fine-tune rounds, separate from the offline
  /// `trainer.learning_rate` (continual fine-tuning conventionally steps
  /// smaller than from-scratch training). Must be finite and > 0 when
  /// online learning is on.
  double online_learning_rate = 5e-4;
  /// Validation gate slack: a fine-tuned clone is published only when its
  /// mean greedy validation reward stays within this tolerance of the
  /// *offline warm-up snapshot's* reward on the same split — a fixed bar,
  /// so successive rounds keep adapting to drift while catastrophic
  /// forgetting of the base distribution is refused. Must be finite and
  /// >= 0 when online learning is on; 0 demands the warm-up level itself.
  double online_gate_tolerance = 0.05;
  /// Background fine-tune workers (0 = no background retraining; rounds
  /// then run only via ContinualTrainer::RetrainNow). Bounded by
  /// kMaxNumThreads like num_threads.
  size_t online_trainer_threads = 1;
  /// Snapshot versions the ModelRegistry retains per agent key: the offline
  /// warm-up snapshot (version 1, the rollback floor) plus the most recent
  /// versions; older middles are pruned on publish, so a long-running online
  /// shard cannot accumulate every model it ever published. Must be >= 2
  /// when online learning is on (the floor plus the serving head). Requests
  /// holding a pruned version keep it alive through their own shared_ptr.
  size_t online_max_snapshots = 8;

  /// Per-request cost profiling (DESIGN.md "Measurement plane"). Off (the
  /// default): the serve path holds one null-pointer check per would-be
  /// span, never reads a clock, and responses are byte-identical to pre-
  /// profiler behavior. On: every request carries a wall-clock phase
  /// breakdown — signature / cache probe / selectivity ladder / search /
  /// render / publish — in RequestStats::profile. The breakdown is
  /// measurement, not decision state: decision bytes stay identical with
  /// profiling on or off at every thread count.
  bool profile_requests = false;

  /// Value of the `scenario` base label stamped on every series of the
  /// service's MetricsRegistry (DESIGN.md "Observability plane"; the fleet
  /// sets this to the shard's routing key at registration). Empty = no
  /// scenario label.
  std::string metrics_scenario;

  /// Upper bound Validate() accepts for num_threads.
  static constexpr size_t kMaxNumThreads = 4096;

  /// Rejects misconfigurations with InvalidArgument instead of silently
  /// clamping: thread-count pathologies (> kMaxNumThreads), a beta outside
  /// [0, 1], and — for a plane that is on — zero capacities, zero shards,
  /// shards exceeding capacity, and non-positive or non-finite online
  /// learning knobs. Checked once at service construction; a failing config
  /// turns every Serve/Warmup call into this error.
  Status Validate() const;

  ServiceConfig& WithTrainerIterations(size_t iterations) {
    trainer.max_iterations = iterations;
    return *this;
  }
  ServiceConfig& WithAgentSeeds(size_t seeds) {
    num_agent_seeds = seeds;
    return *this;
  }
  ServiceConfig& WithApproxRules(std::vector<ApproxRule> rules) {
    approx_rules = std::move(rules);
    return *this;
  }
  ServiceConfig& WithResultCache(bool enabled) {
    result_cache = enabled;
    return *this;
  }
  ServiceConfig& WithResultCacheCapacity(size_t capacity) {
    result_cache_capacity = capacity;
    return *this;
  }
  ServiceConfig& WithProfileRequests(bool enabled) {
    profile_requests = enabled;
    return *this;
  }
};

/// Pre-resolved metric handles of one service: every pointer is resolved
/// from the service's MetricsRegistry exactly once, at construction, and is
/// never null, so recording is relaxed atomic ops only — zero map lookups
/// per request (provable via MetricsRegistry::lookups()). These handles are
/// the only store of the serving counters: Stats() reads them back. The
/// admission/queue-wait handles are recorded by the fleet's gate path (a
/// shed request never reaches the shard's own serve path); the cache
/// handles by the rewrite-result cache itself.
struct ServeMetrics {
  Counter* requests_ok = nullptr;       ///< maliva_requests_total{verdict="ok"}
  Counter* requests_error = nullptr;    ///< maliva_requests_total{verdict="error"}
  Counter* exact_fallbacks = nullptr;   ///< maliva_exact_fallbacks_total
  Counter* shared_published = nullptr;  ///< maliva_shared_published_total
  Counter* tier_shared = nullptr;       ///< maliva_selectivity_slots_total{rung="shared"}
  Counter* tier_histogram = nullptr;    ///< maliva_selectivity_slots_total{rung="histogram"}
  Counter* tier_probe = nullptr;        ///< maliva_selectivity_slots_total{rung="probe"}
  Counter* admission_admitted = nullptr;       ///< maliva_admission_total{verdict="admitted"}
  Counter* admission_degraded = nullptr;       ///< maliva_admission_total{verdict="degraded"}
  Counter* admission_shed_deadline = nullptr;  ///< maliva_admission_total{verdict="shed_deadline"}
  Counter* admission_shed_overload = nullptr;  ///< maliva_admission_total{verdict="shed_overload"}
  RewriteResultCache::Counters cache;          ///< RewriteResultCache::CountersIn
  LatencyHistogram* serve_latency = nullptr;   ///< maliva_serve_latency_ms
  LatencyHistogram* queue_wait = nullptr;      ///< maliva_queue_wait_ms
  Gauge* result_cache_entries = nullptr;       ///< maliva_result_cache_entries
  Gauge* shared_store_entries = nullptr;       ///< maliva_shared_store_entries
  Gauge* agent_snapshot_version = nullptr;     ///< maliva_agent_snapshot_version
};

/// One rewriting request.
struct RewriteRequest {
  const Query* query = nullptr;
  /// Fleet routing key: which registered scenario serves this request
  /// (service_fleet.h). An empty key routes to a single-shard fleet's sole
  /// scenario; a standalone MalivaService ignores the field entirely.
  std::string scenario;
  /// Strategy name (RewriterFactory key); empty = ServiceConfig default.
  std::string strategy;
  /// Per-request time budget; unset = the strategy's configured tau.
  std::optional<double> tau_ms;
  /// Minimum acceptable visualization quality F(r(Q), r(RQ)). When the
  /// strategy's choice falls below the floor, the service re-serves the
  /// request with the exact "baseline" strategy (quality 1) and flags it;
  /// the first attempt's planning time stays on the outcome's bill.
  std::optional<double> quality_floor;
};

// RequestStats (the per-request accounting carried on the response) lives in
// serving_stats.h: the rewrite-result cache stores a stats template per
// entry and must see the definition without this header.

/// One rewriting response.
struct RewriteResponse {
  /// Strategy that served the request (factory key, not display name); this
  /// is "baseline" when a quality floor forced the exact fallback.
  std::string strategy;
  RewriteOutcome outcome;
  /// The chosen rewrite option, owned by the service; nullptr when the plan
  /// was delegated entirely to the backend optimizer.
  const RewriteOption* option = nullptr;
  /// SQL-ish rendering of the rewritten query (hints included).
  std::string rewritten_sql;
  /// True when quality_floor forced the exact-baseline fallback.
  bool exact_fallback = false;
  /// Per-request serving stats (selectivity accounting, wall latency).
  RequestStats stats;
};

/// Owns the serving state for one scenario: QTEs, the quality oracle, interned
/// option sets, trained agents, and built strategies (the shared-immutable
/// ServingState). `scenario` is borrowed and must outlive the service.
///
/// Thread safety: Serve/ServeBatch/GetRewriter are const and safe to call
/// concurrently. Strategy builds (Warmup or lazy first use) run under an
/// exclusive internal lock; once a strategy is published it is immutable.
class MalivaService {
 public:
  MalivaService(Scenario* scenario, ServiceConfig config);
  ~MalivaService();

  MalivaService(const MalivaService&) = delete;
  MalivaService& operator=(const MalivaService&) = delete;

  /// Eagerly builds (training agents as needed) every named strategy, in
  /// order, so later Serve calls never pay training latency or contend on
  /// the build lock. Idempotent: already built strategies are no-ops. Fails
  /// on the first strategy that cannot be built.
  Status Warmup(std::span<const std::string> strategies);
  Status Warmup(std::initializer_list<std::string> strategies) {
    return Warmup(std::span<const std::string>(strategies.begin(), strategies.end()));
  }

  /// Warms every registered strategy. Strategies unavailable under this
  /// configuration (FailedPrecondition, e.g. "quality/*" without
  /// approx_rules) are skipped — each request naming one still gets that
  /// Status from Serve. Any other build error (including InvalidArgument
  /// misconfigurations) fails the warm-up.
  Status Warmup();

  /// Serves one request. Errors (unknown strategy, invalid budget, missing
  /// approximation rules, ...) come back as Status, never as a crash.
  /// Thread-safe; all per-request mutable state lives in an internal
  /// RewriteSession.
  Result<RewriteResponse> Serve(const RewriteRequest& request) const;

  /// Serves a batch over ServiceConfig::num_threads workers (1 = sequential
  /// loop). Strategies the batch needs are built once up front. Determinism:
  /// a request's decision depends on the request alone, never on its batch
  /// position or on thread interleaving, so responses are byte-identical
  /// across thread counts (including the num_threads=1 sequential loop) and
  /// equal individual Serve calls in request order.
  std::vector<Result<RewriteResponse>> ServeBatch(
      std::span<const RewriteRequest> requests) const;

  /// Returns (building and training on a miss, behind the exclusive build
  /// lock) strategy `name`. The returned pointer is stable for the service's
  /// lifetime.
  Result<const Rewriter*> GetRewriter(const std::string& name) const;

  /// Probe-only fast path for the admission plane: answers the request from
  /// the rewrite-result cache when its decision context is resident, without
  /// touching QTE, agents, or the build lock (an unbuilt strategy is simply
  /// a miss). Returns nullopt on any miss — cache off, invalid request,
  /// cold strategy, absent or stale entry — in which case nothing was
  /// counted and the caller proceeds down the normal serve path. A hit is
  /// recorded in the service's counters exactly like a served request.
  std::optional<RewriteResponse> TryServeCached(const RewriteRequest& request) const;

  /// Snapshot of the serving counters (requests, errors, fallbacks, shared
  /// hits vs local collections, cache and gate outcomes, wall latency),
  /// read from the registry handles, plus the shared store's size,
  /// evictions, and current epoch, and — with online learning on — the
  /// newest agent snapshot version, transitions collected, retrain counts,
  /// and the last round's pre/post validation rewards. Also refreshes the
  /// plane-size gauges. Thread-safe; each counter is individually exact,
  /// the snapshot is not a single atomic cut.
  ServiceStats Stats() const;

  /// Online learning plane accessors (null while
  /// ServiceConfig::online_learning is off). The trainer exposes
  /// RetrainNow/WaitIdle for deterministic test/bench control; the registry
  /// exposes snapshot chains and Rollback.
  ContinualTrainer* online_trainer() const { return state_.continual_trainer.get(); }
  ModelRegistry* model_registry() const { return state_.model_registry.get(); }

  /// The knowledge plane's shared selectivity store (null while
  /// ServiceConfig::cross_request_cache is off). Internally synchronized.
  const SharedSelectivityStore* shared_store() const { return state_.shared_store.get(); }

  /// The service's metric registry (DESIGN.md "Observability plane").
  /// serve_metrics() hands out the pre-resolved handle struct so external
  /// recorders (the fleet's gate path) never touch the registry map either.
  MetricsRegistry& metrics_registry() const { return metrics_registry_; }
  const ServeMetrics& serve_metrics() const { return serve_metrics_; }

  /// Decision-context fingerprint of `request` — the same canonicalized
  /// (signature, strategy, tau-bin, floor-bin) key the rewrite-result cache
  /// and ServeBatch's in-batch dedup use. A strategy not yet built resolves
  /// its default tau to the scenario's (what the built-in strategies
  /// default to), so the value does not move when the strategy builds.
  /// Returns 0 when the request is invalid or the service misconfigured;
  /// never builds, never counts anything. The fleet stamps it onto
  /// TraceEvents when the trace ring is enabled.
  uint64_t FingerprintRequest(const RewriteRequest& request) const;

  Scenario* scenario() { return scenario_; }
  const Scenario* scenario() const { return scenario_; }
  const ServiceConfig& config() const { return config_; }

  /// Resolved QTE cost parameters (config override or scenario defaults,
  /// jitter seed mixed from the scenario seed).
  const QteParams& qte_params() const { return qte_params_; }

  // --- hooks for strategy builders (RewriterFactory) and harnesses ---------
  //
  // TrainedAgent, TrainedBaoQte, and InternOptionSet mutate the serving
  // state and must only be called from a RewriterFactory builder — builders
  // always run under the service's exclusive build lock. The read-only hooks
  // (MakeEnv, the QTE accessors) are safe anywhere.

  /// Env wiring for core-level components: engine, oracle, option set,
  /// resolved QTE params, tau, and the quality oracle when beta < 1.
  RewriterEnv MakeEnv(const QueryTimeEstimator* qte, double beta = 1.0,
                      const RewriteOptionSet* options = nullptr) const;

  const AccurateQte* accurate_qte() const { return state_.accurate_qte.get(); }
  const SamplingQte* sampling_qte() const { return state_.sampling_qte.get(); }

  /// Trains `num_agent_seeds` agents on the scenario's training split, keeps
  /// the best by validation VQP (validating only when there are two or more
  /// to choose from), and caches it under `cache_key` (strategies
  /// sharing a key share the agent — e.g. "mdp/accurate" and the two-stage
  /// rewriter's exact stage). Builder-only: requires the build lock.
  Result<const QAgent*> TrainedAgent(const std::string& cache_key,
                                     const RewriterEnv& renv);

  /// Trains (and caches) Bao's plan-feature QTE on the training split.
  /// Builder-only: requires the build lock.
  Result<const BaoQte*> TrainedBaoQte();

  /// Takes ownership of an option set and returns a stable pointer (option
  /// sets must outlive the rewriters built over them). Builder-only:
  /// requires the build lock.
  const RewriteOptionSet* InternOptionSet(RewriteOptionSet options);

  /// Trains an MDP agent (accurate QTE) on an explicit workload and returns
  /// per-iteration stats — the learning-curve experiment (Fig 21). Does not
  /// touch the serving state.
  std::unique_ptr<QAgent> TrainAgentOn(const std::vector<const Query*>& workload,
                                       uint64_t seed,
                                       std::vector<Trainer::IterationStats>* history) const;

  /// Evaluates a trained agent's VQP over a workload (accurate QTE env).
  double EvaluateAgentVqp(const QAgent& agent,
                          const std::vector<const Query*>& workload) const;

 private:
  /// One request's decision context: the effective tau and — when a plane
  /// keys on it — the canonical query, catalog epoch and fingerprint, plus
  /// the online agent snapshot its strategy serves (null when frozen).
  struct DecisionContext {
    double tau_ms = 0.0;
    CanonicalQuery canonical;
    uint64_t epoch = 0;
    uint64_t fingerprint = 0;
    const char* agent_key = nullptr;
    PublishedModel model;
    uint64_t snapshot_version = 0;
  };

  /// The resolve stage every entry point shares: the only derivation of a
  /// request's decision context. `strategy` is what the caller already
  /// resolved for `name` — built by the serve path, looked up (possibly
  /// null: scenario tau) by the probe paths. `keyed` canonicalizes and
  /// fingerprints (under the profiler's signature span); without it the
  /// query is never canonicalized.
  DecisionContext ResolveContext(const RewriteRequest& request,
                                 const std::string& name,
                                 const Rewriter* strategy, bool keyed,
                                 QueryProfiler* prof) const;

  /// Serve body behind Serve's record step: resolve, probe, search,
  /// render, publish. Only the search builds a RewriteSession; a replayed
  /// decision returns before it.
  Result<RewriteResponse> ServeImpl(const RewriteRequest& request) const;

  /// Lock-only lookup of an already built strategy; nullptr when cold.
  /// Never builds — the cache probe paths must stay O(1).
  const Rewriter* FindBuiltRewriter(const std::string& name) const;

  /// num_threads with 0 resolved to hardware concurrency.
  size_t ResolvedNumThreads() const;

  /// The batch worker pool, created once on the first parallel ServeBatch
  /// (so purely sequential services never spawn threads).
  ThreadPool& Pool() const;

  /// PrefillTrueTimes over `queries` x `*renv.options` when
  /// ResolvedNumThreads() > 1; a one-thread service spawns no thread.
  void PrefillTrueTimes(const RewriterEnv& renv,
                        const std::vector<const Query*>& queries) const;

  Scenario* scenario_;
  const ServiceConfig config_;
  /// ServiceConfig::Validate() outcome, computed once at construction;
  /// surfaced by Serve/Warmup/GetRewriter instead of silently clamping.
  Status config_status_;
  QteParams qte_params_;

  /// The record stage, the one count per answered request: stamps
  /// `response`'s serve_wall_ms with the host wall time since `start` and
  /// counts it served, or counts an error when `response` is null. Serve,
  /// TryServeCached and ServeBatch's replay phase all return through it.
  void Record(std::chrono::steady_clock::time_point start,
              RewriteResponse* response) const;

  /// The only store of the serving counters; every serve_metrics_ handle
  /// resolves at construction, so the serve path is relaxed atomics with
  /// zero registry lookups.
  mutable MetricsRegistry metrics_registry_;
  ServeMetrics serve_metrics_;

  /// Guards mutation of `state_` (strategy builds). Reads of published
  /// entries take the shared side; entries are never removed, so pointers
  /// obtained under the lock stay valid without it.
  mutable std::shared_mutex state_mutex_;
  mutable ServingState state_;

  mutable std::once_flag pool_once_;
  mutable std::unique_ptr<ThreadPool> pool_;
};

/// Appends to `needed`, unless already there, every strategy serving
/// `request` under `config` may build: the request's strategy (or the
/// config default), then the exact "baseline" fallback when it carries a
/// quality floor. MalivaService::ServeBatch and MalivaFleet::ServeBatch
/// warm exactly these before fanning out.
void AppendNeededStrategies(const RewriteRequest& request,
                            const ServiceConfig& config,
                            std::vector<std::string>* needed);

}  // namespace maliva

#endif  // MALIVA_SERVICE_SERVICE_H_
