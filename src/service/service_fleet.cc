#include "service/service_fleet.h"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "service/deadline_scheduler.h"
#include "util/thread_pool.h"

namespace maliva {

Status FleetConfig::Validate() const {
  // The shard-level chokepoint already guards every ServiceConfig knob; the
  // fleet adds only its own thread counts (same wrap-around rationale).
  MALIVA_RETURN_NOT_OK(defaults.Validate());
  if (num_threads > ServiceConfig::kMaxNumThreads) {
    return Status::InvalidArgument(
        "fleet num_threads must be <= " +
        std::to_string(ServiceConfig::kMaxNumThreads) + " (got " +
        std::to_string(num_threads) + "; likely an unsigned wrap-around)");
  }
  if (warmup_threads > ServiceConfig::kMaxNumThreads) {
    return Status::InvalidArgument(
        "warmup_threads must be <= " +
        std::to_string(ServiceConfig::kMaxNumThreads) + " (got " +
        std::to_string(warmup_threads) + "; likely an unsigned wrap-around)");
  }
  MALIVA_RETURN_NOT_OK(admission.Validate());
  if (slo_watchdog) {
    if (metrics_flush_ms == 0) {
      return Status::InvalidArgument(
          "slo_watchdog requires metrics_flush_ms > 0 (the burn is evaluated "
          "over the flusher's windows)");
    }
    if (!admission.enabled) {
      return Status::InvalidArgument(
          "slo_watchdog requires admission.enabled (it reads the gate's "
          "verdict counters)");
    }
    if (!(slo_target_hit_rate > 0.0) || !(slo_target_hit_rate <= 1.0)) {
      return Status::InvalidArgument(
          "slo_target_hit_rate must be within (0, 1]");
    }
    if (slo_min_requests == 0) {
      return Status::InvalidArgument(
          "slo_min_requests must be >= 1 (0 would flag scenarios that served "
          "nothing)");
    }
  }
  return Status::OK();
}

namespace {

/// Folds one shard's counters into the fleet totals. The epoch/last-reward
/// fields are per-shard quantities with no meaningful sum and stay zero;
/// online_snapshot_version carries the fleet-wide max (the headline "newest
/// model anywhere").
void AccumulateInto(ServiceStats& totals, const ServiceStats& shard) {
  totals.requests += shard.requests;
  totals.errors += shard.errors;
  totals.exact_fallbacks += shard.exact_fallbacks;
  totals.selectivities_collected += shard.selectivities_collected;
  totals.shared_hits += shard.shared_hits;
  totals.shared_published += shard.shared_published;
  totals.store_size += shard.store_size;
  totals.store_evictions += shard.store_evictions;
  // Fleet-wide histogram error is the sample-weighted mean of the shard
  // means — each shard's mean already averages over its error_samples.
  double error_mass = totals.histogram_mean_abs_rel_error *
                          static_cast<double>(totals.histogram_error_samples) +
                      shard.histogram_mean_abs_rel_error *
                          static_cast<double>(shard.histogram_error_samples);
  totals.histogram_hits += shard.histogram_hits;
  totals.probe_collections += shard.probe_collections;
  totals.histogram_error_samples += shard.histogram_error_samples;
  totals.histogram_demoted_columns += shard.histogram_demoted_columns;
  totals.histogram_mean_abs_rel_error =
      totals.histogram_error_samples == 0
          ? 0.0
          : error_mass / static_cast<double>(totals.histogram_error_samples);
  totals.result_cache_hits += shard.result_cache_hits;
  totals.result_cache_misses += shard.result_cache_misses;
  totals.result_cache_coalesced += shard.result_cache_coalesced;
  totals.result_cache_evictions += shard.result_cache_evictions;
  totals.result_cache_stale_declines += shard.result_cache_stale_declines;
  totals.result_cache_size += shard.result_cache_size;
  totals.online_transitions += shard.online_transitions;
  totals.online_transitions_dropped += shard.online_transitions_dropped;
  totals.online_transitions_pending += shard.online_transitions_pending;
  totals.online_retrains += shard.online_retrains;
  totals.online_rejected += shard.online_rejected;
  totals.online_snapshot_version =
      std::max(totals.online_snapshot_version, shard.online_snapshot_version);
  totals.admission_admitted += shard.admission_admitted;
  totals.admission_degraded += shard.admission_degraded;
  totals.admission_shed_deadline += shard.admission_shed_deadline;
  totals.admission_shed_overload += shard.admission_shed_overload;
  totals.admission_queue_wait_ms_total += shard.admission_queue_wait_ms_total;
  totals.serve_wall_ms_total += shard.serve_wall_ms_total;
}

/// The shard's registry counter for one gate verdict.
Counter* VerdictCounter(const ServeMetrics& m, AdmissionDecision decision) {
  switch (decision) {
    case AdmissionDecision::kAdmit: return m.admission_admitted;
    case AdmissionDecision::kDegrade: return m.admission_degraded;
    case AdmissionDecision::kShedDeadline: return m.admission_shed_deadline;
    case AdmissionDecision::kShedOverload: return m.admission_shed_overload;
  }
  return m.admission_admitted;  // unreachable: the switch is exhaustive
}

}  // namespace

MalivaFleet::MalivaFleet(FleetConfig config)
    : config_(std::move(config)),
      clock_origin_(std::chrono::steady_clock::now()) {
  config_status_ = config_.Validate();
  if (config_status_.ok() && config_.admission.enabled) {
    admission_ = std::make_unique<AdmissionController>(config_.admission);
  }
  if (config_status_.ok() && config_.trace_ring_capacity > 0) {
    trace_ring_ = std::make_unique<TraceRing>(config_.trace_ring_capacity);
  }
  if (config_status_.ok() && config_.metrics_flush_ms > 0) {
    // Constructed last: its thread starts immediately and snapshots the
    // shard registries through `this`, so everything it reads exists first.
    flusher_ = std::make_unique<MetricsFlusher>(
        [this] { return SnapshotMetrics(); }, config_.metrics_flush_ms);
  }
}

MalivaFleet::~MalivaFleet() = default;

size_t MalivaFleet::ResolvedNumThreads() const {
  return config_.num_threads == 0 ? ThreadPool::DefaultThreads()
                                  : config_.num_threads;
}

ThreadPool& MalivaFleet::ServePool() const {
  std::call_once(serve_pool_once_, [this] {
    serve_pool_ = std::make_unique<ThreadPool>(ResolvedNumThreads());
  });
  return *serve_pool_;
}

ThreadPool& MalivaFleet::WarmupPool() const {
  std::call_once(warmup_pool_once_,
                 [this] { warmup_pool_ = std::make_unique<ThreadPool>(config_.warmup_threads); });
  return *warmup_pool_;
}

DeadlineScheduler& MalivaFleet::Scheduler() const {
  std::call_once(scheduler_once_, [this] {
    scheduler_ = std::make_unique<DeadlineScheduler>(ResolvedNumThreads());
    // Lanes for scenarios without an explicit share are created on first
    // submit with the default weight; configured shares are seeded up front.
    for (const ScenarioShare& share : config_.admission.shares) {
      scheduler_->SetShare(share.scenario, share.weight, share.tier);
    }
  });
  return *scheduler_;
}

double MalivaFleet::NowMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - clock_origin_)
      .count();
}

void MalivaFleet::AppendTrace(const Shard& shard, const RewriteRequest& request,
                              const char* verdict,
                              const RewriteResponse* response,
                              double queue_wait_ms) const {
  if (trace_ring_ == nullptr) return;  // off: the one check every path pays
  TraceEvent event;
  event.scenario = shard.id;
  event.verdict = verdict;
  event.fingerprint = shard.service->FingerprintRequest(request);
  event.queue_wait_ms = queue_wait_ms;
  event.cache = "off";  // no response, or the shard serves without a cache
  if (response != nullptr) {
    const RequestStats& stats = response->stats;
    if (shard.service->config().result_cache) {
      event.cache = stats.result_cache_hit
                        ? (stats.result_cache_coalesced ? "coalesced" : "hit")
                        : "miss";
    }
    for (size_t rung = 0; rung < 3; ++rung) {
      event.tier_hits[rung] =
          static_cast<uint64_t>(stats.selectivity_tier_hits[rung]);
    }
    event.snapshot_version = stats.agent_snapshot_version;
    event.serve_ms = stats.serve_wall_ms;
  }
  trace_ring_->Append(std::move(event));
}

MetricsSnapshot MalivaFleet::SnapshotMetrics() const {
  MetricsSnapshot merged;
  for (const std::shared_ptr<Shard>& shard : router_.List()) {
    (void)shard->service->Stats();  // refreshes the plane-size gauges
    merged.MergeFrom(shard->service->metrics_registry().Snapshot());
  }
  return merged;
}

Status MalivaFleet::RegisterScenario(const std::string& id, Scenario* scenario) {
  return RegisterScenario(id, scenario, nullptr);
}

Status MalivaFleet::RegisterScenario(const std::string& id, Scenario* scenario,
                                     const std::function<void(ServiceConfig&)>& tune) {
  MALIVA_RETURN_NOT_OK(config_status_);
  // Cheap pre-check before constructing a whole per-scenario stack for an
  // empty/duplicate id; Insert below re-checks under the exclusive lock.
  MALIVA_RETURN_NOT_OK(router_.CheckAvailable(id));
  if (scenario == nullptr) {
    return Status::InvalidArgument("RegisterScenario requires a built scenario");
  }
  // Layer the shard's overrides over the fleet defaults, then re-validate:
  // a bad override is this registration's error, never a latent Serve error.
  ServiceConfig shard_config = config_.defaults;
  if (tune) tune(shard_config);
  // Stamp the routing key as the shard's scenario label (after tune, so an
  // explicit per-shard override wins).
  if (shard_config.metrics_scenario.empty()) shard_config.metrics_scenario = id;
  MALIVA_RETURN_NOT_OK(shard_config.Validate());

  auto shard = std::make_shared<Shard>(
      id, std::make_unique<MalivaService>(scenario, std::move(shard_config)));
  MALIVA_RETURN_NOT_OK(router_.Insert(shard));

  if (config_.warmup_threads == 0) {
    // No background warm-up: Ready immediately, strategies build lazily on
    // first use (the standalone-service behavior).
    ShardState expected = ShardState::kRegistered;
    shard->state.compare_exchange_strong(expected, ShardState::kReady);
    return Status::OK();
  }
  // Background warm-up on the fleet's own pool: training scenario N+1 never
  // blocks serves on scenarios 1..N (they only share this pool, not locks).
  // The task holds the shard alive even across a concurrent drain + evict.
  WarmupPool().Submit([shard, strategies = config_.warmup_strategies] {
    if (!shard->BeginWarmup()) return;  // drained before the warm-up began
    Status status = strategies.empty()
                        ? shard->service->Warmup()
                        : shard->service->Warmup(strategies);
    shard->set_warmup_status(std::move(status));
    shard->FinishWarmup();
  });
  return Status::OK();
}

Status MalivaFleet::DrainScenario(const std::string& id) {
  MALIVA_RETURN_NOT_OK(config_status_);
  Result<std::shared_ptr<Shard>> shard = router_.Resolve(id);
  if (!shard.ok()) return shard.status();
  shard.value()->Drain();  // idempotent: repeated drains are no-ops
  return Status::OK();
}

Status MalivaFleet::EvictScenario(const std::string& id) {
  MALIVA_RETURN_NOT_OK(config_status_);
  Result<std::shared_ptr<Shard>> shard = router_.Resolve(id);
  if (!shard.ok()) return shard.status();
  if (!shard.value()->draining()) {
    return Status::FailedPrecondition(
        "scenario \"" + id + "\" must be drained before eviction (state: " +
        ShardStateName(shard.value()->state.load()) + ")");
  }
  // Identity-checked removal: if another eviction won the race — even if a
  // fresh shard was re-registered under this id since — the removal must
  // not touch the newcomer. The loser reports NotFound (its shard is gone).
  Result<std::shared_ptr<Shard>> removed = router_.Remove(id, shard.value().get());
  return removed.ok() ? Status::OK() : removed.status();
}

Result<std::shared_ptr<Shard>> MalivaFleet::Route(const std::string& key) const {
  auto fail = [this](Status status) -> Result<std::shared_ptr<Shard>> {
    routing_errors_.fetch_add(1, std::memory_order_relaxed);
    return status;
  };
  if (!config_status_.ok()) return fail(config_status_);

  std::shared_ptr<Shard> shard;
  if (key.empty()) {
    // Single-shard convenience: a fleet hosting exactly one scenario routes
    // key-less requests there, so ported single-service callers need no
    // per-request ceremony. Ambiguous otherwise.
    shard = router_.Sole();
    if (shard == nullptr) {
      return fail(Status::InvalidArgument(
          "request names no scenario and the fleet does not host exactly one "
          "(registered scenarios: " + router_.IdsList() + ")"));
    }
  } else {
    Result<std::shared_ptr<Shard>> resolved = router_.Resolve(key);
    if (!resolved.ok()) return fail(resolved.status());
    shard = std::move(resolved).value();
  }
  if (shard->draining()) {
    return fail(Status::FailedPrecondition(
        "scenario \"" + shard->id + "\" is draining and refuses new requests"));
  }
  return shard;
}

void MalivaFleet::SubmitAdmitted(
    const std::shared_ptr<Shard>& shard, const RewriteRequest& request,
    double arrival_ms, std::function<void(Result<RewriteResponse>)> done) const {
  // Decision-tier fast path, probed *before* the gate: a cache-resident
  // answer costs no scheduler slot and no search, so a flood of duplicate
  // queries must never shed (or degrade) work the cache can answer — nor
  // count toward the backlog the gate sheds on. Hits are admitted verdicts
  // answered inline; the serve-time EWMA is left untouched (an O(1) replay
  // would talk the degrade predictor into admitting searches it cannot
  // afford).
  const ServeMetrics& sm = shard->service->serve_metrics();
  if (std::optional<RewriteResponse> cached =
          shard->service->TryServeCached(request)) {
    sm.admission_admitted->Increment();
    AppendTrace(*shard, request, "admitted", &*cached, /*queue_wait_ms=*/0.0);
    done(std::move(*cached));
    return;
  }
  const double tau =
      request.tau_ms.value_or(shard->service->scenario()->config.tau_ms);
  const double deadline_ms = admission_->DeadlineFor(arrival_ms, tau);
  DeadlineScheduler& scheduler = Scheduler();
  const AdmissionDecision decision = admission_->Decide(
      arrival_ms, deadline_ms, scheduler.QueueDepth(), scheduler.workers());
  if (decision == AdmissionDecision::kShedDeadline ||
      decision == AdmissionDecision::kShedOverload) {
    VerdictCounter(sm, decision)->Increment();
    const bool deadline_shed = decision == AdmissionDecision::kShedDeadline;
    AppendTrace(*shard, request,
                deadline_shed ? "shed_deadline" : "shed_overload",
                /*response=*/nullptr, /*queue_wait_ms=*/0.0);
    done(AdmissionController::ShedStatus(decision, shard->id, arrival_ms,
                                         deadline_ms,
                                         scheduler.QueueDepth()));
    return;
  }

  RewriteRequest effective = request;
  const bool degraded = decision == AdmissionDecision::kDegrade;
  if (degraded) effective.strategy = config_.admission.degrade_strategy;

  // Idempotent share refresh: creates the lane with its configured (or
  // default) weight on the scenario's first admitted request.
  scheduler.SetShare(shard->id, admission_->WeightFor(shard->id),
                     admission_->TierFor(shard->id));
  SchedulerJob job;
  job.deadline_ms = deadline_ms;
  job.scenario = shard->id;
  job.run = [this, shard, effective = std::move(effective), arrival_ms,
             deadline_ms, degraded, decision,
             done = std::move(done)]() mutable {
    const ServeMetrics& sm = shard->service->serve_metrics();
    const double start_ms = NowMs();
    const double queue_wait_ms = std::max(0.0, start_ms - arrival_ms);
    sm.queue_wait->Record(queue_wait_ms);
    if (start_ms >= deadline_ms) {
      // Dispatch-time recheck: the job aged out while queued. EDF makes this
      // the request that was *most* entitled to run, so everything behind it
      // is doomed too unless load lets up — shedding now still beats
      // spending a worker on an answer that already missed its budget.
      sm.admission_shed_deadline->Increment();
      AppendTrace(*shard, effective, "shed_deadline", /*response=*/nullptr,
                  queue_wait_ms);
      done(AdmissionController::ShedStatus(AdmissionDecision::kShedDeadline,
                                           shard->id, start_ms, deadline_ms,
                                           Scheduler().QueueDepth()));
      return;
    }
    Result<RewriteResponse> response = shard->service->Serve(effective);
    VerdictCounter(sm, decision)->Increment();
    admission_->RecordServeMs(NowMs() - start_ms);
    if (response.ok()) {
      response.value().stats.degraded = degraded;
      response.value().stats.queue_wait_ms = queue_wait_ms;
    }
    AppendTrace(*shard, effective,
                response.ok() ? (degraded ? "degraded" : "admitted") : "error",
                response.ok() ? &response.value() : nullptr, queue_wait_ms);
    done(std::move(response));
  };
  scheduler.Submit(std::move(job));
}

Result<RewriteResponse> MalivaFleet::Serve(const RewriteRequest& request) const {
  Result<std::shared_ptr<Shard>> shard = Route(request.scenario);
  if (!shard.ok()) return shard.status();
  if (admission_ == nullptr) {
    Result<RewriteResponse> response = shard.value()->service->Serve(request);
    AppendTrace(*shard.value(), request, response.ok() ? "fifo" : "error",
                response.ok() ? &response.value() : nullptr,
                /*queue_wait_ms=*/0.0);
    return response;
  }

  // Admission path: gate + scheduler, then block until the job (or its
  // inline shed) delivers. One-shot rendezvous owned by shared_ptr because
  // the scheduler worker may outlive this frame only on the shared state.
  struct Pending {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    std::optional<Result<RewriteResponse>> result;
  };
  auto pending = std::make_shared<Pending>();
  SubmitAdmitted(shard.value(), request, NowMs(),
                 [pending](Result<RewriteResponse> response) {
                   std::unique_lock<std::mutex> lock(pending->mutex);
                   pending->result = std::move(response);
                   pending->done = true;
                   pending->cv.notify_all();
                 });
  std::unique_lock<std::mutex> lock(pending->mutex);
  pending->cv.wait(lock, [&pending] { return pending->done; });
  return std::move(*pending->result);
}

Status MalivaFleet::ServeAsync(
    const RewriteRequest& request,
    std::function<void(Result<RewriteResponse>)> done) const {
  MALIVA_RETURN_NOT_OK(config_status_);
  if (admission_ == nullptr) {
    return Status::FailedPrecondition(
        "ServeAsync requires FleetConfig::admission.enabled (the FIFO serve "
        "paths have no completion hook)");
  }
  Result<std::shared_ptr<Shard>> shard = Route(request.scenario);
  if (!shard.ok()) {
    // Routing failures flow through `done` too: the caller always gets
    // exactly one completion per accepted call.
    done(shard.status());
    return Status::OK();
  }
  SubmitAdmitted(shard.value(), request, NowMs(), std::move(done));
  return Status::OK();
}

std::vector<Result<RewriteResponse>> MalivaFleet::ServeBatch(
    std::span<const RewriteRequest> requests) const {
  std::vector<std::optional<Result<RewriteResponse>>> slots(requests.size());
  // Null where routing failed; the slot then holds the Status.
  std::vector<std::shared_ptr<Shard>> routed(requests.size());

  // Route phase, sequential.
  for (size_t i = 0; i < requests.size(); ++i) {
    Result<std::shared_ptr<Shard>> shard = Route(requests[i].scenario);
    if (!shard.ok()) {
      slots[i] = shard.status();
      continue;
    }
    routed[i] = std::move(shard).value();
  }

  // Build phase: warm every (shard, strategy) pair the batch needs — plus
  // the exact fallback where a quality floor may trigger it — before fanning
  // out, so serve workers never contend on a build lock. Failures are not
  // cached and re-surface per request.
  {
    // The admission gate may rewrite any member to the degrade strategy.
    RewriteRequest degrade;
    if (admission_ != nullptr) degrade.strategy = config_.admission.degrade_strategy;
    std::unordered_map<Shard*, std::vector<std::string>> needed;
    for (size_t i = 0; i < requests.size(); ++i) {
      Shard* shard = routed[i].get();
      if (shard == nullptr) continue;
      const ServiceConfig& config = shard->service->config();
      AppendNeededStrategies(requests[i], config, &needed[shard]);
      if (!degrade.strategy.empty()) AppendNeededStrategies(degrade, config, &needed[shard]);
    }
    for (const auto& [shard, names] : needed) {
      for (const std::string& name : names) {
        (void)shard->service->GetRewriter(name);  // failure handled per request
      }
    }
  }

  if (admission_ != nullptr) {
    // Admission path: every member shares one arrival stamp (the batch
    // arrived together), each routed member passes the gate, and admitted
    // work dispatches EDF through the scheduler. A countdown latch over the
    // slots replaces the ParallelFor barrier; only (load-dependent) verdicts
    // and dispatch order differ from the FIFO path.
    struct BatchState {
      std::mutex mutex;
      std::condition_variable cv;
      size_t remaining = 0;
    };
    auto state = std::make_shared<BatchState>();
    for (const std::shared_ptr<Shard>& shard : routed) {
      if (shard != nullptr) ++state->remaining;
    }
    const double arrival_ms = NowMs();
    for (size_t i = 0; i < requests.size(); ++i) {
      if (routed[i] == nullptr) continue;
      SubmitAdmitted(routed[i], requests[i], arrival_ms,
                     [state, &slots, i](Result<RewriteResponse> response) {
                       std::unique_lock<std::mutex> lock(state->mutex);
                       slots[i] = std::move(response);
                       if (--state->remaining == 0) state->cv.notify_all();
                     });
    }
    std::unique_lock<std::mutex> lock(state->mutex);
    state->cv.wait(lock, [&state] { return state->remaining == 0; });
  } else {
    // Serve phase: one fan-out over the shared fleet pool, all shards at
    // once.
    auto serve_one = [this, &slots, &routed, &requests](size_t i) {
      if (routed[i] == nullptr) return;  // routing error already recorded
      slots[i] = routed[i]->service->Serve(requests[i]);
      const Result<RewriteResponse>& response = *slots[i];
      AppendTrace(*routed[i], requests[i],
                  response.ok() ? "fifo" : "error",
                  response.ok() ? &response.value() : nullptr,
                  /*queue_wait_ms=*/0.0);
    };
    if (std::min(ResolvedNumThreads(), requests.size()) <= 1) {
      for (size_t i = 0; i < requests.size(); ++i) serve_one(i);
    } else {
      ServePool().ParallelFor(requests.size(), serve_one);
    }
  }

  std::vector<Result<RewriteResponse>> responses;
  responses.reserve(requests.size());
  for (std::optional<Result<RewriteResponse>>& slot : slots) {
    assert(slot.has_value());
    responses.push_back(std::move(*slot));
  }
  return responses;
}

std::vector<ScenarioInfo> MalivaFleet::ListScenarios() const {
  std::vector<ScenarioInfo> infos;
  for (const std::shared_ptr<Shard>& shard : router_.List()) {
    ScenarioInfo info;
    info.id = shard->id;
    info.state = shard->state.load();
    info.dataset = DatasetKindName(shard->service->scenario()->config.kind);
    info.warmup = shard->warmup_status();
    info.requests = shard->service->Stats().requests;
    infos.push_back(std::move(info));
  }
  return infos;
}

FleetStats MalivaFleet::Stats() const {
  FleetStats stats;
  stats.routing_errors = routing_errors_.load(std::memory_order_relaxed);
  for (const std::shared_ptr<Shard>& shard : router_.List()) {
    // The shard's row carries its gate verdicts too: the fleet records them
    // into the shard's registry (a shed request never reaches the shard's
    // serve path, but its verdict lands there all the same).
    ServiceStats shard_stats = shard->service->Stats();
    // Merge the shard's labeled metric series (the Stats() call above just
    // refreshed its gauges); scenario labels keep shards distinguishable
    // after the merge.
    stats.metrics.MergeFrom(shard->service->metrics_registry().Snapshot());
    AccumulateInto(stats.totals, shard_stats);
    stats.shards.emplace_back(shard->id, std::move(shard_stats));
  }
  stats.scenarios = stats.shards.size();
  if (admission_ != nullptr) {
    // Counters are the sum of the registered shards' rows; the backlog and
    // the serve-time estimate are live reads of the gate.
    stats.admission.enabled = true;
    stats.admission.admitted = stats.totals.admission_admitted;
    stats.admission.degraded = stats.totals.admission_degraded;
    stats.admission.shed_deadline = stats.totals.admission_shed_deadline;
    stats.admission.shed_overload = stats.totals.admission_shed_overload;
    stats.admission.queue_wait_ms_total = stats.totals.admission_queue_wait_ms_total;
    stats.admission.queue_depth = Scheduler().QueueDepth();
    stats.admission.estimated_serve_ms = admission_->EstimatedServeMs();
  }
  if (config_.slo_watchdog && flusher_ != nullptr) {
    SloConfig slo;
    slo.enabled = true;
    slo.target_hit_rate = config_.slo_target_hit_rate;
    slo.min_requests = config_.slo_min_requests;
    stats.slo = SloWatchdog(slo).Evaluate(flusher_->Windows());
  }
  return stats;
}

Result<std::shared_ptr<const MalivaService>> MalivaFleet::ServiceFor(
    const std::string& id) const {
  Result<std::shared_ptr<Shard>> shard = router_.Resolve(id);
  if (!shard.ok()) return shard.status();
  // Aliasing shared_ptr: the caller's handle keeps the whole shard alive,
  // so a concurrent drain + evict cannot destroy the stack under it.
  const MalivaService* service = shard.value()->service.get();
  return std::shared_ptr<const MalivaService>(std::move(shard).value(), service);
}

void MalivaFleet::WaitWarmups() const {
  if (config_.warmup_threads == 0) return;  // nothing is ever scheduled
  WarmupPool().Wait();
}

}  // namespace maliva
