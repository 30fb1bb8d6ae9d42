#include "service/service.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <mutex>
#include <string>
#include <utility>

#include "baselines/bao.h"
#include "baselines/baseline.h"
#include "qte/accurate_qte.h"
#include "qte/sampling_qte.h"
#include "quality/quality.h"
#include "query/rewritten_query.h"
#include "util/query_profiler.h"
#include "util/thread_pool.h"

namespace maliva {

Status ServiceConfig::Validate() const {
  // One chokepoint for configuration pathologies: reject with
  // InvalidArgument instead of clamping, so misconfigurations surface at the
  // first Serve/Warmup call rather than silently changing behaviour.
  if (num_threads > kMaxNumThreads) {
    return Status::InvalidArgument(
        "num_threads must be <= " + std::to_string(kMaxNumThreads) + " (got " +
        std::to_string(num_threads) + "; likely an unsigned wrap-around)");
  }
  if (!(beta >= 0.0 && beta <= 1.0)) {
    return Status::InvalidArgument("beta must be within [0, 1] (Eq 2 weight)");
  }
  if (result_cache) {
    if (result_cache_capacity == 0) {
      return Status::InvalidArgument(
          "result_cache requires result_cache_capacity > 0");
    }
    if (result_cache_shards == 0) {
      return Status::InvalidArgument(
          "result_cache requires result_cache_shards > 0");
    }
    if (result_cache_shards > result_cache_capacity) {
      return Status::InvalidArgument(
          "result_cache_shards (" + std::to_string(result_cache_shards) +
          ") must not exceed result_cache_capacity (" +
          std::to_string(result_cache_capacity) + ")");
    }
  }
  if (online_learning) {
    if (online_min_transitions == 0) {
      return Status::InvalidArgument(
          "online_learning requires online_min_transitions > 0");
    }
    const size_t replay_capacity = ContinualTrainer::Config{}.replay_capacity;
    if (online_min_transitions > replay_capacity) {
      return Status::InvalidArgument(
          "online_min_transitions (" + std::to_string(online_min_transitions) +
          ") must not exceed the replay sink's capacity (" +
          std::to_string(replay_capacity) +
          "): the sink could never reach the retrain trigger");
    }
    if (online_gradient_steps == 0) {
      return Status::InvalidArgument(
          "online_learning requires online_gradient_steps > 0");
    }
    if (!(online_learning_rate > 0.0) || !std::isfinite(online_learning_rate)) {
      return Status::InvalidArgument(
          "online_learning_rate must be finite and positive");
    }
    // Fine-tune rounds copy these trainer fields, so the chokepoint guards
    // them here: target_sync_every is a modulo divisor and batch_size of 0
    // would silently turn every round into a no-op.
    if (trainer.target_sync_every == 0) {
      return Status::InvalidArgument(
          "online_learning requires trainer.target_sync_every > 0");
    }
    if (trainer.batch_size == 0) {
      return Status::InvalidArgument(
          "online_learning requires trainer.batch_size > 0");
    }
    if (!(online_gate_tolerance >= 0.0) || !std::isfinite(online_gate_tolerance)) {
      return Status::InvalidArgument(
          "online_gate_tolerance must be finite and non-negative");
    }
    if (online_trainer_threads > kMaxNumThreads) {
      return Status::InvalidArgument(
          "online_trainer_threads must be <= " + std::to_string(kMaxNumThreads) +
          " (got " + std::to_string(online_trainer_threads) +
          "; likely an unsigned wrap-around)");
    }
    if (online_max_snapshots < 2) {
      return Status::InvalidArgument(
          "online_max_snapshots must be >= 2 (the warm-up snapshot, version 1, "
          "plus the serving head; got " + std::to_string(online_max_snapshots) +
          ")");
    }
  }
  return Status::OK();
}

namespace {

MetricLabels ScenarioLabel(const std::string& scenario) {
  if (scenario.empty()) return {};
  return {{"scenario", scenario}};
}

}  // namespace

MalivaService::MalivaService(Scenario* scenario, ServiceConfig config)
    : scenario_(scenario),
      config_(std::move(config)),
      metrics_registry_(ScenarioLabel(config_.metrics_scenario)) {
  assert(scenario_ != nullptr && "MalivaService requires a built scenario");
  // Resolve every counter handle exactly once, here, before any plane that
  // records into them exists: after construction the serve path records
  // through raw pointers — zero registry map lookups per request
  // (metrics_test asserts this via lookups()).
  MetricsRegistry& reg = metrics_registry_;
  ServeMetrics& m = serve_metrics_;
  m.requests_ok = reg.GetCounter("maliva_requests_total", {{"verdict", "ok"}});
  m.requests_error = reg.GetCounter("maliva_requests_total", {{"verdict", "error"}});
  m.exact_fallbacks = reg.GetCounter("maliva_exact_fallbacks_total");
  m.shared_published = reg.GetCounter("maliva_shared_published_total");
  m.tier_shared = reg.GetCounter("maliva_selectivity_slots_total", {{"rung", "shared"}});
  m.tier_histogram =
      reg.GetCounter("maliva_selectivity_slots_total", {{"rung", "histogram"}});
  m.tier_probe = reg.GetCounter("maliva_selectivity_slots_total", {{"rung", "probe"}});
  m.admission_admitted =
      reg.GetCounter("maliva_admission_total", {{"verdict", "admitted"}});
  m.admission_degraded =
      reg.GetCounter("maliva_admission_total", {{"verdict", "degraded"}});
  m.admission_shed_deadline =
      reg.GetCounter("maliva_admission_total", {{"verdict", "shed_deadline"}});
  m.admission_shed_overload =
      reg.GetCounter("maliva_admission_total", {{"verdict", "shed_overload"}});
  m.cache = RewriteResultCache::CountersIn(&reg);
  m.serve_latency = reg.GetHistogram("maliva_serve_latency_ms");
  m.queue_wait = reg.GetHistogram("maliva_queue_wait_ms");
  m.result_cache_entries = reg.GetGauge("maliva_result_cache_entries");
  m.shared_store_entries = reg.GetGauge("maliva_shared_store_entries");
  m.agent_snapshot_version = reg.GetGauge("maliva_agent_snapshot_version");

  if (config_.qte.has_value()) {
    qte_params_ = *config_.qte;  // explicit override wins, jitter seed included
  } else {
    qte_params_ = scenario_->config.qte;
    // The jitter stream is tied to the scenario seed so rebuilding the
    // service over the same scenario reproduces every estimation cost.
    qte_params_.jitter_seed = scenario_->config.seed ^ 0x6a697474;
  }
  state_.accurate_qte = std::make_unique<AccurateQte>();
  state_.sampling_qte = std::make_unique<SamplingQte>();
  state_.quality_oracle = std::make_unique<QualityOracle>(scenario_->engine.get());

  config_status_ = config_.Validate();
  if (config_status_.ok() && config_.cross_request_cache) {
    state_.shared_store =
        std::make_unique<SharedSelectivityStore>(SharedSelectivityStore::Config{});
  }
  if (config_status_.ok() && config_.result_cache) {
    RewriteResultCache::Config cache_config;
    cache_config.capacity = config_.result_cache_capacity;
    cache_config.shards = config_.result_cache_shards;
    state_.result_cache =
        std::make_unique<RewriteResultCache>(cache_config, serve_metrics_.cache);
  }
  if (config_status_.ok() && config_.histogram_selectivity) {
    state_.selectivity_tier = std::make_unique<SelectivityTier>(
        scenario_->engine.get(), SelectivityTierConfig{});
  }
  if (config_status_.ok() && config_.online_learning) {
    state_.model_registry =
        std::make_unique<ModelRegistry>(config_.online_max_snapshots);
    ContinualTrainer::Config trainer_config;
    trainer_config.min_transitions = config_.online_min_transitions;
    trainer_config.gradient_steps = config_.online_gradient_steps;
    trainer_config.batch_size = config_.trainer.batch_size;
    trainer_config.learning_rate = config_.online_learning_rate;
    trainer_config.gamma = config_.trainer.gamma;
    trainer_config.target_sync_every = config_.trainer.target_sync_every;
    trainer_config.gate_tolerance = config_.online_gate_tolerance;
    trainer_config.eps_start = config_.trainer.eps_start;
    trainer_config.eps_end = config_.trainer.eps_end;
    trainer_config.eps_decay_steps = config_.trainer.eps_decay_steps;
    trainer_config.seed = config_.trainer.seed ^ 0x6f6e6c696eULL;  // "onlin"
    trainer_config.background_threads = config_.online_trainer_threads;
    state_.continual_trainer = std::make_unique<ContinualTrainer>(
        state_.model_registry.get(), trainer_config);
  }
}

MalivaService::~MalivaService() = default;

namespace {

// Agent cache keys, defined once and shared by the strategy builders (below),
// the strategy -> key mapping of the online plane, and the online-learnable
// gate — so a renamed key cannot silently strand a strategy on frozen
// weights.
constexpr const char kAgentKeyExactAccurate[] = "agent/exact-accurate";
constexpr const char kAgentKeyExactSampling[] = "agent/exact-sampling";
constexpr const char kAgentKeyQualityOneStage[] = "agent/quality-one-stage";
constexpr const char kAgentKeyQualityTwoStage[] = "agent/quality-two-stage";

/// The single table of online-learnable strategies: which strategies read
/// snapshots, and under which agent key. Single-agent MDP strategies only —
/// the two-stage rewriter coordinates two agents and serves its frozen
/// construction-time pair, and the non-agent strategies (baseline/naive/
/// bao) have nothing to fine-tune. Both lookups below consult this one
/// table, so the strategy->key map and the learnable-key predicate cannot
/// drift apart.
struct OnlineStrategyEntry {
  const char* strategy;
  const char* agent_key;
};
constexpr OnlineStrategyEntry kOnlineStrategies[] = {
    {"mdp/accurate", kAgentKeyExactAccurate},
    {"mdp/sampling", kAgentKeyExactSampling},
    {"quality/one-stage", kAgentKeyQualityOneStage},
};

/// Agent cache key an online-enabled request reads its snapshot from
/// (nullptr = the strategy serves frozen weights).
const char* OnlineAgentKeyFor(const std::string& strategy) {
  for (const OnlineStrategyEntry& entry : kOnlineStrategies) {
    if (strategy == entry.strategy) return entry.agent_key;
  }
  return nullptr;
}

/// True when some strategy can actually serve this key's snapshots; other
/// keys (e.g. the two-stage pair) are not registered with the online plane
/// — a v1 snapshot nothing reads would only waste a validation sweep.
bool IsOnlineLearnableKey(const std::string& cache_key) {
  for (const OnlineStrategyEntry& entry : kOnlineStrategies) {
    if (cache_key == entry.agent_key) return true;
  }
  return false;
}

}  // namespace

RewriterEnv MalivaService::MakeEnv(const QueryTimeEstimator* qte, double beta,
                                   const RewriteOptionSet* options) const {
  RewriterEnv renv;
  renv.engine = scenario_->engine.get();
  renv.oracle = scenario_->oracle.get();
  renv.options = options != nullptr ? options : &scenario_->options;
  renv.qte = qte;
  renv.tier = state_.selectivity_tier.get();
  renv.qte_params = qte_params_;
  renv.env_config.tau_ms = scenario_->config.tau_ms;
  renv.env_config.beta = beta;
  if (beta < 1.0) renv.env_config.quality = state_.quality_oracle.get();
  return renv;
}

Result<const QAgent*> MalivaService::TrainedAgent(const std::string& cache_key,
                                                  const RewriterEnv& renv) {
  auto it = state_.agents.find(cache_key);
  if (it != state_.agents.end()) return static_cast<const QAgent*>(it->second.get());

  if (config_.num_agent_seeds == 0) {
    return Status::FailedPrecondition(
        "cannot train agent \"" + cache_key + "\": num_agent_seeds is 0");
  }
  if (scenario_->train.empty()) {
    return Status::FailedPrecondition(
        "cannot train agent \"" + cache_key + "\": scenario has no training split");
  }

  PrefillTrueTimes(renv, scenario_->train);
  std::unique_ptr<QAgent> best;
  double best_vqp = -1.0;
  const std::vector<const Query*>& validation = scenario_->validation;
  for (size_t seed = 0; seed < config_.num_agent_seeds; ++seed) {
    TrainerConfig tc = config_.trainer;
    tc.seed = config_.trainer.seed + seed * 7919;
    Trainer trainer(renv, tc);
    std::unique_ptr<QAgent> agent = trainer.Train(scenario_->train);
    // A single candidate is kept as is: validating it would choose nothing.
    if (config_.num_agent_seeds == 1) {
      best = std::move(agent);
      break;
    }

    // Hold-out validation: keep the best agent by validation VQP.
    size_t viable = 0;
    for (const Query* q : validation) {
      RewriteOutcome out = RunGreedyEpisode(renv, *agent, *q);
      viable += out.viable ? 1 : 0;
    }
    double vqp = validation.empty()
                     ? 0.0
                     : static_cast<double>(viable) / static_cast<double>(validation.size());
    if (vqp > best_vqp) {
      best_vqp = vqp;
      best = std::move(agent);
    }
  }
  assert(best != nullptr);
  const QAgent* ptr = best.get();
  state_.agents[cache_key] = std::move(best);
  // Online plane: the offline-trained weights become snapshot version 1 of
  // this key's chain, so serving reads the registry from the first request.
  if (state_.continual_trainer != nullptr && IsOnlineLearnableKey(cache_key)) {
    state_.continual_trainer->RegisterKey(cache_key, renv, &scenario_->validation,
                                          *ptr);
  }
  return ptr;
}

Result<const BaoQte*> MalivaService::TrainedBaoQte() {
  if (state_.bao_qte == nullptr) {
    if (scenario_->train.empty()) {
      return Status::FailedPrecondition(
          "cannot train Bao's QTE: scenario has no training split");
    }
    PrefillTrueTimes(MakeEnv(nullptr), scenario_->train);
    BaoTrainer trainer(scenario_->engine.get(), scenario_->oracle.get(),
                       &scenario_->options);
    state_.bao_qte = trainer.Train(scenario_->train, scenario_->config.seed ^ 0x62616f);
  }
  return static_cast<const BaoQte*>(state_.bao_qte.get());
}

const RewriteOptionSet* MalivaService::InternOptionSet(RewriteOptionSet options) {
  state_.interned_options.push_back(
      std::make_unique<RewriteOptionSet>(std::move(options)));
  return state_.interned_options.back().get();
}

Result<const Rewriter*> MalivaService::GetRewriter(const std::string& name) const {
  MALIVA_RETURN_NOT_OK(config_status_);
  {
    std::shared_lock<std::shared_mutex> lock(state_mutex_);
    auto it = state_.rewriters.find(name);
    if (it != state_.rewriters.end()) {
      return static_cast<const Rewriter*>(it->second.get());
    }
  }

  // Build phase: exclusive lock, double-checked. Builders mutate the serving
  // state through the service hooks (TrainedAgent, InternOptionSet, ...),
  // which is why they receive a non-const service — the cast below keeps the
  // serving API const while the warm-up state grows under this lock.
  std::unique_lock<std::shared_mutex> lock(state_mutex_);
  auto it = state_.rewriters.find(name);
  if (it != state_.rewriters.end()) {
    return static_cast<const Rewriter*>(it->second.get());
  }
  Result<std::unique_ptr<Rewriter>> built =
      RewriterFactory::Global().Create(name, const_cast<MalivaService&>(*this));
  if (!built.ok()) return built.status();
  std::unique_ptr<Rewriter> rewriter = std::move(built).value();
  const Rewriter* ptr = rewriter.get();
  state_.rewriters[name] = std::move(rewriter);
  return ptr;
}

const Rewriter* MalivaService::FindBuiltRewriter(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  auto it = state_.rewriters.find(name);
  return it != state_.rewriters.end() ? it->second.get() : nullptr;
}

Status MalivaService::Warmup(std::span<const std::string> strategies) {
  for (const std::string& name : strategies) {
    Result<const Rewriter*> built = GetRewriter(name);
    if (!built.ok()) return built.status();
  }
  return Status::OK();
}

Status MalivaService::Warmup() {
  for (const std::string& name : RewriterFactory::Global().KnownStrategies()) {
    Result<const Rewriter*> built = GetRewriter(name);
    if (built.ok()) continue;
    // Strategies this configuration legitimately cannot build (e.g.
    // "quality/*" without approximation rules) stay cold; requests naming
    // them get this Status. Anything else — including InvalidArgument, which
    // signals a misconfiguration the caller should hear about — fails the
    // warm-up.
    if (built.status().code() == Status::Code::kFailedPrecondition) continue;
    return built.status();
  }
  return Status::OK();
}

namespace {

/// The strategy serving `request`: its own, else the configured default.
const std::string& StrategyNameFor(const RewriteRequest& request,
                                   const ServiceConfig& config) {
  return request.strategy.empty() ? config.default_strategy : request.strategy;
}

/// The decision bytes of a served response — what a result-cache entry
/// holds and what a batch duplicate replays.
CachedRewrite DecisionOf(const RewriteResponse& resp) {
  return CachedRewrite{resp.strategy, resp.outcome, resp.option,
                       resp.exact_fallback, resp.stats};
}

/// Builds the response a cached decision replays: the entry's bytes —
/// strategy, outcome, option, fallback flag, stats template — plus a fresh
/// SQL rendering against the hitting request's own query (requests within
/// one fingerprint bin keep their own literals) and the hit/coalesced
/// stamps. serve_wall_ms is stamped by the record stage like any response.
RewriteResponse ReplayCached(const CachedRewrite& cached, const Query& query,
                             bool coalesced) {
  RewriteResponse resp;
  resp.strategy = cached.strategy;
  resp.outcome = cached.outcome;
  resp.option = cached.option;
  resp.exact_fallback = cached.exact_fallback;
  resp.stats = cached.stats;
  // A breakdown describes the request that measured it: replays must not
  // inherit the original miss's profile (the hit path stamps its own partial
  // breakdown when this request is itself profiled).
  resp.stats.profile.reset();
  resp.stats.result_cache_hit = true;
  resp.stats.result_cache_coalesced = coalesced;
  resp.rewritten_sql = cached.option != nullptr
                           ? RewrittenQuery{&query, *cached.option}.ToString()
                           : query.ToString();
  return resp;
}

/// Aborts a leader's in-flight slot on error-path returns between Begin and
/// Publish, so followers wake up and compute solo instead of blocking on a
/// leader that will never publish.
struct FlightAbortGuard {
  RewriteResultCache* cache = nullptr;
  const RewriteResultCache::Ticket* ticket = nullptr;
  uint64_t key = 0;
  bool armed = false;

  void Disarm() { armed = false; }
  ~FlightAbortGuard() {
    if (armed) cache->Abort(*ticket, key);
  }
};

/// Request validation: reject malformed inputs before touching any strategy.
Status ValidateRequest(const RewriteRequest& request) {
  if (request.query == nullptr) {
    return Status::InvalidArgument("RewriteRequest.query must not be null");
  }
  const Query& query = *request.query;
  if (query.predicates.size() +
          (query.join.has_value() ? query.join->right_predicates.size() : 0) >
      QteContext::kMaxSlots) {
    return Status::InvalidArgument("a query may carry at most " +
                                   std::to_string(QteContext::kMaxSlots) +
                                   " predicates, join predicates included");
  }
  if (request.tau_ms.has_value() && !(*request.tau_ms > 0.0)) {
    return Status::InvalidArgument(
        "per-request tau_ms must be positive (got non-positive or NaN)");
  }
  if (request.quality_floor.has_value() &&
      !(*request.quality_floor >= 0.0 && *request.quality_floor <= 1.0)) {
    return Status::InvalidArgument(
        "quality_floor must be within [0, 1] (got out-of-range or NaN)");
  }
  return Status::OK();
}

}  // namespace

void AppendNeededStrategies(const RewriteRequest& request,
                            const ServiceConfig& config,
                            std::vector<std::string>* needed) {
  auto want = [needed](const std::string& name) {
    if (std::find(needed->begin(), needed->end(), name) == needed->end()) {
      needed->push_back(name);
    }
  };
  want(StrategyNameFor(request, config));
  if (request.quality_floor.has_value()) want("baseline");
}

MalivaService::DecisionContext MalivaService::ResolveContext(
    const RewriteRequest& request, const std::string& name,
    const Rewriter* strategy, bool keyed, QueryProfiler* prof) const {
  DecisionContext ctx;
  ctx.tau_ms = request.tau_ms.value_or(
      strategy != nullptr ? strategy->default_tau_ms() : scenario_->config.tau_ms);
  if (keyed) {
    // The canonical form serves both planes: the shared store's slot keys
    // and the result cache's signature. The epoch pins both to the current
    // statistics ground truth.
    ProfilerSimpleGuard span(prof, QueryProfiler::kSignature);
    ctx.canonical = Canonicalize(*request.query);
    ctx.epoch = scenario_->engine->catalog_version();
    ctx.fingerprint = MakeRequestFingerprint(ctx.canonical.signature, name,
                                             ctx.tau_ms, request.quality_floor)
                          .value;
  }
  // Online learning plane: the newest published snapshot of the strategy's
  // agent key. Its version is a key-context component, so a hit is only
  // ever served against the exact weights that would serve the miss; the
  // shared_ptr keeps the snapshot alive for the whole request even if a
  // retrain publishes (or an operator rolls back) mid-request.
  if (ContinualTrainer* online = state_.continual_trainer.get()) {
    ctx.agent_key = OnlineAgentKeyFor(name);
    if (ctx.agent_key != nullptr) ctx.model = online->Current(ctx.agent_key);
    if (ctx.model) ctx.snapshot_version = ctx.model.snapshot->meta().version;
  }
  return ctx;
}

void MalivaService::Record(std::chrono::steady_clock::time_point start,
                           RewriteResponse* response) const {
  // Host wall time is the one quantity virtual time cannot provide.
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  const ServeMetrics& m = serve_metrics_;
  m.serve_latency->Record(wall_ms);
  if (response == nullptr) {
    m.requests_error->Increment();
    return;
  }
  response->stats.serve_wall_ms = wall_ms;
  m.requests_ok->Increment();
  if (response->exact_fallback) m.exact_fallbacks->Increment();
  // A replayed decision: its selectivity counters are the template of the
  // miss that computed it, already billed when that miss served. Count the
  // request without re-billing work nobody did.
  if (response->stats.result_cache_hit) return;
  // Zero counts are skipped: adding 0 still writes the counter's cache line,
  // which every serving thread shares.
  auto add = [](Counter* counter, size_t n) {
    if (n > 0) counter->Increment(n);
  };
  const RequestStats& stats = response->stats;
  add(m.tier_shared, stats.selectivity_tier_hits[0]);
  add(m.tier_histogram, stats.selectivity_tier_hits[1]);
  add(m.tier_probe, stats.selectivity_tier_hits[2]);
  add(m.shared_published, stats.shared_published);
}

Result<RewriteResponse> MalivaService::Serve(const RewriteRequest& request) const {
  const auto start = std::chrono::steady_clock::now();
  Result<RewriteResponse> result = ServeImpl(request);
  Record(start, result.ok() ? &result.value() : nullptr);
  return result;
}

std::optional<RewriteResponse> MalivaService::TryServeCached(
    const RewriteRequest& request) const {
  RewriteResultCache* rcache = state_.result_cache.get();
  if (rcache == nullptr || !config_status_.ok()) return std::nullopt;
  if (!ValidateRequest(request).ok()) return std::nullopt;

  const auto start = std::chrono::steady_clock::now();
  // Probe-only discipline: resolving the default tau needs the strategy, but
  // building one here would drag the admission plane through training. A
  // cold strategy is simply a miss — the serve path builds it as usual.
  const std::string& name = StrategyNameFor(request, config_);
  const Rewriter* strategy = FindBuiltRewriter(name);
  if (strategy == nullptr) return std::nullopt;
  const DecisionContext ctx =
      ResolveContext(request, name, strategy, /*keyed=*/true, nullptr);
  std::optional<CachedRewrite> cached =
      rcache->Probe(ctx.fingerprint, ctx.epoch, ctx.snapshot_version);
  if (!cached.has_value()) return std::nullopt;

  RewriteResponse resp = ReplayCached(*cached, *request.query, /*coalesced=*/false);
  Record(start, &resp);
  return resp;
}

uint64_t MalivaService::FingerprintRequest(const RewriteRequest& request) const {
  if (!config_status_.ok() || !ValidateRequest(request).ok()) return 0;
  const std::string& name = StrategyNameFor(request, config_);
  return ResolveContext(request, name, FindBuiltRewriter(name), /*keyed=*/true,
                        nullptr)
      .fingerprint;
}

Result<RewriteResponse> MalivaService::ServeImpl(const RewriteRequest& request) const {
  MALIVA_RETURN_NOT_OK(config_status_);
  MALIVA_RETURN_NOT_OK(ValidateRequest(request));

  const std::string& name = StrategyNameFor(request, config_);
  Result<const Rewriter*> rewriter = GetRewriter(name);
  if (!rewriter.ok()) return rewriter.status();
  const Rewriter& strategy = *rewriter.value();

  // Measurement plane: a profiled request gets a stack-owned profiler.
  // `prof == nullptr` is the off path — no clock is ever read there, and the
  // breakdown never feeds back into any decision, so responses stay
  // byte-identical either way.
  std::optional<QueryProfiler> profiler_storage;
  QueryProfiler* prof = nullptr;
  if (config_.profile_requests) {
    profiler_storage.emplace(&QueryProfiler::WallClockMs);
    prof = &*profiler_storage;
  }

  // Resolve.
  SharedSelectivityStore* store = state_.shared_store.get();
  RewriteResultCache* rcache = state_.result_cache.get();
  const DecisionContext ctx = ResolveContext(
      request, name, &strategy, store != nullptr || rcache != nullptr, prof);

  // Probe: replay a resident decision, follow an in-flight leader's search,
  // or lead (publish on the way out). Replays skip QTE, agent, and the
  // whole episode; they also record no online feedback — the decision's
  // transitions were observed once, when the miss computed them.
  RewriteResultCache::Ticket ticket;
  FlightAbortGuard abort_guard;
  if (rcache != nullptr) {
    // The probe span covers Begin and a follower's wait on its leader; on a
    // replayed decision the whole span is inherited work (AddCachedMs) and
    // the response carries the partial breakdown measured so far — the
    // replay itself does no search to bill.
    if (prof != nullptr) prof->StartTimer(QueryProfiler::kCacheProbe);
    ticket = rcache->Begin(ctx.fingerprint, ctx.epoch, ctx.snapshot_version);
    std::optional<CachedRewrite> led;
    if (ticket.role == RewriteResultCache::Role::kFollower) {
      led = rcache->WaitForLeader(ticket);
      if (!led.has_value()) ticket = RewriteResultCache::Ticket{};  // solo
    }
    const std::optional<CachedRewrite>& replay =
        ticket.role == RewriteResultCache::Role::kHit ? ticket.value : led;
    if (replay.has_value()) {
      if (prof != nullptr) {
        prof->AddCachedMs(QueryProfiler::kCacheProbe,
                          prof->StopTimer(QueryProfiler::kCacheProbe));
      }
      RewriteResponse resp = ReplayCached(
          *replay, *request.query,
          /*coalesced=*/ticket.role == RewriteResultCache::Role::kFollower);
      if (prof != nullptr) resp.stats.profile = prof->Snapshot();
      return resp;
    }
    if (prof != nullptr) prof->StopTimer(QueryProfiler::kCacheProbe);
    abort_guard = FlightAbortGuard{rcache, &ticket, ctx.fingerprint,
                                   ticket.role == RewriteResultCache::Role::kLeader};
  }

  // Search, miss path only: the search, the QTEs and the engine assume the
  // query names real tables and columns of the right types. Replays skip
  // the check for free — the signature keys on the table, predicate columns
  // and types, and join keys, so a resident decision was computed for a
  // query that passed it; the output fields it leaves out are only rendered.
  MALIVA_RETURN_NOT_OK(scenario_->engine->ValidateQuery(*request.query));

  // All mutable per-request state lives here, built only now that the
  // request searches; the strategy objects stay shared-immutable across
  // threads. Knowledge plane: the session's episode caches start pre-seeded
  // with the selectivities earlier requests collected.
  RewriteSession session;
  session.BindProfiler(prof);
  if (store != nullptr) {
    session.BindSharedStore(store, &ctx.canonical.slot_keys, ctx.epoch);
  }
  if (ctx.model) {
    session.BindAgentOverride(ctx.model.agent.get());
    session.set_capture_transitions(true);
  }

  const double tau = ctx.tau_ms;
  RewriteResponse resp;
  resp.strategy = name;
  if (prof != nullptr) prof->StartTimer(QueryProfiler::kSearch);
  resp.outcome = strategy.RewriteForSession(*request.query, tau, session);
  resp.option = strategy.DecidedOption(resp.outcome);

  if (request.quality_floor.has_value() &&
      resp.outcome.quality < *request.quality_floor) {
    // The strategy's pick is below the floor: guarantee quality 1 by serving
    // the original query unhinted (possibly sacrificing viability). The first
    // attempt's planning time was really spent, so it stays on the bill —
    // same accounting the two-stage rewriter uses for its stage hand-off.
    // A cold "baseline" builds (trains) here — that is warm-up, not search,
    // so the search span pauses around the lookup.
    bool paused = prof != nullptr && prof->Pause(QueryProfiler::kSearch);
    Result<const Rewriter*> exact = GetRewriter("baseline");
    if (paused) prof->Resume(QueryProfiler::kSearch);
    if (!exact.ok()) return exact.status();
    session.ChargeAbandonedAttempt(resp.outcome.planning_ms, resp.outcome.steps);
    session.set_exact_fallback(true);
    resp.strategy = "baseline";
    resp.outcome = exact.value()->RewriteForSession(*request.query, tau, session);
    resp.outcome.planning_ms += session.abandoned_planning_ms();
    resp.outcome.total_ms += session.abandoned_planning_ms();
    resp.outcome.steps += session.abandoned_steps();
    resp.outcome.viable = resp.outcome.total_ms <= tau;
    resp.option = exact.value()->DecidedOption(resp.outcome);
  }
  if (prof != nullptr) prof->StopTimer(QueryProfiler::kSearch);
  resp.exact_fallback = session.exact_fallback();

  // Knowledge-plane accounting: shared hits were pre-seeded into the
  // session's caches, everything else collected there was paid for by this
  // request and is published back for the fleet. Publish is first-writer-
  // wins, so re-publishing seeded slots is a no-op and does not count.
  // Reading a slot runs the accurate QTE's pending exact probe, so that
  // probe's host time lands in the publish span.
  size_t total_collected = 0;
  size_t histogram_hits = 0;
  size_t probes = 0;
  for (const SelectivityCache& cache : session.caches()) {
    total_collected += cache.NumCollected();
    histogram_hits += cache.histogram_hits();
    probes += cache.probes();
  }
  resp.stats.shared_hits = session.shared_seeded();
  resp.stats.selectivities_collected =
      total_collected - std::min(total_collected, session.shared_seeded());
  // Ladder accounting, rung by rung: shared seeds, histogram answers, probes.
  resp.stats.selectivity_tier_hits[0] = session.shared_seeded();
  resp.stats.selectivity_tier_hits[1] = histogram_hits;
  resp.stats.selectivity_tier_hits[2] = probes;
  if (store != nullptr) {
    ProfilerSimpleGuard span(prof, QueryProfiler::kPublish);
    const std::vector<uint64_t>& slot_keys = ctx.canonical.slot_keys;
    for (SelectivityCache& cache : session.caches()) {
      if (cache.num_slots() != slot_keys.size()) continue;
      for (size_t slot = 0; slot < cache.num_slots(); ++slot) {
        if (!cache.Has(slot)) continue;
        if (store->Publish(slot_keys[slot], ctx.epoch, cache.Get(slot))) {
          ++resp.stats.shared_published;
        }
      }
    }
  }

  // Online feedback: hand the observed transitions to the replay sink in one
  // batch and stamp the snapshot version that produced the final decision.
  // A quality-floor fallback was re-served by the frozen "baseline"
  // strategy, so the stamp stays 0 there (the documented frozen-weights
  // value) — but the abandoned MDP attempt's transitions are still real
  // observed feedback and are recorded either way.
  if (ctx.model) {
    if (!resp.exact_fallback) resp.stats.agent_snapshot_version = ctx.snapshot_version;
    if (!session.transitions().empty()) {
      state_.continual_trainer->Record(ctx.agent_key, session.TakeTransitions());
    }
  }

  // Render.
  {
    ProfilerSimpleGuard span(prof, QueryProfiler::kRender);
    resp.rewritten_sql =
        resp.option != nullptr
            ? RewrittenQuery{request.query, *resp.option}.ToString()
            : request.query->ToString();
  }

  // Publish: the completed search becomes this context's cached entry
  // (leader resolution wakes any coalesced followers with it). The stats
  // captured here are the entry's replay template — hit flags and the wall
  // clock are per-request and still zero at this point.
  if (rcache != nullptr) {
    ProfilerSimpleGuard span(prof, QueryProfiler::kPublish);
    abort_guard.Disarm();
    rcache->Publish(ticket, ctx.fingerprint, ctx.epoch, ctx.snapshot_version,
                    DecisionOf(resp));
  }
  if (prof != nullptr) resp.stats.profile = prof->Snapshot();
  return resp;
}

ServiceStats MalivaService::Stats() const {
  // Every counter field is a read of the handle its serve-path record
  // increments — the registry is the counters' only store.
  const ServeMetrics& m = serve_metrics_;
  ServiceStats stats;
  stats.errors = m.requests_error->Value();
  stats.requests = m.requests_ok->Value() + stats.errors;
  stats.exact_fallbacks = m.exact_fallbacks->Value();
  stats.shared_hits = m.tier_shared->Value();
  stats.histogram_hits = m.tier_histogram->Value();
  stats.probe_collections = m.tier_probe->Value();
  // The two paid rungs partition every collected slot.
  stats.selectivities_collected = stats.histogram_hits + stats.probe_collections;
  stats.shared_published = m.shared_published->Value();
  stats.result_cache_hits = m.cache.hits->Value();
  stats.result_cache_misses = m.cache.misses->Value();
  stats.result_cache_coalesced = m.cache.coalesced->Value();
  stats.result_cache_evictions = m.cache.evictions->Value();
  stats.result_cache_stale_declines = m.cache.stale_declines->Value();
  stats.admission_admitted = m.admission_admitted->Value();
  stats.admission_degraded = m.admission_degraded->Value();
  stats.admission_shed_deadline = m.admission_shed_deadline->Value();
  stats.admission_shed_overload = m.admission_shed_overload->Value();
  stats.admission_queue_wait_ms_total = m.queue_wait->SumMs();
  stats.serve_wall_ms_total = m.serve_latency->SumMs();

  // Plane-owned fields stay identically zero while their plane is off (the
  // documented ServiceStats contract).
  if (state_.shared_store != nullptr) {
    stats.store_size = state_.shared_store->Size();
    stats.store_evictions = state_.shared_store->Evictions();
    stats.store_epoch = scenario_->engine->catalog_version();
  }
  if (state_.selectivity_tier != nullptr) {
    SelectivityTier::Stats tier = state_.selectivity_tier->Snapshot();
    stats.histogram_mean_abs_rel_error = tier.mean_abs_rel_error;
    stats.histogram_error_samples = tier.error_samples;
    stats.histogram_demoted_columns = tier.demoted_columns;
  }
  if (state_.result_cache != nullptr) {
    stats.result_cache_size = state_.result_cache->Size();
  }
  if (state_.continual_trainer != nullptr) {
    ContinualTrainer::StatsSnapshot online = state_.continual_trainer->Snapshot();
    stats.online_transitions = online.transitions_recorded;
    stats.online_transitions_dropped = online.transitions_dropped;
    stats.online_transitions_pending = online.transitions_pending;
    stats.online_retrains = online.retrains_published;
    stats.online_rejected = online.retrains_rejected;
    stats.online_snapshot_version = online.snapshot_version;
    stats.last_retrain_reward_pre = online.last_reward_pre;
    stats.last_retrain_reward_post = online.last_reward_post;
  }
  // Gauges mirror plane sizes at snapshot time, so they update where the
  // sizes are read — Stats() and the fleet's flusher both route through here.
  m.result_cache_entries->Set(static_cast<int64_t>(stats.result_cache_size));
  m.shared_store_entries->Set(static_cast<int64_t>(stats.store_size));
  m.agent_snapshot_version->Set(static_cast<int64_t>(stats.online_snapshot_version));
  return stats;
}

size_t MalivaService::ResolvedNumThreads() const {
  return config_.num_threads == 0 ? ThreadPool::DefaultThreads()
                                  : config_.num_threads;
}

ThreadPool& MalivaService::Pool() const {
  // One pool per service, created on the first parallel batch and reused —
  // per-call thread spawn/join would dominate the microsecond-scale planning
  // work of small batches.
  std::call_once(pool_once_,
                 [this] { pool_ = std::make_unique<ThreadPool>(ResolvedNumThreads()); });
  return *pool_;
}

void MalivaService::PrefillTrueTimes(const RewriterEnv& renv,
                                     const std::vector<const Query*>& queries) const {
  if (ResolvedNumThreads() > 1) {
    maliva::PrefillTrueTimes(*renv.oracle, queries, *renv.options);
  }
}

std::vector<Result<RewriteResponse>> MalivaService::ServeBatch(
    std::span<const RewriteRequest> requests) const {
  // Build phase first: warm every strategy the batch needs, in
  // first-appearance order, so serve-phase workers never contend on the
  // build lock. Training is seeded per agent key, so build order cannot
  // change any result; build failures are not cached and re-surface per
  // request below.
  std::vector<std::string> needed;
  for (const RewriteRequest& request : requests) {
    AppendNeededStrategies(request, config_, &needed);
  }
  for (const std::string& name : needed) {
    (void)GetRewriter(name);  // failure handled per request
  }

  // In-batch dedup (result cache on only): members sharing one decision
  // context are grouped behind their first occurrence, so N copies of a
  // query cost one search plus N-1 replays — without even enqueueing N
  // blocked pool tasks for the single-flight protocol to coalesce. The key
  // is FingerprintRequest's; an invalid request (fingerprint 0) stays
  // unique and serves normally.
  RewriteResultCache* rcache = state_.result_cache.get();
  constexpr size_t kUnique = static_cast<size_t>(-1);
  std::vector<size_t> replay_of(requests.size(), kUnique);
  if (rcache != nullptr) {
    std::unordered_map<uint64_t, size_t> first_by_key;
    first_by_key.reserve(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      const uint64_t fp = FingerprintRequest(requests[i]);
      if (fp == 0) continue;
      auto [it, inserted] = first_by_key.emplace(fp, i);
      if (!inserted) replay_of[i] = it->second;
    }
  }

  // Serve phase: fan out over the pool (or run inline when sequential).
  // Responses land in their request's slot, so ordering is preserved no
  // matter how threads interleave. Dedup followers are skipped here and
  // replayed from their leader's slot afterwards.
  std::vector<std::optional<Result<RewriteResponse>>> slots(requests.size());
  auto serve_one = [this, &slots, &requests, &replay_of](size_t i) {
    if (replay_of[i] != kUnique) return;
    slots[i] = Serve(requests[i]);
  };
  if (std::min(ResolvedNumThreads(), requests.size()) <= 1) {
    for (size_t i = 0; i < requests.size(); ++i) serve_one(i);
  } else {
    Pool().ParallelFor(requests.size(), serve_one);
  }

  // Replay phase: each follower copies its leader's decision bytes, renders
  // SQL against its own query, and stamps hit+coalesced — exactly what a
  // cache hit on the published entry would produce, minus the map probe.
  // The leader's error is its context's answer (identical requests fail
  // identically), so it is replayed as well.
  for (size_t i = 0; i < requests.size(); ++i) {
    if (replay_of[i] == kUnique) continue;
    const auto start = std::chrono::steady_clock::now();
    const Result<RewriteResponse>& led = *slots[replay_of[i]];
    if (!led.ok()) {
      Record(start, nullptr);
      slots[i] = led.status();
      continue;
    }
    RewriteResponse resp = ReplayCached(DecisionOf(led.value()),
                                        *requests[i].query, /*coalesced=*/true);
    Record(start, &resp);
    rcache->NoteCoalesced(1);
    slots[i] = std::move(resp);
  }

  std::vector<Result<RewriteResponse>> responses;
  responses.reserve(requests.size());
  for (std::optional<Result<RewriteResponse>>& slot : slots) {
    assert(slot.has_value());
    responses.push_back(std::move(*slot));
  }
  return responses;
}

std::unique_ptr<QAgent> MalivaService::TrainAgentOn(
    const std::vector<const Query*>& workload, uint64_t seed,
    std::vector<Trainer::IterationStats>* history) const {
  RewriterEnv renv = MakeEnv(state_.accurate_qte.get());
  TrainerConfig tc = config_.trainer;
  tc.seed = seed;
  PrefillTrueTimes(renv, workload);
  Trainer trainer(renv, tc);
  std::unique_ptr<QAgent> agent = trainer.Train(workload);
  if (history != nullptr) *history = trainer.history();
  return agent;
}

double MalivaService::EvaluateAgentVqp(
    const QAgent& agent, const std::vector<const Query*>& workload) const {
  if (workload.empty()) return 0.0;
  RewriterEnv renv = MakeEnv(state_.accurate_qte.get());
  size_t viable = 0;
  for (const Query* q : workload) {
    RewriteOutcome out = RunGreedyEpisode(renv, agent, *q);
    viable += out.viable ? 1 : 0;
  }
  return 100.0 * static_cast<double>(viable) / static_cast<double>(workload.size());
}

// ---------------------------------------------------------------------------
// Built-in strategies.
// ---------------------------------------------------------------------------

namespace {

/// Cheap pre-check mirroring TrainedAgent's failure conditions, so builders
/// can bail out before interning option sets (failed builds are not cached;
/// a retrying caller must not grow interned_options on every attempt).
Status CanTrainAgents(MalivaService& s) {
  if (s.config().num_agent_seeds == 0) {
    return Status::FailedPrecondition("cannot train agents: num_agent_seeds is 0");
  }
  if (s.scenario()->train.empty()) {
    return Status::FailedPrecondition(
        "cannot train agents: scenario has no training split");
  }
  return Status::OK();
}

Status ValidateApproxRules(const std::vector<ApproxRule>& rules) {
  if (rules.empty()) {
    return Status::FailedPrecondition(
        "quality-aware strategies need ServiceConfig.approx_rules");
  }
  for (const ApproxRule& rule : rules) {
    if (!rule.IsApproximate()) {
      return Status::InvalidArgument(
          "approx_rules must contain approximate rules only");
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<Rewriter>> BuildBaseline(MalivaService& s) {
  return std::unique_ptr<Rewriter>(std::make_unique<BaselineRewriter>(
      s.scenario()->engine.get(), s.scenario()->oracle.get(),
      s.scenario()->config.tau_ms));
}

Result<std::unique_ptr<Rewriter>> BuildNaive(MalivaService& s) {
  return std::unique_ptr<Rewriter>(std::make_unique<NaiveRewriter>(
      s.MakeEnv(s.sampling_qte()), "Naive (Approx-QTE)"));
}

Result<std::unique_ptr<Rewriter>> BuildMdpAccurate(MalivaService& s) {
  RewriterEnv renv = s.MakeEnv(s.accurate_qte());
  Result<const QAgent*> agent = s.TrainedAgent(kAgentKeyExactAccurate, renv);
  if (!agent.ok()) return agent.status();
  return std::unique_ptr<Rewriter>(std::make_unique<MalivaRewriter>(
      renv, agent.value(), "MDP (Accurate-QTE)"));
}

Result<std::unique_ptr<Rewriter>> BuildMdpSampling(MalivaService& s) {
  RewriterEnv renv = s.MakeEnv(s.sampling_qte());
  Result<const QAgent*> agent = s.TrainedAgent(kAgentKeyExactSampling, renv);
  if (!agent.ok()) return agent.status();
  return std::unique_ptr<Rewriter>(std::make_unique<MalivaRewriter>(
      renv, agent.value(), "MDP (Approx-QTE)"));
}

Result<std::unique_ptr<Rewriter>> BuildBao(MalivaService& s) {
  Result<const BaoQte*> qte = s.TrainedBaoQte();
  if (!qte.ok()) return qte.status();
  return std::unique_ptr<Rewriter>(std::make_unique<BaoRewriter>(
      s.scenario()->engine.get(), s.scenario()->oracle.get(),
      &s.scenario()->options, qte.value(), s.scenario()->config.tau_ms));
}

Result<std::unique_ptr<Rewriter>> BuildOneStageQuality(MalivaService& s) {
  const std::vector<ApproxRule>& rules = s.config().approx_rules;
  MALIVA_RETURN_NOT_OK(ValidateApproxRules(rules));
  MALIVA_RETURN_NOT_OK(CanTrainAgents(s));
  const RewriteOptionSet* options = s.InternOptionSet(
      CrossWithApproxRules(s.scenario()->options, rules, /*include_exact=*/true));
  RewriterEnv renv = s.MakeEnv(s.accurate_qte(), s.config().beta, options);
  Result<const QAgent*> agent = s.TrainedAgent(kAgentKeyQualityOneStage, renv);
  if (!agent.ok()) return agent.status();
  return std::unique_ptr<Rewriter>(std::make_unique<MalivaRewriter>(
      renv, agent.value(), "1-stage MDP (Accu-QTE)"));
}

Result<std::unique_ptr<Rewriter>> BuildTwoStageQuality(MalivaService& s) {
  const std::vector<ApproxRule>& rules = s.config().approx_rules;
  MALIVA_RETURN_NOT_OK(ValidateApproxRules(rules));
  MALIVA_RETURN_NOT_OK(CanTrainAgents(s));

  // Stage 1: exact options with the efficiency-only reward; the agent is
  // shared with "mdp/accurate".
  RewriterEnv exact_env = s.MakeEnv(s.accurate_qte());
  Result<const QAgent*> exact_agent = s.TrainedAgent(kAgentKeyExactAccurate, exact_env);
  if (!exact_agent.ok()) return exact_agent.status();

  // Stage 2: approximate combinations with the quality-aware reward.
  const RewriteOptionSet* approx_options = s.InternOptionSet(
      CrossWithApproxRules(s.scenario()->options, rules, /*include_exact=*/false));
  RewriterEnv approx_env = s.MakeEnv(s.accurate_qte(), s.config().beta, approx_options);
  Result<const QAgent*> approx_agent =
      s.TrainedAgent(kAgentKeyQualityTwoStage, approx_env);
  if (!approx_agent.ok()) return approx_agent.status();

  return std::unique_ptr<Rewriter>(std::make_unique<TwoStageRewriter>(
      exact_env, exact_agent.value(), approx_env, approx_agent.value(),
      "2-stage MDP (Accu-QTE)"));
}

}  // namespace

void RegisterBuiltinStrategies(RewriterFactory& factory) {
  auto add = [&factory](const char* name, RewriterFactory::Builder builder) {
    Status st = factory.Register(name, std::move(builder));
    assert(st.ok());
    (void)st;
  };
  add("baseline", BuildBaseline);
  add("naive", BuildNaive);
  add("mdp/accurate", BuildMdpAccurate);
  add("mdp/sampling", BuildMdpSampling);
  add("bao", BuildBao);
  add("quality/one-stage", BuildOneStageQuality);
  add("quality/two-stage", BuildTwoStageQuality);
}

}  // namespace maliva
