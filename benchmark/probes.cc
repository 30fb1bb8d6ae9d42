// Layer probes: each times one layer's public entry point, call by call, on
// a seeded sample of the workload's own decisions (the query and the option
// the service chose for it), and reports the median.

#include "core/agent.h"
#include "engine/optimizer.h"
#include "harness.h"
#include "qte/accurate_qte.h"
#include "qte/sampling_qte.h"
#include "quality/quality.h"
#include "query/signature.h"
#include "service/service.h"
#include "util/rng.h"

namespace maliva_bench {

using maliva::Query;
using maliva::QteContext;
using maliva::RewriteOption;
using maliva::RewrittenQuery;

namespace {

/// Keeps probe results observable so no call can be optimized away.
volatile double g_sink = 0.0;

void Sink(double v) { g_sink = g_sink + v; }

/// Calls timed together: single calls of the fastest layers take tens of
/// nanoseconds, which one clock read per call would quantize.
constexpr size_t kBatch = 8;

/// Times `call(k)` for k in [0, n) in batches of kBatch calls; returns the
/// median over batches of the mean microseconds per call, and records one
/// span per batch.
template <typename Call>
double TimeCalls(const char* name, size_t n, SpanLog* log, Call&& call) {
  std::vector<double> us;
  for (size_t k = 0; k + kBatch <= n; k += kBatch) {
    const Clock::time_point t0 = Clock::now();
    for (size_t j = k; j < k + kBatch; ++j) call(j);
    const Clock::time_point t1 = Clock::now();
    us.push_back(1000.0 * MsBetween(t0, t1) / kBatch);
    if (log != nullptr) log->Add(log->NewId(), 0, k, name, t0, t1);
  }
  return Percentile(us, 0.5);
}

}  // namespace

std::map<std::string, double> RunProbes(const Scale& scale, const Stack& stack,
                                        const std::vector<Context>& contexts,
                                        const std::vector<Decision>& decisions,
                                        uint64_t seed, std::vector<Span>* spans) {
  // The seeded sample: OK decisions drawn with replacement (hot_dashboard has
  // fewer distinct contexts than samples); tpch ones feed the quality probe.
  std::vector<const Decision*> usable;
  std::vector<const Decision*> tpch;
  for (const Decision& d : decisions) {
    if (!d.ok) continue;
    usable.push_back(&d);
    if (contexts[d.context].scenario == kTpch) tpch.push_back(&d);
  }
  std::map<std::string, double> out;
  if (usable.empty() || tpch.empty()) return out;
  const size_t n = scale.probe_samples;
  std::shared_ptr<const maliva::MalivaService> services[kNumScenarios];
  for (int s = 0; s < kNumScenarios; ++s) services[s] = stack.Service(s);

  // Everything but the timed call is resolved up front.
  struct Sample {
    const Context* context;
    const Query* query;
    const RewriteOption* decided;  // null when planning was delegated
    RewriteOption option;          // the decided option, else unhinted
    const maliva::Engine* engine;
    QteContext accurate;
    QteContext sampling;
  };
  std::vector<Sample> sample;
  std::vector<const Query*> tpch_queries;
  for (size_t k = 0; k < n; ++k) {
    const Decision& d = *usable[Mix64(seed ^ (0x70726f6265ULL + k)) % usable.size()];
    const Context& c = contexts[d.context];
    const maliva::MalivaService& service = *services[c.scenario];
    const Query* q = stack.scenarios[c.scenario]->evaluation[c.query];
    sample.push_back(Sample{&c, q, d.option, d.option != nullptr ? *d.option : RewriteOption{},
                            stack.scenarios[c.scenario]->engine.get(),
                            service.MakeEnv(service.accurate_qte()).MakeContext(*q),
                            service.MakeEnv(service.sampling_qte()).MakeContext(*q)});
    const Context& t = contexts[tpch[Mix64(seed ^ (0x7470636868ULL + k)) % tpch.size()]->context];
    tpch_queries.push_back(stack.scenarios[kTpch]->evaluation[t.query]);
  }

  SpanLog log(100, 50000);
  SpanLog* spans_log = spans != nullptr ? &log : nullptr;
  auto add = [&](const char* name, auto&& call) {
    out[name] = TimeCalls(name, n, spans_log, call);
  };

  add("engine.execute_us", [&](size_t k) {
    auto r = sample[k].engine->Execute(RewrittenQuery{sample[k].query, sample[k].option});
    Sink(r.ok() ? r.value().exec_ms : 0.0);
  });
  add("engine.true_selectivity_us", [&](size_t k) {
    const QteContext& ctx = sample[k].accurate;
    const auto target = ctx.SlotTargetFor(k % ctx.NumSlots());
    auto r = ctx.engine->TrueSelectivity(*target.table, *target.pred);
    Sink(r.ok() ? r.value() : 0.0);
  });
  add("engine.sampled_selectivity_us", [&](size_t k) {
    const QteContext& ctx = sample[k].sampling;
    const auto target = ctx.SlotTargetFor(k % ctx.NumSlots());
    auto r = ctx.engine->SampledSelectivity(*target.table, *target.pred,
                                            ctx.params.qte_sample_rate);
    Sink(r.ok() ? r.value() : 0.0);
  });
  add("engine.resolve_plan_us", [&](size_t k) {
    Sink(sample[k].engine->optimizer().ResolvePlan(*sample[k].query, sample[k].option)
             .index_mask);
  });
  add("qte.accurate_estimate_us", [&](size_t k) {
    const QteContext& ctx = sample[k].accurate;
    maliva::SelectivityCache cache(ctx.NumSlots());
    const auto* qte = services[sample[k].context->scenario]->accurate_qte();
    Sink(qte->Estimate(ctx, k % ctx.options->size(), &cache).est_ms);
  });
  add("qte.sampling_estimate_us", [&](size_t k) {
    const QteContext& ctx = sample[k].sampling;
    maliva::SelectivityCache cache(ctx.NumSlots());
    const auto* qte = services[sample[k].context->scenario]->sampling_qte();
    Sink(qte->Estimate(ctx, k % ctx.options->size(), &cache).est_ms);
  });

  // The Q-network at each scenario's option-set width: forward passes, and
  // one training step of 64 accumulated gradients plus an Adam update.
  std::vector<std::unique_ptr<maliva::QAgent>> agents;
  std::vector<std::vector<std::vector<double>>> features(kNumScenarios);
  maliva::Rng rng(Mix64(seed ^ 0x6d6cULL));
  for (int s = 0; s < kNumScenarios; ++s) {
    agents.push_back(
        std::make_unique<maliva::QAgent>(stack.scenarios[s]->options.size(), seed + s));
    for (size_t k = 0; k < n; ++k) {
      std::vector<double> x(2 * agents[s]->num_actions() + 1);
      for (double& v : x) v = rng.Uniform(0.0, 1.0);
      features[s].push_back(std::move(x));
    }
  }
  add("ml.qvalues_us", [&](size_t k) {
    const int s = sample[k].context->scenario;
    Sink(agents[s]->QValues(features[s][k])[0]);
  });
  add("ml.train_step_us", [&](size_t k) {
    const int s = sample[k].context->scenario;
    maliva::Mlp& net = *agents[s]->online();
    constexpr size_t kMinibatch = 64;
    double loss = 0.0;
    for (size_t b = 0; b < kMinibatch; ++b) {
      const std::vector<double>& x = features[s][(k + b) % n];
      loss += net.AccumulateGradient(x, static_cast<int>(b % net.output_dim()), x[0]);
    }
    net.Step(1e-3, kMinibatch);
    Sink(loss);
  });

  // Quality of tpch approximate options, against a fresh (unmemoized) oracle.
  const maliva::Scenario& tpch_scenario = *stack.scenarios[kTpch];
  const maliva::RewriteOptionSet approx = maliva::CrossWithApproxRules(
      tpch_scenario.options, services[kTpch]->config().approx_rules, /*include_exact=*/false);
  maliva::QualityOracle quality(tpch_scenario.engine.get());
  add("quality.score_us", [&](size_t k) {
    Sink(quality.Quality(*tpch_queries[k], approx[k % approx.size()]));
  });

  add("query.fingerprint_us", [&](size_t k) {
    const Context& c = *sample[k].context;
    const maliva::CanonicalQuery canonical = maliva::Canonicalize(*sample[k].query);
    Sink(static_cast<double>(maliva::MakeRequestFingerprint(canonical.signature, c.strategy,
                                                            c.tau_ms, c.quality_floor)
                                 .value &
                             1));
  });
  add("service.render_us", [&](size_t k) {
    const Sample& x = sample[k];
    Sink(static_cast<double>((x.decided != nullptr ? RewrittenQuery{x.query, *x.decided}.ToString()
                                                   : x.query->ToString())
                                 .size()));
  });

  if (spans != nullptr) spans->insert(spans->end(), log.spans().begin(), log.spans().end());
  return out;
}

}  // namespace maliva_bench
