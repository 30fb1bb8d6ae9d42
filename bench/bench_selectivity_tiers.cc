// Selectivity-tier ladder: cold-path probe elimination (ISSUE 7).
//
// Not a paper figure — this measures the reproduction's own histogram
// selectivity tier (DESIGN.md "Selectivity tiers"). The cold path it attacks
// is real wall-clock work: on a first-seen query shape the sampling QTE
// count(*)-probes the QTE sample table per needed slot, and a probe on an
// unindexed column is a full scan of the sample. The histogram tier answers
// the same slot O(1) from full-table histograms. Three phases:
//
//   1. cold serve — twin scenarios (same seed, separate oracle memos), every
//      query served exactly once, tier off vs on: the off run must probe,
//      the on run must answer from histograms, and the on run's cold QPS
//      must be >= 2x the off run's;
//   2. accuracy audit — every query predicate's histogram estimate vs
//      TrueSelectivity over the base table: the mean absolute relative
//      error must sit below the tier's demotion threshold;
//   3. full ladder — a third twin with the shared store on too, the same
//      batch served twice: pass 2 must hit rung 1 (shared seeds), pinning
//      the shared -> histogram -> probe arbitration order end to end.
//
// The workload makes the cold path honest: four predicates, indexes on two
// (so rewrite options hint real access paths) and none on the other two (so
// their probes scan the sample; the forced-full-scan option needs all four
// slots, which is exactly the paper's count(*)-probe bill). Results land in
// BENCH_selectivity.json (--out overrides); --smoke runs a seconds-scale
// variant for CI. Non-zero exit when any invariant fails.

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "qte/selectivity_tier.h"
#include "service/service.h"

namespace maliva {
namespace bench {
namespace {

struct TierOptions {
  bool smoke = false;
  std::string out_path = "BENCH_selectivity.json";
};

constexpr double kSampleRate = 0.05;

/// Hand-built scenario (BuildScenario indexes every filter attribute, which
/// would make every probe an O(log n) index count — too cheap to matter).
/// Twin builds from the same seed are byte-identical, so the off and on runs
/// pay the same execution bill from their own cold oracle memos.
Scenario BuildColdScenario(size_t rows, size_t num_queries, uint64_t seed) {
  Scenario s;
  s.config.kind = DatasetKind::kTwitter;
  s.config.num_rows = rows;
  s.config.num_queries = num_queries;
  s.config.tau_ms = 500.0;
  s.config.seed = seed;
  s.config.qte.qte_sample_rate = kSampleRate;

  s.engine = std::make_unique<Engine>(EngineProfile::PostgresLike(), seed);
  Schema schema = {{"id", ColumnType::kInt64},
                   {"created_at", ColumnType::kTimestamp},
                   {"coordinates", ColumnType::kPoint},
                   {"user_followers", ColumnType::kDouble},
                   {"user_friends", ColumnType::kDouble}};
  auto table = std::make_unique<Table>("tweets", schema);
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    table->MutableColumnAt(0).AppendInt64(static_cast<int64_t>(i));
    table->MutableColumnAt(1).AppendTimestamp(rng.UniformInt(0, 1000000));
    table->MutableColumnAt(2).AppendPoint(
        GeoPoint{rng.Uniform(0, 100), rng.Uniform(0, 50)});
    // Follower counts: exponential-ish skew, the shape histograms find hardest.
    table->MutableColumnAt(3).AppendDouble(-1500.0 * std::log(rng.Uniform(1e-6, 1.0)));
    table->MutableColumnAt(4).AppendDouble(rng.Uniform(0, 10000));
  }
  Status st = table->Seal();
  assert(st.ok());
  // Indexes on the first two filter columns only: user_followers and
  // user_friends probes must scan the sample table.
  st = s.engine->RegisterTable(std::move(table), {"created_at", "coordinates"});
  assert(st.ok());
  st = s.engine->BuildSampleTables("tweets", {kSampleRate}, seed ^ 0x5a);
  assert(st.ok());
  (void)st;

  s.oracle = std::make_unique<PlanTimeOracle>(s.engine.get());
  // Hints over the two indexed predicates (bits 0, 1). Mask 0 is the forced
  // full scan, whose output estimate needs all four selectivities.
  s.options = EnumerateHintOnlyOptions(2);

  // First-seen shapes: unique literals per query, nothing repeats.
  s.queries.reserve(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    Query q;
    q.id = i + 1;
    q.table = "tweets";
    q.output = OutputKind::kHeatmap;
    q.output_column = "coordinates";
    double ts_lo = rng.Uniform(0, 990000);
    double lon = rng.Uniform(0, 94);
    double lat = rng.Uniform(0, 47);
    double fol_lo = rng.Uniform(0, 3000);
    double fri_lo = rng.Uniform(0, 9000);
    q.predicates = {
        Predicate::Time("created_at", ts_lo, ts_lo + 10000),
        Predicate::Spatial("coordinates", BoundingBox{lon, lat, lon + 6, lat + 3}),
        Predicate::Numeric("user_followers", fol_lo, fol_lo + rng.Uniform(500, 2500)),
        Predicate::Numeric("user_friends", fri_lo, fri_lo + rng.Uniform(200, 900)),
    };
    s.queries.push_back(std::move(q));
  }
  for (const Query& q : s.queries) s.evaluation.push_back(&q);
  s.attrs = {"created_at", "coordinates", "user_followers", "user_friends"};
  return s;
}

ServiceConfig TierServiceConfig(bool histograms, bool shared_store) {
  ServiceConfig config;
  config.default_strategy = "naive";  // sampling QTE, estimates every option
  config.num_threads = 1;             // isolate per-request cost
  config.histogram_selectivity = histograms;
  config.cross_request_cache = shared_store;
  return config;
}

std::vector<RewriteRequest> MakeRequests(const Scenario& scenario) {
  std::vector<RewriteRequest> requests;
  requests.reserve(scenario.evaluation.size());
  for (const Query* q : scenario.evaluation) {
    RewriteRequest req;
    req.query = q;
    requests.push_back(req);
  }
  return requests;
}

/// Per-rung slot totals of one batch of responses, summed from the
/// per-request RewriteResponse::stats ladder counters.
struct RungTotals {
  size_t shared = 0;
  size_t histogram = 0;
  size_t probe = 0;
};

bool Accumulate(const std::vector<Result<RewriteResponse>>& responses,
                RungTotals* totals) {
  for (const Result<RewriteResponse>& r : responses) {
    if (!r.ok()) {
      std::printf("serve failed: %s\n", r.status().ToString().c_str());
      return false;
    }
    totals->shared += r.value().stats.selectivity_tier_hits[0];
    totals->histogram += r.value().stats.selectivity_tier_hits[1];
    totals->probe += r.value().stats.selectivity_tier_hits[2];
  }
  return true;
}

int Run(const TierOptions& opts) {
  const size_t kRows = opts.smoke ? 60000 : 400000;
  const size_t kQueries = opts.smoke ? 60 : 300;
  const uint64_t kSeed = 41;
  const double kMinSpeedup = 2.0;

  std::printf("building twin cold scenarios (%zu rows, %zu first-seen queries)...\n",
              kRows, kQueries);

  // ------------------------------------------------------------- phase 1 ---
  PrintBanner("Phase 1 — cold serve: tier off vs on (first-seen shapes)");
  double off_qps = 0.0;
  double on_qps = 0.0;
  RungTotals off_rungs;
  RungTotals on_rungs;
  std::vector<std::string> strategies = {"naive"};
  {
    Scenario off_scenario = BuildColdScenario(kRows, kQueries, kSeed);
    MalivaService off(&off_scenario, TierServiceConfig(false, false));
    if (!off.Warmup(strategies).ok()) return 1;
    std::vector<RewriteRequest> requests = MakeRequests(off_scenario);
    Stopwatch watch;
    std::vector<Result<RewriteResponse>> responses = off.ServeBatch(requests);
    double seconds = watch.Seconds();
    if (!Accumulate(responses, &off_rungs)) return 1;
    off_qps = static_cast<double>(kQueries) / seconds;
    std::printf("off: %zu cold serves in %.3fs = %.0f QPS  "
                "(slots: %zu probed, %zu histogram)\n",
                kQueries, seconds, off_qps, off_rungs.probe, off_rungs.histogram);
  }
  {
    Scenario on_scenario = BuildColdScenario(kRows, kQueries, kSeed);
    MalivaService on(&on_scenario, TierServiceConfig(true, false));
    if (!on.Warmup(strategies).ok()) return 1;
    std::vector<RewriteRequest> requests = MakeRequests(on_scenario);
    Stopwatch watch;
    std::vector<Result<RewriteResponse>> responses = on.ServeBatch(requests);
    double seconds = watch.Seconds();
    if (!Accumulate(responses, &on_rungs)) return 1;
    on_qps = static_cast<double>(kQueries) / seconds;
    std::printf("on:  %zu cold serves in %.3fs = %.0f QPS  "
                "(slots: %zu probed, %zu histogram)\n",
                kQueries, seconds, on_qps, on_rungs.probe, on_rungs.histogram);
  }
  double speedup = off_qps > 0.0 ? on_qps / off_qps : 0.0;
  std::printf("cold-serve speedup: %.2fx (floor %.1fx)\n", speedup, kMinSpeedup);

  // ------------------------------------------------------------- phase 2 ---
  PrintBanner("Phase 2 — histogram accuracy vs TrueSelectivity");
  double mean_abs_rel_error = 0.0;
  size_t error_samples = 0;
  const double kErrorThreshold = SelectivityTierConfig{}.max_rel_error;
  {
    Scenario scenario = BuildColdScenario(kRows, kQueries, kSeed);
    const Engine& engine = *scenario.engine;
    uint64_t epoch = engine.catalog_version();
    double sum = 0.0;
    for (const Query& q : scenario.queries) {
      for (const Predicate& pred : q.predicates) {
        Result<double> est = engine.HistogramSelectivity("tweets", pred, epoch);
        Result<double> truth = engine.TrueSelectivity("tweets", pred);
        if (!est.ok() || !truth.ok()) continue;
        sum += std::abs(est.value() - truth.value()) /
               std::max(truth.value(), 1e-3);
        ++error_samples;
      }
    }
    mean_abs_rel_error =
        error_samples == 0 ? 0.0 : sum / static_cast<double>(error_samples);
    std::printf("%zu predicate estimates, mean abs rel error %.4f "
                "(demotion threshold %.2f)\n",
                error_samples, mean_abs_rel_error, kErrorThreshold);
  }

  // ------------------------------------------------------------- phase 3 ---
  PrintBanner("Phase 3 — full ladder: shared store + histograms, two passes");
  RungTotals pass1;
  RungTotals pass2;
  {
    Scenario scenario = BuildColdScenario(kRows, kQueries, kSeed);
    MalivaService service(&scenario, TierServiceConfig(true, true));
    if (!service.Warmup(strategies).ok()) return 1;
    std::vector<RewriteRequest> requests = MakeRequests(scenario);
    if (!Accumulate(service.ServeBatch(requests), &pass1)) return 1;
    if (!Accumulate(service.ServeBatch(requests), &pass2)) return 1;
    std::printf("pass 1 slots: %zu shared / %zu histogram / %zu probe\n",
                pass1.shared, pass1.histogram, pass1.probe);
    std::printf("pass 2 slots: %zu shared / %zu histogram / %zu probe\n",
                pass2.shared, pass2.histogram, pass2.probe);
    ServiceStats stats = service.Stats();
    std::printf("service telemetry: histogram_hits=%llu probe_collections=%llu "
                "shared_hits=%llu\n",
                static_cast<unsigned long long>(stats.histogram_hits),
                static_cast<unsigned long long>(stats.probe_collections),
                static_cast<unsigned long long>(stats.shared_hits));
  }

  // ---------------------------------------------------------------- JSON ---
  std::FILE* f = std::fopen(opts.out_path.c_str(), "w");
  if (f == nullptr) {
    std::printf("cannot open %s for writing\n", opts.out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"bench_selectivity_tiers\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", opts.smoke ? "smoke" : "full");
  std::fprintf(f, "  \"rows\": %zu,\n", kRows);
  std::fprintf(f, "  \"queries\": %zu,\n", kQueries);
  std::fprintf(f, "  \"cold\": {\"off_qps\": %.1f, \"on_qps\": %.1f, \"speedup\": %.3f,\n",
               off_qps, on_qps, speedup);
  std::fprintf(f, "    \"off_probe_slots\": %zu, \"on_histogram_slots\": %zu, "
               "\"on_probe_slots\": %zu},\n",
               off_rungs.probe, on_rungs.histogram, on_rungs.probe);
  std::fprintf(f, "  \"accuracy\": {\"mean_abs_rel_error\": %.5f, "
               "\"demotion_threshold\": %.3f, \"samples\": %zu},\n",
               mean_abs_rel_error, kErrorThreshold, error_samples);
  std::fprintf(f, "  \"ladder\": {\n");
  std::fprintf(f, "    \"pass1\": {\"shared\": %zu, \"histogram\": %zu, \"probe\": %zu},\n",
               pass1.shared, pass1.histogram, pass1.probe);
  std::fprintf(f, "    \"pass2\": {\"shared\": %zu, \"histogram\": %zu, \"probe\": %zu}\n",
               pass2.shared, pass2.histogram, pass2.probe);
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", opts.out_path.c_str());

  // ---------------------------------------------------------- acceptance ---
  bool ok = true;
  if (speedup < kMinSpeedup) {
    std::printf("CHECK FAILED: cold-serve speedup %.2fx below %.1fx\n", speedup,
                kMinSpeedup);
    ok = false;
  }
  if (on_rungs.histogram == 0) {
    std::printf("CHECK FAILED: tier on but zero histogram-tier hits\n");
    ok = false;
  }
  if (off_rungs.probe == 0 || off_rungs.histogram != 0) {
    std::printf("CHECK FAILED: tier off must probe every slot "
                "(probed %zu, histogram %zu)\n",
                off_rungs.probe, off_rungs.histogram);
    ok = false;
  }
  if (error_samples == 0 || mean_abs_rel_error >= kErrorThreshold) {
    std::printf("CHECK FAILED: mean abs rel error %.4f not below threshold %.2f\n",
                mean_abs_rel_error, kErrorThreshold);
    ok = false;
  }
  if (pass2.shared == 0) {
    std::printf("CHECK FAILED: second pass never hit rung 1 (shared store)\n");
    ok = false;
  }
  std::printf("%s\n", ok ? "all selectivity-tier checks passed"
                         : "SELECTIVITY TIER CHECKS FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace maliva

int main(int argc, char** argv) {
  maliva::bench::TierOptions opts;
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
