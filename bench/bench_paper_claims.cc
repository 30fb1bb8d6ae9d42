// Regenerates the paper's Section 7 (Tables 1-3, Figures 12-21) from one table of
// figure specs and checks the paper's claims on it. Usage:
//   bench_paper_claims [--figure <id>]...   # default: every figure, in table order
// Tables go to stdout; claim verdicts and the known-failing list go to stderr. Exit
// status: 1 when a claim off the known-failing list fails or one on it holds (so
// the list only shrinks, in the change that fixes the claim), 2 on a usage error.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "qte/plan_time_oracle.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "workload/query_gen.h"

using namespace maliva;
using namespace maliva::bench;

namespace {

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  std::exit(1);
}

ScenarioConfig TaxiConfig1s() {
  ScenarioConfig cfg;
  cfg.kind = DatasetKind::kTaxi;
  cfg.num_rows = kBenchRows;
  cfg.num_queries = kBenchQueries;
  cfg.tau_ms = 1000.0;
  cfg.seed = 202;
  // NYC Taxi: 150k actual rows x 1000 = 150M virtual.
  cfg.profile.cardinality_scale = 1000.0;
  return cfg;
}

/// TwitterConfig500ms() with `edit` applied.
ScenarioConfig Twitter(const std::function<void(ScenarioConfig&)>& edit) {
  ScenarioConfig cfg = TwitterConfig500ms();
  edit(cfg);
  return cfg;
}

/// Twitter with 4 or 5 filter attributes, i.e. 16 or 32 rewrite options (Table 3,
/// Figs 14-15).
ScenarioConfig TwitterOptions(size_t num_attrs, uint64_t seed) {
  return Twitter([&](ScenarioConfig& c) {
    c.num_attrs = num_attrs;
    c.seed = seed;
  });
}

std::string Tau(double tau_ms) { return "tau=" + FormatDouble(tau_ms / 1000.0, 2) + "s"; }

/// The figures' service: 25 trainer iterations, best of two agent seeds.
ServiceConfig FigureServiceConfig() {
  ServiceConfig config;
  config.trainer.max_iterations = 25;
  config.num_agent_seeds = 2;
  return config;
}

// --------------------------------------------------------------- claims ---

// Approach display names, as the tables print them.
const std::string kBaseline = "Baseline", kApprox = "MDP (Approx-QTE)",
                  kAccurate = "MDP (Accurate-QTE)", kTwoStage = "2-stage MDP (Accu-QTE)",
                  kOneStage = "1-stage MDP (Accu-QTE)";

constexpr double ApproachMetrics::*kVqp = &ApproachMetrics::vqp;
constexpr double ApproachMetrics::*kAqrt = &ApproachMetrics::aqrt_ms;
constexpr double ApproachMetrics::*kQuality = &ApproachMetrics::quality;

enum class Op { kGreater, kGreaterEq, kLessEq };

/// Holds when, on each bucket named in `buckets` (by label; empty = every non-empty
/// bucket), every approach in `lhs` compares to every approach in `rhs` as `op` says
/// on `metric`, unrounded.
Claim Compare(const std::string& name, double ApproachMetrics::*metric,
              std::vector<std::string> lhs, Op op, std::vector<std::string> rhs,
              std::vector<std::string> buckets = {}) {
  return {name, [=](const ExperimentResult& r) {
    auto cell = [&](const BucketMetrics& bm, const std::string& approach) {
      auto it = std::find(r.approach_names.begin(), r.approach_names.end(), approach);
      if (it == r.approach_names.end()) Die(name + ": no approach " + approach);
      return bm.per_approach[it - r.approach_names.begin()].*metric;
    };
    bool held = true;
    size_t named = 0;
    for (const BucketMetrics& bm : r.buckets) {
      if (buckets.empty() ? bm.num_queries == 0
                          : std::count(buckets.begin(), buckets.end(), bm.label) == 0) {
        continue;
      }
      ++named;
      for (const std::string& a : lhs) {
        for (const std::string& b : rhs) {
          const double x = cell(bm, a), y = cell(bm, b);
          held = held && (op == Op::kGreater     ? x > y
                          : op == Op::kGreaterEq ? x >= y
                                                 : x <= y);
        }
      }
    }
    if (!buckets.empty() && named != buckets.size()) Die(name + ": no such bucket");
    return held;
  }};
}

/// Both MDP agents beat Baseline on VQP on the hard buckets 1-3.
Claim MdpBeatsBaseline(const std::string& name) {
  return Compare(name, kVqp, {kApprox, kAccurate}, Op::kGreater, {kBaseline},
                 {"1", "2", "3"});
}

/// Claims the current code fails. A claim leaves this list only in the change
/// that makes it hold; the binary fails while a listed claim holds.
const std::set<std::string> kKnownFailing = {
    "fig12.taxi.mdp_beats_baseline_b1_b3", "fig12.tpch.mdp_ge_baseline_bucket1",
    "fig13.tpch.mdp_aqrt_le_baseline", "fig20.two_stage_quality_ge_one_stage"};

// -------------------------------------------------------------- figures ---

struct Printout {
  void (*print)(const ExperimentResult&, const std::string&, std::ostream&);
  std::string title;
};

/// One bucketed experiment: a service over the scenario runs the strategies on
/// the bucketed evaluation split; the tables are printed and the claims judged.
struct Run {
  ScenarioConfig scenario;
  std::vector<std::string> strategies;
  BucketScheme scheme;
  std::vector<Printout> tables;
  std::string done;  ///< "[<done> done in Ns]"
  std::vector<Claim> claims{};
  std::string banner{};                           ///< printed first; empty = none
  std::function<void(ServiceConfig&)> service{};  ///< edits FigureServiceConfig()
  /// Edits the built scenario; `owned` keeps the queries it adds alive.
  std::function<void(Scenario&, std::vector<Query>& owned)> prepare{};
};

/// One entry of the figure table: bucketed runs, or a function of its own.
struct Figure {
  std::string id;
  std::string banner;  ///< empty = none
  std::vector<Run> runs{};
  std::function<void()> custom{};
};

// Table 1: dataset inventory (virtual record counts, attributes). Each
// generator emits exactly cfg.num_rows base-table rows, so no scenario is built.
void Table1() {
  std::printf("%-10s %-36s %-52s %s\n", "Dataset", "Records", "Filtering attributes",
              "Output attributes");
  auto row = [](const ScenarioConfig& cfg, const char* filtering, const char* output) {
    const size_t n = cfg.num_rows;
    const double scale = cfg.profile.cardinality_scale;
    std::printf("%-10s %10.0fM (%zu actual x %.0f)   %-52s %s\n",
                DatasetKindName(cfg.kind), static_cast<double>(n) * scale / 1e6, n, scale,
                filtering, output);
  };
  row(TwitterConfig500ms(), "text, created_at, coordinates, statuses, followers",
      "id, coordinates");
  row(TaxiConfig1s(), "pickup_datetime, trip_distance, pickup_coordinates",
      "id, pickup_coordinates");
  row(TpchConfig500ms(), "extended_price, ship_date, receipt_date", "quantity, discount");
}

// Table 2: queries per viable-plan bucket (3 datasets, 8 rewrite options). Table 3:
// the same for the 16- and 32-option Twitter workloads.
void Tables2And3() {
  auto sizes = [](const ScenarioConfig& cfg, const BucketScheme& scheme,
                  const std::string& title) {
    Scenario s = BuildScenario(cfg);
    PrintBucketSizes(
        BucketQueries(*s.oracle, s.evaluation, s.options, cfg.tau_ms, scheme), title);
  };
  for (const ScenarioConfig& cfg :
       {TwitterConfig500ms(), TaxiConfig1s(), TpchConfig500ms()}) {
    Stopwatch sw;
    sizes(cfg, BucketScheme::Exact0To4(),
          std::string(DatasetKindName(cfg.kind)) + " (" + Tau(cfg.tau_ms) + ")");
    std::printf("[%.1fs]\n", sw.Seconds());
  }
  PrintBanner("Table 3: Twitter workloads with 16 and 32 rewrite options");
  sizes(TwitterOptions(4, 404), BucketScheme::Ranges16(), "Twitter, 16 rewrite options");
  sizes(TwitterOptions(5, 505), BucketScheme::Ranges32(), "Twitter, 32 rewrite options");
}

// Fig 19a: agents train and validate on single-table Twitter queries and are
// evaluated on join queries, with the 8 per-attribute index hint sets on both
// shapes (the engine's optimizer picks the join method).
void TrainOnSingleTableQueries(Scenario& s, std::vector<Query>& owned) {
  s.options = EnumerateHintOnlyOptions(3);
  QueryGenConfig qg;
  qg.attrs = s.attrs;
  qg.num_queries = 500;
  qg.seed = 909;
  qg.id_base = 90000000;
  qg.output = OutputKind::kHeatmap;
  qg.output_column = "coordinates";
  owned = GenerateQueries(*s.engine->FindEntry("tweets")->table, nullptr, qg);
  s.train.clear();
  s.validation.clear();
  for (size_t i = 0; i < owned.size(); ++i) {
    (i % 3 == 2 ? s.validation : s.train).push_back(&owned[i]);
  }
}

// Fig 21: learning curves (a, b) and training time (c), mean +- stddev over 3
// repetitions (the paper uses 10). Every point trains on the scenario's one oracle
// memo, which earlier points (and each training's ground-truth prefill) have
// warmed, so the oracle misses (plans the training executed rather than read from
// the memo) are printed beside each time. The 18 agents are all evaluated on the
// same validation queries, so their ground truth is prefilled once, in parallel;
// validation and training queries are disjoint, so the misses do not move. Unit
// costs per the paper's Section 7.8.
void LearningCurve(size_t num_attrs, double unit_cost_ms, uint64_t seed,
                   bool print_curve) {
  Scenario s = BuildScenario(Twitter([&](ScenarioConfig& c) {
    c.num_attrs = num_attrs;
    c.qte.unit_cost_ms = unit_cost_ms;
    c.seed = seed;
  }));
  MalivaService service(&s, FigureServiceConfig());
  PrefillTrueTimes(*s.oracle, s.validation, s.options);
  std::printf("\n== %zu rewrite options (unit cost %.0fms) ==\n", s.options.size(),
              unit_cost_ms);
  std::printf("%-8s %-22s %-22s %-24s %s\n", "queries", "train VQP (mean+-std)",
              "valid VQP (mean+-std)", "train time s (mean+-std)",
              "oracle misses (mean)");
  for (size_t n : {25, 50, 100, 150, 200, 300}) {
    std::vector<double> train_vqp, valid_vqp, train_time, misses;
    const uint64_t seed_base = seed * 17 + n;
    Rng rng(seed_base);
    for (size_t rep = 0; rep < 3; ++rep) {
      std::vector<const Query*> subset;  // n training queries, without replacement
      for (size_t i :
           rng.SampleWithoutReplacement(s.train.size(), std::min(n, s.train.size()))) {
        subset.push_back(s.train[i]);
      }
      const size_t memo_before = s.oracle->CacheSize();
      Stopwatch sw;
      std::unique_ptr<QAgent> agent =
          service.TrainAgentOn(subset, seed_base + rep * 131, nullptr);
      train_time.push_back(sw.Seconds());
      misses.push_back(static_cast<double>(s.oracle->CacheSize() - memo_before));
      train_vqp.push_back(service.EvaluateAgentVqp(*agent, subset));
      valid_vqp.push_back(service.EvaluateAgentVqp(*agent, s.validation));
    }
    if (print_curve) {
      std::printf("%-8zu %6.1f +- %-12.1f %6.1f +- %-12.1f ", n, Mean(train_vqp),
                  Stddev(train_vqp), Mean(valid_vqp), Stddev(valid_vqp));
    } else {
      std::printf("%-8zu %-22s %-22s ", n, "-", "-");
    }
    std::printf("%6.2f +- %-14.2f %.0f\n", Mean(train_time), Stddev(train_time),
                Mean(misses));
  }
}

const std::vector<std::string> kFourApproaches = {"baseline", "bao", "mdp/sampling",
                                                  "mdp/accurate"};

/// The VQP and AQRT tables of figures `vqp` and `aqrt`, both titled `title`.
std::vector<Printout> VqpAqrt(const std::string& vqp, const std::string& aqrt,
                              const std::string& title) {
  return {{PrintVqpTable, vqp + ": " + title}, {PrintAqrtTable, aqrt + ": " + title}};
}

/// Fig 12/13 for one dataset.
Run MainResult(const ScenarioConfig& cfg, std::vector<Claim> claims) {
  const std::string dataset = DatasetKindName(cfg.kind);
  return {cfg, kFourApproaches, BucketScheme::Exact0To4(),
          VqpAqrt("Fig 12", "Fig 13", dataset + " " + Tau(cfg.tau_ms)), dataset,
          std::move(claims)};
}

/// Fig 14/15 for 4 or 5 Twitter filter attributes (16 or 32 rewrite options).
Run OptionCount(size_t num_attrs, uint64_t seed, BucketScheme scheme,
                std::vector<std::string> strategies) {
  const std::string options = std::to_string(size_t{1} << num_attrs);
  return {TwitterOptions(num_attrs, seed), std::move(strategies), std::move(scheme),
          VqpAqrt("Fig 14", "Fig 15", options + " rewrite options (Twitter)"),
          options + " options"};
}

/// Fig 16/17 for one time budget on Twitter.
Run TimeBudget(double tau_ms, std::vector<Claim> claims = {}) {
  return {Twitter([&](ScenarioConfig& c) { c.tau_ms = tau_ms; }), kFourApproaches,
          BucketScheme::Exact0To4(),
          VqpAqrt("Fig 16", "Fig 17", "Twitter " + Tau(tau_ms)), Tau(tau_ms),
          std::move(claims)};
}

ScenarioConfig Join(uint64_t seed) {
  return Twitter([=](ScenarioConfig& c) {
    c.join = true;
    c.num_users = 20000;
    c.seed = seed;
  });
}

/// The figure table, in the order the full run prints it. Each comment gives the
/// paper's shape target that the figure's claims state.
std::vector<Figure> Figures() {
  const std::vector<std::string> no_bao = {"baseline", "mdp/sampling", "mdp/accurate"};
  return {
      {"table1", "Table 1: Datasets (virtual record counts emulate the paper's scale)",
       {}, Table1},
      {"table2_3", "Table 2: queries per viable-plan bucket (8 rewrite options)", {},
       Tables2And3},
      // MDP >> Baseline on the hard buckets.
      {"fig12_13",
       "Figures 12-13: main results, 8 rewrite options, 4 approaches",
       {MainResult(TwitterConfig500ms(),
                   {MdpBeatsBaseline("fig12.twitter.mdp_beats_baseline")}),
        MainResult(TaxiConfig1s(),
                   {MdpBeatsBaseline("fig12.taxi.mdp_beats_baseline_b1_b3")}),
        MainResult(TpchConfig500ms(),
                   {Compare("fig12.tpch.mdp_ge_baseline_bucket1", kVqp,
                            {kApprox, kAccurate}, Op::kGreaterEq, {kBaseline}, {"1"}),
                    Compare("fig13.tpch.mdp_aqrt_le_baseline", kAqrt,
                            {kApprox, kAccurate}, Op::kLessEq, {kBaseline})})}},
      // The MDP advantage shrinks from 16 to 32 options: a claim across two runs,
      // which Compare cannot state.
      {"fig14_15",
       "Figures 14-15: effect of the number of rewrite options",
       {OptionCount(4, 404, BucketScheme::Ranges16(),
                    {"baseline", "bao", "naive", "mdp/sampling", "mdp/accurate"}),
        OptionCount(5, 505, BucketScheme::Ranges32(), kFourApproaches)}},
      // At 0.25s, accurate estimation is too expensive: Approximate-QTE wins.
      {"fig16_17",
       "Figures 16-17: effect of the time budget",
       {TimeBudget(250.0, {Compare("fig16.tau0_25.approx_beats_accurate", kVqp, {kApprox},
                                   Op::kGreater, {kAccurate}, {"1", "2", "3", "4"})}),
        TimeBudget(750.0), TimeBudget(1000.0)}},
      // tweets JOIN users, 21 options: 7 index subsets x 3 join methods.
      {"fig18",
       "Figure 18: join queries, 21 rewrite options (Twitter, tau=0.5s)",
       {{Join(606), kFourApproaches, BucketScheme::JoinRanges(),
         VqpAqrt("Fig 18a", "Fig 18b", "join queries"), "join experiment"}}},
      // (a) MDP still beats Baseline on unseen (join) query shapes. (b) A commercial
      // profile (~10M rows) with behaviours the sampling QTE cannot model.
      {"fig19",
       "",
       {{Join(707), no_bao, BucketScheme::Exact0To4(),
         {{PrintVqpTable, "Fig 19a: unseen (join) queries, tau=0.5s"}}, "unseen-queries",
         {MdpBeatsBaseline("fig19a.mdp_beats_baseline")},
         "Fig 19a: unseen query shapes (train single-table, test join)", {},
         TrainOnSingleTableQueries},
        {Twitter([](ScenarioConfig& c) {
           c.profile = EngineProfile::CommercialLike();
           c.profile.cardinality_scale = 67.0;  // 150k actual -> ~10M virtual
           c.tau_ms = 250.0;
           c.seed = 808;
         }),
         no_bao, BucketScheme::Ranges16(),
         {{PrintVqpTable, "Fig 19b: commercial DB, tau=0.25s"}}, "commercial-db", {},
         "Fig 19b: commercial database profile (10M rows, tau=0.25s)"}}},
      // Five LIMIT rules on the 8 hint sets, Jaccard quality over scatter ids. The
      // approximate agents unlock the 0-viable bucket, and two-stage beats one-stage
      // on quality.
      {"fig20",
       "Figure 20: quality-aware rewriting (5 LIMIT rules, tau=0.5s)",
       {{Twitter([](ScenarioConfig& c) {
           c.output = OutputKind::kScatter;
           c.seed = 910;
         }),
         {"baseline", "mdp/accurate", "quality/two-stage", "quality/one-stage"},
         BucketScheme::Exact0To4(),
         {{PrintVqpTable, "Fig 20a: quality-aware VQP"},
          {PrintAqrtTable, "Fig 20b: quality-aware AQRT"},
          {PrintQualityTable, "Fig 20c: average Jaccard quality"}},
         "quality-aware experiment",
         {Compare("fig20.approx_unlocks_zero_viable", kVqp, {kTwoStage, kOneStage},
                  Op::kGreater, {kBaseline, kAccurate}, {"0"}),
          Compare("fig20.two_stage_quality_ge_one_stage", kQuality, {kTwoStage},
                  Op::kGreaterEq, {kOneStage})},
         "",
         [](ServiceConfig& config) {
           for (double fraction : {0.00032, 0.0016, 0.008, 0.04, 0.2}) {
             config.approx_rules.push_back({ApproxKind::kLimit, fraction});
           }
           config.beta = 0.5;
         }}}},
      {"fig21", "Figure 21: learning curves and training time", {}, [] {
         LearningCurve(3, 100.0, 1111, /*print_curve=*/true);   // Fig 21a + 21c
         LearningCurve(4, 60.0, 2222, /*print_curve=*/false);   // Fig 21c (16 options)
         LearningCurve(5, 50.0, 3333, /*print_curve=*/true);    // Fig 21b + 21c
       }}};
}

/// Runs one bucketed experiment, prints its tables, then judges its claims,
/// printing each verdict to stderr.
void RunBucketed(const Run& run, std::vector<ClaimVerdict>* verdicts) {
  if (!run.banner.empty()) PrintBanner(run.banner);
  Stopwatch sw;
  Scenario s = BuildScenario(run.scenario);
  std::vector<Query> owned;
  if (run.prepare) run.prepare(s, owned);
  ServiceConfig config = FigureServiceConfig();
  if (run.service) run.service(config);
  MalivaService service(&s, config);
  std::vector<Approach> approaches;
  for (const std::string& strategy : run.strategies) {
    approaches.push_back(ApproachFor(service, strategy));
  }
  ExperimentResult r = RunExperiment(
      approaches,
      BucketQueries(*s.oracle, s.evaluation, s.options, run.scenario.tau_ms, run.scheme));
  for (const Printout& t : run.tables) t.print(r, t.title, std::cout);
  std::printf("[%s done in %.1fs]\n", run.done.c_str(), sw.Seconds());
  std::fflush(stdout);
  for (const Claim& claim : run.claims) {
    verdicts->push_back(JudgeClaim(claim, r, kKnownFailing.count(claim.name) > 0));
    std::fprintf(stderr, "[claim] %s: %s\n", claim.name.c_str(),
                 ClaimVerdictName(verdicts->back()));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<Figure> figures = Figures();
  std::string ids;
  std::set<std::string> claims;
  for (const Figure& f : figures) {
    ids += " " + f.id;
    for (const Run& run : f.runs) {
      for (const Claim& c : run.claims) claims.insert(c.name);
    }
  }
  // A stale or misspelt known-failing entry would never be judged.
  for (const std::string& name : kKnownFailing) {
    if (claims.count(name) == 0) Die("known-failing entry names no claim: " + name);
  }

  std::set<std::string> selected;
  for (int i = 1; i < argc; i += 2) {
    const std::string id = i + 1 < argc ? argv[i + 1] : "";
    if (std::string(argv[i]) != "--figure" ||
        (ids + " ").find(" " + id + " ") == std::string::npos) {
      std::fprintf(stderr, "unknown argument: %s %s\nusage: %s [--figure <id>]...\n"
                   "ids:%s\n", argv[i], id.c_str(), argv[0], ids.c_str());
      return 2;
    }
    selected.insert(id);
  }

  std::vector<ClaimVerdict> verdicts;
  for (const Figure& f : figures) {
    if (!selected.empty() && selected.count(f.id) == 0) continue;
    if (!f.banner.empty()) PrintBanner(f.banner);
    if (f.custom) f.custom();
    for (const Run& run : f.runs) RunBucketed(run, &verdicts);
  }

  const bool ok = AllVerdictsExpected(verdicts);
  std::fprintf(stderr, "\n== %zu claims judged, %td held; known-failing list:\n",
               verdicts.size(),
               std::count(verdicts.begin(), verdicts.end(), ClaimVerdict::kHeld));
  for (const std::string& name : kKnownFailing) {
    std::fprintf(stderr, "  %s\n", name.c_str());
  }
  std::fprintf(stderr, "paper claims %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
