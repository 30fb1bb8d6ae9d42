// Figure 20: quality-aware rewriting on Twitter with five LIMIT
// approximation rules (0.032%, 0.16%, 0.8%, 4%, 20% of the estimated result
// cardinality) on top of the 8 hint sets. Approaches: Baseline, MDP
// (Accurate-QTE, exact only), two-stage MDP, one-stage MDP.
//
// Shape targets (paper): for the 0-viable bucket the exact approaches stay
// at 0% VQP while the approximate ones unlock ~24-31%, with one-stage above
// two-stage on VQP/AQRT and two-stage above one-stage on quality.

#include "bench_common.h"

using namespace maliva;
using namespace maliva::bench;

int main() {
  PrintBanner("Figure 20: quality-aware rewriting (5 LIMIT rules, tau=0.5s)");
  Stopwatch sw;
  ScenarioConfig cfg = TwitterConfig500ms();
  cfg.output = OutputKind::kScatter;  // Jaccard over scatter ids (paper Fig 9)
  cfg.seed = 910;
  Scenario s = BuildScenario(cfg);

  std::vector<ApproxRule> rules = {{ApproxKind::kLimit, 0.00032},
                                   {ApproxKind::kLimit, 0.0016},
                                   {ApproxKind::kLimit, 0.008},
                                   {ApproxKind::kLimit, 0.04},
                                   {ApproxKind::kLimit, 0.2}};

  ServiceConfig config = DefaultServiceConfig().WithApproxRules(rules);
  config.beta = 0.5;
  MalivaService service(&s, config);
  std::vector<Approach> approaches = ApproachesFor(
      service,
      {"baseline", "mdp/accurate", "quality/two-stage", "quality/one-stage"});

  BucketedWorkload bw = BucketQueries(*s.oracle, s.evaluation, s.options, cfg.tau_ms,
                                      BucketScheme::Exact0To4());
  ExperimentResult r = RunExperiment(approaches, bw);

  PrintVqpTable(r, "Fig 20a: quality-aware VQP");
  PrintAqrtTable(r, "Fig 20b: quality-aware AQRT");
  PrintQualityTable(r, "Fig 20c: average Jaccard quality");
  std::printf("[quality-aware experiment done in %.1fs]\n", sw.Seconds());
  return 0;
}
