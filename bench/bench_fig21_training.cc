// Figure 21: training performance.
//  (a,b) Learning curves: training/validation VQP vs number of training
//        queries for the 8- and 32-option Twitter workloads (mean +- stddev
//        over repetitions). Shape target: validation converges to training
//        VQP at ~50 queries for 8 options and ~150 for 32.
//  (c)   Wall-clock training time vs number of training queries for 8, 16,
//        and 32 options. Shape target: more options -> larger Q-network ->
//        longer training. Every point trains on the scenario's one oracle
//        memo, which earlier points (and each training's ground-truth
//        prefill) have already warmed, so the oracle misses — plans the
//        training executed rather than read from the memo — are printed
//        beside each time.
//
// Unit costs per the paper's Section 7.8: 100ms / 60ms / 50ms for the
// 8/16/32-option workloads; tau = 0.5s; accurate QTE.

#include "bench_common.h"
#include "util/stats.h"

using namespace maliva;
using namespace maliva::bench;

namespace {

constexpr size_t kRepetitions = 3;  // paper uses 10; reduced for runtime
const size_t kTrainSizes[] = {25, 50, 100, 150, 200, 300};

struct CurvePoint {
  double train_mean, train_std, valid_mean, valid_std, time_mean, time_std;
  double misses_mean;  ///< oracle misses per training (CacheSize() delta)
};

CurvePoint MeasurePoint(MalivaService& service, Scenario& s, size_t train_size,
                        uint64_t seed_base) {
  std::vector<double> train_vqp, valid_vqp, train_time, misses;
  Rng rng(seed_base);
  for (size_t rep = 0; rep < kRepetitions; ++rep) {
    // Sample train_size queries from the training pool without replacement.
    std::vector<size_t> idx =
        rng.SampleWithoutReplacement(s.train.size(), std::min(train_size,
                                                              s.train.size()));
    std::vector<const Query*> subset;
    for (size_t i : idx) subset.push_back(s.train[i]);

    const size_t memo_before = s.oracle->CacheSize();
    Stopwatch sw;
    std::unique_ptr<QAgent> agent =
        service.TrainAgentOn(subset, seed_base + rep * 131, nullptr);
    train_time.push_back(sw.Seconds());
    misses.push_back(static_cast<double>(s.oracle->CacheSize() - memo_before));
    train_vqp.push_back(service.EvaluateAgentVqp(*agent, subset));
    valid_vqp.push_back(service.EvaluateAgentVqp(*agent, s.validation));
  }
  return {Mean(train_vqp),  Stddev(train_vqp), Mean(valid_vqp),
          Stddev(valid_vqp), Mean(train_time), Stddev(train_time), Mean(misses)};
}

void RunWorkload(size_t num_attrs, double unit_cost_ms, uint64_t seed,
                 bool print_curve) {
  ScenarioConfig cfg = TwitterConfig500ms();
  cfg.num_attrs = num_attrs;
  cfg.qte.unit_cost_ms = unit_cost_ms;
  cfg.seed = seed;
  Scenario s = BuildScenario(cfg);
  MalivaService service(&s, DefaultServiceConfig());

  size_t num_options = s.options.size();
  std::printf("\n== %zu rewrite options (unit cost %.0fms) ==\n", num_options,
              unit_cost_ms);
  std::printf("%-8s %-22s %-22s %-24s %s\n", "queries", "train VQP (mean+-std)",
              "valid VQP (mean+-std)", "train time s (mean+-std)", "oracle misses (mean)");
  for (size_t n : kTrainSizes) {
    CurvePoint p = MeasurePoint(service, s, n, seed * 17 + n);
    if (print_curve) {
      std::printf("%-8zu %6.1f +- %-12.1f %6.1f +- %-12.1f %6.2f +- %-14.2f %.0f\n", n,
                  p.train_mean, p.train_std, p.valid_mean, p.valid_std, p.time_mean,
                  p.time_std, p.misses_mean);
    } else {
      std::printf("%-8zu %-22s %-22s %6.2f +- %-14.2f %.0f\n", n, "-", "-", p.time_mean,
                  p.time_std, p.misses_mean);
    }
  }
}

}  // namespace

int main() {
  PrintBanner("Figure 21: learning curves and training time");
  RunWorkload(3, 100.0, 1111, /*print_curve=*/true);   // Fig 21a + 21c
  RunWorkload(4, 60.0, 2222, /*print_curve=*/false);   // Fig 21c (16 options)
  RunWorkload(5, 50.0, 3333, /*print_curve=*/true);    // Fig 21b + 21c
  return 0;
}
