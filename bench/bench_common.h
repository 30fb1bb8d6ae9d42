// Shared configuration and helpers for the bench binaries.
//
// bench_paper_claims regenerates the paper's Section 7 tables and figures;
// the other benches measure the reproduction's own serving mechanisms
// (docs/experiments.md is the index). Scales are laptop-sized: ~1.5-2x
// smaller query workloads than the paper, and virtual row counts of 30M-150M
// (Table 1) standing in for its 100M-500M-row deployments.

#ifndef MALIVA_BENCH_BENCH_COMMON_H_
#define MALIVA_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdio>
#include <string>

#include "harness/experiment.h"
#include "service/service.h"
#include "util/rng.h"
#include "workload/arrival.h"

namespace maliva {
namespace bench {

/// Rows in the actual in-memory tables (virtual size = rows x scale).
inline constexpr size_t kBenchRows = 150000;
/// Queries per workload (the paper uses ~1400 per setting).
inline constexpr size_t kBenchQueries = 1000;

inline ScenarioConfig TwitterConfig500ms() {
  ScenarioConfig cfg;
  cfg.kind = DatasetKind::kTwitter;
  cfg.num_rows = kBenchRows;
  cfg.num_queries = kBenchQueries;
  cfg.tau_ms = 500.0;
  cfg.seed = 101;
  return cfg;
}

inline ScenarioConfig TpchConfig500ms() {
  ScenarioConfig cfg;
  cfg.kind = DatasetKind::kTpch;
  cfg.num_rows = kBenchRows;
  cfg.num_queries = kBenchQueries;
  cfg.tau_ms = 500.0;
  cfg.seed = 303;
  // TPC-H: 150k actual rows x 600 = 90M virtual.
  cfg.profile.cardinality_scale = 600.0;
  return cfg;
}

/// Simple wall-clock stopwatch for reporting bench phases.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline void PrintBanner(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

}  // namespace bench
}  // namespace maliva

#endif  // MALIVA_BENCH_BENCH_COMMON_H_
