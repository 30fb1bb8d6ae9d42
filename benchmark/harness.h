// Shared types of the maliva_bench harness (README.md has the design).
//
// The harness drives MalivaFleet through public calls only: it builds three
// scenarios and a fleet over them (setup.cc), generates each workload's
// decision contexts from --seed and drives them closed- or open-loop
// (loops.cc), times single layers on the workload's own inputs (probes.cc),
// and turns all of it into named metrics (maliva_bench.cc).

#ifndef MALIVA_BENCHMARK_HARNESS_H_
#define MALIVA_BENCHMARK_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "service/service_fleet.h"
#include "util/query_profiler.h"
#include "workload/scenario.h"

namespace maliva_bench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Origin of every span timestamp (set once, at process start).
Clock::time_point RunOrigin();

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  /// Directory for the run JSON and the span file; empty writes no files.
  std::string out_dir;
};

/// Sizes of everything one run builds and drives; --smoke shrinks them.
struct Scale {
  size_t rows;
  size_t queries;             ///< generated per scenario (half are evaluation)
  size_t train_queries;       ///< training uses only the first ones
  size_t validation_queries;
  size_t trainer_iterations;
  size_t warm_queries;        ///< warm_replan: evaluation queries per scenario
  size_t hot_queries;         ///< hot_dashboard: evaluation queries per scenario
  size_t cold_reference;      ///< cold_explore: requests in the reference set
  size_t probe_samples;       ///< calls per layer probe

  static Scale For(bool smoke);
};

inline constexpr int kNumScenarios = 3;
inline constexpr const char* kScenarioIds[kNumScenarios] = {"twitter", "taxi", "tpch"};
inline constexpr int kTpch = 2;

/// Wall deadline of a request: its effective tau times this slack, in ms
/// (the admission gate's slack in open_gated, and the deadline_met_frac
/// bar in every workload).
inline constexpr double kSlack = 0.1;

/// Three scenarios and the fleet serving them. The fleet borrows the
/// scenarios, so it is declared last and destroyed first.
struct Stack {
  std::vector<std::unique_ptr<maliva::Scenario>> scenarios;
  std::unique_ptr<maliva::MalivaFleet> fleet;
  double build_s = 0.0;  ///< BuildScenario wall time, summed over scenarios
  double train_s = 0.0;  ///< strategy builds (agent training), summed
  double setup_s = 0.0;  ///< wall time of the whole set-up

  std::shared_ptr<const maliva::MalivaService> Service(int scenario) const;
  /// Distinct (query, option) plan executions memoized so far, all scenarios.
  size_t PlanExecutions() const;
};

/// Builds the scenarios, registers them, and trains every strategy the
/// workloads serve. `admission` turns the gate on (open_gated); `profile`
/// turns on the per-request profiler (the traced run).
maliva::Result<std::unique_ptr<Stack>> BuildStack(const Scale& scale, bool admission,
                                                  bool profile);

/// One request's decision context. The query is an index into the
/// scenario's evaluation split, so one context list serves every stack (the
/// scenarios do not depend on the seed).
struct Context {
  int scenario = 0;
  uint32_t query = 0;
  std::string strategy;
  double tau_ms = 0.0;
  std::optional<double> quality_floor;
};

/// The workload's contexts, generated from --seed (see README.md).
std::vector<Context> MakeContexts(const std::string& workload, const Stack& stack,
                                  const Scale& scale, uint64_t seed);

/// What the harness keeps of one served request.
struct Decision {
  uint32_t context = 0;
  bool ok = false;
  bool cache_hit = false;
  uint64_t digest = 0;  ///< ReplayDriver::ResponseDigest
  maliva::RewriteOutcome outcome;
  size_t slots = 0;     ///< RequestStats::selectivities_collected
  const maliva::RewriteOption* option = nullptr;
};

/// Failed output checks, from any thread. A run with any is incorrect.
class Checks {
 public:
  void Fail(const std::string& what);
  bool ok() const;
  void Print() const;

 private:
  mutable std::mutex mutex_;
  uint64_t failures_ = 0;
  std::vector<std::string> first_;
};

/// One span of the in-memory trace. Ids are unique per run; parent 0 = root.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  const char* name = "";
  double start_us = 0.0;  ///< since RunOrigin()
  double end_us = 0.0;
};

/// Per-thread span buffer: holds at most `cap` spans, drops the rest.
class SpanLog {
 public:
  SpanLog(uint64_t tag, size_t cap) : tag_(tag), cap_(cap) {}
  bool full() const { return spans_.size() >= cap_; }
  /// Reserves an id for a span recorded later (a parent recorded after its
  /// children).
  uint64_t NewId() { return (tag_ << 40) | ++next_; }
  void Add(uint64_t id, uint64_t parent, uint64_t request, const char* name,
           Clock::time_point start, Clock::time_point end);
  std::vector<Span>& spans() { return spans_; }

 private:
  uint64_t tag_;
  size_t cap_;
  uint64_t next_ = 0;
  std::vector<Span> spans_;
};

/// What one workload run measured on one stack.
struct WorkloadResult {
  uint64_t attempted = 0;
  uint64_t errors = 0;  ///< non-OK responses other than typed sheds
  // End to end (closed loops: timed segments; open_gated: see README.md).
  double throughput_qps = 0.0;
  std::vector<double> segment_qps;  ///< closed loops: each timed segment
  double goodput_qps = 0.0;
  double latency_mean_ms = 0.0;
  double latency_p99_ms = 0.0;
  uint64_t latency_samples = 0;
  double served_frac = 0.0;
  double deadline_met_frac = 0.0;
  double gen_lag_p99_ms = 0.0;  ///< open_gated only
  /// The reference set behind the decision metrics and the decision
  /// digest: cold_explore's first requests, the warm/fill pass, or every
  /// open-loop arrival.
  std::vector<Decision> decisions;
  /// hot_dashboard: timed requests per context. Its decision metrics weight
  /// each (fill-pass) decision by how often viewers asked for it.
  std::vector<uint64_t> context_weights;
  // Layer statistics (collected when asked for).
  double serve_us_p50 = 0.0;
  double serve_us_p99 = 0.0;
  double fleet_overhead_us = 0.0;
  double queue_share_p50 = 0.0;  ///< queue wait over the request's deadline
  double queue_share_p99 = 0.0;
  double cache_hit_ratio = 0.0;
  double cache_evictions_per_req = 0.0;
  double plan_execs_per_req = 0.0;
  double degraded_frac = 0.0;
  double shed_frac = 0.0;
  maliva::ProfileBreakdown profile;
  uint64_t profiled = 0;
};

/// open_gated's offered rates: about 0.3x and 1.7x cold_explore's
/// closed-loop throughput, measured once on the reference machine
/// (README.md) and never recalibrated within a comparison.
inline constexpr double kOpenLowQps = 400.0;
inline constexpr double kOpenHighQps = 2500.0;

/// Runs `opts.workload` on `stack` for `seconds`. `layer_stats` collects the
/// per-layer samples; a non-null `spans` records the traced run's spans.
WorkloadResult RunWorkload(const Options& opts, const Scale& scale, const Stack& stack,
                           const std::vector<Context>& contexts, double seconds,
                           bool layer_stats, std::vector<Span>* spans, Checks* checks);

/// Times single layers on a seeded sample of the workload's own decisions.
/// Returns metric name -> median microseconds per call (empty when the
/// decisions hold no OK tpch one to sample).
std::map<std::string, double> RunProbes(const Scale& scale, const Stack& stack,
                                        const std::vector<Context>& contexts,
                                        const std::vector<Decision>& decisions,
                                        uint64_t seed, std::vector<Span>* spans);

/// A latency distribution over every sample in bounded memory: exact below
/// 512 ns, then 512 log-linear buckets per power of two (under 0.2% error).
class Histogram {
 public:
  void Add(double ms);
  void Merge(const Histogram& other);
  uint64_t count() const { return count_; }
  /// The exact mean in ms (0 when empty).
  double Mean() const { return count_ == 0 ? 0.0 : sum_ms_ / static_cast<double>(count_); }
  /// The q-quantile in ms: the middle of the bucket holding sorted[floor(q * n)].
  double Percentile(double q) const;

 private:
  static constexpr int kSubBits = 9;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr int kOctaves = 32;  // up to 2^41 ns, about 37 minutes
  std::vector<uint64_t> counts_ = std::vector<uint64_t>(kSub * (kOctaves + 1), 0);
  uint64_t count_ = 0;
  double sum_ms_ = 0.0;
};

/// sorted[floor(q * n)] over `v` (reorders it); 0 for an empty sample.
template <typename T>
double Percentile(std::vector<T>& v, double q) {
  if (v.empty()) return 0.0;
  size_t k = std::min(v.size() - 1, static_cast<size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

template <typename T>
double Median(std::vector<T> v) {
  return Percentile(v, 0.5);
}

/// splitmix64 finalizer: seeded, stateless index -> pseudo-random mapping.
inline uint64_t Mix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace maliva_bench

#endif  // MALIVA_BENCHMARK_HARNESS_H_
