// maliva_bench: the layered end-to-end benchmark of the Maliva serving stack.
//
//   maliva_bench --workload <cold_explore|warm_replan|hot_dashboard|open_gated|all>
//                --seed <n> [--seconds <s>] [--trace [0|1]] [--smoke] [--out <dir>]
//
// One workload per process, so set-up time and memory are the workload's
// own (`all` runs each in a child process). The run prints every metric by
// name with its unit, checks the outputs, and ends with one JSON line
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// untraced, the per-layer metrics with --trace. The exit code is non-zero
// when any check failed. README.md defines every metric and workload.

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "harness.h"
#include "workload/replay_driver.h"

extern char** environ;

namespace maliva_bench {
namespace {

constexpr const char* kWorkloads[] = {"cold_explore", "warm_replan", "hot_dashboard",
                                      "open_gated"};
/// Set-ups per run: setup_s is their median.
constexpr int kSetupReps = 3;
/// Above this generator lateness (p99) the open loop did not apply its
/// schedule: the tightest wall deadline (tau 250 ms x kSlack), which a
/// request that late has missed before it is submitted. Lateness below it
/// still counts against the service, since latency runs from the due time.
constexpr double kMaxGeneratorLagMs = 25.0;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Metrics of the reference decisions. In cold_explore and warm_replan they
/// are pure functions of the seed, like the decision digest (README.md).
constexpr const char* kDecisionMetrics[] = {"vqp_pct", "aqrt_ms", "plan_ms_mean",
                                            "quality_mean", "core.qte_calls_per_req",
                                            "qte.slots_per_req"};

double PeakRssMiB() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Virtual-time summary of the reference decisions.
struct Virtual {
  double vqp_pct = 0.0;
  double aqrt_ms = 0.0;
  double plan_ms = 0.0;
  double quality = 0.0;
  double steps = 0.0;
  double slots = 0.0;
  uint64_t digest = 0;
};

/// Summarizes the reference decisions, each weighted by `weights[context]`
/// when weights are given (hot_dashboard), else once.
Virtual Summarize(const std::vector<Decision>& decisions,
                  const std::vector<uint64_t>& weights) {
  Virtual v;
  std::vector<uint64_t> digests;
  double all = 0.0;
  double ok = 0.0;
  double viable = 0.0;
  for (const Decision& d : decisions) {
    digests.push_back(d.digest);
    const double w = weights.empty() ? 1.0 : static_cast<double>(weights[d.context]);
    all += w;
    if (!d.ok) continue;  // failures count as not viable
    ok += w;
    viable += d.outcome.viable ? w : 0.0;
    v.aqrt_ms += w * d.outcome.total_ms;
    v.plan_ms += w * d.outcome.planning_ms;
    v.quality += w * d.outcome.quality;
    v.steps += w * static_cast<double>(d.outcome.steps);
    v.slots += w * static_cast<double>(d.slots);
  }
  const double n_ok = std::max(ok, 1.0);
  v.vqp_pct = 100.0 * viable / std::max(all, 1.0);
  v.aqrt_ms /= n_ok;
  v.plan_ms /= n_ok;
  v.quality /= n_ok;
  v.steps /= n_ok;
  v.slots /= n_ok;
  v.digest = maliva::ReplayDriver::CombineDigests(digests);
  return v;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

bool WriteText(const std::string& path, const std::string& text) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << text;
  return static_cast<bool>(file);
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  char line[320];
  for (const Span& s : spans) {
    std::snprintf(line, sizeof(line),
                  "{\"id\": %llu, \"parent\": %llu, \"request\": %llu, \"name\": \"%s\", "
                  "\"start_us\": %.3f, \"end_us\": %.3f}\n",
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request), s.name, s.start_us, s.end_us);
    file << line;
  }
  return static_cast<bool>(file);
}

int Run(const Options& opts) {
  const Scale scale = Scale::For(opts.smoke);
  Checks checks;
  std::printf("maliva_bench %s seed %llu, %.3g s%s%s\n", opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? ", traced" : "", opts.smoke ? ", smoke" : "");

  // Set-up, kSetupReps times from scratch. The last stack serves the
  // workload; a traced run also keeps the one before it, untraced, to run
  // the same inputs without the profiler.
  std::vector<double> setup_s;
  std::vector<double> build_s;
  std::vector<double> train_s;
  std::unique_ptr<Stack> plain;
  std::unique_ptr<Stack> traced;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const bool last = rep + 1 == kSetupReps;
    maliva::Result<std::unique_ptr<Stack>> built =
        BuildStack(scale, opts.workload == "open_gated", opts.trace && last);
    if (!built.ok()) {
      std::printf("set-up failed: %s\n", built.status().ToString().c_str());
      return 1;
    }
    std::unique_ptr<Stack> stack = std::move(built).value();
    setup_s.push_back(stack->setup_s);
    build_s.push_back(stack->build_s);
    train_s.push_back(stack->train_s);
    std::printf("set-up %d: %.3f s (build %.3f s, train %.3f s)\n", rep + 1,
                stack->setup_s, stack->build_s, stack->train_s);
    if (opts.trace && last) {
      traced = std::move(stack);
    } else if (last || (opts.trace && rep + 2 == kSetupReps)) {
      plain = std::move(stack);
    }
  }

  const std::vector<Context> contexts = MakeContexts(opts.workload, *plain, scale, opts.seed);
  const double seconds = opts.trace ? opts.seconds / 2.0 : opts.seconds;
  const WorkloadResult result =
      RunWorkload(opts, scale, *plain, contexts, seconds, opts.trace, nullptr, &checks);
  const Virtual virt = Summarize(result.decisions, result.context_weights);
  uint64_t attempted = result.attempted;
  uint64_t failed = result.errors;

  std::vector<Metric> metrics;
  std::vector<Span> spans;
  if (!opts.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"throughput_qps", result.throughput_qps, "req/s"},
        {"goodput_qps", result.goodput_qps, "req/s"},
        {"latency_mean_ms", result.latency_mean_ms, "ms"},
        {"latency_p99_ms", result.latency_p99_ms, "ms"},
        {"served_frac", result.served_frac, "ratio"},
        {"deadline_met_frac", result.deadline_met_frac, "ratio"},
        {"vqp_pct", virt.vqp_pct, "%"},
        {"aqrt_ms", virt.aqrt_ms, "virtual_ms"},
        {"plan_ms_mean", virt.plan_ms, "virtual_ms"},
        {"quality_mean", virt.quality, "ratio"},
        {"peak_rss_mb", PeakRssMiB(), "MiB"},
    };
  } else {
    const WorkloadResult traced_result =
        RunWorkload(opts, scale, *traced, contexts, seconds, false, &spans, &checks);
    attempted += traced_result.attempted;
    failed += traced_result.errors;
    const std::map<std::string, double> probes =
        RunProbes(scale, *plain, contexts, result.decisions, opts.seed, &spans);
    auto probe = [&](const std::string& name) {
      auto it = probes.find(name);
      if (it != probes.end()) return it->second;
      checks.Fail("layer probe " + name + " did not run");
      return 0.0;
    };
    const maliva::ProfileBreakdown& prof = traced_result.profile;
    const double profiled = static_cast<double>(std::max<uint64_t>(traced_result.profiled, 1));
    auto phase_us = [&](int phase) { return 1000.0 * prof.TotalMs(phase) / profiled; };
    if (traced_result.profiled == 0) checks.Fail("the traced run carried no profiles");
    metrics = {
        {"workload.build_scenario_s", Median(build_s), "s"},
        {"core.train_s", Median(train_s), "s"},
        {"ml.train_step_us", probe("ml.train_step_us"), "us"},
        {"engine.plan_execs_per_req", result.plan_execs_per_req, "count"},
        {"engine.execute_us", probe("engine.execute_us"), "us"},
        {"engine.true_selectivity_us", probe("engine.true_selectivity_us"), "us"},
        {"engine.sampled_selectivity_us", probe("engine.sampled_selectivity_us"), "us"},
        {"engine.resolve_plan_us", probe("engine.resolve_plan_us"), "us"},
        {"qte.selectivity_us", phase_us(maliva::ProfileBreakdown::kSelectivity), "us"},
        {"qte.accurate_estimate_us", probe("qte.accurate_estimate_us"), "us"},
        {"qte.sampling_estimate_us", probe("qte.sampling_estimate_us"), "us"},
        {"qte.slots_per_req", virt.slots, "count"},
        {"core.search_self_us",
         1000.0 * prof.SelfMs(maliva::ProfileBreakdown::kSearch) / profiled, "us"},
        {"core.qte_calls_per_req", virt.steps, "count"},
        {"ml.qvalues_us", probe("ml.qvalues_us"), "us"},
        {"quality.score_us", probe("quality.score_us"), "us"},
        {"query.fingerprint_us", probe("query.fingerprint_us"), "us"},
        {"service.signature_us", phase_us(maliva::ProfileBreakdown::kSignature), "us"},
        {"service.cache_probe_us", phase_us(maliva::ProfileBreakdown::kCacheProbe), "us"},
        {"service.render_us", probe("service.render_us"), "us"},
        {"service.publish_us", phase_us(maliva::ProfileBreakdown::kPublish), "us"},
        {"service.fleet_overhead_us", result.fleet_overhead_us, "us"},
        {"service.serve_us_p50", result.serve_us_p50, "us"},
        {"service.serve_us_p99", result.serve_us_p99, "us"},
        {"service.cache_hit_ratio", result.cache_hit_ratio, "ratio"},
        {"service.cache_evictions_per_req", result.cache_evictions_per_req, "count"},
        {"service.queue_wait_share_p50", result.queue_share_p50, "ratio"},
        {"service.queue_wait_share_p99", result.queue_share_p99, "ratio"},
        {"service.degraded_frac", result.degraded_frac, "ratio"},
        {"service.shed_frac", result.shed_frac, "ratio"},
        {"trace_overhead_pct",
         100.0 * (result.throughput_qps - traced_result.throughput_qps) /
             std::max(result.throughput_qps, 1e-9),
         "%"},
    };
  }

  // Run-level checks beyond the per-response ones made while serving.
  if (opts.workload != "open_gated" && result.errors != 0) {
    checks.Fail("closed loop answered with errors");
  }
  if (!opts.smoke && !opts.trace && result.latency_samples < 1000) {
    checks.Fail("fewer than 1000 latency samples: p99 has under 10 samples beyond it");
  }
  if (opts.workload == "open_gated" && result.gen_lag_p99_ms > kMaxGeneratorLagMs) {
    checks.Fail("generator lateness p99 " + JsonNumber(result.gen_lag_p99_ms) +
                " ms: the open loop did not keep its schedule");
  }

  std::printf("\n%-34s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-34s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx", static_cast<unsigned long long>(virt.digest));
  std::printf("decision_digest %s over %zu reference decisions\n", digest,
              result.decisions.size());
  std::printf("requests attempted %llu, failed %llu, latency samples %llu",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(result.latency_samples));
  if (opts.workload == "open_gated") {
    std::printf(", generator lateness p99 %.4f ms", result.gen_lag_p99_ms);
  }
  std::printf("\n");
  if (!result.segment_qps.empty()) {
    std::printf("timed segments (req/s):");
    for (double qps : result.segment_qps) std::printf(" %.0f", qps);
    std::printf("\n");
  }
  checks.Print();
  const bool correct = checks.ok();

  if (!opts.out_dir.empty()) {
    std::error_code ignored;  // a failure surfaces when the files are written
    std::filesystem::create_directories(opts.out_dir, ignored);
    const std::string base = opts.out_dir + "/" + opts.workload + (opts.trace ? ".trace" : "");
    // The admission gate's verdicts depend on load, so open_gated's
    // decisions are not a function of the seed. hot_dashboard's decisions
    // are, but its metrics weight them by request counts.
    const bool deterministic = opts.workload != "open_gated";
    const bool exact_metrics = deterministic && opts.workload != "hot_dashboard";
    std::string exact = "[";
    for (const Metric& m : metrics) {
      for (const char* name : kDecisionMetrics) {
        if (exact_metrics && m.name == name) {
          exact += (exact.size() > 1 ? ", \"" : "\"") + m.name + "\"";
        }
      }
    }
    exact += "]";
    std::string json = "{\"workload\": \"" + opts.workload +
                       "\", \"seed\": " + std::to_string(opts.seed) +
                       ", \"seconds\": " + JsonNumber(opts.seconds) +
                       ", \"trace\": " + (opts.trace ? "true" : "false") +
                       ", \"smoke\": " + (opts.smoke ? "true" : "false") +
                       ", \"correct\": " + (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"deterministic\": " + (deterministic ? "true" : "false") +
                       ", \"decision_digest\": \"" + digest +
                       "\", \"exact_metrics\": " + exact +
                       ", \"metrics\": " + MetricsJson(metrics) + "}\n";
    bool written = WriteText(base + ".json", json);
    if (opts.trace) written = WriteSpans(base + ".jsonl", spans) && written;
    if (!written) std::printf("could not write %s.json\n", base.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

/// --workload all: every workload in its own child process, in order.
int RunAll(const Options& opts) {
  int rc = 0;
  for (const char* workload : kWorkloads) {
    std::vector<std::string> args = {"maliva_bench", "--workload", workload,
                                     "--seed", std::to_string(opts.seed),
                                     "--seconds", JsonNumber(opts.seconds),
                                     "--trace", opts.trace ? "1" : "0"};
    if (opts.smoke) args.push_back("--smoke");
    if (!opts.out_dir.empty()) {
      args.push_back("--out");
      args.push_back(opts.out_dir);
    }
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    std::fflush(stdout);
    pid_t pid = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(), environ) != 0) {
      std::printf("could not start the %s run\n", workload);
      return 1;
    }
    int status = 0;
    waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) rc = 1;
  }
  return rc;
}

int Usage() {
  std::printf(
      "usage: maliva_bench --workload <cold_explore|warm_replan|hot_dashboard|"
      "open_gated|all> [--seed <n>] [--seconds <s>] [--trace [0|1]] [--smoke] "
      "[--out <dir>]\n");
  return 2;
}

}  // namespace
}  // namespace maliva_bench

int main(int argc, char** argv) {
  using namespace maliva_bench;
  RunOrigin();
  Options opts;
  double seconds = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
      if (!(seconds > 0.0 && seconds <= 600.0)) return Usage();
    } else if (arg == "--trace") {
      opts.trace = true;
      if (has_value && (std::strcmp(argv[i + 1], "0") == 0 || std::strcmp(argv[i + 1], "1") == 0)) {
        opts.trace = argv[++i][0] == '1';
      }
    } else if (arg == "--smoke") {
      opts.smoke = true;
    } else if (arg == "--out" && has_value) {
      opts.out_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  opts.seconds = seconds > 0.0 ? seconds : (opts.smoke ? 0.5 : 10.0);
  if (opts.workload == "all") return RunAll(opts);
  for (const char* workload : kWorkloads) {
    if (opts.workload == workload) return Run(opts);
  }
  return Usage();
}
