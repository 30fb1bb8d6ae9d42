#include "workload/replay_driver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <optional>
#include <thread>

namespace maliva {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void Mix(uint64_t* h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}

void MixU64(uint64_t* h, uint64_t v) { Mix(h, &v, sizeof(v)); }

void MixDouble(uint64_t* h, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  MixU64(h, bits);
}

void MixString(uint64_t* h, const std::string& s) {
  MixU64(h, s.size());
  Mix(h, s.data(), s.size());
}

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out->append(buf);
}

/// Latency distribution plus classification counters for one rollup bucket.
/// The histogram is the metrics plane's own log-linear instrument (ISSUE
/// 10): O(1) per sample, percentiles within ~1% of an exact sort, and its
/// snapshot is mergeable with the fleet's serve-latency series.
/// Non-movable (atomic bucket array) — buckets construct in place.
struct Bucket {
  ScenarioRollup rollup;
  LatencyHistogram hist;
};

void Classify(const Result<RewriteResponse>& r, double latency_ms, Bucket* b) {
  ++b->rollup.records;
  if (!r.ok()) {
    switch (r.status().code()) {
      case Status::Code::kDeadlineExceeded:
        ++b->rollup.shed_deadline;
        break;
      case Status::Code::kResourceExhausted:
        ++b->rollup.shed_overload;
        break;
      default:
        ++b->rollup.errors;
        break;
    }
    return;
  }
  ++b->rollup.ok;
  const RewriteResponse& resp = r.value();
  if (resp.stats.degraded) ++b->rollup.degraded;
  if (resp.stats.result_cache_hit) ++b->rollup.result_cache_hits;
  if (resp.exact_fallback) ++b->rollup.exact_fallbacks;
  b->hist.Record(latency_ms);
}

/// Finalizes the rollup's percentiles/qps and returns the distribution.
HistogramSnapshot FinishBucket(Bucket* b, double wall_seconds) {
  HistogramSnapshot snap = b->hist.Snapshot();
  b->rollup.p50_ms = snap.Percentile(0.50);
  b->rollup.p95_ms = snap.Percentile(0.95);
  b->rollup.p99_ms = snap.Percentile(0.99);
  b->rollup.qps = wall_seconds <= 0.0
                      ? 0.0
                      : static_cast<double>(b->rollup.records) / wall_seconds;
  return snap;
}

}  // namespace

uint64_t ReplayDriver::ResponseDigest(const Result<RewriteResponse>& response) {
  uint64_t h = kFnvOffset;
  if (!response.ok()) {
    // Code only: shed/error *messages* may embed run-varying wait times.
    MixU64(&h, 0);
    MixU64(&h, static_cast<uint64_t>(response.status().code()));
    return h;
  }
  const RewriteResponse& r = response.value();
  MixU64(&h, 1);
  MixString(&h, r.strategy);
  MixString(&h, r.rewritten_sql);
  MixU64(&h, r.outcome.option_index);
  MixDouble(&h, r.outcome.planning_ms);
  MixDouble(&h, r.outcome.exec_ms);
  MixDouble(&h, r.outcome.total_ms);
  MixDouble(&h, r.outcome.quality);
  MixU64(&h, r.outcome.viable ? 1 : 0);
  MixU64(&h, r.outcome.steps);
  MixU64(&h, r.outcome.approximate ? 1 : 0);
  MixU64(&h, r.exact_fallback ? 1 : 0);
  return h;
}

uint64_t ReplayDriver::CombineDigests(const std::vector<uint64_t>& digests) {
  uint64_t h = kFnvOffset;
  MixU64(&h, digests.size());
  for (uint64_t d : digests) MixU64(&h, d);
  return h;
}

Result<std::vector<ReplayDriver::ResolvedRecord>> ReplayDriver::BuildRequests(
    const Trace& trace) const {
  // Resolve each stream's scenario once: its shard's service (query source)
  // and its rollup key.
  struct StreamBinding {
    std::shared_ptr<const MalivaService> service;
    std::string key;
  };
  std::string sole_id;
  std::vector<StreamBinding> bindings;
  bindings.reserve(trace.streams.size());
  for (const TraceStream& s : trace.streams) {
    StreamBinding b;
    b.key = s.scenario;
    if (b.key.empty()) {
      if (sole_id.empty()) {
        std::vector<ScenarioInfo> infos = fleet_->ListScenarios();
        if (infos.size() != 1) {
          return Status::InvalidArgument(
              "replay: trace stream with empty scenario needs a single-shard "
              "fleet (" + std::to_string(infos.size()) + " registered)");
        }
        sole_id = infos[0].id;
      }
      b.key = sole_id;
    }
    Result<std::shared_ptr<const MalivaService>> svc = fleet_->ServiceFor(b.key);
    MALIVA_RETURN_NOT_OK(svc.status());
    b.service = svc.value();
    if (b.service->scenario()->evaluation.empty()) {
      return Status::FailedPrecondition("replay: scenario \"" + b.key +
                                        "\" has an empty evaluation split");
    }
    bindings.push_back(std::move(b));
  }

  std::vector<ResolvedRecord> out;
  out.reserve(trace.records.size());
  for (const TraceRecord& r : trace.records) {
    const TraceStream& s = trace.streams[r.stream];
    const StreamBinding& b = bindings[r.stream];
    const std::vector<const Query*>& eval = b.service->scenario()->evaluation;
    ResolvedRecord resolved;
    resolved.scenario_key = b.key;
    resolved.request.query = eval[r.query_index % eval.size()];
    resolved.request.scenario = s.scenario;
    resolved.request.strategy = s.strategy;
    if (s.tau_ms > 0.0) resolved.request.tau_ms = s.tau_ms;
    if (s.quality_floor >= 0.0) resolved.request.quality_floor = s.quality_floor;
    out.push_back(std::move(resolved));
  }
  return out;
}

Result<ReplayReport> ReplayDriver::Replay(const Trace& trace,
                                          const ReplayOptions& options) const {
  MALIVA_RETURN_NOT_OK(trace.Validate());
  if (trace.records.empty()) {
    return Status::InvalidArgument("replay: trace \"" + trace.name +
                                   "\" has no records");
  }
  if (options.open_loop && !fleet_->config().admission.enabled) {
    return Status::FailedPrecondition(
        "replay: open-loop drive requires FleetConfig::admission (ServeAsync's "
        "precondition); use closed-loop or enable the control plane");
  }
  if (options.open_loop &&
      (!std::isfinite(options.time_scale) || options.time_scale <= 0.0)) {
    return Status::InvalidArgument("replay: open-loop time_scale must be > 0");
  }

  Result<std::vector<ResolvedRecord>> resolved = BuildRequests(trace);
  MALIVA_RETURN_NOT_OK(resolved.status());
  const std::vector<ResolvedRecord>& records = resolved.value();
  const size_t n = records.size();

  // Per-record completions in trace order (digest order is trace order no
  // matter how completions interleave).
  std::vector<std::optional<Result<RewriteResponse>>> responses(n);
  std::vector<double> latencies_ms(n, 0.0);

  const auto wall_start = std::chrono::steady_clock::now();
  if (!options.open_loop) {
    std::vector<RewriteRequest> requests;
    requests.reserve(n);
    for (const ResolvedRecord& r : records) requests.push_back(r.request);
    std::vector<Result<RewriteResponse>> batch =
        fleet_->ServeBatch(std::span<const RewriteRequest>(requests));
    for (size_t i = 0; i < n; ++i) {
      if (batch[i].ok()) latencies_ms[i] = batch[i].value().stats.serve_wall_ms;
      responses[i].emplace(std::move(batch[i]));
    }
  } else {
    // Open loop: fire each record at wall offset arrival_ms * time_scale,
    // never waiting for completions — the schedule is the schedule.
    std::mutex mu;
    std::condition_variable cv;
    size_t remaining = n;
    for (size_t i = 0; i < n; ++i) {
      const ResolvedRecord& r = records[i];
      const auto scheduled =
          wall_start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               trace.records[i].arrival_ms * options.time_scale));
      std::this_thread::sleep_until(scheduled);
      Status fired = fleet_->ServeAsync(
          r.request, [&, i, scheduled](Result<RewriteResponse> resp) {
            double latency =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - scheduled)
                    .count();
            std::lock_guard<std::mutex> lock(mu);
            latencies_ms[i] = latency < 0.0 ? 0.0 : latency;
            responses[i].emplace(std::move(resp));
            if (--remaining == 0) cv.notify_all();
          });
      if (!fired.ok()) {
        // ServeAsync invokes done inline for sheds; a non-OK return means
        // the call itself was refused (e.g. misconfigured fleet).
        std::lock_guard<std::mutex> lock(mu);
        if (!responses[i].has_value()) {
          responses[i].emplace(fired);
          if (--remaining == 0) cv.notify_all();
        }
      }
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&remaining] { return remaining == 0; });
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();

  // Fold completions into the report.
  ReplayReport report;
  report.trace_name = trace.name;
  report.mode = options.open_loop ? "open_loop" : "closed_loop";
  report.records = n;
  report.trace_span_ms = trace.DurationMs();
  report.wall_seconds = wall_seconds;
  double offered_span_s = trace.DurationMs() * options.time_scale / 1000.0;
  report.offered_qps = offered_span_s > 0.0
                           ? static_cast<double>(n) / offered_span_s
                           : (wall_seconds > 0.0 ? static_cast<double>(n) / wall_seconds : 0.0);
  report.achieved_qps =
      wall_seconds > 0.0 ? static_cast<double>(n) / wall_seconds : 0.0;

  Bucket total;
  std::map<std::string, Bucket> per_scenario;
  if (options.collect_digests) report.record_digests.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Result<RewriteResponse>& r = *responses[i];
    Classify(r, latencies_ms[i], &total);
    Classify(r, latencies_ms[i], &per_scenario[records[i].scenario_key]);
    if (r.ok()) {
      const RequestStats& stats = r.value().stats;
      if (stats.result_cache_coalesced) ++report.result_cache_coalesced;
      if (stats.profile.has_value()) {
        ++report.profiled;
        report.profile += *stats.profile;
      }
    }
    if (options.collect_digests) report.record_digests.push_back(ResponseDigest(r));
  }
  report.latency_hist = FinishBucket(&total, wall_seconds);
  report.ok = total.rollup.ok;
  report.errors = total.rollup.errors;
  report.degraded = total.rollup.degraded;
  report.shed_deadline = total.rollup.shed_deadline;
  report.shed_overload = total.rollup.shed_overload;
  report.result_cache_hits = total.rollup.result_cache_hits;
  report.exact_fallbacks = total.rollup.exact_fallbacks;
  report.p50_ms = total.rollup.p50_ms;
  report.p95_ms = total.rollup.p95_ms;
  report.p99_ms = total.rollup.p99_ms;
  for (auto& [key, bucket] : per_scenario) {
    (void)FinishBucket(&bucket, wall_seconds);
    report.scenarios[key] = bucket.rollup;
  }
  if (options.collect_digests) {
    report.digest = CombineDigests(report.record_digests);
  }
  return report;
}

std::string ReplayReport::ToJson() const {
  std::string out;
  out.reserve(1024);
  AppendF(&out, "{\"trace\": \"%s\", \"mode\": \"%s\", \"records\": %zu, ",
          trace_name.c_str(), mode.c_str(), records);
  AppendF(&out, "\"trace_span_ms\": %.3f, \"wall_seconds\": %.3f, ",
          trace_span_ms, wall_seconds);
  AppendF(&out, "\"offered_qps\": %.2f, \"achieved_qps\": %.2f, ", offered_qps,
          achieved_qps);
  AppendF(&out,
          "\"ok\": %zu, \"errors\": %zu, \"degraded\": %zu, "
          "\"shed_deadline\": %zu, \"shed_overload\": %zu, ",
          ok, errors, degraded, shed_deadline, shed_overload);
  AppendF(&out,
          "\"result_cache_hits\": %zu, \"result_cache_coalesced\": %zu, "
          "\"exact_fallbacks\": %zu, ",
          result_cache_hits, result_cache_coalesced, exact_fallbacks);
  AppendF(&out,
          "\"latency_ms\": {\"p50\": %.3f, \"p95\": %.3f, \"p99\": %.3f}, ",
          p50_ms, p95_ms, p99_ms);
  AppendF(&out,
          "\"latency_hist\": {\"count\": %llu, \"min_ms\": %.3f, "
          "\"max_ms\": %.3f, \"mean_ms\": %.3f, \"buckets\": %zu}, ",
          static_cast<unsigned long long>(latency_hist.count),
          latency_hist.min_ms, latency_hist.max_ms, latency_hist.MeanMs(),
          latency_hist.buckets.size());
  AppendF(&out, "\"profiled\": %zu", profiled);
  if (profiled > 0) {
    out.append(", \"profile_ms\": {");
    for (int p = 0; p < ProfileBreakdown::kNumPhases; ++p) {
      AppendF(&out, "%s\"%s\": %.3f", p == 0 ? "" : ", ",
              ProfileBreakdown::PhaseName(p), profile.TotalMs(p));
    }
    out.append("}");
  }
  out.append(", \"scenarios\": {");
  bool first = true;
  for (const auto& [key, r] : scenarios) {
    AppendF(&out,
            "%s\"%s\": {\"records\": %zu, \"ok\": %zu, \"errors\": %zu, "
            "\"degraded\": %zu, \"shed_deadline\": %zu, \"shed_overload\": %zu, "
            "\"result_cache_hits\": %zu, \"exact_fallbacks\": %zu, "
            "\"qps\": %.2f, "
            "\"latency_ms\": {\"p50\": %.3f, \"p95\": %.3f, \"p99\": %.3f}}",
            first ? "" : ", ", key.c_str(), r.records, r.ok, r.errors,
            r.degraded, r.shed_deadline, r.shed_overload, r.result_cache_hits,
            r.exact_fallbacks, r.qps, r.p50_ms, r.p95_ms, r.p99_ms);
    first = false;
  }
  out.append("}");
  AppendF(&out, ", \"digest\": \"%016llx\"}",
          static_cast<unsigned long long>(digest));
  return out;
}

}  // namespace maliva
