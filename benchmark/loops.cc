// Workload inputs and the closed- and open-loop drivers.

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <thread>
#include <unordered_set>

#include "harness.h"
#include "query/signature.h"
#include "service/service.h"
#include "util/rng.h"
#include "workload/arrival.h"
#include "workload/replay_driver.h"

namespace maliva_bench {

using maliva::FleetStats;
using maliva::ProfileBreakdown;
using maliva::ReplayDriver;
using maliva::Result;
using maliva::RewriteRequest;
using maliva::RewriteResponse;
using maliva::Status;

Clock::time_point RunOrigin() {
  static const Clock::time_point origin = Clock::now();
  return origin;
}

void Checks::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (++failures_ <= 20) first_.push_back(what);
}

bool Checks::ok() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failures_ == 0;
}

void Checks::Print() const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::string& what : first_) std::printf("CHECK FAILED: %s\n", what.c_str());
  if (failures_ > first_.size()) {
    std::printf("CHECK FAILED: ... and %llu more\n",
                static_cast<unsigned long long>(failures_ - first_.size()));
  }
}

void SpanLog::Add(uint64_t id, uint64_t parent, uint64_t request, const char* name,
                  Clock::time_point start, Clock::time_point end) {
  if (full()) return;
  spans_.push_back(Span{id, parent, request, name, 1000.0 * MsBetween(RunOrigin(), start),
                        1000.0 * MsBetween(RunOrigin(), end)});
}

void Histogram::Add(double ms) {
  const double ns = ms * 1e6;
  const uint64_t v = ns > 0.0 ? static_cast<uint64_t>(std::min(ns, 1e18)) : 0;
  size_t index = v;
  if (v >= kSub) {
    const int shift = std::bit_width(v) - 1 - kSubBits;
    index = kSub * (shift + 1) + ((v >> shift) - kSub);
  }
  ++counts_[std::min(index, counts_.size() - 1)];
  ++count_;
  sum_ms_ += ms;
}

void Histogram::Merge(const Histogram& other) {
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  sum_ms_ += other.sum_ms_;
}

double Histogram::Percentile(double q) const {
  if (count_ == 0) return 0.0;
  const uint64_t rank =
      std::min(count_ - 1, static_cast<uint64_t>(q * static_cast<double>(count_)));
  uint64_t seen = 0;
  size_t index = 0;
  while (seen + counts_[index] <= rank) seen += counts_[index++];
  if (index < kSub) return static_cast<double>(index) / 1e6;
  const int shift = static_cast<int>(index / kSub) - 1;
  const double lower = static_cast<double>((kSub + index % kSub) << shift);
  return (lower + static_cast<double>(uint64_t{1} << shift) / 2.0) / 1e6;
}

namespace {

constexpr int kSegments = 10;  // one untimed, nine timed
constexpr size_t kSpansPerThread = 30000;
constexpr double kTauMultipliers[3] = {0.5, 1.0, 2.0};

uint64_t Salt(const std::string& text) {
  uint64_t h = 1469598103934665603ULL;
  for (char ch : text) h = (h ^ static_cast<unsigned char>(ch)) * 1099511628211ULL;
  return h;
}

/// The strategy mix: mdp/accurate 2 : mdp/sampling 1 : 1 share of
/// quality/two-stage with floor 0.9 (tpch) or baseline (elsewhere).
void DrawStrategy(maliva::Rng* rng, Context* c) {
  switch (rng->UniformInt(0, 3)) {
    case 0:
    case 1:
      c->strategy = "mdp/accurate";
      break;
    case 2:
      c->strategy = "mdp/sampling";
      break;
    default:
      if (c->scenario == kTpch) {
        c->strategy = "quality/two-stage";
        c->quality_floor = 0.9;
      } else {
        c->strategy = "baseline";
      }
  }
}

std::vector<RewriteRequest> BindRequests(const std::vector<Context>& contexts,
                                         const Stack& stack) {
  std::vector<RewriteRequest> requests;
  requests.reserve(contexts.size());
  for (const Context& c : contexts) {
    RewriteRequest r;
    r.query = stack.scenarios[c.scenario]->evaluation[c.query];
    r.scenario = kScenarioIds[c.scenario];
    r.strategy = c.strategy;
    r.tau_ms = c.tau_ms;
    r.quality_floor = c.quality_floor;
    requests.push_back(std::move(r));
  }
  return requests;
}

std::string Describe(const Context& c) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s query %u %s tau %.0f", kScenarioIds[c.scenario],
                c.query, c.strategy.c_str(), c.tau_ms);
  return buf;
}

/// The output checks every OK response must pass.
void CheckResponse(const Context& c, const RewriteResponse& r, Checks* checks) {
  const maliva::RewriteOutcome& o = r.outcome;
  const char* bad = nullptr;
  if (std::fabs(o.total_ms - (o.planning_ms + o.exec_ms)) >
      1e-9 * std::max(1.0, std::fabs(o.total_ms))) {
    bad = "total_ms != planning_ms + exec_ms";
  } else if (o.viable != (o.total_ms <= c.tau_ms)) {
    bad = "viable != (total_ms <= tau)";
  } else if (!(o.quality >= 0.0 && o.quality <= 1.0)) {
    bad = "quality outside [0, 1]";
  } else if (r.rewritten_sql.empty()) {
    bad = "empty rewritten SQL";
  } else if (r.strategy != c.strategy &&
             !(r.strategy == "baseline" && (r.exact_fallback || r.stats.degraded))) {
    bad = "served by an unexpected strategy";
  }
  if (bad != nullptr) checks->Fail(std::string(bad) + " (" + Describe(c) + ")");
}

Decision MakeDecision(uint32_t context, const Result<RewriteResponse>& r, uint64_t digest) {
  Decision d;
  d.context = context;
  d.ok = r.ok();
  d.digest = digest;
  if (r.ok()) {
    d.cache_hit = r.value().stats.result_cache_hit;
    d.outcome = r.value().outcome;
    d.slots = r.value().stats.selectivities_collected;
    d.option = r.value().option;
  }
  return d;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ------------------------------------------------------------ closed loop ---

struct ClosedLoop {
  const Stack* stack = nullptr;
  const std::vector<Context>* contexts = nullptr;
  const std::vector<RewriteRequest>* requests = nullptr;
  /// Request index -> context: Mix64(mix_seed + i) % n when shuffled, else i.
  bool shuffled = false;
  uint64_t mix_seed = 0;
  uint64_t limit = UINT64_MAX;  ///< indices >= limit are never issued
  size_t clients = 3;
  int segments = 0;             ///< 0 = one untimed pass over [0, limit)
  double segment_seconds = 0.0;
  uint64_t min_requests = 0;    ///< issue at least this many, past the clock
  std::vector<Decision>* record = nullptr;  ///< kept for indices < size()
  const std::vector<uint64_t>* expect_digest = nullptr;  ///< per context
  bool expect_hit = false;      ///< timed responses must be cache hits
  bool count_contexts = false;  ///< count timed requests per context
  bool layer_stats = false;
  std::vector<Span>* spans = nullptr;
};

struct Tally {
  std::vector<uint64_t> done, ok, met;  // per segment
  std::vector<uint64_t> per_context;    // timed requests, when counted
  Histogram latency, serve, overhead;   // timed segments
  uint64_t attempted = 0;
  uint64_t errors = 0;
  ProfileBreakdown profile;
  uint64_t profiled = 0;
};

/// Fleet counters and backend plan executions at one instant.
struct Snapshot {
  FleetStats stats;
  size_t plan_execs = 0;
};

Snapshot Take(const Stack& stack) {
  return Snapshot{stack.fleet->Stats(), stack.PlanExecutions()};
}

/// The per-request layer counters between two snapshots.
void FillCounterStats(const Snapshot& a, const Snapshot& b, uint64_t requests,
                      WorkloadResult* out) {
  const maliva::ServiceStats& x = a.stats.totals;
  const maliva::ServiceStats& y = b.stats.totals;
  const double hits = static_cast<double>(y.result_cache_hits - x.result_cache_hits);
  const double probed = hits + static_cast<double>(y.result_cache_misses - x.result_cache_misses) +
                        static_cast<double>(y.result_cache_coalesced - x.result_cache_coalesced);
  const double n = static_cast<double>(requests);
  out->cache_hit_ratio = Ratio(hits, probed);
  out->cache_evictions_per_req =
      Ratio(static_cast<double>(y.result_cache_evictions - x.result_cache_evictions), n);
  out->plan_execs_per_req = Ratio(static_cast<double>(b.plan_execs - a.plan_execs), n);
  const maliva::FleetAdmissionStats& g = a.stats.admission;
  const maliva::FleetAdmissionStats& h = b.stats.admission;
  out->degraded_frac = Ratio(static_cast<double>(h.degraded - g.degraded), n);
  out->shed_frac = Ratio(static_cast<double>(h.shed_deadline + h.shed_overload -
                                             g.shed_deadline - g.shed_overload),
                         n);
}

WorkloadResult RunClosed(const ClosedLoop& loop, Checks* checks) {
  const uint64_t n = loop.contexts->size();
  const size_t segments = static_cast<size_t>(std::max(loop.segments, 1));
  std::atomic<uint64_t> next{0};
  std::atomic<int> segment{loop.segments > 0 ? 0 : -1};
  std::atomic<bool> stop{false};
  std::atomic<bool> exhausted{false};
  std::vector<Tally> tallies(loop.clients);
  std::vector<SpanLog> logs;
  for (size_t t = 0; t < loop.clients; ++t) logs.emplace_back(t + 1, kSpansPerThread);

  auto client = [&](size_t t) {
    Tally& tally = tallies[t];
    tally.done.assign(segments, 0);
    tally.ok.assign(segments, 0);
    tally.met.assign(segments, 0);
    if (loop.count_contexts) tally.per_context.assign(n, 0);
    SpanLog& log = logs[t];
    for (;;) {
      const uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (stop.load(std::memory_order_relaxed) && i >= loop.min_requests) break;
      if (i >= loop.limit) {
        if (loop.segments > 0) exhausted.store(true, std::memory_order_relaxed);
        break;
      }
      const uint32_t c = static_cast<uint32_t>(loop.shuffled ? Mix64(loop.mix_seed + i) % n : i);
      const Context& ctx = (*loop.contexts)[c];

      const Clock::time_point t0 = Clock::now();
      Result<RewriteResponse> r = loop.stack->fleet->Serve((*loop.requests)[c]);
      const Clock::time_point t1 = Clock::now();
      const int seg = segment.load(std::memory_order_relaxed);
      const bool keep = loop.record != nullptr && i < loop.record->size();
      const bool traced = loop.spans != nullptr && seg > 0 && !log.full();
      const uint64_t digest = keep || loop.expect_digest != nullptr || traced
                                  ? ReplayDriver::ResponseDigest(r)
                                  : 0;
      const Clock::time_point t2 = Clock::now();
      const double rt_ms = MsBetween(t0, t1);

      ++tally.attempted;
      if (!r.ok()) {
        ++tally.errors;
        checks->Fail("closed-loop error " + r.status().ToString() + " (" + Describe(ctx) + ")");
      } else {
        const RewriteResponse& resp = r.value();
        CheckResponse(ctx, resp, checks);
        if (loop.expect_hit && seg > 0 && !resp.stats.result_cache_hit) {
          checks->Fail("timed response was not a result-cache hit (" + Describe(ctx) + ")");
        }
        if (seg > 0) {
          tally.latency.Add(rt_ms);
          if (loop.count_contexts) ++tally.per_context[c];
          if (loop.layer_stats) {
            tally.serve.Add(resp.stats.serve_wall_ms);
            tally.overhead.Add(rt_ms - resp.stats.serve_wall_ms - resp.stats.queue_wait_ms);
          }
        }
        if (resp.stats.profile.has_value()) {
          tally.profile += *resp.stats.profile;
          ++tally.profiled;
        }
      }
      if (loop.expect_digest != nullptr && digest != (*loop.expect_digest)[c]) {
        checks->Fail("decision differs from the reference pass (" + Describe(ctx) + ")");
      }
      if (keep) (*loop.record)[i] = MakeDecision(c, r, digest);
      if (seg >= 0) {
        ++tally.done[seg];
        if (r.ok()) {
          ++tally.ok[seg];
          if (rt_ms <= ctx.tau_ms * kSlack) ++tally.met[seg];
        }
      }
      if (traced) {
        const uint64_t root = log.NewId();
        log.Add(log.NewId(), root, i, "MalivaFleet::Serve", t0, t1);
        log.Add(log.NewId(), root, i, "ReplayDriver::ResponseDigest", t1, t2);
        log.Add(root, 0, i, "request", t0, Clock::now());
      }
    }
  };

  std::vector<std::thread> threads;
  for (size_t t = 0; t < loop.clients; ++t) threads.emplace_back(client, t);
  std::vector<Clock::time_point> bounds;
  Snapshot before;
  Snapshot after;
  if (loop.segments > 0) {
    const Clock::time_point start = Clock::now();
    bounds.push_back(start);
    for (int s = 1; s <= loop.segments; ++s) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(s * loop.segment_seconds)));
      bounds.push_back(Clock::now());
      segment.store(s < loop.segments ? s : -1, std::memory_order_relaxed);
      if (s == 1) before = Take(*loop.stack);
      if (s == loop.segments) after = Take(*loop.stack);
    }
    stop.store(true, std::memory_order_relaxed);
  }
  for (std::thread& t : threads) t.join();
  if (exhausted.load()) {
    checks->Fail("ran out of distinct inputs before the clock ran out (use fewer --seconds)");
  }

  WorkloadResult out;
  Histogram latency;
  Histogram serve;
  Histogram overhead;
  uint64_t timed = 0;
  uint64_t timed_ok = 0;
  uint64_t timed_met = 0;
  for (Tally& tally : tallies) {
    out.attempted += tally.attempted;
    out.errors += tally.errors;
    latency.Merge(tally.latency);
    serve.Merge(tally.serve);
    if (loop.count_contexts) {
      out.context_weights.resize(n, 0);
      for (uint64_t c = 0; c < n; ++c) out.context_weights[c] += tally.per_context[c];
    }
    overhead.Merge(tally.overhead);
    out.profile += tally.profile;
    out.profiled += tally.profiled;
    for (size_t s = 1; s < segments; ++s) {
      timed += tally.done[s];
      timed_ok += tally.ok[s];
      timed_met += tally.met[s];
    }
  }
  for (SpanLog& log : logs) {
    if (loop.spans != nullptr) {
      loop.spans->insert(loop.spans->end(), log.spans().begin(), log.spans().end());
    }
  }
  if (loop.segments == 0) return out;

  std::vector<double> qps;
  std::vector<double> goodput;
  for (size_t s = 1; s < segments; ++s) {
    uint64_t done = 0;
    uint64_t met = 0;
    for (const Tally& tally : tallies) {
      done += tally.done[s];
      met += tally.met[s];
    }
    const double secs = MsBetween(bounds[s], bounds[s + 1]) / 1000.0;
    qps.push_back(static_cast<double>(done) / secs);
    goodput.push_back(static_cast<double>(met) / secs);
  }
  out.segment_qps = qps;
  out.throughput_qps = Median(qps);
  out.goodput_qps = Median(goodput);
  out.latency_samples = latency.count();
  out.latency_mean_ms = latency.Mean();
  out.latency_p99_ms = latency.Percentile(0.99);
  out.served_frac = Ratio(static_cast<double>(timed_ok), static_cast<double>(timed));
  out.deadline_met_frac = Ratio(static_cast<double>(timed_met), static_cast<double>(timed));
  out.serve_us_p50 = 1000.0 * serve.Percentile(0.5);
  out.serve_us_p99 = 1000.0 * serve.Percentile(0.99);
  out.fleet_overhead_us = 1000.0 * overhead.Percentile(0.5);
  FillCounterStats(before, after, timed, &out);
  return out;
}

// -------------------------------------------------------------- open loop ---

struct OpenSlot {
  std::atomic<uint32_t> completions{0};
  Clock::time_point due;
  Clock::time_point call_start;
  Clock::time_point call_end;
  Clock::time_point done;
  std::optional<Result<RewriteResponse>> result;
};

/// Shared with the completion callbacks, which may outlive the driver's
/// frame if a completion never arrives in time.
struct OpenState {
  explicit OpenState(size_t n) : slots(n) {}
  std::vector<OpenSlot> slots;
  std::atomic<uint64_t> completed{0};
};

/// Sleeps to just before `due`, then spins: the generator's lateness must
/// stay well under a millisecond.
void WaitUntil(Clock::time_point due) {
  const auto spin = std::chrono::microseconds(200);
  if (Clock::now() < due - spin) std::this_thread::sleep_until(due - spin);
  while (Clock::now() < due) {
  }
}

WorkloadResult RunOpen(const Stack& stack, const std::vector<Context>& contexts,
                       const std::vector<RewriteRequest>& requests, double phase_seconds,
                       uint64_t seed, bool layer_stats, std::vector<Span>* spans,
                       Checks* checks) {
  // A seeded Poisson schedule: phase low, a drain gap, phase high. Arrival k
  // serves context k, so every request is a first touch.
  struct Arrival {
    double due_ms;
    int phase;
  };
  const double phase_ms = 1000.0 * phase_seconds;
  const double drain_ms = std::min(2000.0, phase_ms / 5.0);
  std::vector<Arrival> arrivals;
  maliva::ArrivalGenerator low(kOpenLowQps, Mix64(seed ^ Salt("low")));
  maliva::ArrivalGenerator high(kOpenHighQps, Mix64(seed ^ Salt("high")));
  for (double t = low.NextMs(); t < phase_ms && arrivals.size() < contexts.size();
       t = low.NextMs()) {
    arrivals.push_back({t, 0});
  }
  for (double t = high.NextMs(); t < phase_ms && arrivals.size() < contexts.size();
       t = high.NextMs()) {
    arrivals.push_back({phase_ms + drain_ms + t, 1});
  }
  if (arrivals.size() == contexts.size()) {
    checks->Fail("ran out of distinct inputs for the schedule (use fewer --seconds)");
  }

  auto state = std::make_shared<OpenState>(arrivals.size());
  std::vector<float> lag_ms;
  lag_ms.reserve(arrivals.size());
  const Snapshot before = Take(stack);
  const Clock::time_point origin = Clock::now() + std::chrono::milliseconds(20);
  for (size_t k = 0; k < arrivals.size(); ++k) {
    OpenSlot& slot = state->slots[k];
    slot.due = origin + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(arrivals[k].due_ms));
    WaitUntil(slot.due);
    slot.call_start = Clock::now();
    lag_ms.push_back(static_cast<float>(MsBetween(slot.due, slot.call_start)));
    Status accepted = stack.fleet->ServeAsync(
        requests[k], [state, k](Result<RewriteResponse> r) {
          OpenSlot& s = state->slots[k];
          s.done = Clock::now();
          s.result.emplace(std::move(r));
          s.completions.fetch_add(1, std::memory_order_acq_rel);
          state->completed.fetch_add(1, std::memory_order_release);
        });
    slot.call_end = Clock::now();
    if (!accepted.ok()) checks->Fail("ServeAsync refused: " + accepted.ToString());
  }
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(60);
  while (state->completed.load(std::memory_order_acquire) < arrivals.size() &&
         Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (state->completed.load(std::memory_order_acquire) < arrivals.size()) {
    checks->Fail("open loop: not every request completed within 60 s of the last arrival");
    WorkloadResult out;
    out.attempted = arrivals.size();
    return out;
  }
  const Snapshot after = Take(stack);

  WorkloadResult out;
  out.attempted = arrivals.size();
  std::vector<float> low_latency;
  std::vector<float> queue_share;  // queue wait / the request's deadline
  std::vector<float> serve_us;
  std::vector<float> overhead_us;
  uint64_t high_attempted = 0;
  uint64_t high_ok = 0;
  uint64_t high_met = 0;
  // Phase high's completion rate is taken over its measured span: from its
  // first arrival's due time to its last completion.
  std::optional<Clock::time_point> high_start;
  Clock::time_point high_end;
  SpanLog log(1, kSpansPerThread);
  for (size_t k = 0; k < arrivals.size(); ++k) {
    const OpenSlot& slot = state->slots[k];
    const Context& ctx = contexts[k];
    if (slot.completions.load(std::memory_order_acquire) != 1) {
      checks->Fail("open loop: request completed " +
                   std::to_string(slot.completions.load()) + " times");
      continue;
    }
    const Result<RewriteResponse>& r = *slot.result;
    out.decisions.push_back(
        MakeDecision(static_cast<uint32_t>(k), r, ReplayDriver::ResponseDigest(r)));
    const double latency_ms = MsBetween(slot.due, slot.done);
    const bool high_phase = arrivals[k].phase == 1;
    if (high_phase) {
      ++high_attempted;
      if (!high_start.has_value()) high_start = slot.due;
      high_end = std::max(high_end, slot.done);
    }
    if (!r.ok()) {
      const Status::Code code = r.status().code();
      if (code != Status::Code::kDeadlineExceeded && code != Status::Code::kResourceExhausted) {
        ++out.errors;
        checks->Fail("open loop: untyped refusal " + r.status().ToString());
      }
    } else {
      const RewriteResponse& resp = r.value();
      CheckResponse(ctx, resp, checks);
      if (!high_phase) low_latency.push_back(static_cast<float>(latency_ms));
      if (high_phase) {
        ++high_ok;
        if (latency_ms <= ctx.tau_ms * kSlack) ++high_met;
      }
      if (layer_stats) {
        queue_share.push_back(
            static_cast<float>(resp.stats.queue_wait_ms / (ctx.tau_ms * kSlack)));
        serve_us.push_back(static_cast<float>(1000.0 * resp.stats.serve_wall_ms));
        overhead_us.push_back(static_cast<float>(
            1000.0 * (MsBetween(slot.call_start, slot.done) - resp.stats.serve_wall_ms -
                      resp.stats.queue_wait_ms)));
      }
      if (resp.stats.profile.has_value()) {
        out.profile += *resp.stats.profile;
        ++out.profiled;
      }
    }
    if (spans != nullptr && !log.full()) {
      const uint64_t root = log.NewId();
      log.Add(log.NewId(), root, k, "MalivaFleet::ServeAsync", slot.call_start, slot.call_end);
      log.Add(log.NewId(), root, k, "completion", slot.call_end, slot.done);
      log.Add(root, 0, k, "request", slot.due, slot.done);
    }
  }
  if (spans != nullptr) spans->insert(spans->end(), log.spans().begin(), log.spans().end());

  out.latency_samples = low_latency.size();
  double low_sum_ms = 0.0;
  for (float ms : low_latency) low_sum_ms += ms;
  out.latency_mean_ms = Ratio(low_sum_ms, static_cast<double>(low_latency.size()));
  out.latency_p99_ms = Percentile(low_latency, 0.99);
  const double high_seconds =
      high_start.has_value() ? MsBetween(*high_start, high_end) / 1000.0 : phase_seconds;
  out.throughput_qps = Ratio(static_cast<double>(high_ok), high_seconds);
  out.goodput_qps = Ratio(static_cast<double>(high_met), high_seconds);
  out.served_frac = Ratio(static_cast<double>(high_ok), static_cast<double>(high_attempted));
  out.deadline_met_frac =
      Ratio(static_cast<double>(high_met), static_cast<double>(high_attempted));
  out.gen_lag_p99_ms = Percentile(lag_ms, 0.99);
  out.queue_share_p50 = Percentile(queue_share, 0.5);
  out.queue_share_p99 = Percentile(queue_share, 0.99);
  out.serve_us_p50 = Percentile(serve_us, 0.5);
  out.serve_us_p99 = Percentile(serve_us, 0.99);
  out.fleet_overhead_us = Percentile(overhead_us, 0.5);
  FillCounterStats(before, after, out.attempted, &out);
  return out;
}

}  // namespace

std::vector<Context> MakeContexts(const std::string& workload, const Stack& stack,
                                  const Scale& scale, uint64_t seed) {
  maliva::Rng rng(Mix64(seed ^ Salt(workload)));
  std::vector<Context> out;
  // One context per decision fingerprint: a repeat would be served from the
  // result cache (or coalesce) where the workload intends a fresh decision.
  std::unordered_set<uint64_t> seen;
  auto add = [&](Context c) {
    const maliva::Query& q = *stack.scenarios[c.scenario]->evaluation[c.query];
    const uint64_t fp = maliva::MakeRequestFingerprint(maliva::Canonicalize(q).signature,
                                                       c.strategy, c.tau_ms, c.quality_floor)
                            .value;
    if (seen.insert(fp ^ Mix64(c.scenario)).second) out.push_back(std::move(c));
  };
  for (int s = 0; s < kNumScenarios; ++s) {
    const maliva::Scenario& scenario = *stack.scenarios[s];
    const double tau = scenario.config.tau_ms;
    const size_t n = scenario.evaluation.size();
    if (workload == "hot_dashboard") {
      // One fixed dashboard; the seed draws the viewers' request order.
      for (uint32_t q = 0; q < std::min(n, scale.hot_queries); ++q) {
        for (const char* strategy : {"mdp/accurate", "mdp/sampling"}) {
          add(Context{s, q, strategy, tau, std::nullopt});
        }
      }
    } else if (workload == "warm_replan") {
      for (size_t q : rng.SampleWithoutReplacement(n, std::min(n, scale.warm_queries))) {
        for (double multiplier : kTauMultipliers) {
          Context c{s, static_cast<uint32_t>(q), "", tau * multiplier, std::nullopt};
          DrawStrategy(&rng, &c);
          add(std::move(c));
        }
      }
    } else {  // cold_explore, open_gated: every evaluation query once
      for (uint32_t q = 0; q < n; ++q) {
        Context c{s, q, "", 0.0, std::nullopt};
        DrawStrategy(&rng, &c);
        c.tau_ms = tau * kTauMultipliers[rng.UniformInt(0, 2)];
        add(std::move(c));
      }
    }
  }
  rng.Shuffle(&out);  // interleave the scenarios
  return out;
}

WorkloadResult RunWorkload(const Options& opts, const Scale& scale, const Stack& stack,
                           const std::vector<Context>& contexts, double seconds,
                           bool layer_stats, std::vector<Span>* spans, Checks* checks) {
  const std::vector<RewriteRequest> requests = BindRequests(contexts, stack);
  const std::string& workload = opts.workload;
  if (workload == "open_gated") {
    return RunOpen(stack, contexts, requests, seconds / 2.0, opts.seed, layer_stats, spans,
                   checks);
  }

  ClosedLoop loop;
  loop.stack = &stack;
  loop.contexts = &contexts;
  loop.requests = &requests;
  loop.segments = kSegments;
  loop.segment_seconds = seconds / kSegments;
  loop.layer_stats = layer_stats;
  loop.spans = spans;
  if (workload == "cold_explore") {
    // Each index is a distinct context, so the first cold_reference requests
    // are the same decisions on every run with this seed.
    std::vector<Decision> reference(std::min(scale.cold_reference, contexts.size()));
    loop.limit = contexts.size();
    loop.min_requests = reference.size();
    loop.record = &reference;
    WorkloadResult out = RunClosed(loop, checks);
    out.decisions = std::move(reference);
    return out;
  }

  // warm_replan, hot_dashboard: an untimed pass decides every context once
  // (warming the backend memo, or filling the result cache); the timed
  // segments then draw contexts in seeded random order and must reproduce
  // the pass's decisions.
  std::vector<Decision> reference(contexts.size());
  ClosedLoop pass;
  pass.stack = &stack;
  pass.contexts = &contexts;
  pass.requests = &requests;
  pass.limit = contexts.size();
  pass.clients = workload == "hot_dashboard" ? 1 : 3;
  pass.record = &reference;
  const WorkloadResult pass_out = RunClosed(pass, checks);
  std::vector<uint64_t> expect(contexts.size());
  for (const Decision& d : reference) {
    expect[d.context] = d.digest;
    if (workload == "hot_dashboard" && d.cache_hit) {
      checks->Fail("fill pass served a cache hit (" + Describe(contexts[d.context]) + ")");
    }
  }
  loop.shuffled = true;
  loop.mix_seed = Mix64(opts.seed ^ Salt(workload + "/order"));
  loop.expect_digest = &expect;
  loop.expect_hit = workload == "hot_dashboard";
  loop.count_contexts = workload == "hot_dashboard";
  WorkloadResult out = RunClosed(loop, checks);
  out.attempted += pass_out.attempted;
  out.errors += pass_out.errors;
  out.profile += pass_out.profile;
  out.profiled += pass_out.profiled;
  out.decisions = std::move(reference);
  return out;
}

}  // namespace maliva_bench
