// Metrics plane: labeled instruments, log-linear latency histograms,
// Prometheus/JSON exporters, and windowed-delta flushing (ISSUE 10).
//
// Three instrument kinds, all wait-free on the record side:
//   * Counter — monotone relaxed-atomic uint64.
//   * Gauge   — last-writer-wins relaxed-atomic int64.
//   * LatencyHistogram — HDR-style log-linear bucketing over microsecond
//     ticks: 64 linear sub-buckets per power-of-two octave, so every bucket
//     is at most 1/64 of its lower bound wide and midpoint estimates carry
//     <= ~0.8% relative error. Mergeable across shards (bucket-wise sums)
//     and subtractable for windowed views.
//
// Instruments live in a MetricsRegistry, addressed by name + label set
// (scenario, strategy, verdict, ...). Get* is mutex-guarded and meant for
// construction time only: callers resolve handles once and the hot path
// performs zero map lookups (the registry counts lookups so tests can prove
// it — the QueryProfiler counting-clock pattern). Returned pointers are
// stable for the registry's lifetime.
//
// Reading happens through the handles themselves (MalivaService::Stats()
// reads Counter::Value() and LatencyHistogram::SumMs()) or through
// MetricsSnapshot — a plain-value cut of every series, mergeable across registries (MalivaFleet folds shard registries
// into FleetStats::metrics), subtractable for rate windows, and renderable
// as Prometheus text exposition or a JSON dump. A MetricsFlusher cuts
// windowed deltas every N ms into a bounded ring of time-windowed views,
// which the SLO watchdog (service/trace_ring.h) evaluates burn rates over.
//
// Everything here is wall-clock-only measurement: no instrument ever feeds
// back into a rewriting decision.

#ifndef MALIVA_UTIL_METRICS_H_
#define MALIVA_UTIL_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace maliva {

/// Sorted (key, value) label pairs identifying one series of a metric.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Monotone event counter. Increment is a relaxed fetch_add — safe from any
/// thread, never a synchronization point.
class Counter {
 public:
  void Increment(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-writer-wins level (cache residency, snapshot version, queue depth).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Plain-value cut of one LatencyHistogram (or a merge/delta of several).
/// Buckets are sparse (index, count) pairs sorted by index; indices are
/// LatencyHistogram bucket indices, so snapshots from different histograms
/// merge and subtract bucket-wise.
struct HistogramSnapshot {
  uint64_t count = 0;
  double sum_ms = 0.0;
  /// Lifetime extrema (0 when count == 0). A windowed delta carries the
  /// *later* cut's extrema — true per-window min/max is not derivable from
  /// two lifetime cuts, and the lifetime envelope is the honest substitute.
  double min_ms = 0.0;
  double max_ms = 0.0;
  std::vector<std::pair<uint32_t, uint64_t>> buckets;

  double MeanMs() const { return count == 0 ? 0.0 : sum_ms / static_cast<double>(count); }

  /// Value at quantile `q` in [0, 1]: the midpoint of the bucket holding the
  /// floor(q * count)-th sample (exact for single-tick buckets). Matches the
  /// sorted-vector convention `sorted[floor(q * n)]` within the bucketing
  /// error (<= ~0.8% relative above 64 us).
  double Percentile(double q) const;

  /// Bucket-wise sum: this += other (count/sum/buckets add, extrema widen).
  void MergeFrom(const HistogramSnapshot& other);

  /// Windowed view: what this cut recorded after `earlier` was taken. Both
  /// cuts must come from the same (or merged-identically) series; counts and
  /// sums subtract, extrema stay this cut's lifetime values.
  HistogramSnapshot DeltaSince(const HistogramSnapshot& earlier) const;
};

/// Lock-free log-linear latency histogram over microsecond ticks.
///
/// Bucketing: ticks below 64 get one bucket each (exact); every higher
/// power-of-two octave [2^h, 2^(h+1)) splits into 64 linear sub-buckets, so
/// bucket width is always <= lower_bound/64. Ticks are clamped to
/// [0, 2^40 - 1] (~12.7 days) — NaN and negatives record as 0, overflow
/// lands in the top bucket. Record is wait-free (relaxed atomics; the
/// min/max CAS loops retry only under contention on a new extreme).
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 6;
  static constexpr uint64_t kSubBuckets = 1ull << kSubBits;  // 64
  static constexpr int kMaxExponent = 40;
  static constexpr uint64_t kMaxTicks = (1ull << kMaxExponent) - 1;
  static constexpr size_t kNumBuckets =
      kSubBuckets * static_cast<size_t>(kMaxExponent - kSubBits + 1);  // 2240

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Records one latency in milliseconds (sub-microsecond values round to
  /// the nearest tick; NaN/negative clamp to 0).
  void Record(double ms) {
    const uint64_t ticks = TicksFor(ms);
    buckets_[BucketIndex(ticks)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_ticks_.fetch_add(ticks, std::memory_order_relaxed);
    uint64_t seen = min_ticks_.load(std::memory_order_relaxed);
    while (ticks < seen &&
           !min_ticks_.compare_exchange_weak(seen, ticks, std::memory_order_relaxed)) {
    }
    seen = max_ticks_.load(std::memory_order_relaxed);
    while (ticks > seen &&
           !max_ticks_.compare_exchange_weak(seen, ticks, std::memory_order_relaxed)) {
    }
  }

  /// Sum of every recorded sample, each rounded to its microsecond tick
  /// (the Snapshot's sum_ms without walking the buckets).
  double SumMs() const {
    return static_cast<double>(sum_ticks_.load(std::memory_order_relaxed)) / 1000.0;
  }

  /// Consistent-enough cut (each bucket individually exact, not one atomic
  /// cut across buckets).
  HistogramSnapshot Snapshot() const;

  /// Millisecond value to clamped microsecond ticks.
  static uint64_t TicksFor(double ms);

  static size_t BucketIndex(uint64_t ticks) {
    if (ticks < kSubBuckets) return static_cast<size_t>(ticks);
    const int h = 63 - std::countl_zero(ticks);
    return static_cast<size_t>(h - kSubBits + 1) * kSubBuckets +
           static_cast<size_t>((ticks >> (h - kSubBits)) & (kSubBuckets - 1));
  }

  /// Inclusive lower bound (ticks) of bucket `index`.
  static uint64_t BucketLowerTicks(size_t index) {
    if (index < kSubBuckets) return index;
    const size_t octave = index / kSubBuckets - 1;
    const uint64_t sub = index & (kSubBuckets - 1);
    return (kSubBuckets + sub) << octave;
  }

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_ticks_{0};
  std::atomic<uint64_t> min_ticks_{kMaxTicks};
  std::atomic<uint64_t> max_ticks_{0};
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
};

/// Plain-value cut of a whole registry: every series with its name, labels,
/// and value, sorted by (name, labels). Mergeable across registries,
/// subtractable for windows, renderable for scrapers.
struct MetricsSnapshot {
  struct CounterRow {
    std::string name;
    MetricLabels labels;
    uint64_t value = 0;
  };
  struct GaugeRow {
    std::string name;
    MetricLabels labels;
    int64_t value = 0;
  };
  struct HistogramRow {
    std::string name;
    MetricLabels labels;
    HistogramSnapshot hist;
  };

  std::vector<CounterRow> counters;
  std::vector<GaugeRow> gauges;
  std::vector<HistogramRow> histograms;

  /// Adds every series of `other` into this snapshot: matching (name,
  /// labels) series sum (counters and histograms) or take `other`'s value
  /// (gauges); unmatched series are inserted. Keeps rows sorted.
  void MergeFrom(const MetricsSnapshot& other);

  /// Windowed view: counters and histograms subtract (`earlier` series
  /// missing here are treated as zero and series that vanished are
  /// dropped); gauges keep this cut's value (levels have no meaningful
  /// difference).
  MetricsSnapshot DeltaSince(const MetricsSnapshot& earlier) const;

  /// Sum of one counter across every series whose labels include all of
  /// `match` (subset match, so a scenario label alone selects all verdicts).
  uint64_t CounterSum(const std::string& name, const MetricLabels& match = {}) const;

  /// Prometheus text exposition: counters and gauges as typed samples,
  /// histograms as summaries (quantile series from the buckets plus _sum
  /// and _count). Deterministic for a fixed snapshot — golden-testable.
  std::string RenderPrometheus() const;

  /// JSON object with "counters"/"gauges"/"histograms" arrays; histogram
  /// entries carry count/sum/min/max/mean and p50..p999. Deterministic.
  std::string RenderJson() const;
};

/// Registry of labeled instruments. Get* resolves (creating on first use)
/// the series for name + labels and returns a pointer stable for the
/// registry's lifetime; base labels (e.g. scenario="tweets") are stamped
/// onto every series at construction. Get* takes a mutex and bumps
/// lookups() — resolve handles once, off the hot path.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(MetricLabels base_labels = {});

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name, MetricLabels labels = {});
  Gauge* GetGauge(const std::string& name, MetricLabels labels = {});
  LatencyHistogram* GetHistogram(const std::string& name, MetricLabels labels = {});

  /// Total Get* calls ever made — the hot-path proof counter: a serve loop
  /// over pre-resolved handles leaves it unchanged (the QueryProfiler
  /// counting-clock pattern, applied to map lookups).
  uint64_t lookups() const { return lookups_.load(std::memory_order_relaxed); }

  MetricsSnapshot Snapshot() const;
  std::string RenderPrometheus() const { return Snapshot().RenderPrometheus(); }
  std::string RenderJson() const { return Snapshot().RenderJson(); }

 private:
  template <typename T>
  struct Series {
    std::string name;
    MetricLabels labels;
    T instrument;
  };

  /// Full label set of a new series: base labels plus call labels, sorted
  /// by key (call labels win on a duplicate key).
  MetricLabels ResolveLabels(MetricLabels labels) const;

  MetricLabels base_labels_;
  std::atomic<uint64_t> lookups_{0};
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Series<Counter>>> counters_;
  std::map<std::string, std::unique_ptr<Series<Gauge>>> gauges_;
  std::map<std::string, std::unique_ptr<Series<LatencyHistogram>>> histograms_;
};

/// Canonical series identity string: name{k="v",...} — the registry's map
/// key, the snapshot sort key, and the Prometheus sample line prefix.
std::string MetricSeriesKey(const std::string& name, const MetricLabels& labels);

/// Background windowed-delta snapshotter: every `interval_ms` it cuts a
/// fresh MetricsSnapshot via `fn`, subtracts the previous cut, and appends
/// the delta (with its wall-clock window) to a bounded ring of the newest
/// `max_windows` views — rates and windowed percentiles, not lifetime sums.
/// interval_ms == 0 starts no thread; FlushNow() cuts a window on demand
/// either way (deterministic tests and benches). The destructor joins the
/// thread; `fn` must stay callable until then.
class MetricsFlusher {
 public:
  using SnapshotFn = std::function<MetricsSnapshot()>;

  struct Window {
    double start_ms = 0.0;  ///< window open, wall ms since flusher start
    double end_ms = 0.0;    ///< window close
    MetricsSnapshot delta;  ///< what the interval recorded
  };

  MetricsFlusher(SnapshotFn fn, size_t interval_ms, size_t max_windows = 64);
  ~MetricsFlusher();

  MetricsFlusher(const MetricsFlusher&) = delete;
  MetricsFlusher& operator=(const MetricsFlusher&) = delete;

  /// Cuts a window now (the background cadence, on demand). Thread-safe.
  void FlushNow();

  /// The retained windows, oldest first. Thread-safe copy.
  std::vector<Window> Windows() const;

 private:
  void Loop();
  double NowMs() const;

  SnapshotFn fn_;
  const size_t interval_ms_;
  const size_t max_windows_;
  std::chrono::steady_clock::time_point origin_;

  mutable std::mutex mutex_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  MetricsSnapshot last_;
  double last_ms_ = 0.0;
  std::vector<Window> windows_;

  std::thread thread_;  ///< last member: joins before state above dies
};

}  // namespace maliva

#endif  // MALIVA_UTIL_METRICS_H_
