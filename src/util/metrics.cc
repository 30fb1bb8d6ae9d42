#include "util/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace maliva {

namespace {

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out->append(buf);
}

/// Prometheus/JSON label-value escaping: backslash, double quote, newline.
std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// {k="v",...} rendering shared by series keys and Prometheus samples;
/// `extra` appends one more pair (the summary quantile label).
std::string RenderLabels(const MetricLabels& labels,
                         const std::pair<std::string, std::string>* extra = nullptr) {
  if (labels.empty() && extra == nullptr) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    AppendF(&out, "%s%s=\"%s\"", first ? "" : ",", k.c_str(),
            EscapeLabelValue(v).c_str());
    first = false;
  }
  if (extra != nullptr) {
    AppendF(&out, "%s%s=\"%s\"", first ? "" : ",", extra->first.c_str(),
            EscapeLabelValue(extra->second).c_str());
  }
  out += "}";
  return out;
}

/// Deterministic short float rendering for exporters.
std::string FormatDouble(double v) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

constexpr double kSummaryQuantiles[] = {0.5, 0.9, 0.95, 0.99, 0.999};
constexpr const char* kSummaryQuantileNames[] = {"0.5", "0.9", "0.95", "0.99",
                                                 "0.999"};
constexpr const char* kSummaryJsonKeys[] = {"p50", "p90", "p95", "p99", "p999"};
constexpr size_t kNumSummaryQuantiles =
    sizeof(kSummaryQuantiles) / sizeof(kSummaryQuantiles[0]);

/// Orders snapshot rows by (name, labels) so equal-name series stay
/// contiguous for the one-TYPE-line-per-metric rendering (the combined
/// series-key string would interleave names: '{' compares above letters).
template <typename Row>
bool RowLess(const Row& a, const Row& b) {
  if (a.name != b.name) return a.name < b.name;
  return a.labels < b.labels;
}

template <typename Row>
void SortRows(std::vector<Row>* rows) {
  std::sort(rows->begin(), rows->end(), RowLess<Row>);
}

/// Merge helper: for each row of `from`, fold into the matching (name,
/// labels) row of `into` via `fold`, inserting a copy when absent.
template <typename Row, typename Fold>
void MergeRows(std::vector<Row>* into, const std::vector<Row>& from, Fold fold) {
  for (const Row& row : from) {
    auto it = std::lower_bound(into->begin(), into->end(), row, RowLess<Row>);
    if (it != into->end() && it->name == row.name && it->labels == row.labels) {
      fold(&*it, row);
    } else {
      into->insert(it, row);
    }
  }
}

/// Delta helper: new_rows minus the matching old rows via `sub` (absent old
/// row = zero).
template <typename Row, typename Sub>
std::vector<Row> DeltaRows(const std::vector<Row>& later,
                           const std::vector<Row>& earlier, Sub sub) {
  std::vector<Row> out;
  out.reserve(later.size());
  for (const Row& row : later) {
    auto it = std::lower_bound(earlier.begin(), earlier.end(), row, RowLess<Row>);
    Row delta = row;
    if (it != earlier.end() && it->name == row.name && it->labels == row.labels) {
      sub(&delta, *it);
    }
    out.push_back(std::move(delta));
  }
  return out;
}

bool LabelsContain(const MetricLabels& labels, const MetricLabels& match) {
  for (const auto& want : match) {
    bool found = false;
    for (const auto& have : labels) {
      if (have == want) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

}  // namespace

// ------------------------------------------------------------- histogram ---

uint64_t LatencyHistogram::TicksFor(double ms) {
  if (!(ms > 0.0)) return 0;  // NaN and negatives clamp to zero
  const double us = ms * 1000.0;
  if (us >= static_cast<double>(kMaxTicks)) return kMaxTicks;
  return static_cast<uint64_t>(std::llround(us));
}

HistogramSnapshot LatencyHistogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum_ms = SumMs();
  if (snap.count > 0) {
    snap.min_ms =
        static_cast<double>(min_ticks_.load(std::memory_order_relaxed)) / 1000.0;
    snap.max_ms =
        static_cast<double>(max_ticks_.load(std::memory_order_relaxed)) / 1000.0;
  }
  for (size_t i = 0; i < kNumBuckets; ++i) {
    const uint64_t c = buckets_[i].load(std::memory_order_relaxed);
    if (c != 0) snap.buckets.emplace_back(static_cast<uint32_t>(i), c);
  }
  return snap;
}

double HistogramSnapshot::Percentile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count));
  if (rank >= count) rank = count - 1;
  uint64_t cumulative = 0;
  for (const auto& [index, c] : buckets) {
    cumulative += c;
    if (cumulative > rank) {
      const uint64_t lo = LatencyHistogram::BucketLowerTicks(index);
      const uint64_t hi = index + 1 < LatencyHistogram::kNumBuckets
                              ? LatencyHistogram::BucketLowerTicks(index + 1)
                              : LatencyHistogram::kMaxTicks + 1;
      // Single-tick buckets are exact; wider buckets report the midpoint
      // (error <= half the <=1/64-relative width).
      const double ticks = hi - lo <= 1 ? static_cast<double>(lo)
                                        : (static_cast<double>(lo) +
                                           static_cast<double>(hi)) /
                                              2.0;
      return ticks / 1000.0;
    }
  }
  return max_ms;  // unreachable for a consistent snapshot
}

void HistogramSnapshot::MergeFrom(const HistogramSnapshot& other) {
  if (other.count == 0) return;
  if (count == 0) {
    min_ms = other.min_ms;
    max_ms = other.max_ms;
  } else {
    min_ms = std::min(min_ms, other.min_ms);
    max_ms = std::max(max_ms, other.max_ms);
  }
  count += other.count;
  sum_ms += other.sum_ms;
  std::vector<std::pair<uint32_t, uint64_t>> merged;
  merged.reserve(buckets.size() + other.buckets.size());
  size_t a = 0;
  size_t b = 0;
  while (a < buckets.size() || b < other.buckets.size()) {
    if (b == other.buckets.size() ||
        (a < buckets.size() && buckets[a].first < other.buckets[b].first)) {
      merged.push_back(buckets[a++]);
    } else if (a == buckets.size() || other.buckets[b].first < buckets[a].first) {
      merged.push_back(other.buckets[b++]);
    } else {
      merged.emplace_back(buckets[a].first, buckets[a].second + other.buckets[b].second);
      ++a;
      ++b;
    }
  }
  buckets = std::move(merged);
}

HistogramSnapshot HistogramSnapshot::DeltaSince(const HistogramSnapshot& earlier) const {
  HistogramSnapshot delta;
  delta.count = count >= earlier.count ? count - earlier.count : 0;
  delta.sum_ms = std::max(0.0, sum_ms - earlier.sum_ms);
  delta.min_ms = min_ms;  // lifetime envelope (documented approximation)
  delta.max_ms = max_ms;
  size_t b = 0;
  for (const auto& [index, c] : buckets) {
    while (b < earlier.buckets.size() && earlier.buckets[b].first < index) ++b;
    uint64_t prior = 0;
    if (b < earlier.buckets.size() && earlier.buckets[b].first == index) {
      prior = earlier.buckets[b].second;
    }
    if (c > prior) delta.buckets.emplace_back(index, c - prior);
  }
  return delta;
}

// -------------------------------------------------------------- registry ---

std::string MetricSeriesKey(const std::string& name, const MetricLabels& labels) {
  return name + RenderLabels(labels);
}

MetricsRegistry::MetricsRegistry(MetricLabels base_labels)
    : base_labels_(std::move(base_labels)) {
  std::sort(base_labels_.begin(), base_labels_.end());
}

MetricLabels MetricsRegistry::ResolveLabels(MetricLabels labels) const {
  for (const auto& base : base_labels_) {
    bool overridden = false;
    for (const auto& [k, v] : labels) {
      if (k == base.first) {
        overridden = true;
        break;
      }
    }
    if (!overridden) labels.push_back(base);
  }
  std::sort(labels.begin(), labels.end());
  return labels;
}

namespace {

template <typename T>
T* GetSeries(std::map<std::string, std::unique_ptr<T>>* series,
             const std::string& name, MetricLabels labels) {
  const std::string key = MetricSeriesKey(name, labels);
  auto it = series->find(key);
  if (it == series->end()) {
    auto fresh = std::make_unique<T>();
    fresh->name = name;
    fresh->labels = std::move(labels);
    it = series->emplace(key, std::move(fresh)).first;
  }
  return it->second.get();
}

}  // namespace

Counter* MetricsRegistry::GetCounter(const std::string& name, MetricLabels labels) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  return &GetSeries(&counters_, name, ResolveLabels(std::move(labels)))->instrument;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, MetricLabels labels) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  return &GetSeries(&gauges_, name, ResolveLabels(std::move(labels)))->instrument;
}

LatencyHistogram* MetricsRegistry::GetHistogram(const std::string& name,
                                                MetricLabels labels) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  return &GetSeries(&histograms_, name, ResolveLabels(std::move(labels)))->instrument;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mutex_);
  snap.counters.reserve(counters_.size());
  for (const auto& [key, series] : counters_) {
    snap.counters.push_back({series->name, series->labels, series->instrument.Value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [key, series] : gauges_) {
    snap.gauges.push_back({series->name, series->labels, series->instrument.Value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [key, series] : histograms_) {
    snap.histograms.push_back(
        {series->name, series->labels, series->instrument.Snapshot()});
  }
  SortRows(&snap.counters);
  SortRows(&snap.gauges);
  SortRows(&snap.histograms);
  return snap;
}

// -------------------------------------------------------------- snapshot ---

void MetricsSnapshot::MergeFrom(const MetricsSnapshot& other) {
  MergeRows(&counters, other.counters,
            [](CounterRow* into, const CounterRow& from) { into->value += from.value; });
  MergeRows(&gauges, other.gauges,
            [](GaugeRow* into, const GaugeRow& from) { into->value = from.value; });
  MergeRows(&histograms, other.histograms, [](HistogramRow* into, const HistogramRow& from) {
    into->hist.MergeFrom(from.hist);
  });
}

MetricsSnapshot MetricsSnapshot::DeltaSince(const MetricsSnapshot& earlier) const {
  MetricsSnapshot delta;
  delta.counters = DeltaRows(counters, earlier.counters,
                             [](CounterRow* row, const CounterRow& prior) {
                               row->value = row->value >= prior.value
                                                ? row->value - prior.value
                                                : 0;
                             });
  delta.gauges = gauges;  // levels: a window reports the closing value
  delta.histograms = DeltaRows(histograms, earlier.histograms,
                               [](HistogramRow* row, const HistogramRow& prior) {
                                 row->hist = row->hist.DeltaSince(prior.hist);
                               });
  return delta;
}

uint64_t MetricsSnapshot::CounterSum(const std::string& name,
                                     const MetricLabels& match) const {
  uint64_t sum = 0;
  for (const CounterRow& row : counters) {
    if (row.name == name && LabelsContain(row.labels, match)) sum += row.value;
  }
  return sum;
}

std::string MetricsSnapshot::RenderPrometheus() const {
  std::string out;
  out.reserve(1024);
  const std::string* prev = nullptr;
  for (const CounterRow& row : counters) {
    if (prev == nullptr || *prev != row.name) {
      AppendF(&out, "# TYPE %s counter\n", row.name.c_str());
      prev = &row.name;
    }
    AppendF(&out, "%s%s %llu\n", row.name.c_str(), RenderLabels(row.labels).c_str(),
            static_cast<unsigned long long>(row.value));
  }
  prev = nullptr;
  for (const GaugeRow& row : gauges) {
    if (prev == nullptr || *prev != row.name) {
      AppendF(&out, "# TYPE %s gauge\n", row.name.c_str());
      prev = &row.name;
    }
    AppendF(&out, "%s%s %lld\n", row.name.c_str(), RenderLabels(row.labels).c_str(),
            static_cast<long long>(row.value));
  }
  prev = nullptr;
  for (const HistogramRow& row : histograms) {
    if (prev == nullptr || *prev != row.name) {
      AppendF(&out, "# TYPE %s summary\n", row.name.c_str());
      prev = &row.name;
    }
    for (size_t q = 0; q < kNumSummaryQuantiles; ++q) {
      const std::pair<std::string, std::string> quantile{"quantile",
                                                         kSummaryQuantileNames[q]};
      AppendF(&out, "%s%s %s\n", row.name.c_str(),
              RenderLabels(row.labels, &quantile).c_str(),
              FormatDouble(row.hist.Percentile(kSummaryQuantiles[q])).c_str());
    }
    AppendF(&out, "%s_sum%s %s\n", row.name.c_str(), RenderLabels(row.labels).c_str(),
            FormatDouble(row.hist.sum_ms).c_str());
    AppendF(&out, "%s_count%s %llu\n", row.name.c_str(),
            RenderLabels(row.labels).c_str(),
            static_cast<unsigned long long>(row.hist.count));
  }
  return out;
}

namespace {

void AppendJsonLabels(std::string* out, const MetricLabels& labels) {
  out->append("\"labels\": {");
  bool first = true;
  for (const auto& [k, v] : labels) {
    AppendF(out, "%s\"%s\": \"%s\"", first ? "" : ", ", k.c_str(),
            EscapeLabelValue(v).c_str());
    first = false;
  }
  out->append("}");
}

}  // namespace

std::string MetricsSnapshot::RenderJson() const {
  std::string out;
  out.reserve(1024);
  out.append("{\"counters\": [");
  bool first = true;
  for (const CounterRow& row : counters) {
    AppendF(&out, "%s{\"name\": \"%s\", ", first ? "" : ", ", row.name.c_str());
    AppendJsonLabels(&out, row.labels);
    AppendF(&out, ", \"value\": %llu}", static_cast<unsigned long long>(row.value));
    first = false;
  }
  out.append("], \"gauges\": [");
  first = true;
  for (const GaugeRow& row : gauges) {
    AppendF(&out, "%s{\"name\": \"%s\", ", first ? "" : ", ", row.name.c_str());
    AppendJsonLabels(&out, row.labels);
    AppendF(&out, ", \"value\": %lld}", static_cast<long long>(row.value));
    first = false;
  }
  out.append("], \"histograms\": [");
  first = true;
  for (const HistogramRow& row : histograms) {
    AppendF(&out, "%s{\"name\": \"%s\", ", first ? "" : ", ", row.name.c_str());
    AppendJsonLabels(&out, row.labels);
    AppendF(&out, ", \"count\": %llu, \"sum_ms\": %s, \"min_ms\": %s, \"max_ms\": %s, \"mean_ms\": %s",
            static_cast<unsigned long long>(row.hist.count),
            FormatDouble(row.hist.sum_ms).c_str(),
            FormatDouble(row.hist.min_ms).c_str(),
            FormatDouble(row.hist.max_ms).c_str(),
            FormatDouble(row.hist.MeanMs()).c_str());
    for (size_t q = 0; q < kNumSummaryQuantiles; ++q) {
      AppendF(&out, ", \"%s\": %s", kSummaryJsonKeys[q],
              FormatDouble(row.hist.Percentile(kSummaryQuantiles[q])).c_str());
    }
    out.append("}");
    first = false;
  }
  out.append("]}");
  return out;
}

// --------------------------------------------------------------- flusher ---

MetricsFlusher::MetricsFlusher(SnapshotFn fn, size_t interval_ms, size_t max_windows)
    : fn_(std::move(fn)),
      interval_ms_(interval_ms),
      max_windows_(max_windows == 0 ? 1 : max_windows),
      origin_(std::chrono::steady_clock::now()) {
  if (interval_ms_ > 0) {
    thread_ = std::thread([this] { Loop(); });
  }
}

MetricsFlusher::~MetricsFlusher() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

double MetricsFlusher::NowMs() const {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   origin_)
      .count();
}

void MetricsFlusher::FlushNow() {
  // The snapshot call runs outside the lock: `fn_` may itself take shard
  // locks and must never nest under the window mutex.
  MetricsSnapshot cut = fn_();
  const double now = NowMs();
  std::lock_guard<std::mutex> lock(mutex_);
  Window window;
  window.start_ms = last_ms_;
  window.end_ms = now;
  window.delta = cut.DeltaSince(last_);
  last_ = std::move(cut);
  last_ms_ = now;
  windows_.push_back(std::move(window));
  if (windows_.size() > max_windows_) {
    windows_.erase(windows_.begin(),
                   windows_.begin() + static_cast<std::ptrdiff_t>(windows_.size() -
                                                                  max_windows_));
  }
}

std::vector<MetricsFlusher::Window> MetricsFlusher::Windows() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return windows_;
}

void MetricsFlusher::Loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    if (stop_cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_),
                          [this] { return stopping_; })) {
      return;
    }
    lock.unlock();
    FlushNow();
    lock.lock();
  }
}

}  // namespace maliva
