#include "engine/table_stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>

#include "util/rng.h"
#include "util/string_util.h"

namespace maliva {

EquiDepthHistogram::EquiDepthHistogram(const Column& column, size_t num_buckets) {
  size_t n = column.size();
  if (n == 0) return;
  std::vector<double> vals(n);
  for (size_t i = 0; i < n; ++i) vals[i] = column.NumericAt(static_cast<RowId>(i));
  std::sort(vals.begin(), vals.end());
  num_buckets = std::max<size_t>(1, std::min(num_buckets, n));
  bounds_.resize(num_buckets + 1);
  for (size_t b = 0; b <= num_buckets; ++b) {
    size_t idx = std::min(n - 1, b * n / num_buckets);
    bounds_[b] = vals[idx];
  }
  bounds_.back() = vals.back();
}

double EquiDepthHistogram::EstimateSelectivity(double lo, double hi) const {
  if (bounds_.size() < 2 || !(lo <= hi)) return 0.0;
  size_t nb = bounds_.size() - 1;
  double per_bucket = 1.0 / static_cast<double>(nb);
  double sel = 0.0;
  for (size_t b = 0; b < nb; ++b) {
    double blo = bounds_[b];
    double bhi = bounds_[b + 1];
    if (bhi < lo || blo > hi) continue;
    if (bhi <= blo) {
      // Degenerate bucket (heavy duplicate value): fully in or out.
      sel += (blo >= lo && blo <= hi) ? per_bucket : 0.0;
      continue;
    }
    double cover_lo = std::max(lo, blo);
    double cover_hi = std::min(hi, bhi);
    sel += per_bucket * std::max(0.0, (cover_hi - cover_lo) / (bhi - blo));
  }
  return std::clamp(sel, 0.0, 1.0);
}

GridHistogram2D::GridHistogram2D(const Column& column, size_t cells_per_axis,
                                 double floor_selectivity)
    : cells_(std::max<size_t>(1, cells_per_axis)),
      floor_selectivity_(floor_selectivity) {
  const std::vector<GeoPoint>& pts = column.AsPoint();
  total_ = pts.size();
  counts_.assign(cells_ * cells_, 0);
  if (pts.empty()) return;
  bounds_ = BoundingBox{pts[0].lon, pts[0].lat, pts[0].lon, pts[0].lat};
  for (const GeoPoint& p : pts) bounds_ = bounds_.Extend(p);
  double w = std::max(1e-12, bounds_.Width());
  double h = std::max(1e-12, bounds_.Height());
  for (const GeoPoint& p : pts) {
    size_t cx = std::min(cells_ - 1,
                         static_cast<size_t>((p.lon - bounds_.min_lon) / w * cells_));
    size_t cy = std::min(cells_ - 1,
                         static_cast<size_t>((p.lat - bounds_.min_lat) / h * cells_));
    ++counts_[cy * cells_ + cx];
  }
}

double GridHistogram2D::EstimateSelectivity(const BoundingBox& box) const {
  if (total_ == 0) return 0.0;
  double w = std::max(1e-12, bounds_.Width());
  double h = std::max(1e-12, bounds_.Height());
  double cell_w = w / static_cast<double>(cells_);
  double cell_h = h / static_cast<double>(cells_);
  double matched = 0.0;
  for (size_t cy = 0; cy < cells_; ++cy) {
    double cell_min_lat = bounds_.min_lat + cell_h * static_cast<double>(cy);
    double cell_max_lat = cell_min_lat + cell_h;
    double cover_lat = std::max(
        0.0, std::min(box.max_lat, cell_max_lat) - std::max(box.min_lat, cell_min_lat));
    if (cover_lat <= 0.0) continue;
    for (size_t cx = 0; cx < cells_; ++cx) {
      int64_t c = counts_[cy * cells_ + cx];
      if (c == 0) continue;
      double cell_min_lon = bounds_.min_lon + cell_w * static_cast<double>(cx);
      double cell_max_lon = cell_min_lon + cell_w;
      double cover_lon =
          std::max(0.0, std::min(box.max_lon, cell_max_lon) -
                            std::max(box.min_lon, cell_min_lon));
      if (cover_lon <= 0.0) continue;
      // Uniformity assumption inside the cell.
      matched += static_cast<double>(c) * (cover_lon / cell_w) * (cover_lat / cell_h);
    }
  }
  double sel = std::clamp(matched / static_cast<double>(total_), 0.0, 1.0);
  return std::max(sel, floor_selectivity_);
}

TextStats::TextStats(const Column& column, size_t mcv_size, double default_selectivity)
    : default_selectivity_(default_selectivity) {
  const std::vector<std::string>& texts = column.AsText();
  std::unordered_map<std::string, int64_t> freq;
  for (const std::string& text : texts) {
    std::vector<std::string> tokens = Tokenize(text);
    std::sort(tokens.begin(), tokens.end());
    tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
    for (const std::string& tok : tokens) ++freq[tok];
  }
  std::vector<std::pair<std::string, int64_t>> items(freq.begin(), freq.end());
  std::sort(items.begin(), items.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  size_t keep = std::min(mcv_size, items.size());
  double n = std::max<double>(1.0, static_cast<double>(texts.size()));
  for (size_t i = 0; i < keep; ++i) {
    mcv_[items[i].first] = static_cast<double>(items[i].second) / n;
  }
}

double TextStats::EstimateSelectivity(const std::string& keyword) const {
  auto it = mcv_.find(ToLower(keyword));
  if (it != mcv_.end()) return it->second;
  return default_selectivity_;
}

TableStats::TableStats(const Table& table, const Options& options)
    : num_rows_(table.NumRows()) {
  // ANALYZE-style bounded sampling: statistics see only ~sample_rows rows.
  const Table* stats_source = &table;
  std::unique_ptr<Table> sampled;
  if (options.sample_rows > 0 && table.NumRows() > options.sample_rows) {
    Rng rng(options.sample_seed);
    double fraction =
        static_cast<double>(options.sample_rows) / static_cast<double>(table.NumRows());
    sampled = table.Sample(fraction, &rng, table.name() + "#stats");
    stats_source = sampled.get();
  }
  for (size_t c = 0; c < stats_source->NumColumns(); ++c) {
    const Column& col = stats_source->ColumnAt(c);
    switch (col.type()) {
      case ColumnType::kInt64:
      case ColumnType::kDouble:
      case ColumnType::kTimestamp:
        histograms_[col.name()] =
            std::make_unique<EquiDepthHistogram>(col, options.histogram_buckets);
        break;
      case ColumnType::kPoint:
        grids_[col.name()] = std::make_unique<GridHistogram2D>(
            col, options.grid_cells, options.spatial_floor_selectivity);
        break;
      case ColumnType::kText:
        text_stats_[col.name()] = std::make_unique<TextStats>(
            col, options.text_mcv_size, options.text_default_selectivity);
        break;
    }
  }
}

double TableStats::EstimateSelectivity(const Predicate& pred) const {
  switch (pred.type) {
    case PredicateType::kKeyword: {
      auto it = text_stats_.find(pred.column);
      assert(it != text_stats_.end());
      return it->second->EstimateSelectivity(pred.keyword);
    }
    case PredicateType::kTimeRange:
    case PredicateType::kNumericRange: {
      auto it = histograms_.find(pred.column);
      assert(it != histograms_.end());
      return it->second->EstimateSelectivity(pred.range.lo, pred.range.hi);
    }
    case PredicateType::kSpatialBox: {
      auto it = grids_.find(pred.column);
      assert(it != grids_.end());
      return it->second->EstimateSelectivity(pred.box);
    }
  }
  return 1.0;
}

double TableStats::EstimateConjunction(const std::vector<Predicate>& preds) const {
  double sel = 1.0;
  for (const Predicate& p : preds) sel *= EstimateSelectivity(p);
  return sel;
}

}  // namespace maliva
