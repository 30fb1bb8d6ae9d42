#include "engine/histogram.h"

#include <algorithm>
#include <cmath>

namespace maliva {

ColumnHistogram::ColumnHistogram(const Column& column, size_t buckets)
    : rows_(column.size()) {
  if (buckets == 0) buckets = 1;
  counts_.assign(buckets, 0.0);
  prefix_.assign(buckets + 1, 0.0);
  if (rows_ == 0) return;

  min_ = max_ = column.NumericAt(0);
  for (size_t row = 1; row < rows_; ++row) {
    double v = column.NumericAt(row);
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  width_ = (max_ - min_) / static_cast<double>(buckets);
  if (width_ > 0.0) {
    for (size_t row = 0; row < rows_; ++row) {
      double v = column.NumericAt(row);
      size_t b = static_cast<size_t>((v - min_) / width_);
      counts_[std::min(b, buckets - 1)] += 1.0;
    }
  } else {
    // Degenerate all-equal column: the whole mass sits at min_.
    counts_[0] = static_cast<double>(rows_);
  }
  for (size_t i = 0; i < buckets; ++i) prefix_[i + 1] = prefix_[i] + counts_[i];
}

double ColumnHistogram::CdfAt(double x) const {
  if (rows_ == 0 || x < min_) return 0.0;
  if (width_ <= 0.0 || x >= max_) return static_cast<double>(rows_);
  double pos = (x - min_) / width_;
  size_t i = std::min(static_cast<size_t>(pos), counts_.size() - 1);
  double frac = std::min(pos - static_cast<double>(i), 1.0);
  return prefix_[i] + frac * counts_[i];
}

double ColumnHistogram::EstimateRange(double lo, double hi) const {
  if (rows_ == 0 || !(lo <= hi)) return 0.0;  // inverted or NaN: empty
  if (width_ <= 0.0) {
    // All values equal: the range either covers the point mass or misses it.
    return (lo <= min_ && min_ <= hi) ? 1.0 : 0.0;
  }
  double sel = (CdfAt(hi) - CdfAt(lo)) / static_cast<double>(rows_);
  return std::clamp(sel, 0.0, 1.0);
}

SpatialGridHistogram::SpatialGridHistogram(const Column& column, size_t cells)
    : cells_(cells == 0 ? 1 : cells), rows_(column.size()) {
  counts_.assign(cells_ * cells_, 0.0);
  sat_.assign((cells_ + 1) * (cells_ + 1), 0.0);
  if (rows_ == 0) return;

  const GeoPoint& first = column.PointAt(0);
  bounds_ = BoundingBox{first.lon, first.lat, first.lon, first.lat};
  for (size_t row = 1; row < rows_; ++row) {
    bounds_ = bounds_.Extend(column.PointAt(row));
  }
  // Degenerate axes (all points on one line) get unit extent so every point
  // lands in a real cell; boxes touching the line then read cell fractions.
  BoundingBox grid = bounds_;
  if (grid.Width() <= 0.0) grid.max_lon = grid.min_lon + 1.0;
  if (grid.Height() <= 0.0) grid.max_lat = grid.min_lat + 1.0;
  bounds_ = grid;
  cell_w_ = grid.Width() / static_cast<double>(cells_);
  cell_h_ = grid.Height() / static_cast<double>(cells_);

  for (size_t row = 0; row < rows_; ++row) {
    const GeoPoint& p = column.PointAt(row);
    size_t ix = std::min(static_cast<size_t>((p.lon - grid.min_lon) / cell_w_),
                         cells_ - 1);
    size_t iy = std::min(static_cast<size_t>((p.lat - grid.min_lat) / cell_h_),
                         cells_ - 1);
    counts_[ix * cells_ + iy] += 1.0;
  }

  // Summed-area table: sat_[i][j] = mass of cells [0, i) x [0, j).
  size_t stride = cells_ + 1;
  for (size_t i = 0; i < cells_; ++i) {
    for (size_t j = 0; j < cells_; ++j) {
      sat_[(i + 1) * stride + (j + 1)] = counts_[i * cells_ + j] +
                                         sat_[i * stride + (j + 1)] +
                                         sat_[(i + 1) * stride + j] -
                                         sat_[i * stride + j];
    }
  }
}

double SpatialGridHistogram::MassBelow(double u, double v) const {
  size_t i = std::min(static_cast<size_t>(u), cells_ - 1);
  size_t j = std::min(static_cast<size_t>(v), cells_ - 1);
  double fu = std::min(u - static_cast<double>(i), 1.0);
  double fv = std::min(v - static_cast<double>(j), 1.0);
  size_t stride = cells_ + 1;
  double s00 = sat_[i * stride + j];
  double s10 = sat_[(i + 1) * stride + j];
  double s01 = sat_[i * stride + (j + 1)];
  return s00 + fu * (s10 - s00) + fv * (s01 - s00) +
         fu * fv * counts_[i * cells_ + j];
}

double SpatialGridHistogram::EstimateBox(const BoundingBox& box) const {
  if (rows_ == 0 || !(box.min_lon <= box.max_lon) || !(box.min_lat <= box.max_lat)) {
    return 0.0;
  }
  if (!box.Intersects(bounds_)) return 0.0;
  auto u_of = [this](double lon) {
    return std::clamp((lon - bounds_.min_lon) / cell_w_, 0.0,
                      static_cast<double>(cells_));
  };
  auto v_of = [this](double lat) {
    return std::clamp((lat - bounds_.min_lat) / cell_h_, 0.0,
                      static_cast<double>(cells_));
  };
  double u0 = u_of(box.min_lon), u1 = u_of(box.max_lon);
  double v0 = v_of(box.min_lat), v1 = v_of(box.max_lat);
  double mass =
      MassBelow(u1, v1) - MassBelow(u0, v1) - MassBelow(u1, v0) + MassBelow(u0, v0);
  return std::clamp(mass / static_cast<double>(rows_), 0.0, 1.0);
}

TableHistograms::TableHistograms(const Table& table, const HistogramOptions& options) {
  for (size_t idx = 0; idx < table.NumColumns(); ++idx) {
    const Column& col = table.ColumnAt(idx);
    switch (col.type()) {
      case ColumnType::kInt64:
      case ColumnType::kDouble:
      case ColumnType::kTimestamp:
        numeric_.emplace(col.name(), ColumnHistogram(col, options.buckets));
        break;
      case ColumnType::kPoint:
        spatial_.emplace(col.name(), SpatialGridHistogram(col, options.grid_cells));
        break;
      case ColumnType::kText:
        break;  // keyword selectivity stays on the probe rungs
    }
  }
}

std::optional<double> TableHistograms::Estimate(const Predicate& pred) const {
  switch (pred.type) {
    case PredicateType::kKeyword:
      return std::nullopt;
    case PredicateType::kTimeRange:
    case PredicateType::kNumericRange: {
      auto it = numeric_.find(pred.column);
      if (it == numeric_.end()) return std::nullopt;
      return it->second.EstimateRange(pred.range.lo, pred.range.hi);
    }
    case PredicateType::kSpatialBox: {
      auto it = spatial_.find(pred.column);
      if (it == spatial_.end()) return std::nullopt;
      return it->second.EstimateBox(pred.box);
    }
  }
  return std::nullopt;
}

}  // namespace maliva
