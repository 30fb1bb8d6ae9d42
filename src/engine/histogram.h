// Accurate O(1) selectivity histograms: the middle rung of the selectivity
// ladder (shared-store hit -> histogram estimate -> sample probe).
//
// Unlike TableStats (engine/table_stats.h), which deliberately reproduces the
// optimizer's miscalibrated statistics (small ANALYZE sample, spatial floor,
// MCV truncation), these histograms are built from the *full* table and exist
// to answer selectivity lookups without touching the table at serve time:
//
//   * ColumnHistogram — equi-width buckets over a numeric/timestamp column
//     with prefix sums, so a range [lo, hi] is two O(1) CDF evaluations
//     (linear interpolation inside the matching bucket).
//   * SpatialGridHistogram — a cells x cells count grid over the column's
//     bounding box with a summed-area table, so a box is four O(1) corner
//     evaluations with fractional edge cells (exact under per-cell
//     uniformity) — contrast the existing GridHistogram2D, which walks
//     O(cells^2) per lookup and applies a deliberate floor.
//
// Histograms are built once per table inside Engine::RegisterTable (sample
// tables get their own via BuildSampleTables' RegisterTable calls) and are
// versioned by the engine's catalog_version() epoching: consumers bind an
// epoch and must refuse stale reads (see qte/selectivity_tier.h).

#ifndef MALIVA_ENGINE_HISTOGRAM_H_
#define MALIVA_ENGINE_HISTOGRAM_H_

#include <cstddef>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "query/predicate.h"
#include "storage/table.h"
#include "storage/value.h"

namespace maliva {

/// Resolution knobs for per-table histogram construction.
struct HistogramOptions {
  size_t buckets = 64;     ///< equi-width buckets per numeric column
  size_t grid_cells = 64;  ///< grid cells per axis for point columns
};

/// Equi-width histogram over one numeric/timestamp column with prefix sums:
/// range selectivity in O(1) via two continuous-CDF evaluations.
class ColumnHistogram {
 public:
  ColumnHistogram(const Column& column, size_t buckets);

  /// Selectivity of [lo, hi] under the per-bucket uniformity assumption.
  double EstimateRange(double lo, double hi) const;

 private:
  /// Continuous CDF: rows with value <= x, interpolated inside the bucket.
  double CdfAt(double x) const;

  double min_ = 0.0;
  double max_ = 0.0;
  double width_ = 0.0;  ///< bucket width; 0 for degenerate (all-equal) columns
  size_t rows_ = 0;
  std::vector<double> counts_;  ///< per-bucket row counts
  std::vector<double> prefix_;  ///< prefix_[i] = sum of counts_[0..i)
};

/// 2-D equi-width count grid over a point column's bounding box with a
/// summed-area table: box selectivity in O(1) via four corner evaluations,
/// fractional edge cells included (exact when mass is uniform within cells).
class SpatialGridHistogram {
 public:
  SpatialGridHistogram(const Column& column, size_t cells);

  /// Selectivity of `box` under the per-cell uniformity assumption.
  double EstimateBox(const BoundingBox& box) const;

 private:
  /// Continuous summed-area lookup: mass of [0, u) x [0, v) in cell units.
  double MassBelow(double u, double v) const;

  BoundingBox bounds_{};
  size_t cells_ = 0;
  size_t rows_ = 0;
  double cell_w_ = 0.0;
  double cell_h_ = 0.0;
  std::vector<double> counts_;  ///< cells_ x cells_ row counts, x-major
  std::vector<double> sat_;     ///< (cells_+1)^2 summed area of counts_
};

/// Per-table bundle: one histogram per numeric/timestamp/point column. Text
/// columns have no histogram (keyword selectivity stays on the probe rungs).
class TableHistograms {
 public:
  TableHistograms(const Table& table, const HistogramOptions& options);

  /// O(1) estimate for `pred`, or nullopt when no histogram covers it
  /// (keyword predicates, unknown columns).
  std::optional<double> Estimate(const Predicate& pred) const;

 private:
  std::unordered_map<std::string, ColumnHistogram> numeric_;
  std::unordered_map<std::string, SpatialGridHistogram> spatial_;
};

}  // namespace maliva

#endif  // MALIVA_ENGINE_HISTOGRAM_H_
