// Per-table statistics used by the optimizer for selectivity estimation.
//
// These mirror PostgreSQL's machinery — equi-depth histograms for numeric
// columns, a coarse grid for spatial data, most-common-values (MCV) lists for
// text — including its classic failure modes: keywords outside the MCV list
// fall back to a fixed default selectivity, spatial estimates assume
// uniformity inside grid cells, and conjunctions assume independence.
// These errors are the reason the default plan is often slow while a hinted
// plan is fast, which is the phenomenon Maliva exploits.

#ifndef MALIVA_ENGINE_TABLE_STATS_H_
#define MALIVA_ENGINE_TABLE_STATS_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "query/predicate.h"
#include "storage/table.h"

namespace maliva {

/// Equi-depth histogram over a numeric column.
class EquiDepthHistogram {
 public:
  EquiDepthHistogram(const Column& column, size_t num_buckets);

  /// Estimated fraction of rows with value in [lo, hi] (inclusive).
  double EstimateSelectivity(double lo, double hi) const;

 private:
  // bounds_[i], bounds_[i+1] delimit bucket i; each bucket holds ~1/num_buckets
  // of the rows.
  std::vector<double> bounds_;
};

/// Coarse uniform grid over a point column.
class GridHistogram2D {
 public:
  /// `floor_selectivity` mimics PostgreSQL's geometric-operator fallback: a
  /// box smaller than the statistics can resolve never estimates below the
  /// floor, so genuinely selective spatial predicates look unattractive and
  /// the optimizer avoids perfectly good spatial-index plans.
  GridHistogram2D(const Column& column, size_t cells_per_axis,
                  double floor_selectivity = 0.0);

  /// Estimated fraction of rows inside `box`, assuming uniformity within
  /// each grid cell (fractional-coverage interpolation).
  double EstimateSelectivity(const BoundingBox& box) const;

 private:
  BoundingBox bounds_;
  size_t cells_ = 0;
  size_t total_ = 0;
  double floor_selectivity_ = 0.0;
  std::vector<int64_t> counts_;  // row-major cells_ x cells_
};

/// Most-common-values statistics over a text column's tokens.
class TextStats {
 public:
  /// Keeps the `mcv_size` most frequent tokens; everything else estimates at
  /// `default_selectivity` (the PostgreSQL-style fixed fallback).
  TextStats(const Column& column, size_t mcv_size, double default_selectivity);

  /// Estimated fraction of rows containing `keyword`.
  double EstimateSelectivity(const std::string& keyword) const;

  bool IsCommon(const std::string& keyword) const {
    return mcv_.count(keyword) > 0;
  }

 private:
  std::unordered_map<std::string, double> mcv_;  // token -> selectivity
  double default_selectivity_;
};

/// Statistics bundle for one table; answers per-predicate selectivity
/// estimates and (independence-assumption) conjunction estimates.
class TableStats {
 public:
  struct Options {
    size_t histogram_buckets = 24;
    // A coarse grid: city-scale hotspots live inside single cells, so the
    // uniformity assumption misestimates zoomed-in boxes badly (both ways).
    size_t grid_cells = 8;
    // A short MCV list with a low fixed fallback: bursty mid-tail keywords
    // ("covid") are underestimated by 1-2 orders of magnitude, which is the
    // paper's motivating failure (Fig 1).
    size_t text_mcv_size = 15;
    double text_default_selectivity = 1e-4;
    // PostgreSQL-style geometric fallback: spatial estimates never go below
    // this floor, so sub-resolution boxes are systematically overestimated.
    double spatial_floor_selectivity = 0.004;
    // Statistics are computed from a bounded row sample, like PostgreSQL's
    // ANALYZE (which samples ~30k rows regardless of table size). For skewed
    // columns the tail buckets carry large sampling error — a major source
    // of plan-flipping misestimates on the Taxi/TPC-H workloads.
    size_t sample_rows = 4000;
    uint64_t sample_seed = 0x616e6c7a;  // "anlz"
  };

  TableStats(const Table& table, const Options& options);

  /// Estimated selectivity of a single predicate in [0, 1].
  double EstimateSelectivity(const Predicate& pred) const;

  /// Estimated selectivity of a conjunction (independence assumption).
  double EstimateConjunction(const std::vector<Predicate>& preds) const;

  size_t num_rows() const { return num_rows_; }

 private:
  size_t num_rows_ = 0;
  std::unordered_map<std::string, std::unique_ptr<EquiDepthHistogram>> histograms_;
  std::unordered_map<std::string, std::unique_ptr<GridHistogram2D>> grids_;
  std::unordered_map<std::string, std::unique_ptr<TextStats>> text_stats_;
};

}  // namespace maliva

#endif  // MALIVA_ENGINE_TABLE_STATS_H_
