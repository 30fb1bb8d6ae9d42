// Selection predicates of visualization queries.
//
// A visualization query is a conjunction of predicates over one table (plus an
// optional key join, see query.h). Each predicate targets one column and one
// index type, mirroring the paper's workloads: keyword conditions over an
// inverted index, temporal/numeric ranges over B+ trees, and spatial bounding
// boxes over an R-tree.

#ifndef MALIVA_QUERY_PREDICATE_H_
#define MALIVA_QUERY_PREDICATE_H_

#include <string>

#include "storage/value.h"

namespace maliva {

/// Kind of a selection predicate; determines the index that can serve it.
enum class PredicateType {
  kKeyword,       ///< text column contains keyword (inverted index)
  kTimeRange,     ///< timestamp column in [lo, hi] (B+ tree)
  kNumericRange,  ///< int64/double column in [lo, hi] (B+ tree)
  kSpatialBox,    ///< point column inside bounding box (R-tree)
};

/// One conjunct of a query's WHERE clause.
struct Predicate {
  PredicateType type = PredicateType::kNumericRange;
  std::string column;

  std::string keyword;  ///< kKeyword only
  NumericRange range;   ///< kTimeRange / kNumericRange only
  BoundingBox box;      ///< kSpatialBox only

  static Predicate Keyword(std::string column, std::string keyword);
  static Predicate Time(std::string column, double lo, double hi);
  static Predicate Numeric(std::string column, double lo, double hi);
  static Predicate Spatial(std::string column, const BoundingBox& box);

  /// Appends the SQL-ish rendering, e.g. `created_at BETWEEN 100.00 AND
  /// 200.00`, to `out`.
  void AppendTo(std::string* out) const;
  std::string ToString() const;
};

}  // namespace maliva

#endif  // MALIVA_QUERY_PREDICATE_H_
