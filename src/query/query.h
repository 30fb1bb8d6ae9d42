// The visualization query produced by the middleware for a frontend request.

#ifndef MALIVA_QUERY_QUERY_H_
#define MALIVA_QUERY_QUERY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "query/predicate.h"

namespace maliva {

/// How the query result is rendered by the frontend.
enum class OutputKind {
  kScatter,  ///< project (id, point) of matching rows
  kHeatmap,  ///< GROUP BY BIN_ID(point): per-bin counts
};

/// Optional equi-join with a dimension table (e.g. tweets JOIN users).
struct JoinSpec {
  std::string right_table;                ///< e.g. "users"
  std::string left_key;                   ///< FK column on the base table
  std::string right_key;                  ///< PK column on the right table
  std::vector<Predicate> right_predicates;  ///< filters on the right table
};

/// An original visualization query Q: conjunctive selection over a base table,
/// an optional key join, and a visualization output.
struct Query {
  uint64_t id = 0;
  std::string table;                   ///< base (fact) table
  std::vector<Predicate> predicates;   ///< conjuncts over the base table
  std::optional<JoinSpec> join;

  OutputKind output = OutputKind::kHeatmap;
  std::string output_column;   ///< point column that is visualized
  int heatmap_bins = 32;       ///< heatmap grid resolution per axis

  size_t NumPredicates() const { return predicates.size(); }

  /// Appends the SQL-ish rendering to `out`; the service renders every
  /// response's SQL through this, so the bytes are part of the API.
  void AppendTo(std::string* out) const;
  std::string ToString() const;
};

}  // namespace maliva

#endif  // MALIVA_QUERY_QUERY_H_
