// B+-tree-style ordered index over a numeric column.
//
// Implemented as a bulk-loaded sorted (key, row) run with binary search; this
// has the same asymptotics and access pattern as a read-only B+ tree and is
// the standard trick for immutable analytic tables.

#ifndef MALIVA_INDEX_BTREE_INDEX_H_
#define MALIVA_INDEX_BTREE_INDEX_H_

#include <string>
#include <vector>

#include "index/rowset.h"
#include "storage/table.h"

namespace maliva {

/// Ordered secondary index over an int64/double/timestamp column.
class BTreeIndex {
 public:
  /// Builds the index over `table[column]`. The column must be numeric.
  BTreeIndex(const Table& table, const std::string& column);

  /// Number of rows with key in [lo, hi] (inclusive; none when hi < lo or a
  /// bound is NaN, as under Range::Contains).
  size_t RangeCount(double lo, double hi) const;

  /// Sorted row ids with key in [lo, hi] (inclusive; empty where RangeCount
  /// is 0).
  RowIdList RangeScan(double lo, double hi) const;

  /// Smallest / largest key present (0 when empty).
  double MinKey() const { return keys_.empty() ? 0.0 : keys_.front(); }
  double MaxKey() const { return keys_.empty() ? 0.0 : keys_.back(); }

 private:
  /// [first, last) positions in the sorted run covering [lo, hi].
  std::pair<size_t, size_t> EqualRange(double lo, double hi) const;

  std::vector<double> keys_;   // sorted
  std::vector<RowId> rows_;    // rows_[i] holds keys_[i]
};

}  // namespace maliva

#endif  // MALIVA_INDEX_BTREE_INDEX_H_
