// Sorted row-id set operations used by index-intersection plans.

#ifndef MALIVA_INDEX_ROWSET_H_
#define MALIVA_INDEX_ROWSET_H_

#include <vector>

#include "storage/value.h"

namespace maliva {

/// Sorted, duplicate-free list of row ids.
using RowIdList = std::vector<RowId>;

/// True when `rows` is strictly increasing.
bool IsSortedUnique(const RowIdList& rows);

/// Intersection of two sorted lists.
RowIdList IntersectSorted(const RowIdList& a, const RowIdList& b);

/// Intersection of k sorted lists (smallest first for efficiency). A single
/// list is returned as is, without a copy; otherwise the intersection is
/// written to `*out` and `*out` is returned (empty when `lists` is empty).
const RowIdList& IntersectAll(std::vector<const RowIdList*> lists, RowIdList* out);

}  // namespace maliva

#endif  // MALIVA_INDEX_ROWSET_H_
