#include "index/rowset.h"

#include <algorithm>

namespace maliva {

bool IsSortedUnique(const RowIdList& rows) {
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i - 1] >= rows[i]) return false;
  }
  return true;
}

RowIdList IntersectSorted(const RowIdList& a, const RowIdList& b) {
  RowIdList out;
  out.reserve(std::min(a.size(), b.size()));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

const RowIdList& IntersectAll(std::vector<const RowIdList*> lists, RowIdList* out) {
  out->clear();
  if (lists.empty()) return *out;
  if (lists.size() == 1) return *lists[0];
  std::sort(lists.begin(), lists.end(),
            [](const RowIdList* x, const RowIdList* y) { return x->size() < y->size(); });
  *out = IntersectSorted(*lists[0], *lists[1]);
  for (size_t i = 2; i < lists.size() && !out->empty(); ++i) {
    *out = IntersectSorted(*out, *lists[i]);
  }
  return *out;
}

}  // namespace maliva
