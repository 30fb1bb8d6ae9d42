#include "index/btree_index.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace maliva {

BTreeIndex::BTreeIndex(const Table& table, const std::string& column) {
  const Column& col = table.GetColumn(column);
  size_t n = table.NumRows();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> vals(n);
  for (size_t i = 0; i < n; ++i) vals[i] = col.NumericAt(static_cast<RowId>(i));
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (vals[a] != vals[b]) return vals[a] < vals[b];
    return a < b;
  });
  keys_.resize(n);
  rows_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    keys_[i] = vals[order[i]];
    rows_[i] = static_cast<RowId>(order[i]);
  }
}

std::pair<size_t, size_t> BTreeIndex::EqualRange(double lo, double hi) const {
  auto first = std::lower_bound(keys_.begin(), keys_.end(), lo);
  auto last = std::upper_bound(first, keys_.end(), hi);
  return {static_cast<size_t>(first - keys_.begin()),
          static_cast<size_t>(last - keys_.begin())};
}

size_t BTreeIndex::RangeCount(double lo, double hi) const {
  if (!(lo <= hi)) return 0;  // inverted or NaN: matches nothing
  auto [first, last] = EqualRange(lo, hi);
  return last - first;
}

RowIdList BTreeIndex::RangeScan(double lo, double hi) const {
  if (!(lo <= hi)) return {};
  auto [first, last] = EqualRange(lo, hi);
  RowIdList out(rows_.begin() + static_cast<ptrdiff_t>(first),
                rows_.begin() + static_cast<ptrdiff_t>(last));
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace maliva
