#include "index/rtree_index.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace maliva {

RTreeIndex::RTreeIndex(const Table& table, const std::string& column) {
  const Column& col = table.GetColumn(column);
  const std::vector<GeoPoint>& pts = col.AsPoint();
  size_t n = pts.size();

  // STR packing: sort by lon into vertical slices of ~sqrt(n/fanout) * fanout
  // entries, then sort each slice by lat and cut into leaves of `kFanout`.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  size_t num_leaves = (n + kFanout - 1) / std::max<size_t>(kFanout, 1);
  size_t slices = std::max<size_t>(1, static_cast<size_t>(std::ceil(
                                          std::sqrt(static_cast<double>(num_leaves)))));
  size_t slice_size = std::max<size_t>(1, (n + slices - 1) / slices);

  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return pts[a].lon < pts[b].lon; });
  for (size_t s = 0; s * slice_size < n; ++s) {
    auto begin = order.begin() + static_cast<ptrdiff_t>(s * slice_size);
    auto end = order.begin() + static_cast<ptrdiff_t>(std::min(n, (s + 1) * slice_size));
    std::sort(begin, end, [&](size_t a, size_t b) { return pts[a].lat < pts[b].lat; });
  }

  points_.resize(n);
  entry_rows_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    points_[i] = pts[order[i]];
    entry_rows_[i] = static_cast<RowId>(order[i]);
  }

  if (n == 0) {
    nodes_.push_back(Node{BoundingBox{}, 0, 0, true});
    height_ = 1;
    return;
  }

  // Build leaves.
  size_t level_first = 0;
  for (size_t i = 0; i < n; i += kFanout) {
    Node leaf;
    leaf.leaf = true;
    leaf.first = i;
    leaf.last = std::min(n, i + kFanout);
    leaf.entries_first = leaf.first;
    leaf.entries_last = leaf.last;
    leaf.box = BoundingBox{points_[i].lon, points_[i].lat, points_[i].lon, points_[i].lat};
    for (size_t j = leaf.first; j < leaf.last; ++j) leaf.box = leaf.box.Extend(points_[j]);
    for (size_t j = leaf.first; j < leaf.last; ++j) {
      leaf.box_covers_entries = leaf.box_covers_entries && leaf.box.Contains(points_[j]);
    }
    nodes_.push_back(leaf);
  }
  height_ = 1;

  // Pack internal levels bottom-up until a single root remains.
  size_t level_last = nodes_.size();
  while (level_last - level_first > 1) {
    for (size_t i = level_first; i < level_last; i += kFanout) {
      Node inner;
      inner.leaf = false;
      inner.first = i;
      inner.last = std::min(level_last, i + kFanout);
      inner.entries_first = nodes_[inner.first].entries_first;
      inner.entries_last = nodes_[inner.last - 1].entries_last;
      inner.box = nodes_[inner.first].box;
      for (size_t j = inner.first; j < inner.last; ++j) {
        inner.box = inner.box.Union(nodes_[j].box);
        inner.box_covers_entries = inner.box_covers_entries && nodes_[j].box_covers_entries;
      }
      nodes_.push_back(inner);
    }
    level_first = level_last;
    level_last = nodes_.size();
    ++height_;
  }
}

template <typename Visit>
void RTreeIndex::Traverse(const BoundingBox& box, size_t node_idx, Visit&& visit) const {
  const Node& node = nodes_[node_idx];
  if (!box.Intersects(node.box)) return;
  if (node.leaf) {
    for (size_t i = node.first; i < node.last; ++i) {
      if (box.Contains(points_[i])) visit(entry_rows_[i]);
    }
    return;
  }
  for (size_t c = node.first; c < node.last; ++c) {
    Traverse(box, c, visit);
  }
}

RowIdList RTreeIndex::Query(const BoundingBox& box) const {
  RowIdList out;
  if (points_.empty()) return out;
  Traverse(box, nodes_.size() - 1, [&](RowId r) { out.push_back(r); });
  std::sort(out.begin(), out.end());
  return out;
}

size_t RTreeIndex::CountNode(const BoundingBox& box, size_t node_idx) const {
  const Node& node = nodes_[node_idx];
  if (!box.Intersects(node.box)) return 0;
  if (node.box_covers_entries && box.ContainsBox(node.box)) {
    return node.entries_last - node.entries_first;
  }
  size_t count = 0;
  if (node.leaf) {
    for (size_t i = node.first; i < node.last; ++i) count += box.Contains(points_[i]);
    return count;
  }
  for (size_t c = node.first; c < node.last; ++c) count += CountNode(box, c);
  return count;
}

size_t RTreeIndex::Count(const BoundingBox& box) const {
  if (points_.empty()) return 0;
  return CountNode(box, nodes_.size() - 1);
}

}  // namespace maliva
