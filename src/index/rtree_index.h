// STR (Sort-Tile-Recursive) bulk-loaded R-tree over a point column.

#ifndef MALIVA_INDEX_RTREE_INDEX_H_
#define MALIVA_INDEX_RTREE_INDEX_H_

#include <string>
#include <vector>

#include "index/rowset.h"
#include "storage/table.h"

namespace maliva {

/// Read-only spatial index answering bounding-box queries over geo points.
class RTreeIndex {
 public:
  /// Leaf fanout / internal fanout of the packed tree.
  static constexpr size_t kFanout = 64;

  /// Builds the tree over `table[column]` (must be a point column).
  RTreeIndex(const Table& table, const std::string& column);

  size_t size() const { return points_.size(); }

  /// Sorted row ids whose point lies inside `box` (inclusive).
  RowIdList Query(const BoundingBox& box) const;

  /// Number of matching rows; equals Query(box).size(). Subtrees whose box
  /// lies inside `box` are counted from their entry range without visiting
  /// their points, so only nodes straddling the query edge are descended.
  size_t Count(const BoundingBox& box) const;

  /// Bounding box of all indexed points.
  BoundingBox Bounds() const { return nodes_.empty() ? BoundingBox{} : nodes_.back().box; }

  /// Height of the tree (1 = leaves only). Exposed for tests.
  size_t Height() const { return height_; }

 private:
  struct Node {
    BoundingBox box;
    // Children: for leaves, [first, last) into entries_ (point slots);
    // for internal nodes, [first, last) into nodes_.
    size_t first = 0;
    size_t last = 0;
    // Entry slots of the whole subtree. STR packing lays every subtree out
    // contiguously, so this is one range (equal to [first, last) for leaves).
    size_t entries_first = 0;
    size_t entries_last = 0;
    bool leaf = true;
    // Every entry of the subtree lies inside `box`. False when the subtree
    // holds a NaN coordinate: BoundingBox::Extend drops NaN, so such a box
    // does not cover its own points and Count must not trust it.
    bool box_covers_entries = true;
  };

  template <typename Visit>
  void Traverse(const BoundingBox& box, size_t node_idx, Visit&& visit) const;
  size_t CountNode(const BoundingBox& box, size_t node_idx) const;

  std::vector<GeoPoint> points_;   // copy of indexed points, by entry slot
  std::vector<RowId> entry_rows_;  // row id per entry slot
  std::vector<Node> nodes_;        // packed bottom-up; root is nodes_.back()
  size_t height_ = 0;
};

}  // namespace maliva

#endif  // MALIVA_INDEX_RTREE_INDEX_H_
