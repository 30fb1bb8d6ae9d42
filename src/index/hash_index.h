// Hash index over an int64 column, used for key lookups in joins.

#ifndef MALIVA_INDEX_HASH_INDEX_H_
#define MALIVA_INDEX_HASH_INDEX_H_

#include <string>
#include <unordered_map>

#include "index/rowset.h"
#include "storage/table.h"

namespace maliva {

/// int64 key -> sorted row ids (duplicates allowed, e.g. FK columns).
class HashIndex {
 public:
  HashIndex(const Table& table, const std::string& column);

  /// Rows holding `key`; empty when absent. Reference valid for index lifetime.
  const RowIdList& Lookup(int64_t key) const;

  size_t DistinctKeys() const { return buckets_.size(); }

 private:
  std::unordered_map<int64_t, RowIdList> buckets_;
  RowIdList empty_;
};

}  // namespace maliva

#endif  // MALIVA_INDEX_HASH_INDEX_H_
