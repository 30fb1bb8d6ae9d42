#include "index/hash_index.h"

namespace maliva {

HashIndex::HashIndex(const Table& table, const std::string& column) {
  const Column& col = table.GetColumn(column);
  const std::vector<int64_t>& keys = col.AsInt64();
  for (RowId row = 0; row < keys.size(); ++row) {
    buckets_[keys[row]].push_back(row);
  }
}

const RowIdList& HashIndex::Lookup(int64_t key) const {
  auto it = buckets_.find(key);
  if (it == buckets_.end()) return empty_;
  return it->second;
}

}  // namespace maliva
