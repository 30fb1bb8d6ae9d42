#include "index/inverted_index.h"

#include <algorithm>

#include "util/string_util.h"

namespace maliva {

InvertedIndex::InvertedIndex(const Table& table, const std::string& column) {
  const Column& col = table.GetColumn(column);
  const std::vector<std::string>& texts = col.AsText();
  for (RowId row = 0; row < texts.size(); ++row) {
    std::vector<std::string> tokens = Tokenize(texts[row]);
    std::sort(tokens.begin(), tokens.end());
    tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
    for (std::string& tok : tokens) {
      postings_[std::move(tok)].push_back(row);
    }
  }
  // Rows are visited in increasing order, so each postings list is sorted.
}

const RowIdList& InvertedIndex::Lookup(const std::string& keyword) const {
  auto it = postings_.find(ToLower(keyword));
  if (it == postings_.end()) return empty_;
  return it->second;
}

}  // namespace maliva
