// Inverted keyword index over a text column.

#ifndef MALIVA_INDEX_INVERTED_INDEX_H_
#define MALIVA_INDEX_INVERTED_INDEX_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "index/rowset.h"
#include "storage/table.h"

namespace maliva {

/// Token -> sorted postings list. Tokens come from util Tokenize (lower-cased
/// alphanumeric runs); each row contributes each distinct token once.
class InvertedIndex {
 public:
  InvertedIndex(const Table& table, const std::string& column);

  /// Postings for `keyword` (lower-cased exact token match). Empty list when
  /// the token never occurs. The reference stays valid for the index lifetime.
  const RowIdList& Lookup(const std::string& keyword) const;

  /// Document frequency of `keyword`.
  size_t DocFreq(const std::string& keyword) const { return Lookup(keyword).size(); }

  /// Number of distinct tokens indexed.
  size_t VocabularySize() const { return postings_.size(); }

 private:
  std::unordered_map<std::string, RowIdList> postings_;
  RowIdList empty_;
};

}  // namespace maliva

#endif  // MALIVA_INDEX_INVERTED_INDEX_H_
