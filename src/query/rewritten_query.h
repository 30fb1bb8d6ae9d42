// A rewritten query RQ = original query + rewriting option (Definition 2.2).

#ifndef MALIVA_QUERY_REWRITTEN_QUERY_H_
#define MALIVA_QUERY_REWRITTEN_QUERY_H_

#include <bit>
#include <cstdint>
#include <string>

#include "query/hints.h"
#include "query/query.h"

namespace maliva {

/// The engine executes RewrittenQuery values; Maliva's rewriters produce them.
struct RewrittenQuery {
  const Query* query = nullptr;  ///< original query (not owned)
  RewriteOption option;

  /// SQL-ish rendering including the hint comment, built in one buffer
  /// reserved up front (a rendered visualization query is ~200 bytes).
  std::string ToString() const {
    std::string out;
    out.reserve(256);
    option.AppendTo(&out, query->NumPredicates());
    out.push_back(' ');
    query->AppendTo(&out);
    return out;
  }
};

/// Identity of `option` applied to `query` (query id, hints, approximation):
/// the key both ground-truth memos, PlanTimeOracle and QualityOracle, cache
/// executions under.
inline uint64_t RewriteKey(const Query& query, const RewriteOption& option) {
  uint64_t h = query.id * 0x9e3779b97f4a7c15ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(option.hints.index_mask.has_value() ? (*option.hints.index_mask + 1) : 0);
  mix(static_cast<uint64_t>(option.hints.join_method));
  mix(static_cast<uint64_t>(option.approx.kind));
  mix(std::bit_cast<uint64_t>(option.approx.fraction));
  return h;
}

}  // namespace maliva

#endif  // MALIVA_QUERY_REWRITTEN_QUERY_H_
