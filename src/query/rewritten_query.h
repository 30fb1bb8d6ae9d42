// A rewritten query RQ = original query + rewriting option (Definition 2.2).

#ifndef MALIVA_QUERY_REWRITTEN_QUERY_H_
#define MALIVA_QUERY_REWRITTEN_QUERY_H_

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

}  // namespace maliva

#endif  // MALIVA_QUERY_REWRITTEN_QUERY_H_
