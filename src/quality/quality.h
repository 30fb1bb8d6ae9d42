// Visualization quality functions F(r(Q), r(RQ)) (Section 6.1).
//
// Maliva places no restriction on the quality function; we provide the
// Jaccard similarity used by the paper's experiments (Fig 9, Section 7.7)
// over both scatterplot ids and heatmap bins.

#ifndef MALIVA_QUALITY_QUALITY_H_
#define MALIVA_QUALITY_QUALITY_H_

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <unordered_map>

#include "engine/engine.h"
#include "query/rewritten_query.h"

namespace maliva {

/// Jaccard similarity of two id sets (scatterplot visualizations).
double JaccardIds(const VisResult& a, const VisResult& b);

/// Jaccard similarity of the non-empty bin sets (heatmap visualizations).
double JaccardBins(const VisResult& a, const VisResult& b);

/// Dispatches on the query's output kind: Jaccard over ids for scatterplots,
/// Jaccard over bins for heatmaps. Exact results score 1.
double VisQuality(const Query& query, const VisResult& exact, const VisResult& approx);

/// Memoized quality of rewritten queries against their original query.
/// Executing Q exactly is expensive; the paper only ever pays this cost in
/// the offline training phase, and so do we.
///
/// Thread-safe: one oracle instance is shared by every concurrent serving
/// thread. Lookups take a shared lock; cache misses execute outside the lock
/// (execution is deterministic, so racing duplicates agree) and insert under
/// a unique lock.
class QualityOracle {
 public:
  explicit QualityOracle(const Engine* engine) : engine_(engine) {}

  /// F(r(Q), r(RQ)) for `option` applied to `query`; 1.0 for exact options
  /// (no quality loss) without executing anything.
  double Quality(const Query& query, const RewriteOption& option) const;

 private:
  const Engine* engine_;
  mutable std::shared_mutex mutex_;
  /// Exact results by query id, shared so a miss reads one without copying
  /// it under the lock.
  mutable std::unordered_map<uint64_t, std::shared_ptr<const VisResult>> exact_cache_;
  mutable std::unordered_map<uint64_t, double> quality_cache_;  // by RewriteKey
};

}  // namespace maliva

#endif  // MALIVA_QUALITY_QUALITY_H_
