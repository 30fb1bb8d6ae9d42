// Cached ground-truth execution times of rewritten queries.
//
// The accurate QTE, the MDP reward function, and the evaluation harness all
// need the true (virtual) execution time of applying a rewrite option to a
// query. Executing a plan is deterministic, so results are computed once and
// memoized here.
//
// Thread-safe: the oracle sits on the concurrent serving path (one instance
// shared by every worker), so the memo table is guarded by a shared mutex.
// Cache misses execute the plan *outside* the lock — execution is
// deterministic, so a racing duplicate computes the identical value and the
// second insert is a no-op.

#ifndef MALIVA_QTE_PLAN_TIME_ORACLE_H_
#define MALIVA_QTE_PLAN_TIME_ORACLE_H_

#include <cstdint>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "engine/engine.h"
#include "query/rewritten_query.h"

namespace maliva {

/// Memoized Engine::Execute by (query id, rewrite option) identity (RewriteKey).
class PlanTimeOracle {
 public:
  explicit PlanTimeOracle(const Engine* engine) : engine_(engine) {}

  /// True virtual execution time of `option` applied to `query`. A miss
  /// executes through `memo` when one is given (Engine::ExecutePlan), which
  /// changes what the execution costs on the host, never its result.
  double TrueTimeMs(const Query& query, const RewriteOption& option,
                    ProbeMemo* memo = nullptr) const;

  /// Number of distinct (query, option) executions performed so far.
  size_t CacheSize() const {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return cache_.size();
  }

 private:
  const Engine* engine_;
  mutable std::shared_mutex mutex_;
  mutable std::unordered_map<uint64_t, double> cache_;
};

/// Runs oracle.TrueTimeMs for every pair of `queries` x `options` on
/// ThreadPool::Shared(), so a sequential loop that follows (training,
/// difficulty bucketing) reads its ground truth from the memo. Execution is
/// deterministic, so nothing downstream depends on whether this ran.
///
/// One task owns each query and runs its options through one ProbeMemo, in
/// reverse order: each index probe is then paid once, and the full-scan
/// option comes after the all-index one, so it reads its rows from their
/// probes instead of scanning.
void PrefillTrueTimes(const PlanTimeOracle& oracle,
                      const std::vector<const Query*>& queries,
                      const RewriteOptionSet& options);

}  // namespace maliva

#endif  // MALIVA_QTE_PLAN_TIME_ORACLE_H_
