#include "qte/plan_time_oracle.h"

#include <cassert>
#include <mutex>

#include "util/thread_pool.h"

namespace maliva {

double PlanTimeOracle::TrueTimeMs(const Query& query, const RewriteOption& option,
                                  ProbeMemo* memo) const {
  uint64_t key = RewriteKey(query, option);
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
  }
  // Execute outside the lock: deterministic, so a concurrent duplicate
  // computes the same value and emplace keeps whichever landed first.
  RewrittenQuery rq{&query, option};
  Result<ExecResult> result = engine_->Execute(rq, memo);
  assert(result.ok());
  double ms = result.value().exec_ms;
  std::unique_lock<std::shared_mutex> lock(mutex_);
  cache_.emplace(key, ms);
  return ms;
}

void PrefillTrueTimes(const PlanTimeOracle& oracle,
                      const std::vector<const Query*>& queries,
                      const RewriteOptionSet& options) {
  ThreadPool::Shared().ParallelFor(queries.size(), [&](size_t i) {
    ProbeMemo memo;
    for (auto it = options.rbegin(); it != options.rend(); ++it) {
      oracle.TrueTimeMs(*queries[i], *it, &memo);
    }
  });
}

}  // namespace maliva
