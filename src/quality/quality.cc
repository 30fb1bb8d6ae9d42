#include "quality/quality.h"

#include <cassert>
#include <mutex>
#include <unordered_set>

namespace maliva {

double JaccardIds(const VisResult& a, const VisResult& b) {
  if (a.ids.empty() && b.ids.empty()) return 1.0;
  std::unordered_set<int64_t> sa(a.ids.begin(), a.ids.end());
  size_t inter = 0;
  std::unordered_set<int64_t> sb(b.ids.begin(), b.ids.end());
  for (int64_t id : sb) {
    if (sa.count(id) > 0) ++inter;
  }
  size_t uni = sa.size() + sb.size() - inter;
  if (uni == 0) return 1.0;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

double JaccardBins(const VisResult& a, const VisResult& b) {
  if (a.bins.empty() && b.bins.empty()) return 1.0;
  size_t inter = 0;
  for (const auto& [bin, count] : b.bins) {
    if (a.bins.count(bin) > 0) ++inter;
  }
  size_t uni = a.bins.size() + b.bins.size() - inter;
  if (uni == 0) return 1.0;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

double VisQuality(const Query& query, const VisResult& exact, const VisResult& approx) {
  if (query.output == OutputKind::kScatter) return JaccardIds(exact, approx);
  return JaccardBins(exact, approx);
}

double QualityOracle::Quality(const Query& query, const RewriteOption& option) const {
  if (!option.approx.IsApproximate()) return 1.0;

  uint64_t key = RewriteKey(query, option);
  std::shared_ptr<const VisResult> exact;
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    auto it = quality_cache_.find(key);
    if (it != quality_cache_.end()) return it->second;
    auto exact_it = exact_cache_.find(query.id);
    if (exact_it != exact_cache_.end()) exact = exact_it->second;
  }

  // Execute outside the lock: deterministic, so concurrent duplicates agree
  // and the losing emplace is a no-op.
  if (exact == nullptr) {
    RewrittenQuery exact_rq{&query, RewriteOption{}};
    Result<ExecResult> result = engine_->Execute(exact_rq);
    assert(result.ok());
    exact = std::make_shared<const VisResult>(std::move(result.value().vis));
  }

  RewrittenQuery rq{&query, option};
  Result<ExecResult> approx = engine_->Execute(rq);
  assert(approx.ok());
  double q = VisQuality(query, *exact, approx.value().vis);

  std::unique_lock<std::shared_mutex> lock(mutex_);
  exact_cache_.try_emplace(query.id, std::move(exact));
  quality_cache_.emplace(key, q);
  return q;
}

}  // namespace maliva
