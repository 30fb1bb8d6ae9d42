#include "workload/difficulty.h"

namespace maliva {

size_t CountViablePlans(const PlanTimeOracle& oracle, const Query& query,
                        const RewriteOptionSet& options, double tau_ms) {
  size_t viable = 0;
  for (const RewriteOption& option : options) {
    if (oracle.TrueTimeMs(query, option) <= tau_ms) ++viable;
  }
  return viable;
}

BucketScheme BucketScheme::Exact0To4() {
  return BucketScheme({{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, -1}});
}

BucketScheme BucketScheme::Ranges16() {
  return BucketScheme({{0, 0}, {1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, -1}});
}

BucketScheme BucketScheme::Ranges32() {
  return BucketScheme({{0, 0}, {1, 4}, {5, 8}, {9, 12}, {13, 16}, {17, -1}});
}

BucketScheme BucketScheme::JoinRanges() {
  return BucketScheme({{0, 0}, {1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10}, {11, -1}});
}

int BucketScheme::BucketOf(int viable_plans) const {
  for (size_t b = 0; b < ranges_.size(); ++b) {
    const auto& [lo, hi] = ranges_[b];
    if (viable_plans >= lo && (hi < 0 || viable_plans <= hi)) {
      return static_cast<int>(b);
    }
  }
  return -1;
}

std::string BucketScheme::Label(size_t bucket) const {
  const auto& [lo, hi] = ranges_[bucket];
  if (hi < 0) return ">=" + std::to_string(lo);
  if (lo == hi) return std::to_string(lo);
  return std::to_string(lo) + "-" + std::to_string(hi);
}

BucketedWorkload BucketQueries(const PlanTimeOracle& oracle,
                               const std::vector<const Query*>& queries,
                               const RewriteOptionSet& options, double tau_ms,
                               const BucketScheme& scheme) {
  BucketedWorkload out{scheme, {}, {}};
  out.buckets.resize(scheme.num_buckets());
  PrefillTrueTimes(oracle, queries, options);
  for (const Query* q : queries) {
    int count = static_cast<int>(CountViablePlans(oracle, *q, options, tau_ms));
    int b = scheme.BucketOf(count);
    if (b < 0) {
      out.out_of_range.push_back(q);
    } else {
      out.buckets[static_cast<size_t>(b)].push_back(q);
    }
  }
  return out;
}

}  // namespace maliva
