// Query-difficulty measurement: number of viable plans (Section 7.1).
//
// Given a time budget tau, the difficulty of a query is the number of its
// physical plans (over the candidate hint sets) whose execution time fits in
// tau. Evaluation reports metrics per difficulty bucket.

#ifndef MALIVA_WORKLOAD_DIFFICULTY_H_
#define MALIVA_WORKLOAD_DIFFICULTY_H_

#include <string>
#include <vector>

#include "qte/plan_time_oracle.h"
#include "query/hints.h"
#include "query/query.h"

namespace maliva {

/// Number of options in `options` whose true execution time is <= tau.
size_t CountViablePlans(const PlanTimeOracle& oracle, const Query& query,
                        const RewriteOptionSet& options, double tau_ms);

/// Bucketing of viable-plan counts matching the paper's figures.
class BucketScheme {
 public:
  /// Inclusive ranges; the final range may be open-ended (hi = -1 means
  /// "or more").
  explicit BucketScheme(std::vector<std::pair<int, int>> ranges)
      : ranges_(std::move(ranges)) {}

  /// 0,1,2,3,4,>=5 (Fig 12/13, Table 2).
  static BucketScheme Exact0To4();
  /// 0,1-2,3-4,5-6,7-8,>=9 (16 rewrite options, Table 3 top).
  static BucketScheme Ranges16();
  /// 0,1-4,5-8,9-12,13-16,>=17 (32 rewrite options, Table 3 bottom).
  static BucketScheme Ranges32();
  /// 0,1-2,3-4,5-6,7-8,9-10,>=11 (join experiment, Fig 18).
  static BucketScheme JoinRanges();

  size_t num_buckets() const { return ranges_.size(); }

  /// Bucket index for a viable-plan count, or -1 when outside every range.
  int BucketOf(int viable_plans) const;

  /// Human-readable label, e.g. "1-2" or ">=5".
  std::string Label(size_t bucket) const;

 private:
  std::vector<std::pair<int, int>> ranges_;
};

/// Partition of queries into difficulty buckets.
struct BucketedWorkload {
  BucketScheme scheme;
  std::vector<std::vector<const Query*>> buckets;
  std::vector<const Query*> out_of_range;  ///< counts outside every bucket
};

/// Buckets `queries` by viable-plan count under `options` and `tau_ms`.
/// The (query, option) grid is executed in parallel first (PrefillTrueTimes),
/// so the counting loop reads the memo; the buckets do not depend on it.
BucketedWorkload BucketQueries(const PlanTimeOracle& oracle,
                               const std::vector<const Query*>& queries,
                               const RewriteOptionSet& options, double tau_ms,
                               const BucketScheme& scheme);

}  // namespace maliva

#endif  // MALIVA_WORKLOAD_DIFFICULTY_H_
