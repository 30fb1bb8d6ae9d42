// Experiment runner: evaluates rewriting approaches per difficulty bucket,
// prints paper-style tables (VQP, AQRT with plan/query breakdown, quality),
// and decides the paper's claims over the results.

#ifndef MALIVA_HARNESS_EXPERIMENT_H_
#define MALIVA_HARNESS_EXPERIMENT_H_

#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "core/rewriter.h"
#include "workload/difficulty.h"

namespace maliva {

class MalivaService;  // service/service.h

/// One query-rewriting approach under evaluation.
struct Approach {
  std::string name;
  std::function<RewriteOutcome(const Query&)> rewrite;
};

/// Wraps a service strategy into an Approach (display name + closure). The
/// service must outlive the returned closure. Aborts with a readable message
/// when the strategy cannot be built — experiments want loud failures.
Approach ApproachFor(MalivaService& service, const std::string& strategy);

/// Aggregated metrics of one approach over one difficulty bucket.
struct ApproachMetrics {
  double vqp = 0.0;        ///< viable-query percentage [0, 100]
  double aqrt_ms = 0.0;    ///< mean total response time
  double plan_ms = 0.0;    ///< mean planning time component
  double exec_ms = 0.0;    ///< mean execution time component
  double quality = 1.0;    ///< mean visualization quality
};

/// Metrics of all approaches for one bucket.
struct BucketMetrics {
  std::string label;
  size_t num_queries = 0;
  std::vector<ApproachMetrics> per_approach;
};

/// A full experiment: approaches x buckets.
struct ExperimentResult {
  std::vector<std::string> approach_names;
  std::vector<BucketMetrics> buckets;
};

/// Runs every approach on every bucketed query.
ExperimentResult RunExperiment(const std::vector<Approach>& approaches,
                               const BucketedWorkload& workload);

/// Paper-style table printers (gnuplot-friendly columns).
void PrintVqpTable(const ExperimentResult& result, const std::string& title,
                   std::ostream& os = std::cout);
void PrintAqrtTable(const ExperimentResult& result, const std::string& title,
                    std::ostream& os = std::cout);
void PrintQualityTable(const ExperimentResult& result, const std::string& title,
                       std::ostream& os = std::cout);
/// Bucket sizes (Table 2 / Table 3 rows).
void PrintBucketSizes(const BucketedWorkload& workload, const std::string& title,
                      std::ostream& os = std::cout);

/// One of the paper's claims, decided over a figure's experiment result.
struct Claim {
  std::string name;
  std::function<bool(const ExperimentResult&)> holds;
};

/// A claim's outcome against the known-failing list. Only kHeld and
/// kKnownFailing are expected: a listed claim that passes is as much a
/// finding as an unlisted one that fails, so the list can only shrink.
enum class ClaimVerdict { kHeld, kKnownFailing, kUnexpectedFailure, kUnexpectedPass };

const char* ClaimVerdictName(ClaimVerdict verdict);

/// Decides `claim` over `result`, given whether it is on the known-failing
/// list.
ClaimVerdict JudgeClaim(const Claim& claim, const ExperimentResult& result,
                        bool known_failing);

/// Overall status: true when every verdict is kHeld or kKnownFailing.
bool AllVerdictsExpected(const std::vector<ClaimVerdict>& verdicts);

}  // namespace maliva

#endif  // MALIVA_HARNESS_EXPERIMENT_H_
