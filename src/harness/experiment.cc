#include "harness/experiment.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iomanip>

#include "service/service.h"
#include "util/string_util.h"

namespace maliva {

Approach ApproachFor(MalivaService& service, const std::string& strategy) {
  Result<const Rewriter*> built = service.GetRewriter(strategy);
  if (!built.ok()) {
    std::fprintf(stderr, "failed to build strategy \"%s\": %s\n", strategy.c_str(),
                 built.status().ToString().c_str());
    std::abort();
  }
  const Rewriter* rewriter = built.value();
  return {rewriter->name(), [rewriter](const Query& q) { return rewriter->Rewrite(q); }};
}

ExperimentResult RunExperiment(const std::vector<Approach>& approaches,
                               const BucketedWorkload& workload) {
  ExperimentResult result;
  for (const Approach& a : approaches) result.approach_names.push_back(a.name);

  for (size_t b = 0; b < workload.buckets.size(); ++b) {
    BucketMetrics bm;
    bm.label = workload.scheme.Label(b);
    bm.num_queries = workload.buckets[b].size();
    bm.per_approach.resize(approaches.size());

    for (size_t ai = 0; ai < approaches.size(); ++ai) {
      ApproachMetrics& m = bm.per_approach[ai];
      if (bm.num_queries == 0) continue;
      size_t viable = 0;
      double total = 0.0, plan = 0.0, exec = 0.0, quality = 0.0;
      for (const Query* q : workload.buckets[b]) {
        RewriteOutcome out = approaches[ai].rewrite(*q);
        viable += out.viable ? 1 : 0;
        total += out.total_ms;
        plan += out.planning_ms;
        exec += out.exec_ms;
        quality += out.quality;
      }
      double n = static_cast<double>(bm.num_queries);
      m.vqp = 100.0 * static_cast<double>(viable) / n;
      m.aqrt_ms = total / n;
      m.plan_ms = plan / n;
      m.exec_ms = exec / n;
      m.quality = quality / n;
    }
    result.buckets.push_back(std::move(bm));
  }
  return result;
}

namespace {

/// Writes one table: a title line, a header row of approach names, then one
/// row per bucket with `cell` of each approach. Columns are 22 characters
/// wide; a text that fills its column still gets one separating space, so
/// adjacent columns never run together.
void PrintTable(const ExperimentResult& result, const std::string& title,
                std::ostream& os,
                const std::function<std::string(const ApproachMetrics&)>& cell) {
  auto column = [&os](const std::string& text) {
    os << std::setw(22) << text << (text.size() >= 22 ? " " : "");
  };
  os << "\n== " << title << " ==\n";
  os << std::left << std::setw(8) << "bucket" << std::setw(8) << "n";
  for (const std::string& name : result.approach_names) column(name);
  os << "\n";
  for (const BucketMetrics& bm : result.buckets) {
    os << std::setw(8) << bm.label << std::setw(8) << bm.num_queries;
    for (const ApproachMetrics& m : bm.per_approach) column(cell(m));
    os << "\n";
  }
}

}  // namespace

void PrintVqpTable(const ExperimentResult& result, const std::string& title,
                   std::ostream& os) {
  PrintTable(result, title + " | viable query % (VQP)", os,
             [](const ApproachMetrics& m) { return FormatDouble(m.vqp, 1); });
}

void PrintAqrtTable(const ExperimentResult& result, const std::string& title,
                    std::ostream& os) {
  PrintTable(result, title + " | avg response time s (plan+query)", os,
             [](const ApproachMetrics& m) {
               return FormatDouble(m.aqrt_ms / 1000.0, 3) + " (" +
                      FormatDouble(m.plan_ms / 1000.0, 3) + "+" +
                      FormatDouble(m.exec_ms / 1000.0, 3) + ")";
             });
}

void PrintQualityTable(const ExperimentResult& result, const std::string& title,
                       std::ostream& os) {
  PrintTable(result, title + " | avg Jaccard quality", os,
             [](const ApproachMetrics& m) { return FormatDouble(m.quality, 3); });
}

void PrintBucketSizes(const BucketedWorkload& workload, const std::string& title,
                      std::ostream& os) {
  os << "\n== " << title << " | queries per viable-plan bucket ==\n";
  for (size_t b = 0; b < workload.buckets.size(); ++b) {
    os << std::left << std::setw(8) << workload.scheme.Label(b)
       << workload.buckets[b].size() << "\n";
  }
  if (!workload.out_of_range.empty()) {
    os << std::left << std::setw(8) << "other" << workload.out_of_range.size() << "\n";
  }
}

const char* ClaimVerdictName(ClaimVerdict verdict) {
  static const char* const kNames[] = {"held", "known-failing", "UNEXPECTED FAILURE",
                                       "UNEXPECTED PASS"};
  return kNames[static_cast<int>(verdict)];
}

ClaimVerdict JudgeClaim(const Claim& claim, const ExperimentResult& result,
                        bool known_failing) {
  if (claim.holds(result)) {
    return known_failing ? ClaimVerdict::kUnexpectedPass : ClaimVerdict::kHeld;
  }
  return known_failing ? ClaimVerdict::kKnownFailing : ClaimVerdict::kUnexpectedFailure;
}

bool AllVerdictsExpected(const std::vector<ClaimVerdict>& verdicts) {
  return std::all_of(verdicts.begin(), verdicts.end(), [](ClaimVerdict v) {
    return v == ClaimVerdict::kHeld || v == ClaimVerdict::kKnownFailing;
  });
}

}  // namespace maliva
