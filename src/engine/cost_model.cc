#include "engine/cost_model.h"

#include <string>

#include "util/string_util.h"

namespace maliva {

std::string PlanSpec::ToString(size_t num_predicates) const {
  std::string out = "plan[indexes=";
  for (size_t i = 0; i < num_predicates; ++i) {
    out += ((index_mask >> i) & 1u) ? '1' : '0';
  }
  out += std::string(" join=") + JoinMethodName(join_method);
  if (approx.IsApproximate()) {
    out.push_back(' ');
    approx.AppendTo(&out);
  }
  out += "]";
  return out;
}

double CostModel::SelectionTimeMs(const PlanCards& cards) const {
  const EngineProfile& p = profile_;
  double ms = 0.0;

  // Full-scan path.
  ms += cards.scanned_rows * (p.scan_row_ms + cards.scan_preds * p.pred_eval_ms);

  // Index path: probe each used index, fetch postings, intersect.
  double total_postings = 0.0;
  for (double k : cards.postings) {
    ms += p.index_probe_ms + k * p.posting_fetch_ms;
    total_postings += k;
  }
  if (cards.postings.size() > 1) {
    ms += total_postings * p.intersect_row_ms;
  }

  // Heap fetch + residual filtering of surviving candidates.
  ms += cards.candidates * (p.heap_fetch_ms + cards.residual_preds * p.residual_filter_ms);

  // Output / aggregation.
  ms += cards.output_rows * (cards.heatmap ? p.agg_row_ms : p.output_row_ms);
  return ms;
}

double CostModel::JoinTimeMs(const PlanCards& cards) const {
  if (!cards.has_join) return 0.0;
  const EngineProfile& p = profile_;
  double ms = 0.0;

  // Right-side filter access (dimension-table index scan / fetch).
  ms += p.index_probe_ms + cards.right_scanned * p.posting_fetch_ms;

  switch (cards.join_method) {
    case JoinMethod::kNestedLoop:
      ms += cards.nl_outer * p.nl_probe_ms;
      break;
    case JoinMethod::kHash:
      ms += cards.build_rows * p.hash_build_ms + cards.probe_rows * p.hash_probe_ms;
      break;
    case JoinMethod::kMerge:
      ms += cards.sort_rows * p.sort_row_ms + cards.merge_rows * p.merge_row_ms;
      break;
    case JoinMethod::kOptimizerChoice:
      break;  // resolved before costing
  }
  ms += cards.join_output * p.join_output_ms;
  return ms;
}

double CostModel::PlanTimeMs(const PlanCards& cards) const {
  return SelectionTimeMs(cards) + JoinTimeMs(cards);
}

}  // namespace maliva
