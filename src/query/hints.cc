#include "query/hints.h"

#include <cassert>

#include "util/string_util.h"

namespace maliva {

const char* JoinMethodName(JoinMethod m) {
  switch (m) {
    case JoinMethod::kOptimizerChoice: return "optimizer";
    case JoinMethod::kNestedLoop: return "nest-loop";
    case JoinMethod::kHash: return "hash";
    case JoinMethod::kMerge: return "merge";
  }
  return "unknown";
}

void HintSet::AppendTo(std::string* out, size_t num_predicates) const {
  if (!HasAnyHint()) {
    out->append("(no hints)");
    return;
  }
  out->append("/*+ ");
  if (index_mask.has_value()) {
    out->append("indexes=");
    for (size_t i = 0; i < num_predicates; ++i) {
      out->push_back(((*index_mask >> i) & 1u) ? '1' : '0');
    }
  }
  if (join_method != JoinMethod::kOptimizerChoice) {
    if (index_mask.has_value()) out->push_back(' ');
    out->append("join=").append(JoinMethodName(join_method));
  }
  out->append(" */");
}

std::string HintSet::ToString(size_t num_predicates) const {
  std::string out;
  AppendTo(&out, num_predicates);
  return out;
}

void ApproxRule::AppendTo(std::string* out) const {
  switch (kind) {
    case ApproxKind::kNone:
      out->append("exact");
      return;
    case ApproxKind::kLimit:
      out->append("limit(");
      AppendFixed(out, fraction * 100.0, 3);
      out->append("%)");
      return;
    case ApproxKind::kSampleTable:
      out->append("sample(");
      AppendFixed(out, fraction * 100.0, 0);
      out->append("%)");
      return;
  }
  out->append("unknown");
}

std::string ApproxRule::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void RewriteOption::AppendTo(std::string* out, size_t num_predicates) const {
  hints.AppendTo(out, num_predicates);
  if (approx.IsApproximate()) {
    out->push_back(' ');
    approx.AppendTo(out);
  }
}

std::string RewriteOption::ToString(size_t num_predicates) const {
  std::string out;
  AppendTo(&out, num_predicates);
  return out;
}

RewriteOptionSet EnumerateHintOnlyOptions(size_t num_predicates) {
  assert(num_predicates <= 16);
  RewriteOptionSet options;
  uint32_t total = 1u << num_predicates;
  options.reserve(total);
  for (uint32_t mask = 0; mask < total; ++mask) {
    RewriteOption ro;
    ro.hints.index_mask = mask;
    options.push_back(ro);
  }
  return options;
}

RewriteOptionSet EnumerateJoinOptions(size_t num_predicates) {
  assert(num_predicates <= 16);
  RewriteOptionSet options;
  uint32_t total = 1u << num_predicates;
  const JoinMethod methods[] = {JoinMethod::kNestedLoop, JoinMethod::kHash,
                                JoinMethod::kMerge};
  options.reserve((total - 1) * 3);
  for (uint32_t mask = 1; mask < total; ++mask) {
    for (JoinMethod m : methods) {
      RewriteOption ro;
      ro.hints.index_mask = mask;
      ro.hints.join_method = m;
      options.push_back(ro);
    }
  }
  return options;
}

RewriteOptionSet CrossWithApproxRules(const RewriteOptionSet& base,
                                      const std::vector<ApproxRule>& rules,
                                      bool include_exact) {
  RewriteOptionSet options;
  if (include_exact) {
    options = base;
  }
  for (const RewriteOption& ro : base) {
    for (const ApproxRule& rule : rules) {
      assert(rule.IsApproximate());
      RewriteOption combined = ro;
      combined.approx = rule;
      options.push_back(combined);
    }
  }
  return options;
}

}  // namespace maliva
