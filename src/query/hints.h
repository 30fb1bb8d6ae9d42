// Query hints, approximation rules, and rewriting options (Definition 2.1).

#ifndef MALIVA_QUERY_HINTS_H_
#define MALIVA_QUERY_HINTS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace maliva {

/// Join algorithm forced by a hint (kOptimizerChoice leaves it to the engine).
enum class JoinMethod {
  kOptimizerChoice,
  kNestedLoop,
  kHash,
  kMerge,
};

const char* JoinMethodName(JoinMethod m);

/// A set of query hints attached to a rewritten query.
///
/// `index_mask` bit i forces the plan to use (bit set) or not use (bit clear)
/// the index serving predicate i of the base table. When `index_mask` is
/// nullopt the engine optimizer chooses freely (the no-rewriting baseline).
struct HintSet {
  std::optional<uint32_t> index_mask;
  JoinMethod join_method = JoinMethod::kOptimizerChoice;

  bool HasAnyHint() const {
    return index_mask.has_value() || join_method != JoinMethod::kOptimizerChoice;
  }

  /// Appends the hint comment, e.g. `/*+ indexes=101 join=hash */`, or
  /// `(no hints)`.
  void AppendTo(std::string* out, size_t num_predicates) const;
  std::string ToString(size_t num_predicates) const;
};

/// Kind of approximation applied by a rewriting option.
enum class ApproxKind {
  kNone,
  kLimit,        ///< stop after fraction * estimated-cardinality output rows
  kSampleTable,  ///< substitute the base table with a pre-built sample table
};

/// An approximation rule (Section 6): trades result quality for speed.
struct ApproxRule {
  ApproxKind kind = ApproxKind::kNone;
  /// kLimit: fraction of the (estimated) result cardinality to emit.
  /// kSampleTable: sampling rate of the substituted table (e.g. 0.2).
  double fraction = 1.0;

  bool IsApproximate() const { return kind != ApproxKind::kNone; }
  /// Appends `exact`, `limit(1.000%)` or `sample(20%)`.
  void AppendTo(std::string* out) const;
  std::string ToString() const;
};

/// Rewriting option RO = (hint set, approximation-rule set) — Definition 2.1.
struct RewriteOption {
  HintSet hints;
  ApproxRule approx;

  bool IsApproximate() const { return approx.IsApproximate(); }
  /// Appends the hint comment, then ` <approximation>` when approximate.
  void AppendTo(std::string* out, size_t num_predicates) const;
  std::string ToString(size_t num_predicates) const;
};

/// The predefined RO set Omega the Query Rewriter chooses from.
using RewriteOptionSet = std::vector<RewriteOption>;

/// All 2^m hint-only options for m base predicates (paper Section 7.2): every
/// subset of per-attribute indexes, including the forced full scan (mask 0).
RewriteOptionSet EnumerateHintOnlyOptions(size_t num_predicates);

/// Join options (paper Section 7.5): every non-empty index subset crossed with
/// the three join methods — (2^m - 1) * 3 options (21 for m = 3).
RewriteOptionSet EnumerateJoinOptions(size_t num_predicates);

/// Hint-only options crossed with approximation rules. The result contains
/// `base` itself (exact options) followed by |base| * |rules| approximate
/// options, matching the one-stage MDP option set (paper Fig 10/11).
RewriteOptionSet CrossWithApproxRules(const RewriteOptionSet& base,
                                      const std::vector<ApproxRule>& rules,
                                      bool include_exact);

}  // namespace maliva

#endif  // MALIVA_QUERY_HINTS_H_
