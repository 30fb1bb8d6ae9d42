// Query Time Estimator (QTE) interface and planning context (Section 4.2).

#ifndef MALIVA_QTE_QTE_H_
#define MALIVA_QTE_QTE_H_

#include <bit>
#include <cstdint>

#include "engine/engine.h"
#include "qte/plan_time_oracle.h"
#include "qte/qte_params.h"
#include "qte/selectivity_cache.h"
#include "query/hints.h"
#include "query/query.h"

namespace maliva {

class SelectivityTier;

/// Everything a QTE needs to estimate rewritten queries of one original
/// query: the query, the predefined RO set Omega, the engine, the ground-truth
/// oracle, and the cost parameters of selectivity collection.
struct QteContext {
  const Query* query = nullptr;
  const RewriteOptionSet* options = nullptr;
  const Engine* engine = nullptr;
  const PlanTimeOracle* oracle = nullptr;

  /// Histogram tier (rung 2 of the selectivity ladder); nullptr while
  /// ServiceConfig::histogram_selectivity is off, preserving byte-identity.
  const SelectivityTier* tier = nullptr;

  /// Cost parameters of selectivity collection (see qte/qte_params.h).
  QteParams params;

  /// Number of selectivity slots: base predicates + join right predicates.
  size_t NumSlots() const;

  /// Most slots a query may have: NeededSlotMask is one 64-bit word. The
  /// service rejects larger queries before any QTE sees them.
  static constexpr size_t kMaxSlots = 64;

  /// The (table, predicate) a slot resolves to: slots [0, m) are the base
  /// predicates, slots [m, m + r) the join right-side predicates.
  struct SlotTarget {
    const std::string* table;
    const Predicate* pred;
  };
  SlotTarget SlotTargetFor(size_t slot) const;

  /// Slots whose selectivities are needed to estimate option `ro_index`, as
  /// a bit mask (bit s = slot s): the attributes whose index the hint set
  /// uses (all of them for the forced-full-scan option, which needs the
  /// output-size estimate), plus the right-side slots when the query joins.
  /// Callers walk the set bits in ascending slot order (ForEachSlot), so
  /// per-slot cost sums accumulate in slot order.
  uint64_t NeededSlotMask(size_t ro_index) const;

  /// Actual cost of collecting `slot` for this query (estimate = unit cost;
  /// actual = unit cost with deterministic per-(query, slot) jitter).
  double ActualSlotCostMs(size_t slot) const;
};

/// Calls `visit(slot)` for each set bit of `mask`, lowest slot first.
template <typename Visit>
void ForEachSlot(uint64_t mask, Visit&& visit) {
  for (; mask != 0; mask &= mask - 1) {
    visit(static_cast<size_t>(std::countr_zero(mask)));
  }
}

/// Outcome of one QTE invocation.
struct QteEstimate {
  double est_ms = 0.0;   ///< estimated execution time of the rewritten query
  double cost_ms = 0.0;  ///< actual planning time paid for this estimation
};

/// Estimates the execution time of rewritten queries. Implementations charge
/// per-selectivity collection costs against the shared SelectivityCache.
///
/// Implementations must be stateless (const and data-race-free): all mutable
/// per-request state lives in the caller-supplied SelectivityCache, so one
/// estimator instance is shared by every concurrent serving thread.
class QueryTimeEstimator {
 public:
  virtual ~QueryTimeEstimator() = default;

  virtual const char* name() const = 0;

  /// Multiplier on the per-selectivity unit cost. Accurate estimation is
  /// costlier than sampling (paper Section 7.4: at tight budgets the
  /// Accurate-QTE is "too expensive for planning").
  virtual double CostFactor() const { return 1.0; }

  /// Whether this estimator serves slots from the histogram tier when
  /// QteContext::tier is bound. The sampling QTE does (a histogram estimate
  /// replaces its sample probe outright); the accurate QTE keeps probing for
  /// ground truth and only feeds the tier's error windows.
  virtual bool UsesHistogramTier() const { return false; }

  /// Estimates option `ro_index`, collecting missing selectivities into
  /// `cache` (and paying their cost).
  virtual QteEstimate Estimate(const QteContext& ctx, size_t ro_index,
                               SelectivityCache* cache) const = 0;

  /// A-priori cost prediction for estimating option `ro_index` given what is
  /// already cached — the C_i entries of the MDP state.
  double PredictCostMs(const QteContext& ctx, size_t ro_index,
                       const SelectivityCache& cache) const;

 protected:
  /// Actual cost of collecting all missing slots needed by `ro_index`.
  double CollectCostMs(const QteContext& ctx, size_t ro_index,
                       const SelectivityCache& cache) const;
};

}  // namespace maliva

#endif  // MALIVA_QTE_QTE_H_
