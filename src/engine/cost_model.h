// Maps operator cardinalities to virtual execution time.

#ifndef MALIVA_ENGINE_COST_MODEL_H_
#define MALIVA_ENGINE_COST_MODEL_H_

#include "engine/plan.h"
#include "engine/profile.h"

namespace maliva {

/// Deterministic cost function shared by the executor (true cardinalities) and
/// the optimizer (estimated cardinalities).
class CostModel {
 public:
  explicit CostModel(const EngineProfile& profile) : profile_(profile) {}

  /// Virtual milliseconds for a plan with the given cardinalities.
  double PlanTimeMs(const PlanCards& cards) const;

  /// Selection-only portion (base-table access).
  double SelectionTimeMs(const PlanCards& cards) const;

  /// Join portion; zero when `cards.has_join` is false.
  double JoinTimeMs(const PlanCards& cards) const;

 private:
  EngineProfile profile_;
};

}  // namespace maliva

#endif  // MALIVA_ENGINE_COST_MODEL_H_
