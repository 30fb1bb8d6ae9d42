#include "qte/qte.h"

#include <cassert>

#include "qte/selectivity_tier.h"

namespace maliva {

namespace {

uint64_t MixSlotSeed(uint64_t seed, uint64_t query_id, uint64_t slot) {
  uint64_t h = seed;
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(query_id);
  mix(slot);
  return h;
}

}  // namespace

size_t QteContext::NumSlots() const {
  size_t n = query->predicates.size();
  if (query->join.has_value()) n += query->join->right_predicates.size();
  return n;
}

QteContext::SlotTarget QteContext::SlotTargetFor(size_t slot) const {
  size_t m = query->predicates.size();
  if (slot < m) return {&query->table, &query->predicates[slot]};
  assert(query->join.has_value());
  return {&query->join->right_table, &query->join->right_predicates[slot - m]};
}

uint64_t QteContext::NeededSlotMask(size_t ro_index) const {
  assert(ro_index < options->size());
  assert(NumSlots() <= kMaxSlots);
  const RewriteOption& ro = (*options)[ro_index];
  assert(ro.hints.index_mask.has_value() &&
         "rewrite options in Omega must carry explicit index hints");
  size_t m = query->predicates.size();
  auto low_bits = [](size_t n) { return n >= 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1; };

  // Full scan (mask 0): the output-size estimate needs every base
  // selectivity. The join's right-side slots follow the m base slots.
  uint64_t index_mask = *ro.hints.index_mask;
  uint64_t slots = index_mask == 0 ? low_bits(m) : index_mask & low_bits(m);
  return slots | (low_bits(NumSlots()) & ~low_bits(m));
}

double QteContext::ActualSlotCostMs(size_t slot) const {
  // Deterministic +-25% jitter around the unit cost: the state's C_i values
  // are rough estimates, the transition charges the actual cost (Fig 7).
  uint64_t h = MixSlotSeed(params.jitter_seed, query->id, slot);
  double unit = static_cast<double>((h >> 11) % 1000) / 1000.0;  // [0, 1)
  return params.unit_cost_ms * (0.75 + 0.5 * unit);
}

double QueryTimeEstimator::CollectCostMs(const QteContext& ctx, size_t ro_index,
                                         const SelectivityCache& cache) const {
  double cost = ctx.params.model_eval_ms;
  ForEachSlot(ctx.NeededSlotMask(ro_index), [&](size_t slot) {
    if (!cache.Has(slot)) cost += CostFactor() * ctx.ActualSlotCostMs(slot);
  });
  return cost;
}

double QueryTimeEstimator::PredictCostMs(const QteContext& ctx, size_t ro_index,
                                         const SelectivityCache& cache) const {
  // The histogram tier shrinks the *predicted* C_i exactly where it will
  // shrink the actual collection bill: slots the tier can answer are charged
  // its near-zero cost instead of the probe's unit cost, so the agent's MDP
  // state sees the cheap rung (paper Fig 7: estimation cost C_i drops as
  // knowledge accumulates).
  bool tiered = UsesHistogramTier() && ctx.tier != nullptr;
  double cost = ctx.params.model_eval_ms;
  ForEachSlot(ctx.NeededSlotMask(ro_index), [&](size_t slot) {
    if (cache.Has(slot)) return;
    QteContext::SlotTarget target = ctx.SlotTargetFor(slot);
    if (tiered && ctx.tier->CanEstimate(*target.table, *target.pred)) {
      cost += ctx.tier->config().histogram_cost_ms;
    } else {
      cost += CostFactor() * ctx.params.unit_cost_ms;
    }
  });
  return cost;
}

}  // namespace maliva
