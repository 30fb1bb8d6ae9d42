#include "qte/accurate_qte.h"

#include <cassert>

#include "qte/selectivity_tier.h"
#include "util/query_profiler.h"

namespace maliva {

QteEstimate AccurateQte::Estimate(const QteContext& ctx, size_t ro_index,
                                  SelectivityCache* cache) const {
  assert(ctx.query != nullptr && ctx.options != nullptr && ctx.oracle != nullptr);
  QteEstimate out;
  out.cost_ms = CollectCostMs(ctx, ro_index, *cache);

  // Mark the needed selectivities as collected. The estimate comes from the
  // oracle, not from these values, so each slot holds a pending exact probe
  // that runs only if a later reader (the shared-store publish, a sampling
  // estimate on the same cache) asks for it. The accurate QTE never serves
  // from the histogram tier — exactness is its contract — but its
  // ground-truth probes are the best error signal there is, so with the tier
  // bound each probe runs now and scores the tier's trust windows (no
  // estimate, cost, or result changes: byte-identity holds).
  {
    ProfilerSimpleGuard ladder_span(cache->profiler(), QueryProfiler::kSelectivity);
    ForEachSlot(ctx.NeededSlotMask(ro_index), [&](size_t slot) {
      if (cache->Has(slot)) return;
      QteContext::SlotTarget target = ctx.SlotTargetFor(slot);
      cache->NoteProbe();
      if (ctx.tier == nullptr) {
        cache->SetPendingProbe(slot, *ctx.engine, *target.table, *target.pred);
        return;
      }
      Result<double> sel = ctx.engine->TrueSelectivity(*target.table, *target.pred);
      cache->Set(slot, sel.ok() ? sel.value() : 0.0);
      if (sel.ok()) ctx.tier->RecordProbe(*target.table, *target.pred, sel.value());
    });
  }

  out.est_ms = ctx.oracle->TrueTimeMs(*ctx.query, (*ctx.options)[ro_index]);
  return out;
}

}  // namespace maliva
