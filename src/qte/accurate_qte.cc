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

  // Mark the needed selectivities as collected (with their true values, which
  // later estimators may reuse). The accurate QTE never serves from the
  // histogram tier — exactness is its contract — but its ground-truth probes
  // are the best error signal there is, so each one scores the tier's trust
  // windows (no estimate, cost, or result changes: byte-identity holds).
  {
    ProfilerSimpleGuard ladder_span(cache->profiler(), QueryProfiler::kSelectivity);
    ForEachSlot(ctx.NeededSlotMask(ro_index), [&](size_t slot) {
      if (cache->Has(slot)) return;
      QteContext::SlotTarget target = ctx.SlotTargetFor(slot);
      Result<double> sel = ctx.engine->TrueSelectivity(*target.table, *target.pred);
      cache->Set(slot, sel.ok() ? sel.value() : 0.0);
      cache->NoteProbe();
      if (ctx.tier != nullptr && sel.ok()) {
        ctx.tier->RecordProbe(*target.table, *target.pred, sel.value());
      }
    });
  }

  out.est_ms = ctx.oracle->TrueTimeMs(*ctx.query, (*ctx.options)[ro_index]);
  return out;
}

}  // namespace maliva
