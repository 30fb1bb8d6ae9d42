#include "qte/sampling_qte.h"

#include <cassert>

#include "engine/optimizer.h"
#include "qte/selectivity_tier.h"
#include "util/query_profiler.h"

namespace maliva {

QteEstimate SamplingQte::Estimate(const QteContext& ctx, size_t ro_index,
                                  SelectivityCache* cache) const {
  assert(ctx.query != nullptr && ctx.options != nullptr && ctx.engine != nullptr);
  const Query& query = *ctx.query;
  const RewriteOption& option = (*ctx.options)[ro_index];
  size_t m = query.predicates.size();

  QteEstimate out;
  out.cost_ms = ctx.params.model_eval_ms;

  // Collect missing selectivities down the ladder: histogram estimate when
  // the tier answers (charged its near-zero cost), else count(*) on the QTE
  // sample table at full probe cost. The bill accrues per slot alongside the
  // collection decisions, so cost and collection can never disagree. The
  // ladder runs inside the strategy's search phase; the profiler span nests
  // so search self-time can subtract it back out.
  {
    ProfilerSimpleGuard ladder_span(cache->profiler(), QueryProfiler::kSelectivity);
    ForEachSlot(ctx.NeededSlotMask(ro_index), [&](size_t slot) {
      if (cache->Has(slot)) return;
      QteContext::SlotTarget target = ctx.SlotTargetFor(slot);
      const Predicate& pred = *target.pred;
      const std::string& table = *target.table;
      if (ctx.tier != nullptr) {
        std::optional<double> est = ctx.tier->Estimate(table, pred);
        if (est.has_value()) {
          cache->Set(slot, *est);
          cache->NoteHistogramHit();
          out.cost_ms += ctx.tier->config().histogram_cost_ms;
          return;
        }
      }
      out.cost_ms += CostFactor() * ctx.ActualSlotCostMs(slot);
      cache->NoteProbe();
      Result<double> sel =
          ctx.engine->SampledSelectivity(table, pred, ctx.params.qte_sample_rate);
      // Fall back to optimizer statistics when no sample table was built for
      // the target (e.g. dimension tables).
      if (!sel.ok()) {
        const TableEntry* entry = ctx.engine->FindEntry(table);
        assert(entry != nullptr);
        cache->Set(slot, entry->stats->EstimateSelectivity(pred));
      } else {
        cache->Set(slot, sel.value());
        // Feedback for the tier's trust windows: the probe is the reference
        // the histogram replaces, so score the histogram against it (demoted
        // columns keep getting scored here, which is their way back in).
        if (ctx.tier != nullptr) ctx.tier->RecordProbe(table, pred, sel.value());
      }
    });
  }

  // Build the selectivity vector: collected slots use sampled values,
  // uncollected ones fall back to (cheap) optimizer statistics.
  const Optimizer& opt = ctx.engine->optimizer();
  SelectivityVector stats_sels = opt.EstimatedSelectivities(query);
  SelectivityVector sels = stats_sels;
  for (size_t i = 0; i < m; ++i) {
    if (cache->Has(i)) sels.base[i] = cache->Get(i);
  }
  for (size_t r = 0; r < sels.right.size(); ++r) {
    if (cache->Has(m + r)) sels.right[r] = cache->Get(m + r);
  }

  PlanSpec spec = opt.ResolvePlan(query, option);
  PlanCards cards = opt.CardsFromSelectivities(query, spec, sels);
  out.est_ms = ctx.engine->cost_model().PlanTimeMs(cards);
  return out;
}

}  // namespace maliva
