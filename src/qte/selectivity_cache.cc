#include "qte/selectivity_cache.h"

#include "engine/engine.h"

namespace maliva {

void SelectivityCache::Materialize(Slot& slot) {
  Result<double> sel = slot.engine->TrueSelectivity(*slot.table, *slot.pred);
  slot.value = sel.ok() ? sel.value() : 0.0;
  slot.state = Slot::kValue;
}

}  // namespace maliva
