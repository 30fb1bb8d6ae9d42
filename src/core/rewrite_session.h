// Per-request mutable state for one serving call.
//
// The serving stack is split into a shared-immutable half (engine catalog,
// trained agents, QTEs, option sets — frozen after warm-up, see
// src/service/serving_state.h) and this per-request half: everything a single
// Serve call mutates lives in a RewriteSession owned by that call's stack
// frame. Sessions are never shared between threads, so the serve path needs
// no locking beyond the two memoized oracles.
//
// A session owns:
//   * the request's SelectivityCache(s) — rewriters allocate episode caches
//     here instead of keeping any internal scratch state;
//   * the multi-attempt accounting used by the quality-floor fallback (the
//     first attempt's planning time stays on the final bill);
//   * the request's binding to the cross-request knowledge plane: when the
//     service attaches a SharedSelectivityStore, episode caches are
//     pre-seeded with the selectivities earlier requests already collected.

#ifndef MALIVA_CORE_REWRITE_SESSION_H_
#define MALIVA_CORE_REWRITE_SESSION_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "ml/replay_buffer.h"
#include "qte/selectivity_cache.h"
#include "qte/shared_selectivity_store.h"
#include "util/query_profiler.h"

namespace maliva {

class QAgent;

/// Mutable state of one in-flight rewrite request.
class RewriteSession {
 public:
  RewriteSession() = default;

  RewriteSession(const RewriteSession&) = delete;
  RewriteSession& operator=(const RewriteSession&) = delete;

  /// Attaches the cross-request knowledge plane for this request: caches
  /// allocated after this call are pre-seeded from `store` (slot `i` keyed
  /// by `slot_keys[i]`, entries valid under `epoch`). Seeded slots read as
  /// already collected, so the QTE cost accounting (PredictCostMs /
  /// CollectCostMs) charges nothing for them — shared hits are free exactly
  /// like intra-request hits, the paper's Fig 7 mechanism fleet-wide. Both
  /// pointers are borrowed and must outlive the session.
  void BindSharedStore(const SharedSelectivityStore* store,
                       const std::vector<uint64_t>* slot_keys, uint64_t epoch) {
    store_ = store;
    slot_keys_ = slot_keys;
    epoch_ = epoch;
  }

  /// Allocates a selectivity cache for one planning episode. References stay
  /// valid for the session's lifetime (deque storage), so a multi-stage
  /// rewriter can resume an earlier stage's collected selectivities. With a
  /// shared store bound (and slot keys matching the slot count), the cache
  /// starts pre-seeded with the store's knowledge instead of cold.
  SelectivityCache& NewCache(size_t num_slots) {
    SelectivityCache& cache = caches_.emplace_back(num_slots);
    cache.BindProfiler(profiler_);
    if (store_ != nullptr && slot_keys_ != nullptr &&
        slot_keys_->size() == num_slots) {
      // Pre-seeding is selectivity work inherited from earlier requests, so
      // the whole span is billed to the ladder *and* re-attributed as cached.
      if (profiler_ != nullptr) profiler_->StartTimer(QueryProfiler::kSelectivity);
      for (size_t slot = 0; slot < num_slots; ++slot) {
        std::optional<double> sel = store_->Lookup((*slot_keys_)[slot], epoch_);
        if (sel.has_value()) {
          cache.Set(slot, *sel);
          ++shared_seeded_;
        }
      }
      if (profiler_ != nullptr) {
        double span = profiler_->StopTimer(QueryProfiler::kSelectivity);
        profiler_->AddCachedMs(QueryProfiler::kSelectivity, span);
      }
    }
    return cache;
  }

  /// Episode caches allocated so far (the service walks these after serving
  /// to publish newly collected selectivities back to the shared store;
  /// reading a pending probe's value runs it, hence the mutable overload).
  const std::deque<SelectivityCache>& caches() const { return caches_; }
  std::deque<SelectivityCache>& caches() { return caches_; }

  /// Slots pre-seeded from the shared store, summed across caches — the
  /// request's "shared hits". Counted per episode cache deliberately: each
  /// seeding saves that episode one collection, so a multi-cache strategy
  /// that would have re-collected a slot per episode counts the saving per
  /// episode too.
  size_t shared_seeded() const { return shared_seeded_; }

  // --- cost profiler binding (ISSUE 9) -------------------------------------

  /// Attaches the request's cost profiler: caches allocated after this call
  /// carry the pointer, so the QTEs' collection loops can bill the
  /// selectivity ladder. Borrowed; the service owns the profiler on the
  /// serve call's stack. nullptr (the default) keeps profiling off with a
  /// single pointer check per would-be span.
  void BindProfiler(QueryProfiler* profiler) { profiler_ = profiler; }

  // --- online learning plane binding ---------------------------------------

  /// Serves this request with `agent` — the online plane's current published
  /// snapshot — instead of the strategy's construction-time weights. Borrowed;
  /// the service keeps the owning snapshot alive for the duration of the
  /// call. Only single-agent strategies (MalivaRewriter) honor the override.
  void BindAgentOverride(const QAgent* agent) { agent_override_ = agent; }
  const QAgent* agent_override() const { return agent_override_; }

  /// When enabled, episode runners record every observed MDP transition
  /// (state, action, reward from the *actual* virtual outcome, next state)
  /// into the session; the service forwards them to the replay sink after
  /// serving. Off by default — capture copies feature vectors, so the frozen
  /// serving path never pays for it.
  void set_capture_transitions(bool on) { capture_transitions_ = on; }
  bool capture_transitions() const { return capture_transitions_; }

  /// Appends one observed transition (called by RunGreedyEpisode when
  /// capture is enabled).
  void RecordTransition(Experience exp) { transitions_.push_back(std::move(exp)); }

  const std::vector<Experience>& transitions() const { return transitions_; }

  /// Moves the captured transitions out (the service hands them to the
  /// ShardedReplaySink in one batch).
  std::vector<Experience> TakeTransitions() { return std::move(transitions_); }

  // --- multi-attempt accounting (quality-floor fallback) -------------------

  /// Records planning effort of an abandoned attempt; the service adds it to
  /// the final outcome's bill.
  void ChargeAbandonedAttempt(double planning_ms, size_t steps) {
    abandoned_planning_ms_ += planning_ms;
    abandoned_steps_ += steps;
  }

  double abandoned_planning_ms() const { return abandoned_planning_ms_; }
  size_t abandoned_steps() const { return abandoned_steps_; }

  bool exact_fallback() const { return exact_fallback_; }
  void set_exact_fallback(bool value) { exact_fallback_ = value; }

 private:
  std::deque<SelectivityCache> caches_;
  const SharedSelectivityStore* store_ = nullptr;
  const std::vector<uint64_t>* slot_keys_ = nullptr;
  uint64_t epoch_ = 0;
  size_t shared_seeded_ = 0;
  QueryProfiler* profiler_ = nullptr;
  const QAgent* agent_override_ = nullptr;
  bool capture_transitions_ = false;
  std::vector<Experience> transitions_;
  double abandoned_planning_ms_ = 0.0;
  size_t abandoned_steps_ = 0;
  bool exact_fallback_ = false;
};

}  // namespace maliva

#endif  // MALIVA_CORE_REWRITE_SESSION_H_
