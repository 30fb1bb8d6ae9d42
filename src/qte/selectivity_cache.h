// Per-query cache of collected predicate selectivities.
//
// Collecting one selectivity costs tens of (virtual) milliseconds; once a
// QTE collects it for one rewritten query it is free for every later RQ
// sharing the predicate. This cache is what makes the estimation costs C_i in
// the MDP state drop as the agent explores (paper Fig 7).
//
// A slot is empty, holds a value, or holds a pending exact probe: collected
// and billed, with Engine::TrueSelectivity deferred to the first Get()
// (DESIGN.md "QTE cost accounting"). A pending probe borrows the engine and
// the query's table name and predicate, so a cache must not outlive its
// query. A cache serves one request or training episode on one thread:
// Get() may write the slot it reads. Copying a cache copies its pending
// probes.

#ifndef MALIVA_QTE_SELECTIVITY_CACHE_H_
#define MALIVA_QTE_SELECTIVITY_CACHE_H_

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace maliva {

class Engine;         // engine/engine.h
struct Predicate;     // query/predicate.h
class QueryProfiler;  // util/query_profiler.h

/// Slot-indexed selectivity store: slots [0, m) are the base predicates,
/// slots [m, m + r) the join right-side predicates.
class SelectivityCache {
 public:
  explicit SelectivityCache(size_t num_slots) : slots_(num_slots) {}

  size_t num_slots() const { return slots_.size(); }

  /// Whether `slot` is collected: it holds a value or a pending probe.
  bool Has(size_t slot) const {
    assert(slot < slots_.size());
    return slots_[slot].state != Slot::kEmpty;
  }

  /// The selectivity of a collected slot. A pending probe runs here, on the
  /// first read, and its value replaces it.
  double Get(size_t slot) {
    assert(Has(slot));
    Slot& s = slots_[slot];
    if (s.state == Slot::kPending) Materialize(s);
    return s.value;
  }

  /// Stores `selectivity` in `slot`, replacing a value or a pending probe.
  void Set(size_t slot, double selectivity) {
    assert(slot < slots_.size());
    Slot& s = slots_[slot];
    if (s.state == Slot::kEmpty) ++collected_;
    s.state = Slot::kValue;
    s.value = selectivity;
  }

  /// Collects `slot` as a pending exact probe of `pred` on `table`: Get()
  /// later returns Engine::TrueSelectivity (0 when it fails). All three are
  /// borrowed until the probe runs.
  void SetPendingProbe(size_t slot, const Engine& engine, const std::string& table,
                       const Predicate& pred) {
    assert(slot < slots_.size());
    Slot& s = slots_[slot];
    if (s.state == Slot::kEmpty) ++collected_;
    s.state = Slot::kPending;
    s.engine = &engine;
    s.table = &table;
    s.pred = &pred;
  }

  /// Collected slots (values and pending probes). Maintained incrementally —
  /// this is read per response for telemetry, so it must not rescan.
  size_t NumCollected() const { return collected_; }

  // Tier accounting (DESIGN.md "Selectivity tiers"): how the collected slots
  // were filled. Shared-store seeds are tracked by the session
  // (RewriteSession::shared_seeded); these two split the remainder between
  // the histogram rung and the probe rung.
  void NoteHistogramHit() { ++histogram_hits_; }
  void NoteProbe() { ++probes_; }
  size_t histogram_hits() const { return histogram_hits_; }
  size_t probes() const { return probes_; }

  /// Cost profiler of the request this cache belongs to (ISSUE 9), stamped
  /// by RewriteSession::NewCache; nullptr means profiling is off. Borrowed —
  /// the QTEs' collection loops time themselves against it without the
  /// session being visible from QteContext.
  void BindProfiler(QueryProfiler* profiler) { profiler_ = profiler; }
  QueryProfiler* profiler() const { return profiler_; }

 private:
  struct Slot {
    enum State : uint8_t { kEmpty, kValue, kPending };
    State state = kEmpty;
    double value = 0.0;
    // The pending probe's target; meaningful while state == kPending.
    const Engine* engine = nullptr;
    const std::string* table = nullptr;
    const Predicate* pred = nullptr;
  };

  /// Runs `slot`'s pending probe and stores its value.
  static void Materialize(Slot& slot);

  std::vector<Slot> slots_;
  size_t collected_ = 0;
  size_t histogram_hits_ = 0;
  size_t probes_ = 0;
  QueryProfiler* profiler_ = nullptr;
};

}  // namespace maliva

#endif  // MALIVA_QTE_SELECTIVITY_CACHE_H_
