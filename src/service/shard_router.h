// Shard routing for the multi-scenario fleet (DESIGN.md "Multi-scenario
// shard plane").
//
// One MalivaService owns one scenario. A fleet-shaped server hosts many
// scenarios, each wrapped in a Shard: the full per-scenario serving stack
// (ServingState, shared selectivity store, model registry / continual
// trainer, telemetry) plus a lifecycle state machine. The ShardRouter is the
// registry that resolves a request's routing key to its shard behind a
// shared_mutex — resolution is a shared-lock map lookup returning a
// shared_ptr, so registering, draining, or evicting one scenario never
// blocks serves on the others, and in-flight requests keep an evicted
// shard's stack alive until they finish.
//
// Lifecycle:
//
//   RegisterScenario ─► kRegistered ─► kWarming ─► kReady ─► kDraining ─► (evicted)
//                            │     (background      ▲            │
//                            └── warmup_threads=0 ──┘      EvictScenario
//
// Serves are accepted in every state but kDraining (a kRegistered/kWarming
// shard builds strategies lazily, exactly like a standalone MalivaService).
// Drain is a one-way gate: new serves are refused, in-flight ones finish.

#ifndef MALIVA_SERVICE_SHARD_ROUTER_H_
#define MALIVA_SERVICE_SHARD_ROUTER_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "service/service.h"
#include "util/status.h"

namespace maliva {

/// Where a shard is in its lifecycle. Stored in one atomic; transitions are
/// CAS-guarded so a background warm-up finishing cannot resurrect a shard
/// that was drained mid-warm-up.
enum class ShardState {
  kRegistered,  ///< inserted, background warm-up not started yet
  kWarming,     ///< background Warmup() running (serves still accepted)
  kReady,       ///< warm-up finished (or skipped); steady-state serving
  kDraining,    ///< new serves refused; in-flight requests finishing
};

const char* ShardStateName(ShardState state);

/// One hosted scenario: its full serving stack plus lifecycle state. Shards
/// are handed out as shared_ptr so an eviction cannot pull the stack out
/// from under an in-flight request or a background warm-up.
struct Shard {
  Shard(std::string id_in, std::unique_ptr<MalivaService> service_in)
      : id(std::move(id_in)), service(std::move(service_in)) {}

  const std::string id;
  /// The per-scenario stack: ServingState, optional SharedSelectivityStore,
  /// optional ModelRegistry/ContinualTrainer, telemetry — everything a
  /// standalone MalivaService owns, nothing shared across shards.
  const std::unique_ptr<MalivaService> service;

  std::atomic<ShardState> state{ShardState::kRegistered};

  /// kRegistered -> kWarming; false when the shard was drained first.
  bool BeginWarmup() {
    ShardState expected = ShardState::kRegistered;
    return state.compare_exchange_strong(expected, ShardState::kWarming);
  }
  /// kWarming -> kReady; a concurrent drain wins (no resurrection).
  void FinishWarmup() {
    ShardState expected = ShardState::kWarming;
    state.compare_exchange_strong(expected, ShardState::kReady);
  }
  /// Any state -> kDraining; false when already draining (idempotent).
  bool Drain() { return state.exchange(ShardState::kDraining) != ShardState::kDraining; }

  bool draining() const { return state.load() == ShardState::kDraining; }

  /// Outcome of the background warm-up: OK until the warm-up finishes (or
  /// when warm-up is disabled), then whatever Warmup() returned. A failed
  /// warm-up does not unregister the shard — strategies still build lazily
  /// per request, surfacing the same error — but operators see it in
  /// ListScenarios().
  Status warmup_status() const {
    std::lock_guard<std::mutex> lock(warmup_mutex_);
    return warmup_status_;
  }
  void set_warmup_status(Status status) {
    std::lock_guard<std::mutex> lock(warmup_mutex_);
    warmup_status_ = std::move(status);
  }

 private:
  mutable std::mutex warmup_mutex_;
  Status warmup_status_;
};

/// The routing-key -> shard registry. Internally synchronized: Resolve takes
/// the shared side (the serve path), Insert/Remove the exclusive side for an
/// O(log n) map operation — shard construction, warm-up, and draining all
/// happen outside the lock.
class ShardRouter {
 public:
  /// OK when `id` could be registered right now; InvalidArgument for empty
  /// ids and duplicates (the duplicate message lists the registered
  /// scenarios). Lets callers reject bad ids *before* constructing a whole
  /// per-scenario stack; Insert re-checks under the exclusive lock, so a
  /// racing registration still loses cleanly there.
  Status CheckAvailable(const std::string& id) const;

  /// Registers `shard` under its id; same rejections as CheckAvailable.
  Status Insert(std::shared_ptr<Shard> shard);

  /// The shard serving `id`, or NotFound listing every registered scenario
  /// (mirroring RewriterFactory's unknown-strategy ergonomics).
  Result<std::shared_ptr<Shard>> Resolve(const std::string& id) const;

  /// Removes and returns `id`'s shard; NotFound (with the same listing) when
  /// absent. When `expected` is non-null the removal is conditional: it
  /// succeeds only while `id` still maps to that exact shard, and reports
  /// NotFound otherwise — so an eviction validated against one shard (e.g.
  /// its draining state) cannot remove a different shard re-registered
  /// under the same id in between. Callers still holding the shared_ptr
  /// keep the stack alive.
  Result<std::shared_ptr<Shard>> Remove(const std::string& id,
                                        const Shard* expected = nullptr);

  /// Every registered shard, ordered by id.
  std::vector<std::shared_ptr<Shard>> List() const;

  /// The sole registered shard, or null unless exactly one is registered.
  /// Empty routing keys resolve through this: a single-shard fleet behaves
  /// like a standalone service with no per-request routing ceremony.
  std::shared_ptr<Shard> Sole() const;

  /// Comma-separated registered ids, sorted ("(none registered)" when
  /// empty) — the one formatter behind every routing error message.
  std::string IdsList() const;

 private:
  /// IdsList() body; caller holds `mutex_`.
  std::string IdsListLocked() const;
  /// CheckAvailable() body; caller holds `mutex_`.
  Status CheckAvailableLocked(const std::string& id) const;

  mutable std::shared_mutex mutex_;
  std::map<std::string, std::shared_ptr<Shard>> shards_;
};

}  // namespace maliva

#endif  // MALIVA_SERVICE_SHARD_ROUTER_H_
