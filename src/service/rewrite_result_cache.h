// Rewrite-result cache: the decision tier of the serving ladder.
//
// The knowledge plane (qte/shared_selectivity_store.h) amortizes what a
// rewrite search *reads* — per-predicate selectivities. This cache amortizes
// the search itself: the fleet's answer to a decision context it has already
// solved — same canonical query, strategy, tau bin, quality-floor bin, agent
// snapshot, and catalog epoch — is replayed in O(1) instead of re-running
// the MDP/QTE episode. It is the classic DBMS plan-cache tier, invalidated
// by key mismatch rather than sweeps.
//
// Key composition. The map is keyed by the 64-bit RequestFingerprint
// (query/signature.h): canonical query signature × strategy × binned
// effective tau × binned quality floor. The two *volatile* context
// components — the agent snapshot version that would serve the request and
// the engine catalog version — are stored inside the entry and checked on
// every probe: a fingerprint match whose epoch or snapshot disagrees is a
// stale decline (counted, never trusted, replaced in place by the next
// publish). Bumping either version therefore invalidates the whole cache in
// O(1) without touching any shard.
//
// Single-flight coalescing. When N concurrent requests miss on the same
// key, one (the leader) computes while the rest (followers) block on the
// leader's in-flight slot and replay its published result — N searches
// become one. A leader that fails (error path) aborts its flight and wakes
// followers empty-handed; they fall back to computing solo, so coalescing
// can delay but never lose a request. Flights are joined only under the
// exact (key, epoch, snapshot) context: a request whose context differs
// from an in-flight leader's computes solo rather than inheriting a stale
// answer.
//
// Concurrency: sharded like the selectivity store — each shard owns an
// unordered_map + its in-flight slots behind one std::shared_mutex, so
// probes on the hot path lock one shard only. Eviction is per-shard
// CLOCK/second-chance: every hit sets the entry's reference bit; the clock
// hand sweeps at insert time, giving recently replayed decisions a second
// lap before they go.
//
// Determinism: an entry's payload is the byte-exact decision of the miss
// that produced it (strategy, outcome, option pointer, stats template); a
// hit replays those bytes and only re-renders the SQL against the hitting
// request's own query text. Identical computations publish identical
// payloads, so which of several racing publishers lands is unobservable.

#ifndef MALIVA_SERVICE_REWRITE_RESULT_CACHE_H_
#define MALIVA_SERVICE_REWRITE_RESULT_CACHE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/rewriter.h"
#include "service/serving_stats.h"
#include "util/metrics.h"

namespace maliva {

/// One cached rewrite decision: everything a response carries except the
/// per-request SQL rendering and the run-varying wall clock. `option` points
/// into the service's interned option sets (stable for the service's
/// lifetime), so the entry stays valid as long as its owning service.
struct CachedRewrite {
  std::string strategy;
  RewriteOutcome outcome;
  const RewriteOption* option = nullptr;
  bool exact_fallback = false;
  /// Stats template of the miss that computed this entry. Hits replay it
  /// verbatim (the selectivity bill of the original search), then stamp
  /// their own hit/coalesced flags and wall clock on top.
  RequestStats stats;
};

/// Sharded, epoch/snapshot-validated map from request fingerprint to cached
/// rewrite decision, with single-flight coalescing of concurrent misses.
class RewriteResultCache {
 public:
  struct Config {
    /// Total entry capacity across shards (CLOCK eviction per shard).
    size_t capacity = 4096;
    /// Independently locked shards; capped at `capacity` so every shard
    /// holds >= 1 entry.
    size_t shards = 8;
  };

  /// What a Begin() probe resolved to. kHit carries the cached value;
  /// kLeader owns the in-flight slot and must Publish or Abort exactly
  /// once; kFollower must WaitForLeader; kSolo computes without a flight
  /// (an in-flight leader exists under a *different* epoch/snapshot, or a
  /// leader aborted) and publishes directly.
  enum class Role { kHit, kLeader, kFollower, kSolo };

  /// The cache's outcome counters: registry handles the cache increments
  /// and never owns (the service's registry is their only store).
  struct Counters {
    Counter* hits = nullptr;            ///< context-exact probe hits
    Counter* misses = nullptr;          ///< Begin probes that did not hit
    Counter* coalesced = nullptr;       ///< requests served by another's search
    Counter* evictions = nullptr;       ///< entries evicted by the CLOCK hand
    Counter* stale_declines = nullptr;  ///< fingerprint matches refused on context
  };
  /// Resolves the cache's series in `registry`:
  /// maliva_result_cache_total{outcome="hit"|"miss"|"coalesced"},
  /// maliva_result_cache_evictions_total and
  /// maliva_result_cache_stale_declines_total.
  static Counters CountersIn(MetricsRegistry* registry);

  struct Flight;  // internal; exposed only through shared_ptr in Ticket

  /// Begin()'s result. Move-only state is deliberately avoided: tickets are
  /// small and copies share the flight slot.
  struct Ticket {
    Role role = Role::kSolo;
    /// Set iff role == kHit.
    std::optional<CachedRewrite> value;
    /// The in-flight slot (role kLeader/kFollower), null otherwise.
    std::shared_ptr<Flight> flight;
  };

  /// Every `counters` handle must be non-null and outlive the cache.
  RewriteResultCache(const Config& config, Counters counters);
  ~RewriteResultCache();

  RewriteResultCache(const RewriteResultCache&) = delete;
  RewriteResultCache& operator=(const RewriteResultCache&) = delete;

  /// Probes `key` under the (epoch, snapshot) context and enrolls in the
  /// single-flight protocol on a miss: the first misser becomes the leader,
  /// concurrent missers under the same context become followers, and a
  /// context mismatch with an existing flight yields kSolo. A resident
  /// entry under a different context counts one stale decline.
  Ticket Begin(uint64_t key, uint64_t epoch, uint64_t snapshot);

  /// Probe-only lookup for the admission plane: returns the cached value on
  /// a context-exact hit (counted, reference bit set) and nullopt otherwise.
  /// Never counts a miss and never enrolls a flight — the request proceeds
  /// to the normal serve path, whose own Begin() does the accounting.
  std::optional<CachedRewrite> Probe(uint64_t key, uint64_t epoch,
                                     uint64_t snapshot);

  /// Leader/solo completion: inserts `value` for `key` under the context
  /// and — when `ticket` holds a flight — resolves it, waking followers
  /// with the value. A resident entry under the same context is left in
  /// place (first writer wins, payloads are identical by construction);
  /// a stale resident is replaced.
  void Publish(const Ticket& ticket, uint64_t key, uint64_t epoch,
               uint64_t snapshot, CachedRewrite value);

  /// Leader bail-out (error path): resolves the flight empty, waking
  /// followers to compute solo. No entry is inserted. No-op without a
  /// flight.
  void Abort(const Ticket& ticket, uint64_t key);

  /// Follower wait: blocks until the ticket's leader publishes or aborts.
  /// Returns the leader's value (counted as coalesced) or nullopt on abort.
  std::optional<CachedRewrite> WaitForLeader(const Ticket& ticket);

  /// Batch-dedup accounting: `n` requests replayed from one in-batch
  /// computation without enrolling flights (MalivaService::ServeBatch).
  void NoteCoalesced(uint64_t n) { counters_.coalesced->Increment(n); }

  /// Resident entries (sum over shards; exact when quiescent).
  size_t Size() const;

  size_t capacity() const { return capacity_; }
  size_t num_shards() const { return shards_.size(); }

 private:
  struct Entry {
    uint64_t epoch = 0;
    uint64_t snapshot = 0;
    CachedRewrite value;
    /// CLOCK reference bit: set on every hit, cleared by the sweeping hand.
    bool referenced = false;
  };

  /// One lock domain: resident entries, their CLOCK ring, and the in-flight
  /// single-flight slots.
  struct Shard {
    mutable std::shared_mutex mutex;
    std::unordered_map<uint64_t, Entry> entries;
    /// Keys in insertion order; the hand sweeps this ring at eviction time.
    std::vector<uint64_t> ring;
    size_t hand = 0;
    std::unordered_map<uint64_t, std::shared_ptr<Flight>> flights;
  };

  Shard& ShardFor(uint64_t key) const;
  /// Inserts (or refreshes) an entry, evicting via CLOCK when the shard is
  /// full. Caller holds the shard's exclusive lock.
  void InsertLocked(Shard& shard, uint64_t key, uint64_t epoch,
                    uint64_t snapshot, CachedRewrite value);

  size_t capacity_;
  size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  Counters counters_;
};

}  // namespace maliva

#endif  // MALIVA_SERVICE_REWRITE_RESULT_CACHE_H_
