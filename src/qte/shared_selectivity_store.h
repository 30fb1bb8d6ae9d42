// Cross-request selectivity store: the serving fleet's shared knowledge.
//
// A SelectivityCache (qte/selectivity_cache.h) amortizes collection costs
// *within* one request; this store amortizes them *across* requests.
// Entries are keyed by the 64-bit predicate slot keys produced by
// query/signature.h, so any two requests whose canonicalized predicates
// match — dashboard refreshes, pan/zoom neighbours within a literal bin —
// read each other's collected selectivities.
//
// Concurrency: the key space is sharded; each shard holds an
// unordered_map behind its own std::shared_mutex, so readers on the hot
// serve path take a shared lock on one shard only and publishers contend
// per shard, not globally.
//
// Versioning: every entry is tagged with the epoch current when it was
// published. Lookups require an exact epoch match, so bumping the epoch —
// the service derives it from Engine::catalog_version(), which moves when
// tables or sample tables (i.e. the statistics ground truth) change —
// invalidates the entire store in O(1) without touching any shard. Stale
// entries are lazily dropped when a publish lands on them.
//
// Eviction: per-shard FIFO at capacity / shards entries. First-writer-wins
// publishing keeps a key's value stable for the lifetime of its residency,
// which keeps per-request results deterministic given a store snapshot.
//
// Fidelity: the store does not record which estimator produced a value.
// Every QTE's collected selectivity is an estimate of the same per-predicate
// statistic (the accurate QTE's being exact), so values are treated as
// interchangeable — a fleet mixing accurate and sampling strategies shares
// one knowledge pool at the fidelity of whoever collected first. The
// paper's economics concern collection *cost*, not inter-estimator drift;
// deployments that need fidelity isolation can run separate services.

#ifndef MALIVA_QTE_SHARED_SELECTIVITY_STORE_H_
#define MALIVA_QTE_SHARED_SELECTIVITY_STORE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

namespace maliva {

/// Sharded, epoch-versioned map from predicate slot key to selectivity.
class SharedSelectivityStore {
 public:
  struct Config {
    /// Total entry capacity across all shards (FIFO eviction per shard).
    size_t capacity = 1u << 20;
    /// Number of independently locked shards; more shards = less publisher
    /// contention. Capped at `capacity` so every shard holds >= 1 entry.
    size_t shards = 16;
  };

  explicit SharedSelectivityStore(const Config& config);

  SharedSelectivityStore(const SharedSelectivityStore&) = delete;
  SharedSelectivityStore& operator=(const SharedSelectivityStore&) = delete;

  /// Returns the selectivity published for `key` under `epoch`, or nullopt
  /// on miss (absent key or entry from a different epoch).
  std::optional<double> Lookup(uint64_t key, uint64_t epoch) const;

  /// Publishes `selectivity` for `key` under `epoch`. First writer wins
  /// while the entry stays resident: an entry from an older epoch is
  /// replaced in place, a publisher older than the resident entry is
  /// ignored (epochs only move forward). Returns true when this call
  /// inserted new knowledge.
  bool Publish(uint64_t key, uint64_t epoch, double selectivity);

  /// Current number of resident entries (sum over shards; approximate under
  /// concurrent publishing, exact when quiescent).
  size_t Size() const;

  /// Entries dropped by per-shard FIFO eviction so far.
  size_t Evictions() const { return evictions_.load(std::memory_order_relaxed); }

  size_t capacity() const { return capacity_; }
  size_t num_shards() const { return shards_.size(); }

 private:
  struct Entry {
    uint64_t epoch = 0;
    double selectivity = 0.0;
  };

  /// One lock domain: a map plus the FIFO insertion order used for eviction.
  struct Shard {
    mutable std::shared_mutex mutex;
    std::unordered_map<uint64_t, Entry> entries;
    std::deque<uint64_t> fifo;
  };

  Shard& ShardFor(uint64_t key) const;

  size_t capacity_;
  size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<size_t> evictions_{0};
};

}  // namespace maliva

#endif  // MALIVA_QTE_SHARED_SELECTIVITY_STORE_H_
