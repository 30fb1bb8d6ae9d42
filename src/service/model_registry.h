// Versioned model registry: per-agent-key chains of published snapshots.
//
// The online learning plane's source of truth for "which weights serve right
// now". Each agent cache key ("agent/exact-accurate", ...) owns a chain of
// AgentSnapshot versions; Publish appends a new version, Current returns the
// newest, and Rollback drops the newest (operator escape hatch — the offline
// warm-up snapshot, version 1, is never rolled back away).
//
// Concurrency follows the serving core's shared_mutex discipline: Publish and
// Rollback take the exclusive side for a pointer push/pop; Current takes the
// shared side and copies two shared_ptrs out. Serving threads therefore never
// block on training — fine-tuning happens entirely outside the lock, and the
// publish critical section is O(1). Requests holding a superseded (or rolled
// back) model keep it alive through their shared_ptr until they finish.

#ifndef MALIVA_SERVICE_MODEL_REGISTRY_H_
#define MALIVA_SERVICE_MODEL_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/agent.h"
#include "ml/agent_snapshot.h"

namespace maliva {

/// One published model version: the immutable snapshot record (lineage)
/// plus its serve-ready QAgent. Both pointers are set, or both null (unknown
/// key).
struct PublishedModel {
  std::shared_ptr<const AgentSnapshot> snapshot;
  std::shared_ptr<const QAgent> agent;

  explicit operator bool() const { return snapshot != nullptr; }
};

/// Thread-safe per-key snapshot chains.
class ModelRegistry {
 public:
  /// `max_retained_per_key` bounds each chain: version 1 (the rollback
  /// floor) plus the most recent versions are kept, older middles are
  /// pruned on publish — a long-running service must not accumulate every
  /// superseded model ever published. In-flight requests holding a pruned
  /// version keep it alive through their own shared_ptr. Minimum 2; the
  /// service layer exposes this as ServiceConfig::online_max_snapshots
  /// (Validate()-guarded there, clamped here for standalone use).
  explicit ModelRegistry(size_t max_retained_per_key = 8)
      : max_retained_per_key_(max_retained_per_key < 2 ? 2 : max_retained_per_key) {}
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Publishes `agent` as the new current version of `key`. Assigns
  /// `meta.version` (monotonic per key from 1; rollbacks never reuse a
  /// version number) and records it in the version's AgentSnapshot.
  /// Returns the published model.
  ///
  /// When `expected_parent_version` is nonzero, the publish is conditional:
  /// it succeeds only if the key's current version still equals it, and
  /// returns an empty PublishedModel otherwise. Fine-tune rounds pass the
  /// incumbent they cloned, so a concurrent operator Rollback cannot be
  /// silently undone by publishing a descendant of the rolled-back model.
  PublishedModel Publish(const std::string& key, std::unique_ptr<const QAgent> agent,
                         AgentSnapshotMeta meta,
                         uint64_t expected_parent_version = 0);

  /// The newest published model for `key`, or an empty PublishedModel when
  /// the key has never been published.
  PublishedModel Current(const std::string& key) const;

  /// Drops the newest snapshot of `key`, restoring its predecessor (the
  /// newest still-retained older version). Returns false when the chain
  /// holds at most one version — the offline warm-up snapshot always
  /// remains serveable.
  bool Rollback(const std::string& key);

  /// Version of the newest snapshot for `key` (0 when unknown).
  uint64_t CurrentVersion(const std::string& key) const;

  /// Number of versions currently resident in `key`'s chain.
  size_t ChainLength(const std::string& key) const;

  /// Highest current version across every key (0 when empty) — the Stats()
  /// "snapshot version" headline.
  uint64_t MaxVersion() const;

  /// Chain bound in effect (post-clamp).
  size_t max_retained_per_key() const { return max_retained_per_key_; }

 private:
  struct Chain {
    std::vector<PublishedModel> versions;
    uint64_t next_version = 1;
  };

  size_t max_retained_per_key_;
  mutable std::shared_mutex mutex_;
  std::unordered_map<std::string, Chain> chains_;
};

}  // namespace maliva

#endif  // MALIVA_SERVICE_MODEL_REGISTRY_H_
