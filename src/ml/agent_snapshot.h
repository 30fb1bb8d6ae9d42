// Versioned, immutable record of a published agent model's lineage.
//
// The online learning plane (DESIGN.md "Online learning plane") never mutates
// a serving agent in place: retraining fine-tunes a *clone* and publishes the
// result as a new version. An AgentSnapshot carries that version's metadata:
// the exploration schedule the weights were trained under and the training
// lineage operators need to audit a model. Snapshots are immutable after
// construction and shared via shared_ptr — publish is one pointer swap, and
// requests holding an old version keep serving it race-free while a new
// version goes live.
//
// Layering: this file knows nothing about agents or serving. The service
// layer's ModelRegistry pairs each snapshot with the QAgent it describes.

#ifndef MALIVA_ML_AGENT_SNAPSHOT_H_
#define MALIVA_ML_AGENT_SNAPSHOT_H_

#include <cstdint>

namespace maliva {

/// Training lineage of one snapshot. `version` is assigned by the
/// ModelRegistry at publish time (monotonic per agent key, starting at 1 for
/// the offline warm-up snapshot); everything else is filled by the trainer
/// that produced the weights.
struct AgentSnapshotMeta {
  uint64_t version = 0;            ///< registry-assigned, monotonic per key
  uint64_t retrain_round = 0;      ///< 0 = offline warm-up training
  uint64_t transitions_trained_on = 0;  ///< cumulative serving transitions consumed

  /// Exploration schedule the weights were trained under (EpsilonSchedule
  /// parameters; the offline trainer's schedule for round 0, recorded
  /// unchanged by fine-tunes, which learn from greedy serving transitions).
  double eps_start = 0.0;
  double eps_end = 0.0;
  double eps_decay_steps = 0.0;

  /// Validation-gate evidence: mean greedy validation reward of the
  /// predecessor snapshot (pre) vs this one (post), and this snapshot's
  /// viable-query fraction on the validation split. For round 0 pre == post.
  double validation_reward_pre = 0.0;
  double validation_reward_post = 0.0;
  double validation_vqp = 0.0;
};

/// Immutable record of one published model version's lineage.
class AgentSnapshot {
 public:
  explicit AgentSnapshot(AgentSnapshotMeta meta) : meta_(meta) {}

  AgentSnapshot(const AgentSnapshot&) = delete;
  AgentSnapshot& operator=(const AgentSnapshot&) = delete;

  const AgentSnapshotMeta& meta() const { return meta_; }

 private:
  AgentSnapshotMeta meta_;
};

}  // namespace maliva

#endif  // MALIVA_ML_AGENT_SNAPSHOT_H_
