// Background continual training from serving feedback.
//
// The online learning plane's write side (DESIGN.md "Online learning
// plane"): serving threads Record() the transitions their greedy episodes
// observed into a per-agent-key ShardedReplaySink; once a key accumulates
// ServiceConfig::online_min_transitions of them, a fine-tune round is
// scheduled on the trainer's own worker pool (util/thread_pool.h — serving
// threads never train). A round clones the current published snapshot,
// replays the drained transitions through the same DQN update rule the
// offline Trainer uses (core/trainer.cc), evaluates the clone against the
// incumbent on the scenario's validation split, and — only if the validation
// gate passes — publishes the clone as the next snapshot version in the
// ModelRegistry. Failed gates consume the feedback but leave the serving
// model untouched.
//
// RetrainNow() runs one round synchronously (tests and benches drive
// retraining deterministically with it); per-key rounds are serialized, so
// it composes safely with the background path.

#ifndef MALIVA_SERVICE_CONTINUAL_TRAINER_H_
#define MALIVA_SERVICE_CONTINUAL_TRAINER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/rewriter.h"
#include "core/trainer.h"
#include "ml/replay_sink.h"
#include "service/model_registry.h"

namespace maliva {

class ThreadPool;  // util/thread_pool.h

/// Owns the feedback sinks and the background fine-tune loop for every
/// online-learnable agent key of one service.
class ContinualTrainer {
 public:
  struct Config {
    /// Buffered transitions that trigger a background fine-tune round.
    size_t min_transitions = 512;
    /// Per-key sink bound (oldest transitions dropped beyond it) and shards.
    size_t replay_capacity = 16384;
    size_t replay_shards = 8;
    /// Minibatch updates per fine-tune round; batch size, learning rate,
    /// discount, and target-sync cadence mirror TrainerConfig.
    size_t gradient_steps = 48;
    size_t batch_size = 64;
    double learning_rate = 1e-3;
    double gamma = 1.0;
    size_t target_sync_every = 64;
    /// Validation gate: publish a fine-tuned clone only when its mean greedy
    /// validation reward stays within `gate_tolerance` of the *offline
    /// warm-up snapshot's* reward on the same split. A fixed bar (rather
    /// than the moving incumbent) lets successive rounds keep adapting to
    /// drift while still refusing catastrophic forgetting of the base
    /// distribution.
    double gate_tolerance = 0.05;
    /// Exploration schedule recorded in snapshot metadata (the offline
    /// schedule the warm-up weights were trained under; fine-tunes learn
    /// from greedy serving transitions and record it unchanged).
    double eps_start = 1.0;
    double eps_end = 0.05;
    double eps_decay_steps = 1500;
    uint64_t seed = 1234;
    /// Background fine-tune workers; 0 disables the background path (rounds
    /// then run only through RetrainNow).
    size_t background_threads = 1;
  };

  /// Aggregate counters for MalivaService::Stats().
  struct StatsSnapshot {
    uint64_t transitions_recorded = 0;  ///< appended to the sinks
    uint64_t transitions_dropped = 0;   ///< evicted before being trained on
    uint64_t transitions_pending = 0;   ///< buffered, awaiting a round
    uint64_t retrains_published = 0;    ///< rounds that passed the gate
    /// Rounds refused by the gate, plus rounds dropped because their
    /// incumbent was rolled back mid-round (conditional publish failed), plus
    /// background rounds that threw.
    uint64_t retrains_rejected = 0;
    uint64_t snapshot_version = 0;      ///< newest version across keys
    double last_reward_pre = 0.0;       ///< incumbent's reward, last round
    double last_reward_post = 0.0;      ///< clone's reward, last round
  };

  ContinualTrainer(ModelRegistry* registry, Config config);
  ~ContinualTrainer();

  ContinualTrainer(const ContinualTrainer&) = delete;
  ContinualTrainer& operator=(const ContinualTrainer&) = delete;

  /// Makes `key` online-learnable: remembers its env + validation split,
  /// evaluates the offline-trained weights, and publishes them as snapshot
  /// version 1. Idempotent. `validation` is borrowed and must outlive the
  /// trainer (it is the scenario's split). Called under the service's build
  /// lock; safe against concurrent Current()/Record() readers.
  void RegisterKey(const std::string& key, RewriterEnv renv,
                   const std::vector<const Query*>* validation,
                   const QAgent& trained);

  /// The key's current published model (empty when not registered).
  PublishedModel Current(const std::string& key) const;

  /// Feedback path: appends one request's observed transitions and, when the
  /// key's sink crossed the trigger threshold, schedules a background round.
  /// Unregistered keys are ignored.
  void Record(const std::string& key, std::vector<Experience> transitions);

  /// Runs one fine-tune round for `key` synchronously on the caller's
  /// thread, draining whatever feedback is buffered (no minimum). Returns
  /// true when a new snapshot version was published, false when there was
  /// nothing to train on or the validation gate rejected the clone. An
  /// exception out of the round propagates to the caller.
  bool RetrainNow(const std::string& key);

  /// Blocks until every scheduled background round has finished.
  void WaitIdle();

  StatsSnapshot Snapshot() const;

 private:
  struct KeyState {
    KeyState(std::string key_in, RewriterEnv renv_in,
             const std::vector<const Query*>* validation_in,
             ShardedReplaySink::Config sink_config, size_t reservoir_capacity)
        : key(std::move(key_in)),
          renv(std::move(renv_in)),
          validation(validation_in),
          sink(sink_config),
          reservoir(reservoir_capacity) {}

    const std::string key;
    const RewriterEnv renv;
    const std::vector<const Query*>* validation;
    /// The offline warm-up snapshot's mean validation reward — the
    /// validation gate's fixed bar (set once in RegisterKey).
    double baseline_reward = 0.0;
    ShardedReplaySink sink;
    /// Persistent training reservoir: every round folds its drained
    /// transitions in (FIFO at replay_capacity) and samples minibatches
    /// from the whole reservoir, so adaptation accumulates across rounds
    /// instead of lurching after whichever feedback arrived last. Guarded
    /// by round_mutex (only RunRound touches it).
    ReplayBuffer reservoir;
    /// Serializes fine-tune rounds for this key (background vs RetrainNow).
    std::mutex round_mutex;
    std::atomic<bool> inflight{false};
    std::atomic<uint64_t> rounds{0};
    std::atomic<uint64_t> transitions_consumed{0};
  };

  KeyState* FindKey(const std::string& key) const;
  void MaybeScheduleRound(KeyState& state);
  bool RunRound(KeyState& state);

  ModelRegistry* registry_;
  Config config_;

  mutable std::shared_mutex keys_mutex_;
  std::unordered_map<std::string, std::unique_ptr<KeyState>> keys_;

  std::atomic<uint64_t> published_{0};
  std::atomic<uint64_t> rejected_{0};
  mutable std::mutex last_mutex_;
  double last_reward_pre_ = 0.0;
  double last_reward_post_ = 0.0;

  /// Declared last: destroyed first, joining in-flight rounds while the key
  /// states and registry they reference are still alive.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace maliva

#endif  // MALIVA_SERVICE_CONTINUAL_TRAINER_H_
