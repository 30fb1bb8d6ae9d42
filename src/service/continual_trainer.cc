#include "service/continual_trainer.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/thread_pool.h"

namespace maliva {

namespace {

/// FNV-1a over the key bytes: a *fixed* hash, unlike std::hash, whose value
/// is implementation-defined — fine-tune RNG seeds must reproduce across
/// standard libraries for the online plane's byte-reproducibility contract.
uint64_t StableKeyHash(const std::string& key) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : key) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

ContinualTrainer::ContinualTrainer(ModelRegistry* registry, Config config)
    : registry_(registry), config_(config) {
  if (config_.background_threads > 0) {
    pool_ = std::make_unique<ThreadPool>(config_.background_threads);
  }
}

ContinualTrainer::~ContinualTrainer() = default;

void ContinualTrainer::RegisterKey(const std::string& key, RewriterEnv renv,
                                   const std::vector<const Query*>* validation,
                                   const QAgent& trained) {
  {
    std::unique_lock<std::shared_mutex> lock(keys_mutex_);
    if (keys_.find(key) != keys_.end()) return;
    ShardedReplaySink::Config sink_config;
    sink_config.capacity = config_.replay_capacity;
    sink_config.shards = config_.replay_shards;
    keys_[key] = std::make_unique<KeyState>(key, std::move(renv), validation,
                                            sink_config, config_.replay_capacity);
  }

  // Version 1: a faithful clone of the offline-trained weights, so serving
  // through the registry is byte-identical to serving the frozen agent until
  // the first fine-tune publishes. Its validation reward becomes the gate's
  // fixed bar.
  KeyState& state = *FindKey(key);
  Trainer::IterationStats base =
      Trainer::EvaluateGreedy(state.renv, trained, *state.validation);
  state.baseline_reward = base.mean_reward;
  AgentSnapshotMeta meta;
  meta.retrain_round = 0;
  meta.transitions_trained_on = 0;
  meta.eps_start = config_.eps_start;
  meta.eps_end = config_.eps_end;
  meta.eps_decay_steps = config_.eps_decay_steps;
  meta.validation_reward_pre = base.mean_reward;
  meta.validation_reward_post = base.mean_reward;
  meta.validation_vqp = base.greedy_vqp;
  registry_->Publish(key, trained.Clone(), meta);
}

ContinualTrainer::KeyState* ContinualTrainer::FindKey(const std::string& key) const {
  std::shared_lock<std::shared_mutex> lock(keys_mutex_);
  auto it = keys_.find(key);
  return it == keys_.end() ? nullptr : it->second.get();
}

PublishedModel ContinualTrainer::Current(const std::string& key) const {
  // Straight delegate: the registry already answers unknown keys with an
  // empty model, and only registered keys are ever published — a FindKey
  // guard here would just add a second contended rwlock acquisition to
  // every online-enabled request.
  return registry_->Current(key);
}

void ContinualTrainer::Record(const std::string& key,
                              std::vector<Experience> transitions) {
  KeyState* state = FindKey(key);
  if (state == nullptr || transitions.empty()) return;
  state->sink.Append(std::move(transitions));
  MaybeScheduleRound(*state);
}

void ContinualTrainer::MaybeScheduleRound(KeyState& state) {
  if (pool_ == nullptr) return;
  if (state.sink.Size() < config_.min_transitions) return;
  // One round in flight per key; exchange() is the claim — losers back off.
  if (state.inflight.exchange(true, std::memory_order_acq_rel)) return;
  pool_->Submit([this, &state] {
    // The pool's tasks must not throw. A round that does (its estimator or
    // oracle failed mid-sweep) publishes nothing and counts as rejected; the
    // key stays free for its next round.
    try {
      RunRound(state);
    } catch (...) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
    }
    state.inflight.store(false, std::memory_order_release);
    // Re-arm: feedback that crossed the threshold again *during* the round
    // must not wait for the next Record() — traffic may have stopped.
    MaybeScheduleRound(state);
  });
}

bool ContinualTrainer::RetrainNow(const std::string& key) {
  KeyState* state = FindKey(key);
  if (state == nullptr) return false;
  return RunRound(*state);
}

bool ContinualTrainer::RunRound(KeyState& state) {
  // Per-key rounds are serialized; concurrent keys may train in parallel.
  std::lock_guard<std::mutex> round_lock(state.round_mutex);

  // Incumbent first, drain second: a round racing RegisterKey's window
  // between key insertion and the version-1 publish must leave the buffered
  // feedback in the sink for the next round, not destroy it.
  PublishedModel incumbent = registry_->Current(state.key);
  if (!incumbent) return false;
  std::vector<Experience> fresh = state.sink.Drain();
  if (fresh.empty()) return false;

  const size_t consumed = fresh.size();
  const uint64_t round = state.rounds.fetch_add(1, std::memory_order_relaxed) + 1;
  const uint64_t total_consumed =
      state.transitions_consumed.fetch_add(consumed, std::memory_order_relaxed) +
      consumed;

  // Fine-tune a clone with the offline trainer's DQN update rule
  // (core/trainer.cc, Algorithm 1 lines 18-21): uniform minibatches from the
  // key's reservoir — the fresh feedback folded into the (bounded) history
  // of earlier rounds, so adaptation accumulates instead of chasing only the
  // latest batch — with Bellman targets maxed over the successor's still-
  // valid actions on the target network.
  std::unique_ptr<QAgent> clone = incumbent.agent->Clone();
  ReplayBuffer& replay = state.reservoir;
  for (Experience& exp : fresh) replay.Add(std::move(exp));
  Rng rng(config_.seed ^ (round * 0x6f6e6c696e65ULL) ^ StableKeyHash(state.key));

  size_t updates = 0;
  for (size_t step = 0; step < config_.gradient_steps; ++step) {
    std::vector<const Experience*> batch = replay.Sample(config_.batch_size, &rng);
    if (batch.empty()) break;
    Trainer::MinibatchUpdate(clone.get(), batch, config_.gamma,
                             config_.learning_rate);
    if (++updates % config_.target_sync_every == 0) clone->SyncTarget();
  }
  clone->SyncTarget();

  // Validation gate: the clone's greedy reward on the (base-distribution)
  // validation split must stay within the configured tolerance of the
  // *warm-up snapshot's* reward — a fixed bar, so successive rounds keep
  // adapting to drift, but a clone that forgot the base workload is refused.
  // The incumbent's own reward is already recorded in its snapshot metadata
  // (validation is deterministic), so only the clone needs a sweep.
  const double pre_reward = incumbent.snapshot->meta().validation_reward_post;
  Trainer::IterationStats post =
      Trainer::EvaluateGreedy(state.renv, *clone, *state.validation);
  {
    std::lock_guard<std::mutex> lock(last_mutex_);
    last_reward_pre_ = pre_reward;
    last_reward_post_ = post.mean_reward;
  }
  if (post.mean_reward + config_.gate_tolerance < state.baseline_reward) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  AgentSnapshotMeta meta;
  meta.retrain_round = round;
  meta.transitions_trained_on = total_consumed;
  meta.eps_start = config_.eps_start;
  meta.eps_end = config_.eps_end;
  meta.eps_decay_steps = config_.eps_decay_steps;
  meta.validation_reward_pre = pre_reward;
  meta.validation_reward_post = post.mean_reward;
  meta.validation_vqp = post.greedy_vqp;
  // Conditional on the incumbent this round cloned: if an operator rolled
  // it back mid-round, publishing its descendant would silently undo the
  // rollback — the round is dropped instead (its feedback stays in the
  // reservoir for the next one).
  PublishedModel published =
      registry_->Publish(state.key, std::move(clone), meta,
                         incumbent.snapshot->meta().version);
  if (!published) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  published_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ContinualTrainer::WaitIdle() {
  if (pool_ != nullptr) pool_->Wait();
}

ContinualTrainer::StatsSnapshot ContinualTrainer::Snapshot() const {
  StatsSnapshot stats;
  {
    std::shared_lock<std::shared_mutex> lock(keys_mutex_);
    for (const auto& [key, state] : keys_) {
      stats.transitions_recorded += state->sink.TotalAppended();
      stats.transitions_dropped += state->sink.TotalDropped();
      stats.transitions_pending += state->sink.Size();
    }
  }
  stats.retrains_published = published_.load(std::memory_order_relaxed);
  stats.retrains_rejected = rejected_.load(std::memory_order_relaxed);
  stats.snapshot_version = registry_->MaxVersion();
  {
    std::lock_guard<std::mutex> lock(last_mutex_);
    stats.last_reward_pre = last_reward_pre_;
    stats.last_reward_post = last_reward_post_;
  }
  return stats;
}

}  // namespace maliva
