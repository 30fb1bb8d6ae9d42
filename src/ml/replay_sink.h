// Bounded, sharded sink for serving-time experience transitions.
//
// The feedback path of the online learning plane: every online-enabled Serve
// call appends its episode's (state, action, reward, next state) transitions
// here in one batch, and the background ContinualTrainer drains the sink when
// it fine-tunes. Appends come from many serving threads at once, so the sink
// is sharded (one mutex + deque per shard) — the same contention discipline
// as the SharedSelectivityStore.
// The bound is a hard FIFO: when a shard is full the oldest transitions are
// dropped (fresh serving feedback is worth more than stale), and drops are
// counted so operators can see when retraining lags traffic. Shards are
// assigned round-robin from an internal counter, so capacity is used evenly
// no matter how the caller's requests are distributed (a lone-Serve() loop
// fills all shards, not one).

#ifndef MALIVA_ML_REPLAY_SINK_H_
#define MALIVA_ML_REPLAY_SINK_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "ml/replay_buffer.h"

namespace maliva {

/// Thread-safe bounded transition inbox between serving and retraining.
class ShardedReplaySink {
 public:
  struct Config {
    /// Total transitions resident across all shards. Per-shard bounds round
    /// *up*, so the effective capacity is >= this value (never below — a
    /// retrain trigger set at the capacity must stay reachable).
    size_t capacity = 16384;
    size_t shards = 8;  ///< lock shards (appender contention)
  };

  explicit ShardedReplaySink(Config config);

  ShardedReplaySink(const ShardedReplaySink&) = delete;
  ShardedReplaySink& operator=(const ShardedReplaySink&) = delete;

  /// Appends one request's transitions (one lock acquisition per call).
  void Append(std::vector<Experience> batch);

  /// Removes and returns every buffered transition (training consumes the
  /// feedback; a drained transition is never trained on twice).
  std::vector<Experience> Drain();

  /// Transitions currently buffered. Exact between operations; a racing
  /// reader may see a value mid-append.
  size_t Size() const { return size_.load(std::memory_order_relaxed); }

  /// Monotonic counters for telemetry.
  uint64_t TotalAppended() const { return appended_.load(std::memory_order_relaxed); }
  uint64_t TotalDropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  struct Shard {
    std::mutex mutex;
    std::deque<Experience> items;
  };

  size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> next_shard_{0};
  std::atomic<size_t> size_{0};
  std::atomic<uint64_t> appended_{0};
  std::atomic<uint64_t> dropped_{0};
};

}  // namespace maliva

#endif  // MALIVA_ML_REPLAY_SINK_H_
