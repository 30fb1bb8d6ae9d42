#include "ml/replay_sink.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace maliva {

ShardedReplaySink::ShardedReplaySink(Config config) {
  const size_t capacity = std::max<size_t>(1, config.capacity);
  size_t shards = std::max<size_t>(1, std::min(config.shards, capacity));
  // Round *up*: the sink may hold slightly more than `capacity` but never
  // less — an effective capacity below the configured one could silently
  // starve a retrain trigger set near it.
  per_shard_capacity_ = (capacity + shards - 1) / shards;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) shards_.push_back(std::make_unique<Shard>());
}

void ShardedReplaySink::Append(std::vector<Experience> batch) {
  // Round-robin shard pick, in chunks of at most one shard's capacity:
  // appenders spread evenly regardless of how requests are batched, and a
  // batch can never self-drop by out-sizing its own shard — the full
  // configured capacity stays usable even for one huge Record call.
  size_t offset = 0;
  while (offset < batch.size()) {
    size_t chunk = std::min(batch.size() - offset, per_shard_capacity_);
    Shard& shard =
        *shards_[next_shard_.fetch_add(1, std::memory_order_relaxed) % shards_.size()];
    size_t dropped = 0;
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      for (size_t i = offset; i < offset + chunk; ++i) {
        shard.items.push_back(std::move(batch[i]));
      }
      while (shard.items.size() > per_shard_capacity_) {
        shard.items.pop_front();  // oldest feedback is the least valuable
        ++dropped;
      }
      // Counter updates stay under the shard lock: a Drain of this shard is
      // then ordered after them, so size_ can never transiently underflow
      // (items subtracted before they were added).
      appended_.fetch_add(chunk, std::memory_order_relaxed);
      if (dropped > 0) dropped_.fetch_add(dropped, std::memory_order_relaxed);
      size_.fetch_add(chunk - dropped, std::memory_order_relaxed);
    }
    offset += chunk;
  }
}

std::vector<Experience> ShardedReplaySink::Drain() {
  std::vector<Experience> out;
  for (std::unique_ptr<Shard>& shard : shards_) {
    std::deque<Experience> taken;
    {
      std::lock_guard<std::mutex> lock(shard->mutex);
      taken.swap(shard->items);
      size_.fetch_sub(taken.size(), std::memory_order_relaxed);
    }
    out.reserve(out.size() + taken.size());
    for (Experience& exp : taken) out.push_back(std::move(exp));
  }
  return out;
}

}  // namespace maliva
