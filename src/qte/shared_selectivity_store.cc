#include "qte/shared_selectivity_store.h"

#include <algorithm>
#include <mutex>

namespace maliva {

SharedSelectivityStore::SharedSelectivityStore(const Config& config)
    : capacity_(std::max<size_t>(1, config.capacity)) {
  size_t shards = std::clamp<size_t>(config.shards, 1, capacity_);
  per_shard_capacity_ = (capacity_ + shards - 1) / shards;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) shards_.push_back(std::make_unique<Shard>());
}

SharedSelectivityStore::Shard& SharedSelectivityStore::ShardFor(uint64_t key) const {
  // Slot keys are already avalanche-mixed (query/signature.h), so the low
  // bits are uniformly distributed across shards.
  return *shards_[key % shards_.size()];
}

std::optional<double> SharedSelectivityStore::Lookup(uint64_t key,
                                                     uint64_t epoch) const {
  const Shard& shard = ShardFor(key);
  std::shared_lock<std::shared_mutex> lock(shard.mutex);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end() || it->second.epoch != epoch) return std::nullopt;
  return it->second.selectivity;
}

bool SharedSelectivityStore::Publish(uint64_t key, uint64_t epoch,
                                     double selectivity) {
  Shard& shard = ShardFor(key);
  {
    // Fast path for the warm steady state: requests re-publish the slots
    // they were seeded with, which are resident by definition — discover
    // the no-op under the shared side of the lock so publishers of known
    // keys never serialize.
    std::shared_lock<std::shared_mutex> lock(shard.mutex);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end() && it->second.epoch >= epoch) return false;
  }
  std::unique_lock<std::shared_mutex> lock(shard.mutex);
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    // First writer wins within an epoch, and epochs only move forward: a
    // stale-epoch entry is refreshed in place (keeping its FIFO position —
    // residency age, not value age), while a laggard publisher from an older
    // epoch must not clobber newer knowledge.
    if (it->second.epoch >= epoch) return false;
    it->second = Entry{epoch, selectivity};
    return true;
  }
  while (shard.entries.size() >= per_shard_capacity_ && !shard.fifo.empty()) {
    shard.entries.erase(shard.fifo.front());
    shard.fifo.pop_front();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  shard.entries.emplace(key, Entry{epoch, selectivity});
  shard.fifo.push_back(key);
  return true;
}

size_t SharedSelectivityStore::Size() const {
  size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mutex);
    total += shard->entries.size();
  }
  return total;
}

}  // namespace maliva
