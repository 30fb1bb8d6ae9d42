#include "service/rewrite_result_cache.h"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <mutex>
#include <utility>

namespace maliva {

/// One in-flight single-flight slot. The flight carries its own mutex/cv —
/// separate from the shard lock — so followers blocking on a slow leader
/// never hold (or wait for) the shard, and probes on other keys stay O(1)
/// while a search is in flight. The leader resolves the flight exactly once
/// (Publish or Abort); `done` never goes back to false. The shard's flights
/// map drops its reference at resolution; waiters keep the slot alive
/// through the shared_ptr in their tickets.
struct RewriteResultCache::Flight {
  uint64_t epoch = 0;
  uint64_t snapshot = 0;
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  /// Valid iff done && ok: the leader's published value.
  bool ok = false;
  CachedRewrite value;
};

RewriteResultCache::Counters RewriteResultCache::CountersIn(
    MetricsRegistry* registry) {
  Counters c;
  c.hits = registry->GetCounter("maliva_result_cache_total", {{"outcome", "hit"}});
  c.misses = registry->GetCounter("maliva_result_cache_total", {{"outcome", "miss"}});
  c.coalesced =
      registry->GetCounter("maliva_result_cache_total", {{"outcome", "coalesced"}});
  c.evictions = registry->GetCounter("maliva_result_cache_evictions_total");
  c.stale_declines = registry->GetCounter("maliva_result_cache_stale_declines_total");
  return c;
}

RewriteResultCache::RewriteResultCache(const Config& config, Counters counters)
    : capacity_(std::max<size_t>(1, config.capacity)), counters_(counters) {
  size_t shards = std::clamp<size_t>(config.shards, 1, capacity_);
  per_shard_capacity_ = (capacity_ + shards - 1) / shards;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

RewriteResultCache::~RewriteResultCache() = default;

RewriteResultCache::Shard& RewriteResultCache::ShardFor(uint64_t key) const {
  // splitmix64 finalizer over the key: fingerprints are already avalanched,
  // but re-mixing keeps the shard choice independent of any bit the map's
  // own hash favors.
  uint64_t z = key + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return *shards_[z % shards_.size()];
}

RewriteResultCache::Ticket RewriteResultCache::Begin(uint64_t key,
                                                     uint64_t epoch,
                                                     uint64_t snapshot) {
  Shard& shard = ShardFor(key);
  Ticket ticket;
  std::unique_lock<std::shared_mutex> lock(shard.mutex);

  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    if (it->second.epoch == epoch && it->second.snapshot == snapshot) {
      it->second.referenced = true;
      counters_.hits->Increment();
      ticket.role = Role::kHit;
      ticket.value = it->second.value;
      return ticket;
    }
    // Fingerprint match from a superseded context: never trusted. The entry
    // stays resident (replaced in place when this context's result
    // publishes), so cross-epoch churn cannot grow the map.
    counters_.stale_declines->Increment();
  }

  counters_.misses->Increment();
  auto flight_it = shard.flights.find(key);
  if (flight_it != shard.flights.end()) {
    if (flight_it->second->epoch == epoch &&
        flight_it->second->snapshot == snapshot) {
      ticket.role = Role::kFollower;
      ticket.flight = flight_it->second;
    } else {
      // A leader is searching this key under a different context; its answer
      // would be exactly what the entry check above declined. Compute solo.
      ticket.role = Role::kSolo;
    }
    return ticket;
  }

  auto flight = std::make_shared<Flight>();
  flight->epoch = epoch;
  flight->snapshot = snapshot;
  shard.flights.emplace(key, flight);
  ticket.role = Role::kLeader;
  ticket.flight = std::move(flight);
  return ticket;
}

std::optional<CachedRewrite> RewriteResultCache::Probe(uint64_t key,
                                                       uint64_t epoch,
                                                       uint64_t snapshot) {
  Shard& shard = ShardFor(key);
  std::unique_lock<std::shared_mutex> lock(shard.mutex);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end() || it->second.epoch != epoch ||
      it->second.snapshot != snapshot) {
    return std::nullopt;  // not counted: the serve path's Begin() will be
  }
  it->second.referenced = true;
  counters_.hits->Increment();
  return it->second.value;
}

void RewriteResultCache::InsertLocked(Shard& shard, uint64_t key,
                                      uint64_t epoch, uint64_t snapshot,
                                      CachedRewrite value) {
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    // Resident under the same context: first writer wins (racing publishers
    // computed the same bytes, keeping the kept value unobservable). A stale
    // resident is replaced in place — its ring slot carries over, so the
    // CLOCK ring never holds dangling keys.
    if (it->second.epoch == epoch && it->second.snapshot == snapshot) return;
    it->second.epoch = epoch;
    it->second.snapshot = snapshot;
    it->second.value = std::move(value);
    it->second.referenced = false;
    return;
  }

  if (shard.entries.size() >= per_shard_capacity_) {
    // CLOCK/second-chance: sweep the ring from the hand, clearing reference
    // bits until an unreferenced victim turns up; its slot hosts the new
    // key. Bounded: after one full lap every bit is clear.
    assert(!shard.ring.empty());
    for (;;) {
      shard.hand = (shard.hand + 1) % shard.ring.size();
      auto victim = shard.entries.find(shard.ring[shard.hand]);
      assert(victim != shard.entries.end());
      if (victim->second.referenced) {
        victim->second.referenced = false;
        continue;
      }
      shard.entries.erase(victim);
      counters_.evictions->Increment();
      shard.ring[shard.hand] = key;
      break;
    }
  } else {
    shard.ring.push_back(key);
  }
  Entry entry;
  entry.epoch = epoch;
  entry.snapshot = snapshot;
  entry.value = std::move(value);
  shard.entries.emplace(key, std::move(entry));
}

void RewriteResultCache::Publish(const Ticket& ticket, uint64_t key,
                                 uint64_t epoch, uint64_t snapshot,
                                 CachedRewrite value) {
  Shard& shard = ShardFor(key);
  {
    std::unique_lock<std::shared_mutex> lock(shard.mutex);
    InsertLocked(shard, key, epoch, snapshot, value);
    if (ticket.flight != nullptr && ticket.role == Role::kLeader) {
      // Deregister first, under the shard lock: once the slot is out of the
      // map no new follower can enroll, so resolving it below races nobody.
      // Existing waiters hold the slot via their tickets.
      auto it = shard.flights.find(key);
      if (it != shard.flights.end() && it->second == ticket.flight) {
        shard.flights.erase(it);
      }
    }
  }
  if (ticket.flight != nullptr && ticket.role == Role::kLeader) {
    std::lock_guard<std::mutex> lock(ticket.flight->mutex);
    ticket.flight->done = true;
    ticket.flight->ok = true;
    ticket.flight->value = std::move(value);
    ticket.flight->cv.notify_all();
  }
}

void RewriteResultCache::Abort(const Ticket& ticket, uint64_t key) {
  if (ticket.flight == nullptr || ticket.role != Role::kLeader) return;
  Shard& shard = ShardFor(key);
  {
    std::unique_lock<std::shared_mutex> lock(shard.mutex);
    // Erase only our own flight: a successor leader may have re-opened the
    // key after an earlier abort, and its slot must survive ours.
    auto it = shard.flights.find(key);
    if (it != shard.flights.end() && it->second == ticket.flight) {
      shard.flights.erase(it);
    }
  }
  std::lock_guard<std::mutex> lock(ticket.flight->mutex);
  ticket.flight->done = true;
  ticket.flight->ok = false;
  ticket.flight->cv.notify_all();
}

std::optional<CachedRewrite> RewriteResultCache::WaitForLeader(
    const Ticket& ticket) {
  assert(ticket.role == Role::kFollower && ticket.flight != nullptr);
  Flight& flight = *ticket.flight;
  std::unique_lock<std::mutex> lock(flight.mutex);
  flight.cv.wait(lock, [&flight] { return flight.done; });
  if (!flight.ok) return std::nullopt;  // leader aborted: compute solo
  counters_.coalesced->Increment();
  return flight.value;
}

size_t RewriteResultCache::Size() const {
  size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mutex);
    total += shard->entries.size();
  }
  return total;
}

}  // namespace maliva
