// SharedSelectivityStore tests: read/publish semantics, epoch invalidation,
// FIFO eviction, and a multi-thread publish/read-through/epoch-bump stress
// run.

#include "qte/shared_selectivity_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace maliva {
namespace {

TEST(SharedStoreConcurrencyTest, PublishThenLookupRoundTrips) {
  SharedSelectivityStore store({/*capacity=*/64, /*shards=*/4});
  EXPECT_FALSE(store.Lookup(42, /*epoch=*/1).has_value());
  EXPECT_TRUE(store.Publish(42, 1, 0.25));
  ASSERT_TRUE(store.Lookup(42, 1).has_value());
  EXPECT_DOUBLE_EQ(*store.Lookup(42, 1), 0.25);
  EXPECT_EQ(store.Size(), 1u);
}

TEST(SharedStoreConcurrencyTest, FirstWriterWinsWithinAnEpoch) {
  SharedSelectivityStore store({64, 4});
  EXPECT_TRUE(store.Publish(7, 1, 0.5));
  EXPECT_FALSE(store.Publish(7, 1, 0.9));  // no new knowledge
  EXPECT_DOUBLE_EQ(*store.Lookup(7, 1), 0.5);
}

TEST(SharedStoreConcurrencyTest, EpochMismatchReadsAsMiss) {
  SharedSelectivityStore store({64, 4});
  store.Publish(7, 1, 0.5);
  EXPECT_FALSE(store.Lookup(7, 2).has_value());  // stats refreshed
  EXPECT_FALSE(store.Lookup(7, 0).has_value());
  EXPECT_TRUE(store.Lookup(7, 1).has_value());
}

TEST(SharedStoreConcurrencyTest, StaleEpochEntriesAreRefreshedInPlace) {
  SharedSelectivityStore store({64, 4});
  store.Publish(7, 1, 0.5);
  EXPECT_TRUE(store.Publish(7, 2, 0.8));  // new knowledge under the new epoch
  EXPECT_FALSE(store.Lookup(7, 1).has_value());
  EXPECT_DOUBLE_EQ(*store.Lookup(7, 2), 0.8);
  EXPECT_EQ(store.Size(), 1u);  // replaced, not accumulated
}

TEST(SharedStoreConcurrencyTest, FifoEvictionAtCapacity) {
  SharedSelectivityStore store({/*capacity=*/4, /*shards=*/1});
  for (uint64_t key = 0; key < 4; ++key) store.Publish(key, 1, 0.1);
  EXPECT_EQ(store.Size(), 4u);
  EXPECT_EQ(store.Evictions(), 0u);

  store.Publish(100, 1, 0.9);  // evicts the oldest resident (key 0)
  EXPECT_EQ(store.Size(), 4u);
  EXPECT_EQ(store.Evictions(), 1u);
  EXPECT_FALSE(store.Lookup(0, 1).has_value());
  EXPECT_TRUE(store.Lookup(100, 1).has_value());
  EXPECT_TRUE(store.Lookup(3, 1).has_value());
}

TEST(SharedStoreConcurrencyTest, ShardCountIsCappedAtCapacity) {
  SharedSelectivityStore store({/*capacity=*/2, /*shards=*/64});
  EXPECT_EQ(store.num_shards(), 2u);
  EXPECT_EQ(store.capacity(), 2u);
}

// Multi-thread stress: publishers and read-through readers over a shared key
// space, with an epoch bump (stats refresh) midway. The deterministic value
// function makes every hit checkable: under first-writer-wins, a lookup
// under epoch e can only ever observe Value(key, e). Run under TSan and ASan
// by scripts/ci.sh.
TEST(SharedStoreConcurrencyTest, StressPublishReadThroughEpochInvalidation) {
  constexpr size_t kThreads = 8;
  constexpr size_t kKeys = 512;
  constexpr size_t kRounds = 400;

  // Capacity below the key-space size so FIFO eviction churns concurrently
  // with reads and publishes.
  SharedSelectivityStore store({/*capacity=*/256, /*shards=*/8});
  std::atomic<uint64_t> epoch{1};

  auto value = [](uint64_t key, uint64_t e) {
    return static_cast<double>(key % 97 + e) / 100.0;
  };

  std::atomic<size_t> hits{0};
  std::atomic<size_t> misses{0};
  std::atomic<bool> corrupt{false};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t round = 0; round < kRounds; ++round) {
        // One thread bumps the epoch midway: everything published before
        // must read as a miss afterwards.
        if (t == 0 && round == kRounds / 2) epoch.fetch_add(1);
        // Even threads publish, odd threads read through; all walk the same
        // scrambled key sequence so readers chase the publishers' keys.
        for (size_t i = 0; i < kKeys; ++i) {
          uint64_t key = (i * 2654435761u) % kKeys;
          uint64_t e = epoch.load();
          if (t % 2 == 0) {
            store.Publish(key, e, value(key, e));
          } else {
            std::optional<double> got = store.Lookup(key, e);
            if (!got.has_value()) {
              misses.fetch_add(1);
            } else if (*got != value(key, e)) {
              corrupt.store(true);
            } else {
              hits.fetch_add(1);
            }
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_FALSE(corrupt.load()) << "a lookup observed a value from the wrong epoch";
  EXPECT_GT(hits.load(), 0u);
  EXPECT_LE(store.Size(), store.capacity());
  EXPECT_GT(store.Evictions(), 0u);

  // Quiescent check: the final epoch's entries are intact, older epochs are
  // invisible.
  uint64_t final_epoch = epoch.load();
  size_t resident = 0;
  for (uint64_t key = 0; key < kKeys; ++key) {
    std::optional<double> got = store.Lookup(key, final_epoch);
    if (!got.has_value()) continue;
    ++resident;
    EXPECT_DOUBLE_EQ(*got, value(key, final_epoch));
    EXPECT_FALSE(store.Lookup(key, final_epoch + 1).has_value());
  }
  EXPECT_GT(resident, 0u);
}

}  // namespace
}  // namespace maliva
