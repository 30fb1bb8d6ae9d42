// Trainer::MinibatchUpdate against a per-sample reference: the update rule
// must produce the same bits however the batch is pushed through the network.
//
// The reference below is the per-sample loop the update rule is defined by:
// one target-network forward per non-terminal successor, one accumulate per
// sample in batch order, one Adam step. Every weight and bias of the online
// network, and the target network's outputs, must match it bit for bit after
// every one of 50 updates.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/agent.h"
#include "core/trainer.h"
#include "ml/replay_buffer.h"
#include "util/rng.h"

namespace maliva {
namespace {

void ReferenceUpdate(QAgent* agent, const std::vector<const Experience*>& batch,
                     double gamma, double learning_rate) {
  if (batch.empty()) return;
  for (const Experience* e : batch) {
    double target = e->reward;
    if (!e->terminal) {
      std::vector<double> tq = agent->TargetQValues(e->next_state);
      double best = -std::numeric_limits<double>::infinity();
      bool any = false;
      for (size_t i = 0; i < tq.size(); ++i) {
        if (e->next_valid[i]) {
          best = std::max(best, tq[i]);
          any = true;
        }
      }
      if (any) target += gamma * best;
    }
    agent->online()->AccumulateGradient(e->state, e->action, target);
  }
  agent->online()->Step(learning_rate, batch.size());
}

/// A state vector for an agent with `n` actions. Every fifth is all zeros and
/// every seventh is scaled far negative, so whole hidden rows of the first
/// layer sit at or below zero (dead ReLUs) and their gradients vanish.
std::vector<double> RandomState(size_t n, Rng* rng, size_t i) {
  std::vector<double> s(2 * n + 1);
  if (i % 5 == 4) return s;
  const double scale = i % 7 == 6 ? -25.0 : 1.0;
  for (double& v : s) v = scale * rng->Uniform(0.0, 1.0) + rng->Uniform(-0.5, 0.5);
  return s;
}

/// A seeded pool of transitions: terminal and non-terminal, with successors
/// whose valid actions are all, some, or none of the agent's.
std::vector<Experience> MakePool(size_t n, uint64_t seed, size_t count) {
  Rng rng(seed);
  std::vector<Experience> pool(count);
  for (size_t i = 0; i < count; ++i) {
    Experience& e = pool[i];
    e.state = RandomState(n, &rng, i);
    e.action = static_cast<int>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
    e.next_state = RandomState(n, &rng, i + 3);
    e.reward = rng.Uniform(-3.0, 1.0);
    e.terminal = rng.Bernoulli(0.3);
    e.next_valid.assign(n, 1);
    switch (i % 4) {
      case 0:
        break;  // every action still valid
      case 1:
        for (uint8_t& v : e.next_valid) v = rng.Bernoulli(0.5) ? 1 : 0;
        break;
      case 2:
        std::fill(e.next_valid.begin(), e.next_valid.end(), 0);  // none left
        break;
      default:
        std::fill(e.next_valid.begin(), e.next_valid.end(), 0);
        e.next_valid[i % n] = 1;  // exactly one left
        break;
    }
  }
  return pool;
}

void ExpectSameBits(const std::vector<double>& a, const std::vector<double>& b,
                    const char* what, int update) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(a[i]), std::bit_cast<uint64_t>(b[i]))
        << what << "[" << i << "] after update " << update << ": " << a[i]
        << " vs " << b[i];
  }
}

void RunAgainstReference(size_t num_actions, uint64_t seed) {
  QAgent batched(num_actions, seed);
  QAgent reference(num_actions, seed);
  std::vector<Experience> pool = MakePool(num_actions, seed * 31 + 7, 300);
  Rng pick(seed + 99);
  const std::vector<double> probe = RandomState(num_actions, &pick, 0);
  const size_t kBatchSizes[] = {1, 3, 63, 64};
  for (int update = 0; update < 50; ++update) {
    const size_t k = kBatchSizes[static_cast<size_t>(update) % 4];
    std::vector<const Experience*> batch;
    for (size_t i : pick.SampleWithoutReplacement(pool.size(), k)) {
      batch.push_back(&pool[i]);
    }
    const double gamma = update % 3 == 0 ? 1.0 : 0.9;
    Trainer::MinibatchUpdate(&batched, batch, gamma, 1e-2);
    ReferenceUpdate(&reference, batch, gamma, 1e-2);
    if (update % 7 == 6) {
      batched.SyncTarget();
      reference.SyncTarget();
    }
    const std::vector<LinearLayer>& got = batched.online()->layers();
    const std::vector<LinearLayer>& want = reference.online()->layers();
    ASSERT_EQ(got.size(), want.size());
    for (size_t l = 0; l < got.size(); ++l) {
      ExpectSameBits(got[l].weights(), want[l].weights(), "weights", update);
      ExpectSameBits(got[l].bias(), want[l].bias(), "bias", update);
    }
    ExpectSameBits(batched.TargetQValues(probe), reference.TargetQValues(probe),
                   "target q", update);
  }
}

TEST(MinibatchUpdateTest, EightActionsMatchPerSampleReference) {
  RunAgainstReference(8, 11);
}

TEST(MinibatchUpdateTest, SixteenActionsMatchPerSampleReference) {
  RunAgainstReference(16, 12);
}

TEST(MinibatchUpdateTest, EmptyBatchIsNoOp) {
  QAgent agent(4, 3);
  std::vector<double> f(9, 0.5);
  const std::vector<double> before = agent.QValues(f);
  Trainer::MinibatchUpdate(&agent, {}, 1.0, 1e-2);
  ExpectSameBits(agent.QValues(f), before, "q", 0);
}

}  // namespace
}  // namespace maliva
