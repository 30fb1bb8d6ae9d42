#include "core/trainer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "core/query_env.h"

namespace maliva {

Trainer::IterationStats Trainer::EvaluateGreedy(
    const RewriterEnv& renv, const QAgent& agent,
    const std::vector<const Query*>& workload) {
  IterationStats stats;
  double reward_sum = 0.0;
  size_t viable = 0;
  for (const Query* q : workload) {
    QteContext ctx = renv.MakeContext(*q);
    QueryEnv env(&ctx, renv.qte, renv.env_config);
    double reward = 0.0;
    while (!env.terminal()) {
      size_t action = agent.GreedyAction(env.Features(), env.valid_actions());
      reward = env.Step(action);
    }
    reward_sum += reward;
    if (env.elapsed_ms() + env.decided_exec_ms() <= renv.env_config.tau_ms) ++viable;
  }
  stats.episodes = workload.size();
  stats.mean_reward = workload.empty() ? 0.0
                                       : reward_sum / static_cast<double>(workload.size());
  stats.greedy_vqp =
      workload.empty() ? 0.0
                       : static_cast<double>(viable) / static_cast<double>(workload.size());
  return stats;
}

Trainer::IterationStats Trainer::Evaluate(
    const QAgent& agent, const std::vector<const Query*>& workload) const {
  return EvaluateGreedy(renv_, agent, workload);
}

void Trainer::MinibatchUpdate(QAgent* agent,
                              const std::vector<const Experience*>& batch,
                              double gamma, double learning_rate) {
  if (batch.empty()) return;
  Mlp* online = agent->online();
  const size_t n = batch.size();
  const size_t dim = online->input_dim();
  const size_t num_actions = online->output_dim();
  const size_t stride = BatchStride(dim);

  // Gather the batch into rows: every state, and the successors of the
  // non-terminal transitions (the only ones with a Bellman bootstrap).
  QAgent::UpdateScratch& u = *agent->update_scratch();
  u.states.resize(n * stride);
  u.next_states.resize(n * stride);
  u.actions.resize(n);
  u.targets.resize(n);
  u.live.clear();
  for (size_t s = 0; s < n; ++s) {
    const Experience& e = *batch[s];
    assert(e.state.size() == dim);
    std::copy(e.state.begin(), e.state.end(), &u.states[s * stride]);
    u.actions[s] = e.action;
    u.targets[s] = e.reward;
    if (e.terminal) continue;
    assert(e.next_state.size() == dim && e.next_valid.size() == num_actions);
    std::copy(e.next_state.begin(), e.next_state.end(),
              &u.next_states[u.live.size() * stride]);
    u.live.push_back(static_cast<uint32_t>(s));
  }

  // Bellman targets: one target-network pass over the live successors, each
  // maxed over its still-valid actions.
  const double* tq = agent->target().ForwardBatch(u.next_states.data(), u.live.size(),
                                                  &u.target_ws);
  for (size_t j = 0; j < u.live.size(); ++j) {
    const Experience& e = *batch[u.live[j]];
    const double* row = tq + j * BatchStride(num_actions);
    double best = -std::numeric_limits<double>::infinity();
    bool any = false;
    for (size_t i = 0; i < num_actions; ++i) {
      if (e.next_valid[i]) {
        best = std::max(best, row[i]);
        any = true;
      }
    }
    if (any) u.targets[u.live[j]] += gamma * best;
  }

  online->AccumulateBatch(u.states.data(), n, u.actions.data(), u.targets.data(), nullptr);
  online->Step(learning_rate, n);
}

std::unique_ptr<QAgent> Trainer::Train(const std::vector<const Query*>& workload) {
  assert(renv_.options != nullptr && !renv_.options->empty());
  size_t n = renv_.options->size();
  auto agent = std::make_unique<QAgent>(n, config_.seed);
  ReplayBuffer replay(config_.replay_capacity);
  EpsilonSchedule eps(config_.eps_start, config_.eps_end, config_.eps_decay_steps);
  Rng rng(config_.seed ^ 0xabcdef1234567890ULL);

  history_.clear();
  int64_t global_step = 0;
  size_t updates = 0;
  double best_reward = -std::numeric_limits<double>::infinity();
  size_t stale = 0;

  std::vector<const Query*> order(workload);

  for (size_t iter = 0; iter < config_.max_iterations; ++iter) {
    rng.Shuffle(&order);

    for (const Query* q : order) {
      QteContext ctx = renv_.MakeContext(*q);
      QueryEnv env(&ctx, renv_.qte, renv_.env_config);

      while (!env.terminal()) {
        std::vector<double> state = env.Features();
        std::vector<uint8_t> valid = env.valid_actions();
        size_t action = agent->EpsilonGreedyAction(
            state, valid, eps.ValueAt(global_step), &rng);
        ++global_step;
        double reward = env.Step(action);

        Experience exp;
        exp.state = std::move(state);
        exp.action = static_cast<int>(action);
        exp.next_state = env.Features();
        exp.reward = reward;
        exp.terminal = env.terminal();
        exp.next_valid = env.valid_actions();
        replay.Add(std::move(exp));
      }

      // One replay update per processed query (Algorithm 1, line 21).
      if (replay.size() >= config_.batch_size) {
        MinibatchUpdate(agent.get(), replay.Sample(config_.batch_size, &rng),
                        config_.gamma, config_.learning_rate);
        ++updates;
        if (updates % config_.target_sync_every == 0) agent->SyncTarget();
      }
    }

    IterationStats stats = Evaluate(*agent, workload);
    history_.push_back(stats);

    // Convergence: total accumulated reward stops improving by > tol.
    double improvement = stats.mean_reward - best_reward;
    double threshold = config_.convergence_tol * std::max(1.0, std::abs(best_reward));
    if (improvement > threshold) {
      best_reward = stats.mean_reward;
      stale = 0;
    } else if (++stale >= config_.patience) {
      break;
    }
  }
  agent->SyncTarget();
  return agent;
}

}  // namespace maliva
