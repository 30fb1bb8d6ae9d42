// The Q-network agent (paper Fig 8).

#ifndef MALIVA_CORE_AGENT_H_
#define MALIVA_CORE_AGENT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "ml/mlp.h"
#include "util/rng.h"

namespace maliva {

/// Deep Q-network over MDP states: input (E, C_1..C_n, T_1..T_n), two ReLU
/// hidden layers sized like the input, linear output with one Q-value per RQ.
class QAgent {
 public:
  /// `num_actions` = |Omega|; the input dim is 2 * num_actions + 1.
  QAgent(size_t num_actions, uint64_t seed);

  /// Builds an agent around copies of the given networks (Clone's path).
  QAgent(size_t num_actions, const Mlp& online, const Mlp& target);

  /// Deep copy — networks and optimizer state — so a fine-tune can train a
  /// clone while the original keeps serving.
  std::unique_ptr<QAgent> Clone() const;

  size_t num_actions() const { return num_actions_; }

  /// Q-values for every action in the given state.
  std::vector<double> QValues(const std::vector<double>& features) const;

  /// argmax over valid actions (valid[i] != 0). Requires one valid action.
  size_t GreedyAction(const std::vector<double>& features,
                      const std::vector<uint8_t>& valid) const;

  /// Epsilon-greedy: random valid action with probability epsilon.
  size_t EpsilonGreedyAction(const std::vector<double>& features,
                             const std::vector<uint8_t>& valid, double epsilon,
                             Rng* rng) const;

  /// Target-network Q-values (for Bellman targets).
  std::vector<double> TargetQValues(const std::vector<double>& features) const;

  /// Copies online weights into the target network.
  void SyncTarget();

  Mlp* online() { return online_.get(); }
  const Mlp& target() const { return *target_; }

  /// Buffers Trainer::MinibatchUpdate reuses from one update to the next; a
  /// Clone starts with its own, empty.
  struct UpdateScratch {
    std::vector<double> states;       ///< batch rows (ml/mlp.h), row s = sample s
    std::vector<double> next_states;  ///< one row per non-terminal successor
    std::vector<uint32_t> live;       ///< batch index of each such successor
    std::vector<int> actions;
    std::vector<double> targets;
    MlpWorkspace target_ws;
  };
  UpdateScratch* update_scratch() { return &scratch_; }

 private:
  size_t num_actions_;
  std::unique_ptr<Mlp> online_;
  std::unique_ptr<Mlp> target_;
  UpdateScratch scratch_;
};

}  // namespace maliva

#endif  // MALIVA_CORE_AGENT_H_
