// Offline training of the MDP agent (Algorithm 1).

#ifndef MALIVA_CORE_TRAINER_H_
#define MALIVA_CORE_TRAINER_H_

#include <memory>
#include <vector>

#include "core/agent.h"
#include "core/rewriter.h"
#include "ml/epsilon.h"
#include "ml/replay_buffer.h"

namespace maliva {

/// Hyper-parameters of deep Q-learning.
struct TrainerConfig {
  double learning_rate = 1e-3;
  size_t batch_size = 64;
  size_t replay_capacity = 50000;
  double gamma = 1.0;            ///< episodes are short; undiscounted
  size_t max_iterations = 40;    ///< passes over the workload
  double convergence_tol = 0.01; ///< stop when reward improves < 1%
  size_t patience = 3;           ///< consecutive non-improving iterations
  double eps_start = 1.0;
  double eps_end = 0.05;
  double eps_decay_steps = 1500;
  size_t target_sync_every = 64; ///< gradient updates between target syncs
  uint64_t seed = 1234;
};

/// Trains a Q-network agent for one workload + RO set + QTE combination.
class Trainer {
 public:
  struct IterationStats {
    double mean_reward = 0.0;   ///< greedy-policy mean terminal reward
    double greedy_vqp = 0.0;    ///< greedy-policy viable-query fraction
    size_t episodes = 0;
  };

  /// Greedy evaluation of `agent` over `workload` in `renv`: mean terminal
  /// reward and viable fraction. Shared by the offline trainer's convergence
  /// check and the online plane's validation gate (continual_trainer.cc).
  static IterationStats EvaluateGreedy(const RewriterEnv& renv, const QAgent& agent,
                                       const std::vector<const Query*>& workload);

  /// One DQN minibatch update (Algorithm 1, lines 19-21): Bellman targets
  /// maxed over each successor's still-valid actions on the target network,
  /// accumulated gradients, one Adam step. The ONE update rule — shared by
  /// offline training and the online plane's fine-tune rounds
  /// (continual_trainer.cc), so the two can never silently diverge. Target
  /// syncing stays with the caller (cadences differ). No-op on an empty
  /// batch. The batch runs through the networks as matrices (one target pass
  /// over the non-terminal successors, one online forward and backward over
  /// every sample) in buffers the agent keeps, bit-identical to the
  /// per-sample loop of TargetQValues and AccumulateGradient calls.
  static void MinibatchUpdate(QAgent* agent,
                              const std::vector<const Experience*>& batch,
                              double gamma, double learning_rate);

  Trainer(RewriterEnv renv, TrainerConfig config)
      : renv_(std::move(renv)), config_(config) {}

  /// Runs Algorithm 1 over `workload` until convergence or max iterations.
  std::unique_ptr<QAgent> Train(const std::vector<const Query*>& workload);

  const std::vector<IterationStats>& history() const { return history_; }

 private:
  /// Greedy evaluation of `agent` over the workload (convergence signal).
  IterationStats Evaluate(const QAgent& agent,
                          const std::vector<const Query*>& workload) const;

  RewriterEnv renv_;
  TrainerConfig config_;
  std::vector<IterationStats> history_;
};

}  // namespace maliva

#endif  // MALIVA_CORE_TRAINER_H_
