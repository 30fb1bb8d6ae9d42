// The MDP environment for query rewriting (Section 4.1).
//
// State  s = (E, C_1..C_n, T_1..T_n): elapsed planning time, predicted
//        estimation cost per rewritten query, estimated execution time per
//        explored rewritten query.
// Action a = explore RQ_a: ask the QTE to estimate its execution time.
// Transition: pay the actual estimation cost, record the estimate, refresh
//        the C_i of unexplored RQs (shared selectivities got cheaper).
// Termination: the last estimate looks viable (E + T_a <= tau), the budget is
//        spent (E >= tau), or every RQ was explored.
// Reward: 0 at intermediate steps; Eq (1)/(2) at termination against the
//        *actual* execution time of the decided rewritten query.

#ifndef MALIVA_CORE_QUERY_ENV_H_
#define MALIVA_CORE_QUERY_ENV_H_

#include <memory>
#include <optional>
#include <vector>

#include "qte/qte.h"
#include "quality/quality.h"

namespace maliva {

/// Environment parameters shared across queries of one experiment.
struct EnvConfig {
  double tau_ms = 500.0;  ///< time budget
  /// Weight of efficiency vs quality in the reward (Eq 2); 1.0 recovers the
  /// efficiency-only reward (Eq 1).
  double beta = 1.0;
  /// Required when beta < 1: supplies F(r(Q), r(RQ)).
  const QualityOracle* quality = nullptr;
  /// Per-decision overhead of the agent itself (NN inference), virtual ms.
  double agent_decision_ms = 0.5;
  /// Rewards below this value are clipped (very slow plans otherwise produce
  /// huge negative targets that destabilize the tiny Q-network).
  double reward_floor = -5.0;
};

/// One planning episode over a fixed query and RO set.
class QueryEnv {
 public:
  /// `ctx` must outlive the env. `initial_elapsed_ms` and a pre-seeded cache
  /// support the two-stage rewriter, whose second stage resumes mid-budget.
  /// The env owns its SelectivityCache (copied from `inherited_cache` when
  /// one is given).
  QueryEnv(const QteContext* ctx, const QueryTimeEstimator* qte,
           const EnvConfig& config, double initial_elapsed_ms = 0.0,
           const SelectivityCache* inherited_cache = nullptr);

  /// Serving-path variant: the episode's cache is owned by the caller (a
  /// RewriteSession), may already hold collected selectivities, and must have
  /// ctx->NumSlots() slots and outlive the env. Multi-stage rewriters pass
  /// the same session cache to every stage to resume collections.
  QueryEnv(const QteContext* ctx, const QueryTimeEstimator* qte,
           const EnvConfig& config, SelectivityCache* session_cache,
           double initial_elapsed_ms = 0.0);

  // Not copyable/movable: cache_ may point into owned_cache_, which a
  // defaulted copy would leave aliasing the source env.
  QueryEnv(const QueryEnv&) = delete;
  QueryEnv& operator=(const QueryEnv&) = delete;

  size_t num_actions() const { return ctx_->options->size(); }

  /// Normalized state features (E, C_1..C_n, T_1..T_n) / tau; dim 2n + 1.
  std::vector<double> Features() const;

  /// Actions (RQ indices) not yet explored.
  const std::vector<uint8_t>& valid_actions() const { return valid_; }
  bool HasRemaining() const;

  /// Explores RQ `action`. Returns the immediate reward (0 unless terminal).
  double Step(size_t action);

  bool terminal() const { return terminal_; }
  /// Index of the decided rewritten query (valid once terminal).
  size_t decided_option() const { return decided_; }
  /// Elapsed planning time so far (the s.E component).
  double elapsed_ms() const { return elapsed_ms_; }
  /// Actual execution time of the decided RQ (valid once terminal).
  double decided_exec_ms() const { return decided_exec_ms_; }
  /// Number of exploration steps taken.
  size_t steps() const { return steps_; }

 private:
  double TerminalReward(size_t decided);
  void InitOptionState();

  const QteContext* ctx_;
  const QueryTimeEstimator* qte_;
  EnvConfig config_;

  std::optional<SelectivityCache> owned_cache_;
  SelectivityCache* cache_;  // owned_cache_ or the caller's session cache
  double elapsed_ms_ = 0.0;
  std::vector<double> est_cost_;   // C_i
  std::vector<double> est_time_;   // T_i (0 until explored)
  std::vector<uint8_t> explored_;
  std::vector<uint8_t> valid_;
  bool terminal_ = false;
  size_t decided_ = 0;
  double decided_exec_ms_ = 0.0;
  size_t steps_ = 0;
};

}  // namespace maliva

#endif  // MALIVA_CORE_QUERY_ENV_H_
