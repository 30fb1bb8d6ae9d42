// Online query rewriting with a trained agent (Algorithm 2) and the
// quality-aware one-stage / two-stage rewriters (Section 6.2).
//
// Every rewriting strategy — the paper's MDP approaches and the comparator
// baselines alike — implements the polymorphic `Rewriter` interface, so the
// serving layer (src/service/) can select strategies by configuration name
// instead of bespoke constructors.

#ifndef MALIVA_CORE_REWRITER_H_
#define MALIVA_CORE_REWRITER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/agent.h"
#include "core/query_env.h"
#include "core/rewrite_session.h"
#include "qte/qte_params.h"

namespace maliva {

/// Outcome of rewriting (and notionally executing) one query.
struct RewriteOutcome {
  size_t option_index = 0;   ///< chosen RQ within the rewriter's option set
  double planning_ms = 0.0;  ///< middleware planning time (s.E at decision)
  double exec_ms = 0.0;      ///< actual execution time of the chosen RQ
  double total_ms = 0.0;     ///< planning + execution
  bool viable = false;       ///< total <= tau
  size_t steps = 0;          ///< QTE invocations made
  double quality = 1.0;      ///< F(r(Q), r(RQ)); 1 for exact rewrites
  bool approximate = false;  ///< chosen option used an approximation rule
};

/// Shared plumbing for rewriters: builds per-query QTE contexts. Everything
/// reachable from an env is immutable during serving (the QTE is stateless,
/// the oracles memoize behind their own locks), so one env is safely shared
/// by concurrent requests.
struct RewriterEnv {
  const Engine* engine = nullptr;
  const PlanTimeOracle* oracle = nullptr;
  const RewriteOptionSet* options = nullptr;
  const QueryTimeEstimator* qte = nullptr;
  /// Histogram selectivity tier (rung 2 of the ladder); nullptr while
  /// ServiceConfig::histogram_selectivity is off. Internally synchronized,
  /// shared by every env the service builds.
  const SelectivityTier* tier = nullptr;
  QteParams qte_params;
  EnvConfig env_config;

  QteContext MakeContext(const Query& query) const;
};

/// Abstract rewriting strategy: accepts a visualization query and returns the
/// chosen rewritten query plus its time/quality accounting.
///
/// `Rewrite` serves under the budget the strategy was configured (and its
/// agents trained) with; `RewriteWithBudget` overrides the budget for one
/// request — used by MalivaService to honor per-request tau. Agents are not
/// retrained for the override; the paper's Section 7.6 shows trained agents
/// generalize across budgets.
///
/// Statelessness contract: implementations hold only state that is immutable
/// after construction. All per-request mutable state (episode selectivity
/// caches, fallback accounting) comes from the RewriteSession passed to
/// `RewriteForSession` — this is what lets MalivaService share one rewriter
/// instance across serving threads. A decision is a function of the request
/// alone: the session carries no random stream, so a stochastic strategy
/// must seed itself from the query to stay reproducible.
class Rewriter {
 public:
  virtual ~Rewriter() = default;

  virtual const std::string& name() const = 0;

  /// The time budget (virtual ms) the strategy was configured with.
  virtual double default_tau_ms() const = 0;

  /// Rewrites `query` under the configured default budget.
  RewriteOutcome Rewrite(const Query& query) const {
    return RewriteWithBudget(query, default_tau_ms());
  }

  /// Rewrites `query` under an explicit time budget `tau_ms` in a throwaway
  /// session (convenience for harnesses and tests; the serving path passes
  /// its own per-request session).
  RewriteOutcome RewriteWithBudget(const Query& query, double tau_ms) const;

  /// Rewrites `query` under `tau_ms`, drawing all mutable episode state
  /// (selectivity caches, randomness) from `session`.
  virtual RewriteOutcome RewriteForSession(const Query& query, double tau_ms,
                                           RewriteSession& session) const = 0;

  /// The rewrite option `outcome` decided on, or nullptr when the strategy
  /// delegated planning entirely to the backend optimizer (no hints). Needed
  /// because an outcome's option_index is relative to the strategy's own
  /// option set (the two-stage rewriter uses two different sets).
  virtual const RewriteOption* DecidedOption(const RewriteOutcome& outcome) const {
    (void)outcome;
    return nullptr;
  }
};

/// Runs one greedy planning episode with `agent`; shared by the online
/// rewriter and the trainer's convergence evaluation. The episode's
/// selectivity cache is env-owned.
RewriteOutcome RunGreedyEpisode(const RewriterEnv& renv, const QAgent& agent,
                                const Query& query);

/// Session variant: the episode's selectivity cache is allocated from (and
/// owned by) `session`.
RewriteOutcome RunGreedyEpisode(const RewriterEnv& renv, const QAgent& agent,
                                const Query& query, RewriteSession& session);

/// Maliva's MDP-based online rewriter (Algorithm 2).
class MalivaRewriter : public Rewriter {
 public:
  MalivaRewriter(RewriterEnv renv, const QAgent* agent, std::string name)
      : renv_(std::move(renv)), agent_(agent), name_(std::move(name)) {}

  const std::string& name() const override { return name_; }
  double default_tau_ms() const override { return renv_.env_config.tau_ms; }
  const RewriterEnv& renv() const { return renv_; }
  /// The construction-time agent (the one served with the online plane off).
  const QAgent& agent() const { return *agent_; }

  RewriteOutcome RewriteForSession(const Query& query, double tau_ms,
                                   RewriteSession& session) const override;

  const RewriteOption* DecidedOption(const RewriteOutcome& outcome) const override {
    return &(*renv_.options)[outcome.option_index];
  }

 private:
  RewriterEnv renv_;
  const QAgent* agent_;
  std::string name_;
};

/// Two-stage quality-aware rewriter (Fig 11): run the hint-only agent first;
/// if it exhausts all exact RQs without finding a viable one and budget
/// remains, hand over to the quality-aware agent on the approximate options,
/// carrying over elapsed time and collected selectivities.
class TwoStageRewriter : public Rewriter {
 public:
  /// `exact` covers hint-only options, `approx` the hint x approximation
  /// combinations (exclusive of exact options).
  TwoStageRewriter(RewriterEnv exact, const QAgent* exact_agent, RewriterEnv approx,
                   const QAgent* approx_agent, std::string name)
      : exact_(std::move(exact)),
        exact_agent_(exact_agent),
        approx_(std::move(approx)),
        approx_agent_(approx_agent),
        name_(std::move(name)) {}

  const std::string& name() const override { return name_; }
  double default_tau_ms() const override { return exact_.env_config.tau_ms; }
  /// The second stage's env and agent (the first stage's are "mdp/accurate"'s).
  const RewriterEnv& approx_renv() const { return approx_; }
  const QAgent& approx_agent() const { return *approx_agent_; }

  RewriteOutcome RewriteForSession(const Query& query, double tau_ms,
                                   RewriteSession& session) const override;

  const RewriteOption* DecidedOption(const RewriteOutcome& outcome) const override {
    const RewriterEnv& env = outcome.approximate ? approx_ : exact_;
    return &(*env.options)[outcome.option_index];
  }

 private:
  RewriterEnv exact_;
  const QAgent* exact_agent_;
  RewriterEnv approx_;
  const QAgent* approx_agent_;
  std::string name_;
};

}  // namespace maliva

#endif  // MALIVA_CORE_REWRITER_H_
