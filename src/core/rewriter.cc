#include "core/rewriter.h"

#include <cassert>
#include <limits>

namespace maliva {

QteContext RewriterEnv::MakeContext(const Query& query) const {
  QteContext ctx;
  ctx.query = &query;
  ctx.options = options;
  ctx.engine = engine;
  ctx.oracle = oracle;
  ctx.tier = tier;
  ctx.params = qte_params;
  return ctx;
}

namespace {

RewriteOutcome OutcomeFromEnv(const RewriterEnv& renv, const QueryEnv& env,
                              const Query& query) {
  RewriteOutcome out;
  out.option_index = env.decided_option();
  out.planning_ms = env.elapsed_ms();
  out.exec_ms = env.decided_exec_ms();
  out.total_ms = out.planning_ms + out.exec_ms;
  out.viable = out.total_ms <= renv.env_config.tau_ms;
  out.steps = env.steps();
  const RewriteOption& option = (*renv.options)[out.option_index];
  out.approximate = option.IsApproximate();
  if (renv.env_config.quality != nullptr) {
    out.quality = renv.env_config.quality->Quality(query, option);
  }
  return out;
}

/// Copy of `renv` serving under `tau_ms` instead of its configured budget.
RewriterEnv WithBudget(const RewriterEnv& renv, double tau_ms) {
  RewriterEnv out = renv;
  out.env_config.tau_ms = tau_ms;
  return out;
}

}  // namespace

RewriteOutcome Rewriter::RewriteWithBudget(const Query& query, double tau_ms) const {
  RewriteSession session;
  return RewriteForSession(query, tau_ms, session);
}

namespace {

/// The one greedy episode loop every serving/evaluation path shares. When
/// `capture` is non-null, each observed MDP transition is also recorded into
/// the session for the online plane's replay sink — the reward is the
/// environment's, computed from the *actual* virtual planning/exec outcome,
/// so retraining learns from ground truth, not estimates. One loop by
/// design: action selection for serving and for captured feedback can never
/// diverge.
RewriteOutcome RunGreedyEpisodeOn(const RewriterEnv& renv, const QAgent& agent,
                                  const Query& query, QueryEnv& env,
                                  RewriteSession* capture) {
  // `state` is refreshed lazily: with capture on, each step's recorded
  // next_state doubles as the following step's state, so Features() runs
  // once per step either way.
  std::vector<double> state = env.Features();
  while (!env.terminal()) {
    size_t action = agent.GreedyAction(state, env.valid_actions());
    double reward = env.Step(action);
    if (capture != nullptr) {
      Experience exp;
      exp.state = std::move(state);
      exp.action = static_cast<int>(action);
      exp.reward = reward;
      exp.next_state = env.Features();
      exp.terminal = env.terminal();
      exp.next_valid = env.valid_actions();
      state = exp.next_state;
      capture->RecordTransition(std::move(exp));
    } else if (!env.terminal()) {
      state = env.Features();
    }
  }
  return OutcomeFromEnv(renv, env, query);
}

}  // namespace

RewriteOutcome RunGreedyEpisode(const RewriterEnv& renv, const QAgent& agent,
                                const Query& query) {
  QteContext ctx = renv.MakeContext(query);
  QueryEnv env(&ctx, renv.qte, renv.env_config);
  return RunGreedyEpisodeOn(renv, agent, query, env, nullptr);
}

RewriteOutcome RunGreedyEpisode(const RewriterEnv& renv, const QAgent& agent,
                                const Query& query, RewriteSession& session) {
  QteContext ctx = renv.MakeContext(query);
  QueryEnv env(&ctx, renv.qte, renv.env_config, &session.NewCache(ctx.NumSlots()));
  return RunGreedyEpisodeOn(renv, agent, query, env,
                            session.capture_transitions() ? &session : nullptr);
}

RewriteOutcome MalivaRewriter::RewriteForSession(const Query& query, double tau_ms,
                                                 RewriteSession& session) const {
  // The online plane substitutes its current published snapshot here; with
  // the plane off (or for frozen strategies) the construction-time agent
  // serves, byte-identical to pre-online behavior.
  const QAgent& agent =
      session.agent_override() != nullptr ? *session.agent_override() : *agent_;
  return RunGreedyEpisode(WithBudget(renv_, tau_ms), agent, query, session);
}

RewriteOutcome TwoStageRewriter::RewriteForSession(const Query& query, double tau,
                                                   RewriteSession& session) const {
  // Stage 1: exact (hint-only) options. The session cache is shared with
  // stage 2, which resumes the collected selectivities.
  RewriterEnv exact = WithBudget(exact_, tau);
  QteContext ctx1 = exact.MakeContext(query);
  SelectivityCache& cache = session.NewCache(ctx1.NumSlots());
  QueryEnv env1(&ctx1, exact.qte, exact.env_config, &cache);

  while (!env1.terminal()) {
    size_t action = exact_agent_->GreedyAction(env1.Features(), env1.valid_actions());
    env1.Step(action);
  }
  // Why did stage 1 terminate?
  bool exhausted = !env1.HasRemaining();
  bool out_of_time = env1.elapsed_ms() >= tau;
  bool found_viable = env1.elapsed_ms() + env1.decided_exec_ms() <= tau;

  if (found_viable || out_of_time || !exhausted) {
    RewriteOutcome out = OutcomeFromEnv(exact, env1, query);
    return out;
  }

  // Track stage 1's best known RQ as a fallback.
  size_t stage1_best = env1.decided_option();
  double stage1_best_est = env1.decided_exec_ms();

  // Stage 2: approximate options, resuming the elapsed budget and the
  // collected selectivities (same session cache).
  RewriterEnv approx = WithBudget(approx_, tau);
  QteContext ctx2 = approx.MakeContext(query);
  QueryEnv env2(&ctx2, approx.qte, approx.env_config, &cache, env1.elapsed_ms());
  while (!env2.terminal()) {
    size_t action = approx_agent_->GreedyAction(env2.Features(), env2.valid_actions());
    env2.Step(action);
  }

  RewriteOutcome out2 = OutcomeFromEnv(approx, env2, query);
  // If stage 2 also failed to find a viable RQ, fall back to whichever option
  // (stage 1 exact best vs stage 2 decision) is faster.
  if (!out2.viable && stage1_best_est < out2.exec_ms) {
    RewriteOutcome out;
    out.option_index = stage1_best;
    out.planning_ms = env2.elapsed_ms();
    out.exec_ms = stage1_best_est;
    out.total_ms = out.planning_ms + out.exec_ms;
    out.viable = out.total_ms <= tau;
    out.steps = env1.steps() + env2.steps();
    out.quality = 1.0;  // exact option
    out.approximate = false;
    return out;
  }
  out2.steps += env1.steps();
  return out2;
}

}  // namespace maliva
