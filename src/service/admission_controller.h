// Admission control for the fleet's overload control plane (DESIGN.md
// "Overload control plane").
//
// The paper's contract is "return a rewritten query within the time budget
// tau" — so under overload the worst spend is a full MDP rewrite for a
// request whose deadline is already blown, starving requests that could
// still make theirs. The AdmissionController is the gate in front of the
// DeadlineScheduler: every request gets an absolute deadline derived from
// its arrival time and effective tau (scaled by a configurable slack
// factor — tau is a *virtual* budget, the slack factor maps the fraction of
// it the middleware may spend on wall-clock rewriting), and the gate decides
// per request, from the current queue depth and an EWMA of observed serve
// times:
//
//   kAdmit         — predicted completion makes the deadline; serve as asked
//   kDegrade       — the full strategy would miss, a cheap configured
//                    strategy (e.g. "baseline") may still make it
//   kShedDeadline  — cannot make the deadline at all (DeadlineExceeded)
//   kShedOverload  — the scheduler queue is at capacity (ResourceExhausted)
//
// Decide() is a pure function of its explicit inputs (now, deadline, queue
// depth, workers) — no hidden wall-clock reads — so replayable tests and
// trace-driven benches exercise every path deterministically.

#ifndef MALIVA_SERVICE_ADMISSION_CONTROLLER_H_
#define MALIVA_SERVICE_ADMISSION_CONTROLLER_H_

#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace maliva {

/// Weighted-fair share of one scenario in the DeadlineScheduler: `weight`
/// sets the scenario's fraction of dispatch slots relative to other lanes
/// (a weight-2 lane drains twice as fast as a weight-1 lane under
/// contention), `tier` is a strict priority level — higher tiers are always
/// dispatched first, weights apply within a tier.
struct ScenarioShare {
  std::string scenario;
  double weight = 1.0;  ///< must be finite and > 0
  int tier = 0;
};

/// Knobs of the overload control plane, embedded in FleetConfig::admission
/// and checked by FleetConfig::Validate(). Off (the default) preserves the
/// fleet's byte-identical-at-any-thread-count serving contract exactly — no
/// scheduler, no gate, no new failure modes.
struct AdmissionConfig {
  /// Master switch for the plane (gate + EDF scheduler).
  bool enabled = false;
  /// Deadline = arrival + effective tau * slack_factor. tau is virtual ms,
  /// the deadline is wall ms: the slack factor is the fraction (or multiple)
  /// of the user's interactivity budget the middleware may spend rewriting.
  /// Must be finite and > 0.
  double slack_factor = 1.0;
  /// Strategy a kDegrade verdict forces instead of the requested one. Must
  /// name a RewriterFactory::KnownStrategies() key; empty disables
  /// degradation (those requests are shed with DeadlineExceeded instead).
  std::string degrade_strategy = "baseline";
  /// Scheduler queue depth at which new requests are shed with
  /// ResourceExhausted (0 sheds everything — a drain lever, not a typo).
  size_t max_queue = 1024;
  /// Seed of the per-request serve-time EWMA before any request completes.
  /// Must be finite and > 0.
  double initial_serve_estimate_ms = 1.0;
  /// EWMA smoothing factor, in (0, 1].
  double serve_estimate_alpha = 0.05;
  /// Weight of scenarios without an explicit ScenarioShare entry. Must be
  /// finite and > 0.
  double default_weight = 1.0;
  /// Per-scenario overrides (weight and strict-priority tier).
  std::vector<ScenarioShare> shares;

  /// Rejects bad knobs with InvalidArgument naming the knob: non-positive or
  /// non-finite slack_factor / initial_serve_estimate_ms / default_weight /
  /// per-scenario weight, serve_estimate_alpha outside (0, 1], and a
  /// degrade_strategy that is not a registered strategy key.
  Status Validate() const;

  AdmissionConfig& WithEnabled(bool on) {
    enabled = on;
    return *this;
  }
  AdmissionConfig& WithSlackFactor(double slack) {
    slack_factor = slack;
    return *this;
  }
  AdmissionConfig& WithDegradeStrategy(std::string strategy) {
    degrade_strategy = std::move(strategy);
    return *this;
  }
  AdmissionConfig& WithMaxQueue(size_t depth) {
    max_queue = depth;
    return *this;
  }
};

/// The gate's verdict for one request.
enum class AdmissionDecision {
  kAdmit,
  kDegrade,
  kShedDeadline,
  kShedOverload,
};

/// The decision-making half of the overload control plane. Thread-safe: the
/// EWMA sits behind a mutex, Decide() reads one snapshot of the estimate.
/// Deadlines and decisions are pure functions of their inputs. Verdicts are
/// counted by the fleet, in the routed shard's metric registry.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig config);

  /// Absolute deadline (caller timeline) for a request arriving at
  /// `arrival_ms` with effective budget `tau_ms`.
  double DeadlineFor(double arrival_ms, double tau_ms) const {
    return arrival_ms + tau_ms * config_.slack_factor;
  }

  /// The gate: overload shed (queue at capacity) before deadline shed
  /// (already blown) before degrade (full strategy predicted to miss,
  /// degradation configured) before admit. `queue_depth` is the scheduler's
  /// not-yet-dispatched backlog; `workers` its dispatch parallelism.
  AdmissionDecision Decide(double now_ms, double deadline_ms, size_t queue_depth,
                           size_t workers) const;

  /// Predicted wall ms until a request arriving now would *complete*:
  /// queue_depth/workers serve slots of queueing ahead of it plus its own
  /// serve, each at the current EWMA estimate.
  double PredictedCompletionMs(size_t queue_depth, size_t workers) const;

  /// The typed rejection a shed decision surfaces to the caller.
  static Status ShedStatus(AdmissionDecision decision, const std::string& scenario,
                           double now_ms, double deadline_ms, size_t queue_depth);

  /// Folds one completed serve's wall time into the EWMA load estimate.
  void RecordServeMs(double wall_ms);
  double EstimatedServeMs() const;

  /// Share lookup for the scheduler (config default when no override).
  double WeightFor(const std::string& scenario) const;
  int TierFor(const std::string& scenario) const;

 private:
  const AdmissionConfig config_;

  mutable std::mutex mutex_;
  double serve_estimate_ms_;
};

}  // namespace maliva

#endif  // MALIVA_SERVICE_ADMISSION_CONTROLLER_H_
