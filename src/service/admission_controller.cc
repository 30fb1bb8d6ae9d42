#include "service/admission_controller.h"

#include <algorithm>
#include <cmath>

#include "service/rewriter_factory.h"
#include "util/string_util.h"

namespace maliva {

namespace {

Status BadKnob(const std::string& knob, const std::string& detail) {
  return Status::InvalidArgument("admission." + knob + " " + detail);
}

}  // namespace

Status AdmissionConfig::Validate() const {
  // Every message names the offending knob: a fleet operator tuning overload
  // behavior should never have to bisect the config to find the bad value.
  if (!(slack_factor > 0.0) || !std::isfinite(slack_factor)) {
    return BadKnob("slack_factor", "must be finite and positive (deadline = "
                   "arrival + tau * slack_factor)");
  }
  if (!(initial_serve_estimate_ms > 0.0) || !std::isfinite(initial_serve_estimate_ms)) {
    return BadKnob("initial_serve_estimate_ms", "must be finite and positive");
  }
  if (!(serve_estimate_alpha > 0.0 && serve_estimate_alpha <= 1.0)) {
    return BadKnob("serve_estimate_alpha", "must be within (0, 1]");
  }
  if (!(default_weight > 0.0) || !std::isfinite(default_weight)) {
    return BadKnob("default_weight", "must be finite and positive");
  }
  for (const ScenarioShare& share : shares) {
    if (!(share.weight > 0.0) || !std::isfinite(share.weight)) {
      return BadKnob("shares", "weight for scenario \"" + share.scenario +
                     "\" must be finite and positive (got a non-positive or "
                     "non-finite scenario weight)");
    }
  }
  if (!degrade_strategy.empty() && !RewriterFactory::Global().Has(degrade_strategy)) {
    return BadKnob("degrade_strategy",
                   "\"" + degrade_strategy + "\" is not a registered strategy "
                   "(known: " + Join(RewriterFactory::Global().KnownStrategies(), ", ") +
                   "; empty disables degradation)");
  }
  return Status::OK();
}

AdmissionController::AdmissionController(AdmissionConfig config)
    : config_(std::move(config)), serve_estimate_ms_(config_.initial_serve_estimate_ms) {}

double AdmissionController::PredictedCompletionMs(size_t queue_depth,
                                                  size_t workers) const {
  double estimate = EstimatedServeMs();
  double lanes = static_cast<double>(std::max<size_t>(workers, 1));
  // queue_depth jobs drain ahead of this one across `lanes` workers, then
  // the request itself runs — the M/M/c-flavored back-of-envelope a load
  // shedder needs, not a queueing-theory exact answer.
  return (static_cast<double>(queue_depth) / lanes) * estimate + estimate;
}

AdmissionDecision AdmissionController::Decide(double now_ms, double deadline_ms,
                                              size_t queue_depth,
                                              size_t workers) const {
  if (queue_depth >= config_.max_queue) return AdmissionDecision::kShedOverload;
  if (now_ms >= deadline_ms) return AdmissionDecision::kShedDeadline;
  if (now_ms + PredictedCompletionMs(queue_depth, workers) > deadline_ms) {
    // The full strategy is predicted to miss; a configured cheap strategy
    // may still make it (degraded work re-enters the same EDF queue).
    return config_.degrade_strategy.empty() ? AdmissionDecision::kShedDeadline
                                            : AdmissionDecision::kDegrade;
  }
  return AdmissionDecision::kAdmit;
}

Status AdmissionController::ShedStatus(AdmissionDecision decision,
                                       const std::string& scenario, double now_ms,
                                       double deadline_ms, size_t queue_depth) {
  std::string who = scenario.empty() ? "request" : "request for \"" + scenario + "\"";
  if (decision == AdmissionDecision::kShedOverload) {
    return Status::ResourceExhausted(
        who + " shed: scheduler queue at capacity (depth " +
        std::to_string(queue_depth) + ")");
  }
  return Status::DeadlineExceeded(
      who + " shed: cannot meet deadline (now " + FormatDouble(now_ms, 2) +
      " ms, deadline " + FormatDouble(deadline_ms, 2) + " ms, queue depth " +
      std::to_string(queue_depth) + ")");
}

void AdmissionController::RecordServeMs(double wall_ms) {
  if (!(wall_ms >= 0.0) || !std::isfinite(wall_ms)) return;
  std::lock_guard<std::mutex> lock(mutex_);
  serve_estimate_ms_ += config_.serve_estimate_alpha * (wall_ms - serve_estimate_ms_);
}

double AdmissionController::EstimatedServeMs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return serve_estimate_ms_;
}

double AdmissionController::WeightFor(const std::string& scenario) const {
  for (const ScenarioShare& share : config_.shares) {
    if (share.scenario == scenario) return share.weight;
  }
  return config_.default_weight;
}

int AdmissionController::TierFor(const std::string& scenario) const {
  for (const ScenarioShare& share : config_.shares) {
    if (share.scenario == scenario) return share.tier;
  }
  return 0;
}

}  // namespace maliva
