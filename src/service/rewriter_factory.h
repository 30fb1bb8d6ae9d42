// String-keyed registry of rewriting strategies.
//
// Strategies are selected by configuration name instead of bespoke
// constructors. The built-in names (registered by MalivaService):
//
//   "baseline"           no rewriting; the backend optimizer plans
//   "naive"              brute-force QTE enumeration (sampling QTE)
//   "mdp/accurate"       MDP agent with the accurate QTE (Algorithm 2)
//   "mdp/sampling"       MDP agent with the sampling (approximate) QTE
//   "bao"                the Bao comparator (plan-feature regression)
//   "quality/one-stage"  quality-aware agent over hint x approx options
//   "quality/two-stage"  exact stage then quality-aware stage (Fig 11)
//
// Custom strategies can be registered at startup; builders receive the
// owning MalivaService and may use its MakeEnv / TrainedAgent / Intern hooks.

#ifndef MALIVA_SERVICE_REWRITER_FACTORY_H_
#define MALIVA_SERVICE_REWRITER_FACTORY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/rewriter.h"
#include "util/status.h"

namespace maliva {

class MalivaService;

/// Maps strategy names to builder callbacks. Thread-compatible: register
/// everything before serving.
class RewriterFactory {
 public:
  using Builder =
      std::function<Result<std::unique_ptr<Rewriter>>(MalivaService& service)>;

  /// The process-wide registry (built-ins are registered on first use).
  static RewriterFactory& Global();

  /// Registers `name`; fails with AlreadyExists-style error on duplicates.
  Status Register(std::string name, Builder builder);

  bool Has(const std::string& name) const;

  /// Builds strategy `name` against `service`. Unknown names return NotFound
  /// with the full list of valid keys in the message; builder errors (e.g.
  /// missing approximation rules) pass through.
  Result<std::unique_ptr<Rewriter>> Create(const std::string& name,
                                           MalivaService& service) const;

  /// All registered strategy keys, sorted. A given service may still fail
  /// to build some of them (e.g. "quality/*" without approx_rules) — Serve
  /// reports that per request as a Status.
  std::vector<std::string> KnownStrategies() const;

 private:
  /// Comma-separated KnownStrategies(), for error messages.
  std::string KnownStrategiesList() const;

  std::map<std::string, Builder> builders_;
};

/// Registers the seven built-in strategies listed above (defined in
/// service.cc; invoked once by RewriterFactory::Global()).
void RegisterBuiltinStrategies(RewriterFactory& factory);

}  // namespace maliva

#endif  // MALIVA_SERVICE_REWRITER_FACTORY_H_
