// Set-up: the three scenarios, the fleet over them, and strategy training.

#include <thread>

#include "harness.h"
#include "service/service.h"

namespace maliva_bench {

using maliva::ApproxKind;
using maliva::ApproxRule;
using maliva::DatasetKind;
using maliva::FleetConfig;
using maliva::MalivaFleet;
using maliva::Result;
using maliva::Scenario;
using maliva::ScenarioConfig;
using maliva::ServiceConfig;
using maliva::Status;

Scale Scale::For(bool smoke) {
  if (smoke) {
    return Scale{.rows = 2000, .queries = 60000, .train_queries = 100,
                 .validation_queries = 50, .trainer_iterations = 3,
                 .warm_queries = 100, .hot_queries = 16, .cold_reference = 200,
                 .probe_samples = 200};
  }
  return Scale{.rows = 50000, .queries = 24000, .train_queries = 400,
               .validation_queries = 200, .trainer_iterations = 10,
               .warm_queries = 1000, .hot_queries = 64, .cold_reference = 8000,
               .probe_samples = 2000};
}

std::shared_ptr<const maliva::MalivaService> Stack::Service(int scenario) const {
  return fleet->ServiceFor(kScenarioIds[scenario]).value();
}

size_t Stack::PlanExecutions() const {
  size_t total = 0;
  for (const auto& s : scenarios) total += s->oracle->CacheSize();
  return total;
}

namespace {

const std::vector<ApproxRule> kTpchApproxRules = {
    {ApproxKind::kSampleTable, 0.2}, {ApproxKind::kSampleTable, 0.4}};

// The datasets, query pools and trained agents do not depend on --seed; the
// seed draws the traffic (README.md "Seeds"). Seed-dependent datasets moved
// cold_explore's throughput by 16% and its median latency by 53% (IQR over
// median across ten seeds), wider than any usable regression bound.
ScenarioConfig ConfigFor(int scenario, const Scale& scale) {
  ScenarioConfig cfg;
  cfg.num_rows = scale.rows;
  cfg.num_queries = scale.queries;
  switch (scenario) {
    case 0:
      cfg.kind = DatasetKind::kTwitter;
      cfg.tau_ms = 500.0;
      cfg.seed = 101;
      break;
    case 1:
      cfg.kind = DatasetKind::kTaxi;
      cfg.tau_ms = 1000.0;
      cfg.seed = 202;
      cfg.profile.cardinality_scale = 1000.0;  // emulates 500M rows
      break;
    default:
      cfg.kind = DatasetKind::kTpch;
      cfg.tau_ms = 500.0;
      cfg.seed = 303;
      cfg.profile.cardinality_scale = 600.0;  // emulates 300M rows
      cfg.approx_sample_rates = {0.2, 0.4};
      break;
  }
  return cfg;
}

std::vector<std::string> StrategiesFor(int scenario) {
  // mdp/accurate first: quality/two-stage reuses its agent as stage one.
  std::vector<std::string> names = {"baseline", "mdp/accurate", "mdp/sampling"};
  if (scenario == kTpch) names.push_back("quality/two-stage");
  return names;
}

}  // namespace

Result<std::unique_ptr<Stack>> BuildStack(const Scale& scale, bool admission, bool profile) {
  const Clock::time_point start = Clock::now();
  auto stack = std::make_unique<Stack>();

  ServiceConfig service = ServiceConfig()
                              .WithTrainerIterations(scale.trainer_iterations)
                              .WithAgentSeeds(1)
                              .WithResultCache(true)
                              .WithResultCacheCapacity(512)
                              .WithProfileRequests(profile);
  // Three scheduler workers match the three closed-loop clients; strategies
  // are trained explicitly below, so there is no background warm-up pool.
  FleetConfig fleet = FleetConfig().WithDefaults(service).WithNumThreads(3).WithWarmupThreads(0);
  if (admission) {
    fleet.WithAdmission(maliva::AdmissionConfig()
                            .WithEnabled(true)
                            .WithSlackFactor(kSlack)
                            .WithDegradeStrategy("baseline")
                            .WithMaxQueue(256));
  }
  stack->fleet = std::make_unique<MalivaFleet>(fleet);
  stack->scenarios.resize(kNumScenarios);

  // Scenarios are independent shards: each builds, registers and trains on
  // its own thread (the fleet supports concurrent registration).
  struct Timing {
    double build_s = 0.0;
    double train_s = 0.0;
    Status status;
  };
  std::vector<Timing> timings(kNumScenarios);
  auto set_up = [&](int s) {
    Timing& t = timings[s];
    const Clock::time_point build_start = Clock::now();
    auto scenario = std::make_unique<Scenario>(
        maliva::BuildScenario(ConfigFor(s, scale)));
    scenario->train.resize(std::min(scenario->train.size(), scale.train_queries));
    scenario->validation.resize(
        std::min(scenario->validation.size(), scale.validation_queries));
    t.build_s = MsBetween(build_start, Clock::now()) / 1000.0;

    t.status = s == kTpch ? stack->fleet->RegisterScenario(
                                kScenarioIds[s], scenario.get(),
                                [](ServiceConfig& c) { c.WithApproxRules(kTpchApproxRules); })
                          : stack->fleet->RegisterScenario(kScenarioIds[s], scenario.get());
    if (!t.status.ok()) return;
    stack->scenarios[s] = std::move(scenario);

    const Clock::time_point train_start = Clock::now();
    std::shared_ptr<const maliva::MalivaService> service = stack->Service(s);
    for (const std::string& name : StrategiesFor(s)) {
      Result<const maliva::Rewriter*> built = service->GetRewriter(name);
      if (!built.ok()) {
        t.status = built.status();
        return;
      }
    }
    t.train_s = MsBetween(train_start, Clock::now()) / 1000.0;
  };
  std::vector<std::thread> threads;
  for (int s = 0; s < kNumScenarios; ++s) threads.emplace_back(set_up, s);
  for (std::thread& t : threads) t.join();
  for (const Timing& t : timings) {
    if (!t.status.ok()) return t.status;
    stack->build_s += t.build_s;
    stack->train_s += t.train_s;
  }
  stack->setup_s = MsBetween(start, Clock::now()) / 1000.0;
  return stack;
}

}  // namespace maliva_bench
