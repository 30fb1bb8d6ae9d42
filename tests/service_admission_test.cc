// Overload control plane tests. The serve-under-overload stress test below
// is the TSan/ASan coverage of the gate / scheduler / fleet interplay.
//
// Covered contracts:
//   * DeadlineScheduler dispatches EDF within a lane, strict-priority across
//     tiers, and weighted-fair across lanes (workers == 0 + RunOne makes
//     dispatch order itself deterministic and assertable);
//   * AdmissionController::Decide is a pure function of its inputs and walks
//     the documented verdict ladder (overload shed, deadline shed, degrade,
//     admit), with typed ShedStatus codes;
//   * AdmissionConfig::Validate rejects each bad knob by name, through
//     FleetConfig::Validate;
//   * fleet integration: sheds surface as DeadlineExceeded /
//     ResourceExhausted without touching a shard, degrades force the
//     configured cheap strategy and flag the response, stats roll up per
//     shard and fleet-wide;
//   * admission off (the default) keeps the fleet's byte-identical
//     ServeBatch contract at 1/4/8 threads, slice-equal to a standalone
//     service — the plane's "default is inert" regression;
//   * the open-loop ArrivalGenerator is seed-deterministic,
//     monotone, and hits its configured rate.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/admission_controller.h"
#include "service/deadline_scheduler.h"
#include "service/service_fleet.h"
#include "workload/arrival.h"

namespace maliva {
namespace {

// --------------------------------------------------------------- scheduler --

TEST(AdmissionSchedulerTest, EdfOrderingWithinALane) {
  DeadlineScheduler scheduler(0);  // manual mode: we dispatch, so order is exact
  std::vector<int> order;
  auto submit = [&](int tag, double deadline) {
    scheduler.Submit({deadline, "lane", [&order, tag] { order.push_back(tag); }});
  };
  submit(1, 30.0);
  submit(2, 10.0);
  submit(3, 20.0);
  submit(4, 10.0);  // equal deadline: submission order breaks the tie
  while (scheduler.RunOne()) {
  }
  EXPECT_EQ(order, (std::vector<int>{2, 4, 3, 1}));
}

TEST(AdmissionSchedulerTest, HigherTierDispatchesStrictlyFirst) {
  DeadlineScheduler scheduler(0);
  scheduler.SetShare("batch", /*weight=*/8.0, /*tier=*/0);
  scheduler.SetShare("interactive", /*weight=*/1.0, /*tier=*/1);
  std::vector<std::string> order;
  // The batch lane's deadlines are earlier and its weight much larger —
  // strict tiers must still dispatch every interactive job first.
  for (int i = 0; i < 3; ++i) {
    scheduler.Submit({1.0, "batch", [&order] { order.push_back("batch"); }});
    scheduler.Submit(
        {100.0, "interactive", [&order] { order.push_back("interactive"); }});
  }
  while (scheduler.RunOne()) {
  }
  ASSERT_EQ(order.size(), 6u);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(order[i], "interactive");
  for (size_t i = 3; i < 6; ++i) EXPECT_EQ(order[i], "batch");
}

TEST(AdmissionSchedulerTest, WeightedShareInterleavesProportionally) {
  DeadlineScheduler scheduler(0);
  scheduler.SetShare("hot", 1.0);
  scheduler.SetShare("cold", 2.0);
  size_t cold_remaining = 10;
  size_t dispatches_until_cold_done = 0;
  size_t total = 0;
  for (int i = 0; i < 20; ++i) {
    scheduler.Submit({50.0, "hot", [] {}});
  }
  for (int i = 0; i < 10; ++i) {
    scheduler.Submit({50.0, "cold", [&] { --cold_remaining; }});
  }
  while (scheduler.RunOne()) {
    ++total;
    if (cold_remaining > 0) dispatches_until_cold_done = total;
  }
  EXPECT_EQ(total, 30u);
  EXPECT_EQ(cold_remaining, 0u);
  // Weight 2 vs 1 → the cold lane drains at twice the hot lane's rate: its
  // 10 jobs finish within the first ~15 dispatches instead of trailing the
  // hot backlog. A FIFO (or unweighted) scheduler would leave cold jobs
  // interleaved to the very end.
  EXPECT_LE(dispatches_until_cold_done, 15u);
}

TEST(AdmissionSchedulerTest, QueueDepthTracksDispatch) {
  DeadlineScheduler scheduler(0);
  for (int i = 0; i < 3; ++i) scheduler.Submit({double(i), "lane", [] {}});
  EXPECT_EQ(scheduler.QueueDepth(), 3u);
  EXPECT_TRUE(scheduler.RunOne());
  EXPECT_EQ(scheduler.QueueDepth(), 2u);
  while (scheduler.RunOne()) {
  }
  EXPECT_EQ(scheduler.QueueDepth(), 0u);
  EXPECT_FALSE(scheduler.RunOne());
}

TEST(AdmissionSchedulerTest, WorkersDrainEverythingOnWait) {
  DeadlineScheduler scheduler(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    scheduler.Submit({double(i % 7), i % 2 ? "a" : "b", [&ran] { ++ran; }});
  }
  scheduler.Wait();
  EXPECT_EQ(ran.load(), 64);
  EXPECT_EQ(scheduler.QueueDepth(), 0u);
}

// -------------------------------------------------------------- controller --

TEST(AdmissionControllerTest, DeadlineScalesTauBySlack) {
  AdmissionController gate(AdmissionConfig().WithEnabled(true).WithSlackFactor(0.1));
  EXPECT_DOUBLE_EQ(gate.DeadlineFor(/*arrival_ms=*/100.0, /*tau_ms=*/500.0), 150.0);
}

TEST(AdmissionControllerTest, DecideWalksTheVerdictLadder) {
  AdmissionConfig config{
      .enabled = true, .max_queue = 4, .initial_serve_estimate_ms = 10.0};
  AdmissionController gate(config);
  // Queue at capacity wins over everything.
  EXPECT_EQ(gate.Decide(0.0, 100.0, /*queue_depth=*/4, /*workers=*/2),
            AdmissionDecision::kShedOverload);
  // Deadline already blown.
  EXPECT_EQ(gate.Decide(100.0, 100.0, 0, 2), AdmissionDecision::kShedDeadline);
  // Predicted completion (1 queued / 2 workers + own slot ≈ 15ms) misses a
  // 12ms budget → degrade; makes a 40ms budget → admit.
  EXPECT_EQ(gate.Decide(0.0, 12.0, 1, 2), AdmissionDecision::kDegrade);
  EXPECT_EQ(gate.Decide(0.0, 40.0, 1, 2), AdmissionDecision::kAdmit);
}

TEST(AdmissionControllerTest, DegradeDisabledShedsInstead) {
  AdmissionConfig config{
      .enabled = true, .degrade_strategy = "", .initial_serve_estimate_ms = 10.0};
  AdmissionController gate(config);
  EXPECT_EQ(gate.Decide(0.0, 12.0, 1, 2), AdmissionDecision::kShedDeadline);
}

TEST(AdmissionControllerTest, ShedStatusesAreTyped) {
  Status deadline = AdmissionController::ShedStatus(
      AdmissionDecision::kShedDeadline, "twitter", 10.0, 5.0, 3);
  EXPECT_EQ(deadline.code(), Status::Code::kDeadlineExceeded);
  EXPECT_NE(deadline.message().find("twitter"), std::string::npos);
  Status overload = AdmissionController::ShedStatus(
      AdmissionDecision::kShedOverload, "taxi", 10.0, 50.0, 1024);
  EXPECT_EQ(overload.code(), Status::Code::kResourceExhausted);
  EXPECT_NE(overload.message().find("taxi"), std::string::npos);
}

TEST(AdmissionControllerTest, ServeEwmaTracksObservations) {
  AdmissionConfig config{
      .enabled = true, .initial_serve_estimate_ms = 10.0, .serve_estimate_alpha = 0.5};
  AdmissionController gate(config);
  EXPECT_DOUBLE_EQ(gate.EstimatedServeMs(), 10.0);
  gate.RecordServeMs(20.0);
  EXPECT_DOUBLE_EQ(gate.EstimatedServeMs(), 15.0);
  gate.RecordServeMs(-3.0);  // garbage observations are ignored
  EXPECT_DOUBLE_EQ(gate.EstimatedServeMs(), 15.0);
}

TEST(AdmissionControllerTest, SharesResolveWithDefaults) {
  AdmissionConfig config{.enabled = true,
                         .default_weight = 3.0,
                         .shares = {{"vip", 8.0, /*tier=*/2}}};
  AdmissionController gate(config);
  EXPECT_DOUBLE_EQ(gate.WeightFor("vip"), 8.0);
  EXPECT_EQ(gate.TierFor("vip"), 2);
  EXPECT_DOUBLE_EQ(gate.WeightFor("anyone-else"), 3.0);
  EXPECT_EQ(gate.TierFor("anyone-else"), 0);
}

// --------------------------------------------------------------- validation --

TEST(AdmissionValidateTest, RejectsUnknownDegradeStrategy) {
  FleetConfig config;
  config.WithAdmission(
      AdmissionConfig().WithEnabled(true).WithDegradeStrategy("no-such-strategy"));
  Status st = config.Validate();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(st.message().find("degrade_strategy"), std::string::npos);
  EXPECT_NE(st.message().find("baseline"), std::string::npos)
      << "error should list the known strategies: " << st.message();
}

TEST(AdmissionValidateTest, RejectsNonPositiveSlackFactor) {
  for (double bad : {0.0, -1.0}) {
    FleetConfig config;
    config.WithAdmission(AdmissionConfig().WithEnabled(true).WithSlackFactor(bad));
    Status st = config.Validate();
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("slack_factor"), std::string::npos);
  }
}

TEST(AdmissionValidateTest, RejectsNonPositiveScenarioWeight) {
  FleetConfig config;
  config.admission = {.enabled = true, .shares = {{"twitter", 0.0}}};
  Status st = config.Validate();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("weight"), std::string::npos);
  EXPECT_NE(st.message().find("twitter"), std::string::npos);
}

TEST(AdmissionValidateTest, RejectsBadEwmaKnobs) {
  {
    FleetConfig config;
    config.admission = {.enabled = true, .initial_serve_estimate_ms = 0.0};
    EXPECT_NE(config.Validate().message().find("initial_serve_estimate_ms"),
              std::string::npos);
  }
  {
    FleetConfig config;
    config.admission = {.enabled = true, .serve_estimate_alpha = 1.5};
    EXPECT_NE(config.Validate().message().find("serve_estimate_alpha"),
              std::string::npos);
  }
  {
    FleetConfig config;
    config.admission = {.enabled = true, .default_weight = -2.0};
    EXPECT_NE(config.Validate().message().find("default_weight"), std::string::npos);
  }
}

TEST(AdmissionValidateTest, DisabledPlaneStillValidatesKnobs) {
  // A bad knob is a bug in the deployment config whether or not the switch
  // is on today; surface it at construction either way.
  FleetConfig config;
  config.WithAdmission(AdmissionConfig().WithSlackFactor(-1.0));
  EXPECT_FALSE(config.Validate().ok());
}

// ---------------------------------------------------------- fleet end-to-end --

class AdmissionFleetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScenarioConfig twitter;
    twitter.kind = DatasetKind::kTwitter;
    twitter.num_rows = 12000;
    twitter.num_queries = 80;
    twitter.tau_ms = 500.0;
    twitter.seed = 91;
    twitter_ = new Scenario(BuildScenario(twitter));

    ScenarioConfig taxi;
    taxi.kind = DatasetKind::kTaxi;
    taxi.num_rows = 12000;
    taxi.num_queries = 80;
    taxi.tau_ms = 1000.0;
    taxi.seed = 92;
    taxi_ = new Scenario(BuildScenario(taxi));
  }
  static void TearDownTestSuite() {
    delete twitter_;
    twitter_ = nullptr;
    delete taxi_;
    taxi_ = nullptr;
  }

  static ServiceConfig SmallConfig() {
    return ServiceConfig().WithTrainerIterations(3).WithAgentSeeds(1);
  }

  static FleetConfig SmallFleetConfig(size_t threads = 2) {
    FleetConfig config = FleetConfig().WithDefaults(SmallConfig()).WithNumThreads(threads);
    config.warmup_strategies = {"mdp/accurate", "baseline"};
    return config;
  }

  static RewriteRequest TwitterRequest(size_t i,
                                       const std::string& strategy = "mdp/accurate") {
    RewriteRequest req;
    req.scenario = "twitter";
    req.query = twitter_->evaluation[i % twitter_->evaluation.size()];
    req.strategy = strategy;
    return req;
  }

  static Scenario* twitter_;
  static Scenario* taxi_;
};

Scenario* AdmissionFleetTest::twitter_ = nullptr;
Scenario* AdmissionFleetTest::taxi_ = nullptr;

TEST_F(AdmissionFleetTest, MaxQueueZeroShedsEverythingTyped) {
  // max_queue = 0 is the documented drain lever: every request is refused
  // with ResourceExhausted before touching the shard.
  MalivaFleet fleet(SmallFleetConfig().WithAdmission(
      AdmissionConfig().WithEnabled(true).WithMaxQueue(0)));
  ASSERT_TRUE(fleet.RegisterScenario("twitter", twitter_).ok());
  fleet.WaitWarmups();
  Result<RewriteResponse> response = fleet.Serve(TwitterRequest(0));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), Status::Code::kResourceExhausted);
  FleetStats stats = fleet.Stats();
  EXPECT_TRUE(stats.admission.enabled);
  EXPECT_EQ(stats.admission.shed_overload, 1u);
  EXPECT_EQ(stats.totals.requests, 0u) << "shed requests must not reach a shard";
}

TEST_F(AdmissionFleetTest, PredictedMissForcesDegradeStrategy) {
  // An absurd initial serve estimate makes every predicted completion miss
  // its deadline deterministically: the gate must serve with the degrade
  // strategy and flag the response, never shed (the queue has room).
  MalivaFleet fleet(SmallFleetConfig().WithAdmission({.enabled = true,
                                                      .degrade_strategy = "baseline",
                                                      .initial_serve_estimate_ms = 1e9,
                                                      .serve_estimate_alpha = 1e-9}));
  ASSERT_TRUE(fleet.RegisterScenario("twitter", twitter_).ok());
  fleet.WaitWarmups();
  Result<RewriteResponse> response = fleet.Serve(TwitterRequest(0));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().strategy, "baseline");
  EXPECT_TRUE(response.value().stats.degraded);
  EXPECT_GE(response.value().stats.queue_wait_ms, 0.0);
  FleetStats stats = fleet.Stats();
  EXPECT_EQ(stats.admission.degraded, 1u);
  EXPECT_EQ(stats.admission.shed_deadline + stats.admission.shed_overload, 0u);
}

TEST_F(AdmissionFleetTest, PredictedMissShedsWhenDegradeDisabled) {
  MalivaFleet fleet(SmallFleetConfig().WithAdmission(
      {.enabled = true, .degrade_strategy = "", .initial_serve_estimate_ms = 1e9}));
  ASSERT_TRUE(fleet.RegisterScenario("twitter", twitter_).ok());
  fleet.WaitWarmups();
  Result<RewriteResponse> response = fleet.Serve(TwitterRequest(0));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), Status::Code::kDeadlineExceeded);
}

TEST_F(AdmissionFleetTest, AdmittedRequestServesNormally) {
  MalivaFleet fleet(SmallFleetConfig().WithAdmission(
      {.enabled = true, .shares = {{"twitter", 2.0, 1}}}));
  ASSERT_TRUE(fleet.RegisterScenario("twitter", twitter_).ok());
  fleet.WaitWarmups();
  Result<RewriteResponse> response = fleet.Serve(TwitterRequest(0));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().strategy, "mdp/accurate");
  EXPECT_FALSE(response.value().stats.degraded);
  FleetStats stats = fleet.Stats();
  EXPECT_EQ(stats.admission.admitted, 1u);
  EXPECT_EQ(stats.totals.admission_admitted, 1u);
}

TEST_F(AdmissionFleetTest, ServeAsyncDeliversExactlyOnce) {
  MalivaFleet fleet(SmallFleetConfig().WithAdmission(
      AdmissionConfig().WithEnabled(true)));
  ASSERT_TRUE(fleet.RegisterScenario("twitter", twitter_).ok());
  fleet.WaitWarmups();

  std::mutex mutex;
  std::condition_variable cv;
  int completions = 0;
  Result<RewriteResponse> delivered(Status::Internal("not delivered"));
  Status st = fleet.ServeAsync(TwitterRequest(0),
                               [&](Result<RewriteResponse> response) {
                                 std::unique_lock<std::mutex> lock(mutex);
                                 delivered = std::move(response);
                                 ++completions;
                                 cv.notify_all();
                               });
  ASSERT_TRUE(st.ok()) << st.ToString();
  std::unique_lock<std::mutex> lock(mutex);
  cv.wait(lock, [&] { return completions > 0; });
  EXPECT_EQ(completions, 1);
  ASSERT_TRUE(delivered.ok()) << delivered.status().ToString();
  EXPECT_EQ(delivered.value().strategy, "mdp/accurate");
}

TEST_F(AdmissionFleetTest, ServeAsyncRequiresAdmission) {
  MalivaFleet fleet(SmallFleetConfig());  // admission off
  ASSERT_TRUE(fleet.RegisterScenario("twitter", twitter_).ok());
  Status st = fleet.ServeAsync(TwitterRequest(0), [](Result<RewriteResponse>) {
    FAIL() << "callback must not run when the call is refused";
  });
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kFailedPrecondition);
}

// Lifecycle stress (TSan/ASan leg): the fleet is destroyed while admitted
// ServeAsync jobs are still queued behind a blocked worker and the metrics
// flusher is snapshotting. Teardown must run every queued job, so every
// `done` fires exactly once, and none fires after the destructor returns.
TEST_F(AdmissionFleetTest, DestroyWithQueuedAsyncJobsFiresEveryCallbackOnce) {
  constexpr size_t kRequests = 64;
  std::vector<std::atomic<int>> completions(kRequests);
  std::atomic<bool> holding{false};
  std::atomic<bool> teardown{false};
  std::atomic<bool> release{false};
  // Frees the held worker 20 ms after the fleet's scope starts to unwind,
  // i.e. while its destructor is draining the queue. A jthread, so an
  // early ASSERT return still joins it.
  std::jthread releaser([&] {
    while (!teardown.load()) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    release.store(true);
  });
  const std::thread::id test_thread = std::this_thread::get_id();
  {
    FleetConfig config = SmallFleetConfig(/*threads=*/1);
    config.warmup_strategies = {"baseline"};
    config.admission = {.enabled = true,
                        .slack_factor = 1.0e6,
                        .max_queue = 1 << 16,
                        .initial_serve_estimate_ms = 0.01};
    config.metrics_flush_ms = 1;
    MalivaFleet fleet(config);
    // Destroyed before the fleet on every exit from this scope.
    struct TeardownSignal {
      std::atomic<bool>& flag;
      ~TeardownSignal() { flag.store(true); }
    } signal{teardown};
    ASSERT_TRUE(fleet.RegisterScenario("twitter", twitter_).ok());
    fleet.WaitWarmups();

    for (size_t i = 0; i < kRequests; ++i) {
      Status st = fleet.ServeAsync(
          TwitterRequest(i, "baseline"), [&, i](Result<RewriteResponse> response) {
            EXPECT_TRUE(response.ok()) << response.status().ToString();
            // The first completion holds the only worker, so every later
            // job is still queued when the destructor starts.
            if (i == 0 && std::this_thread::get_id() != test_thread) {
              holding.store(true);
              while (!release.load()) std::this_thread::yield();
            }
            completions[i].fetch_add(1);
          });
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    while (!holding.load() && completions[0].load() == 0) std::this_thread::yield();
    EXPECT_EQ(fleet.Stats().admission.queue_depth, kRequests - 1);
  }
  releaser.join();
  for (size_t i = 0; i < kRequests; ++i) {
    EXPECT_EQ(completions[i].load(), 1) << "request " << i;
  }
}

// Lifecycle stress (TSan/ASan leg): one shard of a gated two-shard fleet is
// drained and evicted while admitted ServeAsync jobs for it are still queued
// behind a held worker. Each queued job holds its shard, so it finishes on
// the evicted stack; every `done` fires exactly once; the other shard keeps
// serving; and the evicted stack is freed once its last job lets go.
TEST_F(AdmissionFleetTest, EvictWithQueuedAsyncJobsFiresEveryCallbackOnce) {
  constexpr size_t kQueued = 32;
  constexpr size_t kTaxi = 8;
  FleetConfig config = SmallFleetConfig(/*threads=*/1);
  config.warmup_strategies = {"baseline"};
  config.admission = {.enabled = true,
                      .slack_factor = 1.0e6,
                      .max_queue = 1 << 16,
                      .initial_serve_estimate_ms = 0.01};
  // Declared before the fleet: its destructor runs whatever is still queued.
  std::vector<std::atomic<int>> completions(kQueued + kTaxi);
  std::atomic<bool> holding{false};
  std::atomic<bool> release{false};
  std::atomic<size_t> finished_evicted{0};
  std::weak_ptr<const MalivaService> evicted_stack;
  MalivaFleet fleet(config);
  // Frees the held worker on every exit, an early ASSERT return included,
  // before the fleet's destructor joins it.
  struct ReleaseOnExit {
    std::atomic<bool>& flag;
    ~ReleaseOnExit() { flag.store(true); }
  } release_on_exit{release};
  ASSERT_TRUE(fleet.RegisterScenario("twitter", twitter_).ok());
  ASSERT_TRUE(fleet.RegisterScenario("taxi", taxi_).ok());
  fleet.WaitWarmups();
  {
    Result<std::shared_ptr<const MalivaService>> service = fleet.ServiceFor("twitter");
    ASSERT_TRUE(service.ok());
    evicted_stack = service.value();
  }

  // Spins until `done()` holds; false after a minute (a lost callback).
  auto wait_for = [](const std::function<bool()>& done) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::minutes(1);
    while (!done()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::yield();
    }
    return true;
  };

  const std::thread::id test_thread = std::this_thread::get_id();
  for (size_t i = 0; i < kQueued; ++i) {
    Status st = fleet.ServeAsync(
        TwitterRequest(i, "baseline"), [&, i](Result<RewriteResponse> response) {
          EXPECT_TRUE(response.ok()) << response.status().ToString();
          // The first completion holds the only worker, so every later job
          // is still queued when the shard is drained and evicted.
          if (i == 0 && std::this_thread::get_id() != test_thread) {
            holding.store(true);
            while (!release.load()) std::this_thread::yield();
          } else if (fleet.ServiceFor("twitter").status().code() ==
                         Status::Code::kNotFound &&
                     !evicted_stack.expired()) {
            finished_evicted.fetch_add(1);
          }
          completions[i].fetch_add(1);
        });
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  ASSERT_TRUE(wait_for([&] { return holding.load() || completions[0].load() > 0; }));
  EXPECT_EQ(fleet.Stats().admission.queue_depth, kQueued - 1);

  // New work for the shard is refused inline, once per call.
  auto refused = [&fleet](Status::Code expected) {
    int calls = 0;
    Status st = fleet.ServeAsync(TwitterRequest(0, "baseline"),
                                 [&](Result<RewriteResponse> response) {
                                   ++calls;
                                   EXPECT_EQ(response.status().code(), expected);
                                 });
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(calls, 1);
  };
  ASSERT_TRUE(fleet.DrainScenario("twitter").ok());
  refused(Status::Code::kFailedPrecondition);
  ASSERT_TRUE(fleet.EvictScenario("twitter").ok());
  refused(Status::Code::kNotFound);
  EXPECT_FALSE(evicted_stack.expired()) << "queued jobs hold the evicted stack";

  // The other shard queues behind the held worker and still serves.
  for (size_t i = 0; i < kTaxi; ++i) {
    RewriteRequest req;
    req.scenario = "taxi";
    req.query = taxi_->evaluation[i % taxi_->evaluation.size()];
    req.strategy = "baseline";
    Status st = fleet.ServeAsync(req, [&, i](Result<RewriteResponse> response) {
      EXPECT_TRUE(response.ok()) << response.status().ToString();
      completions[kQueued + i].fetch_add(1);
    });
    EXPECT_TRUE(st.ok()) << st.ToString();
  }

  release.store(true);
  ASSERT_TRUE(wait_for([&] {
    for (const std::atomic<int>& c : completions) {
      if (c.load() == 0) return false;
    }
    return true;
  }));
  for (size_t i = 0; i < completions.size(); ++i) {
    EXPECT_EQ(completions[i].load(), 1) << "request " << i;
  }
  EXPECT_EQ(finished_evicted.load(), kQueued - 1);
  EXPECT_TRUE(wait_for([&] { return evicted_stack.expired(); }))
      << "the evicted stack outlived its last job";
  RewriteRequest taxi;
  taxi.scenario = "taxi";
  taxi.query = taxi_->evaluation[0];
  taxi.strategy = "baseline";
  Result<RewriteResponse> served = fleet.Serve(taxi);
  EXPECT_TRUE(served.ok()) << served.status().ToString();
  std::vector<ScenarioInfo> scenarios = fleet.ListScenarios();
  ASSERT_EQ(scenarios.size(), 1u);
  EXPECT_EQ(scenarios[0].id, "taxi");
}

TEST_F(AdmissionFleetTest, StatsRollUpPerShardAndFleetWide) {
  MalivaFleet fleet(SmallFleetConfig(4).WithAdmission(
      AdmissionConfig().WithEnabled(true)));
  ASSERT_TRUE(fleet.RegisterScenario("twitter", twitter_).ok());
  ASSERT_TRUE(fleet.RegisterScenario("taxi", taxi_).ok());
  fleet.WaitWarmups();

  std::vector<RewriteRequest> requests;
  for (size_t i = 0; i < 12; ++i) {
    RewriteRequest req = TwitterRequest(i, "baseline");
    if (i % 3 == 0) {
      req.scenario = "taxi";
      req.query = taxi_->evaluation[i % taxi_->evaluation.size()];
    }
    requests.push_back(req);
  }
  for (const Result<RewriteResponse>& response : fleet.ServeBatch(requests)) {
    ASSERT_TRUE(response.ok()) << response.status().ToString();
  }

  FleetStats stats = fleet.Stats();
  EXPECT_TRUE(stats.admission.enabled);
  EXPECT_EQ(stats.admission.admitted + stats.admission.degraded, 12u);
  uint64_t per_shard_sum = 0;
  for (const auto& [id, shard_stats] : stats.shards) {
    per_shard_sum +=
        shard_stats.admission_admitted + shard_stats.admission_degraded;
  }
  EXPECT_EQ(per_shard_sum, 12u) << "per-shard gate rows must sum to the total";
  EXPECT_EQ(stats.totals.admission_admitted + stats.totals.admission_degraded,
            12u);
  EXPECT_EQ(stats.admission.queue_depth, 0u);
}

// A shard re-registered under an evicted shard's id is a new stack: its
// gate rows start at zero like its serve counters, and the fleet rollup
// stays the sum of the registered rows (the evicted shard's verdicts leave
// with it).
TEST_F(AdmissionFleetTest, ReRegisteredScenarioStartsWithCleanGateRows) {
  MalivaFleet fleet(SmallFleetConfig().WithAdmission(
      AdmissionConfig().WithEnabled(true)));
  ASSERT_TRUE(fleet.RegisterScenario("twitter", twitter_).ok());
  ASSERT_TRUE(fleet.RegisterScenario("taxi", taxi_).ok());
  fleet.WaitWarmups();
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(fleet.Serve(TwitterRequest(i, "baseline")).ok());
  }
  RewriteRequest taxi_request = TwitterRequest(0, "baseline");
  taxi_request.scenario = "taxi";
  taxi_request.query = taxi_->evaluation[0];
  ASSERT_TRUE(fleet.Serve(taxi_request).ok());

  ASSERT_TRUE(fleet.DrainScenario("twitter").ok());
  ASSERT_TRUE(fleet.EvictScenario("twitter").ok());
  ASSERT_TRUE(fleet.RegisterScenario("twitter", twitter_).ok());
  fleet.WaitWarmups();

  FleetStats stats = fleet.Stats();
  ASSERT_EQ(stats.shards.size(), 2u);
  uint64_t admitted = 0;
  uint64_t degraded = 0;
  for (const auto& [id, row] : stats.shards) {
    if (id == "twitter") {
      EXPECT_EQ(row.requests, 0u);
      EXPECT_EQ(row.admission_admitted, 0u);
      EXPECT_EQ(row.admission_degraded, 0u);
      EXPECT_EQ(row.admission_shed_deadline, 0u);
      EXPECT_EQ(row.admission_shed_overload, 0u);
      EXPECT_EQ(row.admission_queue_wait_ms_total, 0.0);
    }
    admitted += row.admission_admitted;
    degraded += row.admission_degraded;
  }
  EXPECT_EQ(admitted + degraded, 1u) << "only the taxi verdict is still registered";
  EXPECT_EQ(stats.admission.admitted, admitted);
  EXPECT_EQ(stats.admission.degraded, degraded);
  EXPECT_EQ(stats.admission.shed_deadline + stats.admission.shed_overload, 0u);
}

// The plane's "default is inert" regression: with admission off the fleet's
// ServeBatch must stay byte-identical across thread counts and slice-equal
// to a standalone service — the exact pre-existing contract.
TEST_F(AdmissionFleetTest, OffModeKeepsByteEqualityAcrossThreadCounts) {
  std::vector<RewriteRequest> requests;
  for (size_t i = 0; i < 18; ++i) {
    requests.push_back(TwitterRequest(i, i % 2 ? "baseline" : "mdp/accurate"));
  }
  std::vector<Result<RewriteResponse>> reference;
  for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    MalivaFleet fleet(SmallFleetConfig(threads));
    ASSERT_TRUE(fleet.RegisterScenario("twitter", twitter_).ok());
    fleet.WaitWarmups();
    std::vector<Result<RewriteResponse>> responses = fleet.ServeBatch(requests);
    ASSERT_EQ(responses.size(), requests.size());
    if (threads == 1) {
      reference = std::move(responses);
      continue;
    }
    for (size_t i = 0; i < requests.size(); ++i) {
      ASSERT_EQ(reference[i].ok(), responses[i].ok());
      if (!reference[i].ok()) continue;
      EXPECT_EQ(reference[i].value().strategy, responses[i].value().strategy);
      EXPECT_EQ(reference[i].value().rewritten_sql,
                responses[i].value().rewritten_sql);
      EXPECT_EQ(reference[i].value().outcome.total_ms,
                responses[i].value().outcome.total_ms);
      EXPECT_EQ(reference[i].value().outcome.option_index,
                responses[i].value().outcome.option_index);
    }
  }
  // Slice equality vs a standalone service over the same scenario + config.
  MalivaService standalone(twitter_, SmallConfig());
  ASSERT_TRUE(standalone.Warmup({"mdp/accurate", "baseline"}).ok());
  std::vector<Result<RewriteResponse>> expected = standalone.ServeBatch(requests);
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(expected[i].ok(), reference[i].ok());
    if (!expected[i].ok()) continue;
    EXPECT_EQ(expected[i].value().rewritten_sql, reference[i].value().rewritten_sql);
    EXPECT_EQ(expected[i].value().outcome.total_ms,
              reference[i].value().outcome.total_ms);
  }
}

// TSan/ASan coverage: many app threads hammering Serve through the gate and
// scheduler with a tiny queue, so admits, degrades, and both shed flavors
// race. Every outcome must be OK or a typed shed, and the gate's accounting
// must balance exactly.
TEST_F(AdmissionFleetTest, ConcurrentServesUnderOverloadStayTypedAndBalanced) {
  MalivaFleet fleet(SmallFleetConfig(4).WithAdmission(
      {.enabled = true,
       .slack_factor = 0.02,  // 10ms wall budget on tau=500
       .max_queue = 2,
       .initial_serve_estimate_ms = 2.0,
       .shares = {{"twitter", 2.0}, {"taxi", 1.0}}}));
  ASSERT_TRUE(fleet.RegisterScenario("twitter", twitter_).ok());
  ASSERT_TRUE(fleet.RegisterScenario("taxi", taxi_).ok());
  fleet.WaitWarmups();

  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 30;
  std::atomic<size_t> ok_count{0}, shed_count{0}, unexpected{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        RewriteRequest req = TwitterRequest(t * kPerThread + i, "baseline");
        if ((t + i) % 2 == 0) {
          req.scenario = "taxi";
          req.query = taxi_->evaluation[i % taxi_->evaluation.size()];
        }
        Result<RewriteResponse> response = fleet.Serve(req);
        if (response.ok()) {
          ++ok_count;
        } else if (response.status().code() == Status::Code::kDeadlineExceeded ||
                   response.status().code() == Status::Code::kResourceExhausted) {
          ++shed_count;
        } else {
          ++unexpected;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(unexpected.load(), 0u);
  EXPECT_EQ(ok_count.load() + shed_count.load(), kThreads * kPerThread);
  FleetStats stats = fleet.Stats();
  EXPECT_EQ(stats.admission.admitted + stats.admission.degraded +
                stats.admission.shed_deadline + stats.admission.shed_overload,
            kThreads * kPerThread)
      << "every request must get exactly one gate verdict";
  EXPECT_EQ(stats.admission.admitted + stats.admission.degraded, ok_count.load());
  EXPECT_EQ(stats.admission.shed_deadline + stats.admission.shed_overload,
            shed_count.load());
}

// ------------------------------------------------------- arrival generator --

TEST(AdmissionArrivalGenTest, SameSeedReplaysTheSameTrace) {
  ArrivalGenerator a(1000.0, 7);
  ArrivalGenerator b(1000.0, 7);
  for (int i = 0; i < 200; ++i) EXPECT_DOUBLE_EQ(a.NextMs(), b.NextMs());
  ArrivalGenerator c(1000.0, 8);
  ArrivalGenerator d(1000.0, 7);
  bool diverged = false;
  for (int i = 0; i < 200 && !diverged; ++i) diverged = c.NextMs() != d.NextMs();
  EXPECT_TRUE(diverged) << "different seeds must give different traces";
}

TEST(AdmissionArrivalGenTest, MonotoneAndApproximatelyAtRate) {
  const double rate_qps = 1000.0;  // 1ms mean gap
  ArrivalGenerator gen(rate_qps, 42);
  double prev = 0.0;
  const int n = 20000;
  double last = 0.0;
  for (int i = 0; i < n; ++i) {
    double t = gen.NextMs();
    EXPECT_GE(t, prev);
    prev = t;
    last = t;
  }
  double mean_gap_ms = last / n;
  EXPECT_GT(mean_gap_ms, 0.9);
  EXPECT_LT(mean_gap_ms, 1.1);
}

}  // namespace
}  // namespace maliva
