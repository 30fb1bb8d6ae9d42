// Concurrent serving core tests: parallel ServeBatch byte-equality with
// sequential serving, Warmup semantics, and request validation.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "service/service.h"
#include "util/thread_pool.h"

namespace maliva {
namespace {

class ServiceConcurrencyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScenarioConfig cfg;
    cfg.kind = DatasetKind::kTwitter;
    cfg.num_rows = 20000;
    cfg.num_queries = 120;
    cfg.tau_ms = 500.0;
    cfg.seed = 97;
    cfg.approx_sample_rates = {0.2, 0.4};
    scenario_ = new Scenario(BuildScenario(cfg));
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }

  /// Cheap training so every strategy can be built in-test.
  static ServiceConfig SmallConfig(size_t threads = 0) {
    ServiceConfig config = ServiceConfig()
                               .WithTrainerIterations(3)
                               .WithAgentSeeds(1)
                               .WithApproxRules({{ApproxKind::kSampleTable, 0.2},
                                                 {ApproxKind::kSampleTable, 0.4}});
    config.num_threads = threads;
    return config;
  }

  /// >= 200 mixed requests cycling strategies, default-strategy requests,
  /// per-request tau overrides, quality floors, and invalid inputs — the
  /// parallel path must reproduce every response AND every error.
  static std::vector<RewriteRequest> MixedRequests(size_t n) {
    const char* strategies[] = {"baseline",          "naive",
                                "mdp/accurate",      "mdp/sampling",
                                "bao",               "quality/one-stage",
                                "quality/two-stage", ""};  // "" = default
    std::vector<RewriteRequest> requests;
    requests.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      RewriteRequest req;
      req.query = scenario_->evaluation[i % scenario_->evaluation.size()];
      req.strategy = strategies[i % (sizeof(strategies) / sizeof(strategies[0]))];
      if (i % 5 == 0) req.tau_ms = 250.0 + 25.0 * static_cast<double>(i % 20);
      if (i % 7 == 0) req.quality_floor = 0.9;
      if (i % 31 == 0) req.strategy = "definitely/not-a-strategy";  // NotFound
      if (i % 41 == 0) req.tau_ms = -1.0;                           // InvalidArgument
      requests.push_back(req);
    }
    return requests;
  }

  static void ExpectByteIdentical(const Result<RewriteResponse>& a,
                                  const Result<RewriteResponse>& b) {
    ASSERT_EQ(a.ok(), b.ok());
    if (!a.ok()) {
      EXPECT_EQ(a.status().code(), b.status().code());
      EXPECT_EQ(a.status().message(), b.status().message());
      return;
    }
    const RewriteResponse& ra = a.value();
    const RewriteResponse& rb = b.value();
    EXPECT_EQ(ra.strategy, rb.strategy);
    EXPECT_EQ(ra.rewritten_sql, rb.rewritten_sql);
    EXPECT_EQ(ra.exact_fallback, rb.exact_fallback);
    // Exact (not approximate) double comparisons: the guarantee is
    // byte-identity, not closeness.
    EXPECT_EQ(ra.outcome.option_index, rb.outcome.option_index);
    EXPECT_EQ(ra.outcome.planning_ms, rb.outcome.planning_ms);
    EXPECT_EQ(ra.outcome.exec_ms, rb.outcome.exec_ms);
    EXPECT_EQ(ra.outcome.total_ms, rb.outcome.total_ms);
    EXPECT_EQ(ra.outcome.viable, rb.outcome.viable);
    EXPECT_EQ(ra.outcome.steps, rb.outcome.steps);
    EXPECT_EQ(ra.outcome.quality, rb.outcome.quality);
    EXPECT_EQ(ra.outcome.approximate, rb.outcome.approximate);
  }

  static Scenario* scenario_;
};

Scenario* ServiceConcurrencyTest::scenario_ = nullptr;

TEST_F(ServiceConcurrencyTest, ParallelServeBatchMatchesSequentialByteForByte) {
  // Identical seeded training produces identical agents in both services, so
  // the 8-thread batch must reproduce the sequential responses exactly —
  // including the interleaved error responses.
  MalivaService sequential(scenario_, SmallConfig(1));
  MalivaService parallel(scenario_, SmallConfig(8));

  std::vector<RewriteRequest> requests = MixedRequests(200);
  std::vector<Result<RewriteResponse>> seq = sequential.ServeBatch(requests);
  std::vector<Result<RewriteResponse>> par = parallel.ServeBatch(requests);

  ASSERT_EQ(seq.size(), requests.size());
  ASSERT_EQ(par.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectByteIdentical(seq[i], par[i]);
  }
}

TEST_F(ServiceConcurrencyTest, ParallelServeBatchMatchesIndividualServeCalls) {
  // One service, already warm: the batch fan-out must equal request-order
  // Serve calls on the same instance.
  MalivaService service(scenario_, SmallConfig(8));
  ASSERT_TRUE(service.Warmup({"baseline", "mdp/accurate", "naive"}).ok());

  std::vector<RewriteRequest> requests;
  for (size_t i = 0; i < 60; ++i) {
    RewriteRequest req;
    req.query = scenario_->evaluation[i % scenario_->evaluation.size()];
    req.strategy = (i % 3 == 0) ? "baseline" : (i % 3 == 1) ? "mdp/accurate" : "naive";
    requests.push_back(req);
  }

  std::vector<Result<RewriteResponse>> batch = service.ServeBatch(requests);
  ASSERT_EQ(batch.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectByteIdentical(service.Serve(requests[i]), batch[i]);
  }
}

TEST_F(ServiceConcurrencyTest, WarmupIsIdempotent) {
  MalivaService service(scenario_, SmallConfig());
  ASSERT_TRUE(service.Warmup({"baseline", "mdp/accurate"}).ok());

  Result<const Rewriter*> first = service.GetRewriter("mdp/accurate");
  ASSERT_TRUE(first.ok());

  // Second warm-up is a no-op: no retraining, same instances.
  ASSERT_TRUE(service.Warmup({"baseline", "mdp/accurate"}).ok());
  Result<const Rewriter*> second = service.GetRewriter("mdp/accurate");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value(), second.value());

  RewriteRequest req;
  req.query = scenario_->evaluation[0];
  req.strategy = "mdp/accurate";
  EXPECT_TRUE(service.Serve(req).ok());
}

TEST_F(ServiceConcurrencyTest, WarmupAllSkipsUnavailableStrategies) {
  // No approx rules: "quality/*" cannot build (FailedPrecondition), but the
  // blanket warm-up still succeeds and warms everything else.
  MalivaService service(scenario_,
                        ServiceConfig().WithTrainerIterations(2).WithAgentSeeds(1));
  ASSERT_TRUE(service.Warmup().ok());
  EXPECT_TRUE(service.GetRewriter("mdp/accurate").ok());
  EXPECT_FALSE(service.GetRewriter("quality/one-stage").ok());
}

TEST_F(ServiceConcurrencyTest, WarmupFailsOnExplicitlyNamedUnknownStrategy) {
  MalivaService service(scenario_, SmallConfig());
  Status st = service.Warmup({"definitely/not-a-strategy"});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kNotFound);
}

TEST_F(ServiceConcurrencyTest, UnknownStrategyErrorListsKnownStrategies) {
  MalivaService service(scenario_, SmallConfig());
  RewriteRequest req;
  req.query = scenario_->evaluation[0];
  req.strategy = "definitely/not-a-strategy";
  Result<RewriteResponse> resp = service.Serve(req);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), Status::Code::kNotFound);
  // The message names the bad key and every valid one.
  EXPECT_NE(resp.status().message().find("definitely/not-a-strategy"),
            std::string::npos);
  for (const std::string& known : RewriterFactory::Global().KnownStrategies()) {
    EXPECT_NE(resp.status().message().find(known), std::string::npos)
        << "error message should list known strategy " << known;
  }
}

TEST_F(ServiceConcurrencyTest, NanRequestFieldsAreRejected) {
  MalivaService service(scenario_, SmallConfig());
  const double nan = std::numeric_limits<double>::quiet_NaN();

  RewriteRequest bad_tau;
  bad_tau.query = scenario_->evaluation[0];
  bad_tau.strategy = "baseline";
  bad_tau.tau_ms = nan;
  EXPECT_EQ(service.Serve(bad_tau).status().code(), Status::Code::kInvalidArgument);

  RewriteRequest bad_floor;
  bad_floor.query = scenario_->evaluation[0];
  bad_floor.strategy = "baseline";
  bad_floor.quality_floor = nan;
  EXPECT_EQ(service.Serve(bad_floor).status().code(),
            Status::Code::kInvalidArgument);
}

TEST_F(ServiceConcurrencyTest, ThreadPoolRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(hits.size(), [&hits](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST_F(ServiceConcurrencyTest, ThreadPoolParallelForRunsWhileEveryWorkerIsBusy) {
  // Declared before the pool, so the pool joins its workers before these go.
  std::latch release(1);
  std::atomic<size_t> ran{0};
  ThreadPool pool(2);
  for (size_t i = 0; i < pool.num_threads(); ++i) {
    pool.Submit([&release] { release.wait(); });
  }
  // Another caller's tasks hold both workers; the call must not queue
  // behind them.
  std::future<void> call = std::async(std::launch::async, [&pool, &ran] {
    pool.ParallelFor(64, [&ran](size_t) { ran.fetch_add(1); });
  });
  bool finished = call.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  release.count_down();
  call.wait();
  pool.Wait();
  EXPECT_TRUE(finished) << "ParallelFor waited for the blocked workers";
  EXPECT_EQ(ran.load(), 64u);
}

}  // namespace
}  // namespace maliva
