// Unit tests for util: Status/Result, Rng, stats, strings, virtual clock.

#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>

#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/string_util.h"

namespace maliva {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad column");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad column");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad column");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_NE(Status::NotFound("x").ToString().find("NotFound"), std::string::npos);
  EXPECT_NE(Status::OutOfRange("x").ToString().find("OutOfRange"), std::string::npos);
  EXPECT_NE(Status::FailedPrecondition("x").ToString().find("FailedPrecondition"),
            std::string::npos);
  EXPECT_NE(Status::Internal("x").ToString().find("Internal"), std::string::npos);
  EXPECT_NE(Status::Unimplemented("x").ToString().find("Unimplemented"),
            std::string::npos);
  EXPECT_NE(Status::DeadlineExceeded("x").ToString().find("DeadlineExceeded"),
            std::string::npos);
  EXPECT_NE(Status::ResourceExhausted("x").ToString().find("ResourceExhausted"),
            std::string::npos);
}

TEST(StatusTest, OverloadCodesAreDistinct) {
  EXPECT_EQ(Status::DeadlineExceeded("x").code(), Status::Code::kDeadlineExceeded);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            Status::Code::kResourceExhausted);
  EXPECT_NE(Status::DeadlineExceeded("x").code(),
            Status::ResourceExhausted("x").code());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

TEST(ReturnNotOkMacroTest, PropagatesError) {
  auto inner = []() { return Status::Internal("boom"); };
  auto outer = [&]() -> Status {
    MALIVA_RETURN_NOT_OK(inner());
    return Status::OK();
  };
  EXPECT_FALSE(outer().ok());
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000000), b.UniformInt(0, 1000000));
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(7), b(8);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformInt(0, 1000000) == b.UniformInt(0, 1000000)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(3);
  EXPECT_EQ(rng.UniformInt(9, 9), 9);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliApproximatesP) {
  Rng rng(11);
  int hits = 0;
  const int kN = 20000;
  for (int i = 0; i < kN; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.02);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  RunningStat rs;
  for (int i = 0; i < 20000; ++i) rs.Add(rng.Normal(2.0, 3.0));
  EXPECT_NEAR(rs.mean(), 2.0, 0.1);
  EXPECT_NEAR(rs.stddev(), 3.0, 0.1);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(17);
  std::vector<size_t> s = rng.SampleWithoutReplacement(50, 20);
  std::set<size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(s.size(), 20u);
  EXPECT_EQ(uniq.size(), 20u);
  for (size_t v : s) EXPECT_LT(v, 50u);
}

TEST(RngTest, SampleWithoutReplacementAll) {
  Rng rng(17);
  std::vector<size_t> s = rng.SampleWithoutReplacement(10, 10);
  std::set<size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 10u);
}

// The O(n) partial Fisher-Yates the sampler is defined by: a dense index
// array, one UniformInt(i, n - 1) draw and one swap per output.
std::vector<size_t> DenseSampleWithoutReplacement(Rng* rng, size_t n, size_t k) {
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  for (size_t i = 0; i < k; ++i) {
    size_t j = static_cast<size_t>(
        rng->UniformInt(static_cast<int64_t>(i), static_cast<int64_t>(n - 1)));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

TEST(RngTest, SampleWithoutReplacementMatchesDenseReference) {
  // Same output and the same draws: the generator states agree afterwards.
  auto check = [](uint64_t seed, size_t n, size_t k) {
    Rng got(seed), want(seed);
    EXPECT_EQ(got.SampleWithoutReplacement(n, k),
              DenseSampleWithoutReplacement(&want, n, k))
        << "n=" << n << " k=" << k;
    EXPECT_EQ(got.UniformInt(0, 1 << 30), want.UniformInt(0, 1 << 30))
        << "n=" << n << " k=" << k;
  };
  check(1, 0, 0);
  check(2, 1, 0);
  check(3, 1, 1);
  check(4, 10, 0);
  check(5, 10, 10);
  check(6, 8272, 64);
  check(7, 50000, 64);
  check(8, 64, 64);
  Rng sizes(29);
  for (int trial = 0; trial < 200; ++trial) {
    size_t n = static_cast<size_t>(sizes.UniformInt(1, 400));
    size_t k = static_cast<size_t>(sizes.UniformInt(0, static_cast<int64_t>(n)));
    check(100 + static_cast<uint64_t>(trial), n, k);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(ZipfTableTest, RankZeroMostLikely) {
  Rng rng(23);
  ZipfTable z(100, 1.1);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 30000; ++i) ++counts[static_cast<size_t>(z.Sample(&rng))];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[90]);
}

TEST(ZipfTableTest, SamplesInRange) {
  Rng rng(29);
  ZipfTable z(5, 1.0);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = z.Sample(&rng);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 5);
  }
}

TEST(RunningStatTest, MeanAndVariance) {
  RunningStat rs;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) rs.Add(v);
  EXPECT_EQ(rs.count(), 5u);
  EXPECT_DOUBLE_EQ(rs.mean(), 3.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 2.5);  // sample variance
}

TEST(RunningStatTest, EmptyAndSingle) {
  RunningStat rs;
  EXPECT_EQ(rs.mean(), 0.0);
  EXPECT_EQ(rs.variance(), 0.0);
  rs.Add(7.0);
  EXPECT_EQ(rs.mean(), 7.0);
  EXPECT_EQ(rs.variance(), 0.0);
}

TEST(StatsTest, MeanStddev) {
  std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Mean(xs), 5.0);
  EXPECT_NEAR(Stddev(xs), 2.138, 0.001);
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_EQ(Stddev({1.0}), 0.0);
}

TEST(StatsTest, Percentile) {
  std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50), 5.5);
  EXPECT_DOUBLE_EQ(Percentile({42.0}, 50), 42.0);
}

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("CoViD-19"), "covid-19");
  EXPECT_EQ(ToLower(""), "");
}

TEST(StringUtilTest, TokenizeSplitsAndLowercases) {
  std::vector<std::string> t = Tokenize("Hello, COVID world!  x2");
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[0], "hello");
  EXPECT_EQ(t[1], "covid");
  EXPECT_EQ(t[2], "world");
  EXPECT_EQ(t[3], "x2");
}

TEST(StringUtilTest, TokenizeEmptyAndPunctuation) {
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize("!!! ---").empty());
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"solo"}, "+"), "solo");
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
}


TEST(ThreadPoolDepthTest, IdlePoolReportsZero) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.PendingTasks(), 0u);
  EXPECT_EQ(pool.QueueDepth(), 0u);
}

TEST(ThreadPoolDepthTest, QueueDepthSeesBacklogBehindABlockedWorker) {
  // One worker, three tasks gated on a latch: the worker claims the first
  // (leaving the queue), the other two stay enqueued — PendingTasks counts
  // all three, QueueDepth only the backlog. This is the load signal the
  // admission gate reads, so the distinction is the contract under test.
  ThreadPool pool(1);
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  for (int i = 0; i < 3; ++i) {
    pool.Submit([&] {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return release; });
    });
  }
  // The worker claims the first task asynchronously; poll until it has.
  while (pool.QueueDepth() != 2) std::this_thread::yield();
  EXPECT_EQ(pool.PendingTasks(), 3u);
  {
    std::unique_lock<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  pool.Wait();
  EXPECT_EQ(pool.PendingTasks(), 0u);
  EXPECT_EQ(pool.QueueDepth(), 0u);
}

}  // namespace
}  // namespace maliva
