// Golden-trace regression tests (ISSUE 9): the committed trace +
// per-record digest files under tests/data/ pin the end-to-end behavior of
// the whole rewrite stack. Any change to QTE costs, agent training, session
// seeding, SQL rendering, or serving order that alters a single response
// shows up here as a digest mismatch — at 1/4/8 fleet threads, with the
// admission plane off and (permissively) on, with the profiler off and on.
//
// After an *intentional* behavior change, regenerate the goldens:
//   MALIVA_UPDATE_GOLDEN=1 ./build/maliva_tests --gtest_filter='ReplayDriverTest.*'
// and commit the rewritten tests/data/ files with the change.

#include "workload/replay_driver.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/replay_golden.h"

namespace maliva {
namespace {

std::string DataPath(const char* file) {
  return std::string(MALIVA_TEST_DATA_DIR) + "/" + file;
}

bool UpdateGoldenMode() { return std::getenv("MALIVA_UPDATE_GOLDEN") != nullptr; }

bool ReadFileText(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream text;
  text << in.rdbuf();
  *out = text.str();
  return true;
}

void WriteFileText(const std::string& path, const std::string& text) {
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out.is_open()) << "cannot write " << path;
  out << text;
}

class ReplayDriverTest : public ::testing::Test {
 protected:
  // The two golden scenarios build once for the whole suite (the expensive
  // part); each leg's fleet borrows them.
  static void SetUpTestSuite() {
    workload_ = new replay_golden::GoldenWorkload(replay_golden::BuildGoldenWorkload());
  }
  static void TearDownTestSuite() {
    delete workload_;
    workload_ = nullptr;
  }

  /// Replays the golden trace closed-loop on one fleet variant.
  static ReplayReport ReplayLeg(size_t threads, bool admission, bool profiled) {
    FleetConfig cfg = replay_golden::GoldenFleetConfig(threads, admission);
    cfg.defaults.WithProfileRequests(profiled);
    MalivaFleet fleet(cfg);
    Status registered = replay_golden::RegisterGolden(&fleet, workload_);
    EXPECT_TRUE(registered.ok()) << registered.ToString();
    ReplayDriver driver(&fleet);
    Result<ReplayReport> report =
        driver.Replay(replay_golden::GoldenTrace(), ReplayOptions());
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report.value();
  }

  static replay_golden::GoldenWorkload* workload_;
};

replay_golden::GoldenWorkload* ReplayDriverTest::workload_ = nullptr;

TEST_F(ReplayDriverTest, GoldenTraceMatchesCommittedBytes) {
  std::string expected = replay_golden::GoldenTrace().Serialize();
  std::string path = DataPath(replay_golden::kTraceFile);
  if (UpdateGoldenMode()) {
    WriteFileText(path, expected);
    GTEST_SKIP() << "rewrote " << path;
  }
  std::string committed;
  ASSERT_TRUE(ReadFileText(path, &committed))
      << path << " missing — regenerate with MALIVA_UPDATE_GOLDEN=1";
  EXPECT_EQ(committed, expected)
      << "golden trace bytes drifted; if intentional, regenerate with "
         "MALIVA_UPDATE_GOLDEN=1 and commit";
}

TEST_F(ReplayDriverTest, GoldenDigestsStableAcrossFleetVariants) {
  // Reference: 1 thread, admission off, profiler off — the plainest serve
  // path there is.
  ReplayReport reference = ReplayLeg(1, false, false);
  ASSERT_EQ(reference.records, replay_golden::GoldenTrace().records.size());
  ASSERT_EQ(reference.ok, reference.records) << "golden replay must be all-OK";
  ASSERT_EQ(reference.record_digests.size(), reference.records);

  struct Leg {
    size_t threads;
    bool admission;
    bool profiled;
  };
  const Leg legs[] = {
      {4, false, false}, {8, false, false},           // thread counts
      {1, false, true},  {4, false, true}, {8, false, true},  // + profiler
      {4, true, false},  {8, true, true},             // + permissive admission
  };
  for (const Leg& leg : legs) {
    ReplayReport report = ReplayLeg(leg.threads, leg.admission, leg.profiled);
    EXPECT_EQ(report.record_digests, reference.record_digests)
        << "digest drift at threads=" << leg.threads
        << " admission=" << leg.admission << " profiled=" << leg.profiled;
    EXPECT_EQ(report.digest, reference.digest);
  }

  // Compare against (or regenerate) the committed digest file.
  std::string path = DataPath(replay_golden::kDigestFile);
  std::string expected = replay_golden::FormatDigests(reference.record_digests);
  if (UpdateGoldenMode()) {
    WriteFileText(path, expected);
    GTEST_SKIP() << "rewrote " << path;
  }
  std::string committed;
  ASSERT_TRUE(ReadFileText(path, &committed))
      << path << " missing — regenerate with MALIVA_UPDATE_GOLDEN=1";
  std::vector<uint64_t> committed_digests;
  ASSERT_TRUE(replay_golden::ParseDigests(committed, &committed_digests));
  EXPECT_EQ(committed_digests, reference.record_digests)
      << "end-to-end response digests drifted from tests/data/"
      << replay_golden::kDigestFile
      << "; if the behavior change is intentional, regenerate with "
         "MALIVA_UPDATE_GOLDEN=1 and commit";
}

TEST_F(ReplayDriverTest, ReportAggregatesPerScenario) {
  ReplayReport report = ReplayLeg(4, false, false);
  // The golden trace mixes twitter (weights 2+1) and tpch (weight 1) 3:1.
  ASSERT_EQ(report.scenarios.count("twitter"), 1u);
  ASSERT_EQ(report.scenarios.count("tpch"), 1u);
  EXPECT_EQ(report.scenarios["twitter"].records, 36u);
  EXPECT_EQ(report.scenarios["tpch"].records, 12u);
  EXPECT_EQ(report.scenarios["twitter"].ok +
                report.scenarios["tpch"].ok,
            report.ok);
  // tpch's 0.9 quality floor must force at least one exact fallback — the
  // digest set covers that path.
  EXPECT_GT(report.scenarios["tpch"].exact_fallbacks, 0u);
  EXPECT_EQ(report.scenarios["twitter"].exact_fallbacks, 0u);
  EXPECT_GE(report.p95_ms, report.p50_ms);
  EXPECT_GE(report.p99_ms, report.p95_ms);
}

TEST_F(ReplayDriverTest, ProfilerOnCarriesBreakdownsOffDoesNot) {
  ReplayReport off = ReplayLeg(1, false, false);
  EXPECT_EQ(off.profiled, 0u);
  ReplayReport on = ReplayLeg(1, false, true);
  EXPECT_EQ(on.profiled, on.records);
  EXPECT_GT(on.profile.TotalMs(ProfileBreakdown::kSearch), 0.0);
  EXPECT_GT(on.profile.phases[ProfileBreakdown::kSearch].count, 0u);
  // The ladder runs inside search: cumulative search >= nested selectivity.
  EXPECT_GE(on.profile.TotalMs(ProfileBreakdown::kSearch),
            on.profile.TotalMs(ProfileBreakdown::kSelectivity));
  // And the decision bytes are identical either way.
  EXPECT_EQ(on.record_digests, off.record_digests);
}

TEST_F(ReplayDriverTest, OpenLoopRequiresAdmission) {
  MalivaFleet fleet(replay_golden::GoldenFleetConfig(2, /*admission=*/false));
  ASSERT_TRUE(replay_golden::RegisterGolden(&fleet, workload_).ok());
  ReplayDriver driver(&fleet);
  ReplayOptions open;
  open.open_loop = true;
  Result<ReplayReport> report = driver.Replay(replay_golden::GoldenTrace(), open);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), Status::Code::kFailedPrecondition);
}

TEST_F(ReplayDriverTest, OpenLoopThroughPermissiveGateMatchesClosedLoop) {
  // A gate too permissive to shed serves everything as asked, and with the
  // caches off each decision is order-independent — so even the open-loop
  // schedule reproduces the reference digests (replayed at 100x speed).
  ReplayReport reference = ReplayLeg(1, false, false);
  MalivaFleet fleet(replay_golden::GoldenFleetConfig(4, /*admission=*/true));
  ASSERT_TRUE(replay_golden::RegisterGolden(&fleet, workload_).ok());
  ReplayDriver driver(&fleet);
  ReplayOptions open;
  open.open_loop = true;
  open.time_scale = 0.01;
  Result<ReplayReport> report = driver.Replay(replay_golden::GoldenTrace(), open);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().ok, report.value().records);
  EXPECT_EQ(report.value().shed_deadline + report.value().shed_overload, 0u);
  EXPECT_EQ(report.value().record_digests, reference.record_digests);
}

TEST_F(ReplayDriverTest, RejectsInvalidReplayInputs) {
  MalivaFleet fleet(replay_golden::GoldenFleetConfig(1, false));
  ASSERT_TRUE(replay_golden::RegisterGolden(&fleet, workload_).ok());
  ReplayDriver driver(&fleet);

  Trace empty;
  empty.name = "empty";
  EXPECT_FALSE(driver.Replay(empty).ok());

  // Unknown scenario routing key.
  TraceBuilder builder("unknown", 1);
  TraceStream s;
  s.scenario = "no-such-shard";
  s.num_queries = 4;
  builder.AddStream(s).SteadyPhase(100.0, 4);
  Result<ReplayReport> report = driver.Replay(builder.Build());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), Status::Code::kNotFound);
}

TEST_F(ReplayDriverTest, DigestIgnoresRunVaryingStats) {
  RewriteResponse a;
  a.strategy = "mdp/accurate";
  a.rewritten_sql = "SELECT 1";
  a.outcome.total_ms = 12.5;
  RewriteResponse b = a;
  b.stats.serve_wall_ms = 99.0;
  b.stats.queue_wait_ms = 3.0;
  b.stats.result_cache_hit = true;
  b.stats.profile.emplace();
  EXPECT_EQ(ReplayDriver::ResponseDigest(Result<RewriteResponse>(a)),
            ReplayDriver::ResponseDigest(Result<RewriteResponse>(b)));
  // But any decision byte matters.
  RewriteResponse c = a;
  c.outcome.total_ms = 12.5000001;
  EXPECT_NE(ReplayDriver::ResponseDigest(Result<RewriteResponse>(a)),
            ReplayDriver::ResponseDigest(Result<RewriteResponse>(c)));
}

TEST_F(ReplayDriverTest, DigestSeparatesErrorCodes) {
  Result<RewriteResponse> shed_deadline(Status::DeadlineExceeded("x"));
  Result<RewriteResponse> shed_overload(Status::ResourceExhausted("y"));
  EXPECT_NE(ReplayDriver::ResponseDigest(shed_deadline),
            ReplayDriver::ResponseDigest(shed_overload));
  // Messages are excluded: same code, different message, same digest.
  Result<RewriteResponse> other(Status::DeadlineExceeded("different message"));
  EXPECT_EQ(ReplayDriver::ResponseDigest(shed_deadline),
            ReplayDriver::ResponseDigest(other));
}

}  // namespace
}  // namespace maliva
