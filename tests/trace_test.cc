// Trace format + generator tests (ISSUE 9): seeded determinism, exact
// interleave mixes, serialization round-trips, and the promoted
// ArrivalGenerator's contract (src/workload/arrival.h).

#include "workload/trace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "bench/replay_golden.h"
#include "workload/arrival.h"

namespace maliva {
namespace {

TraceStream Stream(const std::string& scenario, const std::string& strategy,
                   double weight, uint32_t num_queries) {
  TraceStream s;
  s.scenario = scenario;
  s.strategy = strategy;
  s.weight = weight;
  s.num_queries = num_queries;
  return s;
}

Trace BuildMixedTrace(uint64_t seed) {
  TraceBuilder builder("mixed", seed);
  builder.AddStream(Stream("twitter", "mdp/accurate", 2.0, 16))
      .AddStream(Stream("taxi", "baseline", 1.0, 8))
      .AddStream(Stream("tpch", "", 1.0, 4))
      .SteadyPhase(100.0, 40)
      .RampPhase(100.0, 400.0, 24)
      .GapMs(250.0)
      .BurstPhase(12)
      .DriftPhase(200.0, 24);
  return builder.Build();
}

// ---------------------------------------------------------- ReplayTraceTest

TEST(ReplayTraceTest, SameSeedSameBytes) {
  std::string a = BuildMixedTrace(7).Serialize();
  std::string b = BuildMixedTrace(7).Serialize();
  EXPECT_EQ(a, b);
}

TEST(ReplayTraceTest, DifferentSeedDifferentSchedule) {
  Trace a = BuildMixedTrace(7);
  Trace b = BuildMixedTrace(8);
  ASSERT_EQ(a.records.size(), b.records.size());
  bool any_differs = false;
  for (size_t i = 0; i < a.records.size() && !any_differs; ++i) {
    any_differs = a.records[i].arrival_ms != b.records[i].arrival_ms;
  }
  EXPECT_TRUE(any_differs);
}

TEST(ReplayTraceTest, ArrivalsNonDecreasingAcrossPhases) {
  Trace t = BuildMixedTrace(3);
  ASSERT_TRUE(t.Validate().ok());
  double prev = 0.0;
  for (const TraceRecord& r : t.records) {
    EXPECT_GE(r.arrival_ms, prev);
    prev = r.arrival_ms;
  }
}

TEST(ReplayTraceTest, GapAdvancesTheSchedule) {
  TraceBuilder builder("gap", 1);
  builder.AddStream(Stream("s", "", 1.0, 4))
      .SteadyPhase(1000.0, 5)
      .GapMs(10000.0)
      .SteadyPhase(1000.0, 5);
  Trace t = builder.Build();
  ASSERT_EQ(t.records.size(), 10u);
  EXPECT_GE(t.records[5].arrival_ms - t.records[4].arrival_ms, 10000.0);
}

TEST(ReplayTraceTest, BurstRecordsShareOneOffset) {
  TraceBuilder builder("burst", 1);
  builder.AddStream(Stream("s", "", 1.0, 4)).SteadyPhase(100.0, 3).BurstPhase(5);
  Trace t = builder.Build();
  ASSERT_EQ(t.records.size(), 8u);
  for (size_t i = 3; i < 8; ++i) {
    EXPECT_EQ(t.records[i].arrival_ms, t.records[2].arrival_ms);
  }
}

TEST(ReplayTraceTest, SmoothWrrMixCountsAreExact) {
  // Weights 2:1:1 over 100 records must yield exactly 50/25/25 — smooth WRR
  // is deterministic, not a sampling scheme.
  TraceBuilder builder("mix", 5);
  builder.AddStream(Stream("a", "", 2.0, 4))
      .AddStream(Stream("b", "", 1.0, 4))
      .AddStream(Stream("c", "", 1.0, 4))
      .SteadyPhase(500.0, 100);
  Trace t = builder.Build();
  std::vector<size_t> counts = t.RecordsPerStream();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 50u);
  EXPECT_EQ(counts[1], 25u);
  EXPECT_EQ(counts[2], 25u);
}

TEST(ReplayTraceTest, MultiScenarioInterleaveMatchesMixSpec) {
  Trace t = BuildMixedTrace(11);
  std::vector<size_t> counts = t.RecordsPerStream();
  size_t total = t.records.size();
  ASSERT_EQ(total, 100u);
  // 2:1:1 over every phase: the interleave holds within one record at any
  // prefix, so over 100 records the split is exact.
  EXPECT_EQ(counts[0], 50u);
  EXPECT_EQ(counts[1], 25u);
  EXPECT_EQ(counts[2], 25u);
  std::map<std::string, size_t> by_scenario = t.RecordsPerScenario();
  EXPECT_EQ(by_scenario["twitter"], 50u);
  EXPECT_EQ(by_scenario["taxi"], 25u);
  EXPECT_EQ(by_scenario["tpch"], 25u);
}

TEST(ReplayTraceTest, DriftSlidesQueryWindow) {
  TraceBuilder builder("drift", 9);
  builder.AddStream(Stream("s", "", 1.0, 100)).DriftPhase(100.0, 200);
  Trace t = builder.Build();
  // Early draws come from the front half of the domain, late draws from the
  // back half; the window start moves monotonically with the phase.
  uint32_t early_max = 0, late_min = 100;
  for (size_t i = 0; i < 20; ++i) {
    early_max = std::max(early_max, t.records[i].query_index);
  }
  for (size_t i = 180; i < 200; ++i) {
    late_min = std::min(late_min, t.records[i].query_index);
  }
  EXPECT_LT(early_max, 60u);  // front window: [0, 50)
  EXPECT_GE(late_min, 40u);   // back window: [50, 100)
}

TEST(ReplayTraceTest, DriftRecordsStayInsideDomain) {
  Trace t = BuildMixedTrace(13);
  ASSERT_TRUE(t.Validate().ok());
  for (const TraceRecord& r : t.records) {
    EXPECT_LT(r.query_index, t.streams[r.stream].num_queries);
  }
}

TEST(ReplayTraceTest, SerializeRoundTripsBitExactly) {
  Trace t = BuildMixedTrace(21);
  t.streams[2].tau_ms = 333.125;
  t.streams[2].quality_floor = 0.875;
  std::string text = t.Serialize();
  Result<Trace> round = Trace::Deserialize(text);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round.value().Serialize(), text);
  EXPECT_EQ(round.value().name, "mixed");
  EXPECT_EQ(round.value().seed, 21u);
  ASSERT_EQ(round.value().records.size(), t.records.size());
  for (size_t i = 0; i < t.records.size(); ++i) {
    EXPECT_EQ(round.value().records[i].arrival_ms, t.records[i].arrival_ms);
    EXPECT_EQ(round.value().records[i].stream, t.records[i].stream);
    EXPECT_EQ(round.value().records[i].query_index, t.records[i].query_index);
  }
  EXPECT_EQ(round.value().streams[2].tau_ms, 333.125);
  EXPECT_EQ(round.value().streams[2].quality_floor, 0.875);
}

TEST(ReplayTraceTest, EmptyScenarioRoundTripsThroughSentinel) {
  Trace t = BuildMixedTrace(2);
  ASSERT_TRUE(t.streams[2].strategy.empty());
  Result<Trace> round = Trace::Deserialize(t.Serialize());
  ASSERT_TRUE(round.ok());
  EXPECT_TRUE(round.value().streams[2].strategy.empty());
}

TEST(ReplayTraceTest, SaveLoadRoundTrip) {
  Trace t = BuildMixedTrace(4);
  std::string path = ::testing::TempDir() + "/maliva_trace_roundtrip.txt";
  ASSERT_TRUE(t.SaveTo(path).ok());
  Result<Trace> loaded = Trace::LoadFrom(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().Serialize(), t.Serialize());
  std::remove(path.c_str());
}

TEST(ReplayTraceTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(Trace::Deserialize("").ok());
  EXPECT_FALSE(Trace::Deserialize("maliva-trace v2\n").ok());
  EXPECT_FALSE(Trace::Deserialize("maliva-trace v1\nname x\nseed 1\n"
                                  "streams 1\nbogus\n").ok());
  // Truncated record list.
  EXPECT_FALSE(Trace::Deserialize("maliva-trace v1\nname x\nseed 1\n"
                                  "streams 1\nstream - - 0 -1 1 4\n"
                                  "records 2\n0 0 1.0\n").ok());
  // Header counts far beyond what the input holds are refused, not
  // reserved up front.
  for (const char* huge : {"maliva-trace v1\nname x\nseed 1\n"
                           "streams 18446744073709551615\n",
                           "maliva-trace v1\nname x\nseed 1\nstreams 0\n"
                           "records 1152921504606846975\n"}) {
    Result<Trace> parsed = Trace::Deserialize(huge);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), Status::Code::kInvalidArgument);
  }
  // Every line must parse whole, and unsigned fields take no sign.
  auto trace = [](const char* seed, const char* stream, const char* records,
                  const char* record) {
    return std::string("maliva-trace v1\nname x\n") + seed + "\nstreams 1\n" +
           stream + "\n" + records + "\n" + record + "\nend\n";
  };
  const std::string valid = trace("seed 1", "stream a b 500 0 1 2", "records 1", "0 1 2.5");
  ASSERT_TRUE(Trace::Deserialize(valid).ok());
  for (const std::string& bad :
       {trace("seed 1", "stream a b 500 0 1 2 junk", "records 1", "0 1 2.5"),
        trace("seed 1", "stream a b 500 0 1 2", "records 1", "0 1 2.5 junk"),
        trace("seed 1x", "stream a b 500 0 1 2", "records 1", "0 1 2.5"),
        trace("seed 1", "stream a b 500 0 1 2", "records 1x", "0 1 2.5"),
        trace("seed -1", "stream a b 500 0 1 2", "records 1", "0 1 2.5"),
        trace("seed 1", "stream a b 500 0 1 -4294967295", "records 1", "0 0 2.5"),
        valid + "end\n"}) {
    Result<Trace> parsed = Trace::Deserialize(bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), Status::Code::kInvalidArgument) << bad;
  }
}

// Seeded mutations of the golden trace (byte flips, truncations, line
// deletions and duplications) must each come back as a Status, never a
// crash; any mutation the parser accepts must re-serialize stably.
TEST(ReplayTraceTest, MutatedInputNeverCrashes) {
  const std::string golden = replay_golden::GoldenTrace().Serialize();
  std::vector<std::string> lines;
  for (size_t start = 0; start < golden.size();) {
    size_t end = golden.find('\n', start) + 1;
    lines.push_back(golden.substr(start, end - start));
    start = end;
  }
  std::mt19937_64 rng(20240521);
  auto below = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  size_t accepted = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string text;
    switch (trial % 4) {
      case 0:  // flip one or more bits of one byte
        text = golden;
        text[below(text.size())] ^= static_cast<char>(1 + below(255));
        break;
      case 1:
        text = golden.substr(0, below(golden.size()));
        break;
      case 2:
      case 3: {  // delete (2) or duplicate (3) one line
        const size_t target = below(lines.size());
        for (size_t i = 0; i < lines.size(); ++i) {
          const size_t copies = i != target ? 1 : (trial % 4 == 2 ? 0 : 2);
          for (size_t c = 0; c < copies; ++c) text += lines[i];
        }
        break;
      }
    }
    Result<Trace> parsed = Trace::Deserialize(text);
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), Status::Code::kInvalidArgument);
      continue;
    }
    ++accepted;
    const std::string once = parsed.value().Serialize();
    Result<Trace> again = Trace::Deserialize(once);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(again.value().Serialize(), once) << "trial " << trial;
  }
  // Flips inside the name or an arrival's digits stay well-formed.
  EXPECT_GT(accepted, 0u);
}

TEST(ReplayTraceTest, RecordInternsStreams) {
  Trace t;
  t.name = "recorded";
  t.Record(0.0, "twitter", "mdp/accurate", 500.0, -1.0, 3);
  t.Record(1.0, "twitter", "mdp/accurate", 500.0, -1.0, 7);
  t.Record(2.0, "tpch", "baseline", 0.0, 0.9, 1);
  ASSERT_EQ(t.streams.size(), 2u);
  EXPECT_EQ(t.records.size(), 3u);
  EXPECT_EQ(t.streams[0].num_queries, 8u);  // max query_index + 1
  EXPECT_TRUE(t.Validate().ok());
}

TEST(ReplayTraceTest, ValidateCatchesDefects) {
  Trace t;
  t.streams.push_back(Stream("ok", "", 1.0, 4));
  t.records.push_back({1.0, 0, 0});
  t.records.push_back({0.5, 0, 0});  // decreasing arrival
  EXPECT_FALSE(t.Validate().ok());

  Trace bad_stream;
  bad_stream.streams.push_back(Stream("has space", "", 1.0, 4));
  EXPECT_FALSE(bad_stream.Validate().ok());

  Trace bad_index;
  bad_index.streams.push_back(Stream("ok", "", 1.0, 4));
  bad_index.records.push_back({0.0, 1, 0});  // stream out of range
  EXPECT_FALSE(bad_index.Validate().ok());

  Trace bad_query;
  bad_query.streams.push_back(Stream("ok", "", 1.0, 4));
  bad_query.records.push_back({0.0, 0, 9});  // query outside the domain
  EXPECT_FALSE(bad_query.Validate().ok());
}

// -------------------------------------------------------- ReplayArrivalTest

TEST(ReplayArrivalTest, SameSeedSameSchedule) {
  ArrivalGenerator a(250.0, 42);
  ArrivalGenerator b(250.0, 42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.NextMs(), b.NextMs());
  }
}

TEST(ReplayArrivalTest, DifferentSeedsDiverge) {
  ArrivalGenerator a(250.0, 42);
  ArrivalGenerator b(250.0, 43);
  bool diverged = false;
  for (int i = 0; i < 100 && !diverged; ++i) {
    diverged = a.NextMs() != b.NextMs();
  }
  EXPECT_TRUE(diverged);
}

TEST(ReplayArrivalTest, RateIsAccurate) {
  // 200k arrivals at 500 QPS: the mean offset must land within 2% of the
  // analytic schedule (law of large numbers on exponential gaps).
  const double rate_qps = 500.0;
  const int n = 200000;
  ArrivalGenerator gen(rate_qps, 7);
  double last = 0.0;
  for (int i = 0; i < n; ++i) last = gen.NextMs();
  double expected_ms = 1000.0 * static_cast<double>(n) / rate_qps;
  EXPECT_NEAR(last, expected_ms, 0.02 * expected_ms);
}

TEST(ReplayArrivalTest, OffsetsAreMonotone) {
  ArrivalGenerator gen(1000.0, 5);
  double prev = 0.0;
  for (int i = 0; i < 1000; ++i) {
    double next = gen.NextMs();
    EXPECT_GE(next, prev);
    prev = next;
  }
}

TEST(ReplayArrivalTest, SetRateReaimsTheProcess) {
  ArrivalGenerator gen(10.0, 3);
  gen.SetRateQps(10000.0);
  double first = gen.NextMs();
  // At 10k QPS the expected gap is 0.1ms; even a tail draw stays far under
  // the 100ms expected gap of the original rate.
  EXPECT_LT(first, 50.0);
}

TEST(ReplayArrivalTest, AdvanceToIsForwardOnly) {
  ArrivalGenerator gen(1000.0, 9);
  double t1 = gen.NextMs();
  gen.AdvanceTo(t1 + 500.0);
  EXPECT_EQ(gen.CurrentMs(), t1 + 500.0);
  gen.AdvanceTo(0.0);  // backwards: ignored
  EXPECT_EQ(gen.CurrentMs(), t1 + 500.0);
  EXPECT_GE(gen.NextMs(), t1 + 500.0);
}

TEST(ReplayArrivalTest, NoWallClockReads) {
  // The schedule is purely virtual: two generators constructed at different
  // wall times (with a real sleep between them) still agree exactly.
  ArrivalGenerator a(100.0, 77);
  std::vector<double> first;
  for (int i = 0; i < 50; ++i) first.push_back(a.NextMs());
  // Burn measurable wall time without any timer dependency in the assert.
  volatile double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) sink = sink + std::sqrt(static_cast<double>(i));
  (void)sink;
  ArrivalGenerator b(100.0, 77);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(b.NextMs(), first[i]);
}

}  // namespace
}  // namespace maliva
