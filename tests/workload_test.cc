// Workload tests: dataset generators, query generation invariants,
// difficulty bucketing, scenario assembly.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "workload/difficulty.h"
#include "workload/query_gen.h"
#include "workload/scenario.h"
#include "workload/taxi.h"
#include "workload/tpch.h"
#include "workload/twitter.h"

namespace maliva {
namespace {

TEST(TwitterGenTest, SchemaAndSize) {
  TwitterConfig cfg;
  cfg.num_rows = 5000;
  cfg.num_users = 500;
  std::unique_ptr<Table> t = GenerateTweetsTable(cfg);
  EXPECT_EQ(t->NumRows(), 5000u);
  EXPECT_EQ(t->name(), "tweets");
  EXPECT_TRUE(t->ColumnIndex("text").ok());
  EXPECT_TRUE(t->ColumnIndex("created_at").ok());
  EXPECT_TRUE(t->ColumnIndex("coordinates").ok());
  EXPECT_TRUE(t->ColumnIndex("user_id").ok());
}

TEST(TwitterGenTest, ValuesWithinDomain) {
  TwitterConfig cfg;
  cfg.num_rows = 3000;
  std::unique_ptr<Table> t = GenerateTweetsTable(cfg);
  const Column& ts = t->GetColumn("created_at");
  const Column& loc = t->GetColumn("coordinates");
  const Column& uid = t->GetColumn("user_id");
  for (RowId r = 0; r < t->NumRows(); ++r) {
    EXPECT_GE(ts.TimestampAt(r), cfg.start_epoch);
    EXPECT_LT(ts.TimestampAt(r), cfg.start_epoch + cfg.duration_s);
    const GeoPoint& p = loc.PointAt(r);
    EXPECT_GE(p.lon, cfg.min_lon);
    EXPECT_LE(p.lon, cfg.max_lon);
    EXPECT_GE(p.lat, cfg.min_lat);
    EXPECT_LE(p.lat, cfg.max_lat);
    EXPECT_GE(uid.Int64At(r), 0);
    EXPECT_LT(uid.Int64At(r), static_cast<int64_t>(cfg.num_users));
  }
}

TEST(TwitterGenTest, DeterministicPerSeed) {
  TwitterConfig cfg;
  cfg.num_rows = 1000;
  auto a = GenerateTweetsTable(cfg);
  auto b = GenerateTweetsTable(cfg);
  for (RowId r = 0; r < 1000; r += 97) {
    EXPECT_EQ(a->GetColumn("text").TextAt(r), b->GetColumn("text").TextAt(r));
  }
  cfg.seed = 43;
  auto c = GenerateTweetsTable(cfg);
  EXPECT_NE(a->GetColumn("text").TextAt(0), c->GetColumn("text").TextAt(0));
}

TEST(TwitterGenTest, EventWordsExistAndAreBursty) {
  TwitterConfig cfg;
  cfg.num_rows = 20000;
  std::unique_ptr<Table> t = GenerateTweetsTable(cfg);
  const Column& text = t->GetColumn("text");
  const Column& ts = t->GetColumn("created_at");
  // Find rows containing "event0"; their timestamps must cluster.
  std::vector<int64_t> hits;
  for (RowId r = 0; r < t->NumRows(); ++r) {
    if (text.TextAt(r).find("event0") != std::string::npos) {
      hits.push_back(ts.TimestampAt(r));
    }
  }
  ASSERT_GT(hits.size(), 10u);
  auto [lo, hi] = std::minmax_element(hits.begin(), hits.end());
  EXPECT_LT(*hi - *lo, 17LL * 24 * 3600);  // within the max event window
}

TEST(TwitterGenTest, UsersTable) {
  TwitterConfig cfg;
  cfg.num_users = 300;
  std::unique_ptr<Table> u = GenerateUsersTable(cfg);
  EXPECT_EQ(u->NumRows(), 300u);
  const Column& ids = u->GetColumn("id");
  for (RowId r = 0; r < 300; ++r) {
    EXPECT_EQ(ids.Int64At(r), static_cast<int64_t>(r));  // dense PK
  }
}

TEST(TaxiGenTest, SchemaAndDomains) {
  TaxiConfig cfg;
  cfg.num_rows = 3000;
  std::unique_ptr<Table> t = GenerateTaxiTable(cfg);
  EXPECT_EQ(t->NumRows(), 3000u);
  EXPECT_EQ(t->name(), "trips");
  const Column& dist = t->GetColumn("trip_distance");
  for (RowId r = 0; r < t->NumRows(); ++r) {
    EXPECT_GT(dist.DoubleAt(r), 0.0);
    EXPECT_LE(dist.DoubleAt(r), 60.0);
  }
}

TEST(TaxiGenTest, RushHourSkew) {
  TaxiConfig cfg;
  cfg.num_rows = 20000;
  std::unique_ptr<Table> t = GenerateTaxiTable(cfg);
  const Column& ts = t->GetColumn("pickup_datetime");
  size_t rush = 0, night = 0;
  for (RowId r = 0; r < t->NumRows(); ++r) {
    int hour = static_cast<int>((ts.TimestampAt(r) / 3600) % 24);
    if (hour >= 7 && hour <= 10) ++rush;
    if (hour >= 1 && hour <= 4) ++night;
  }
  EXPECT_GT(rush, 2 * night);  // rush hours much denser than night
}

TEST(TpchGenTest, ReceiptLagsShipment) {
  TpchConfig cfg;
  cfg.num_rows = 5000;
  std::unique_ptr<Table> t = GenerateLineitemTable(cfg);
  const Column& ship = t->GetColumn("ship_date");
  const Column& receipt = t->GetColumn("receipt_date");
  for (RowId r = 0; r < t->NumRows(); ++r) {
    EXPECT_GE(receipt.TimestampAt(r), ship.TimestampAt(r));
    EXPECT_LE(receipt.TimestampAt(r), ship.TimestampAt(r) + 61LL * 86400);
  }
}

TEST(QueryGenTest, ProducesRequestedShape) {
  TwitterConfig tw;
  tw.num_rows = 5000;
  std::unique_ptr<Table> t = GenerateTweetsTable(tw);
  QueryGenConfig qg;
  qg.attrs = {"text", "created_at", "coordinates"};
  qg.num_queries = 50;
  qg.output_column = "coordinates";
  std::vector<Query> qs = GenerateQueries(*t, nullptr, qg);
  ASSERT_EQ(qs.size(), 50u);
  std::set<uint64_t> ids;
  for (const Query& q : qs) {
    ids.insert(q.id);
    ASSERT_EQ(q.predicates.size(), 3u);
    EXPECT_EQ(q.predicates[0].type, PredicateType::kKeyword);
    EXPECT_EQ(q.predicates[1].type, PredicateType::kTimeRange);
    EXPECT_EQ(q.predicates[2].type, PredicateType::kSpatialBox);
    EXPECT_FALSE(q.join.has_value());
  }
  EXPECT_EQ(ids.size(), 50u);  // unique ids
}

TEST(QueryGenTest, KeywordsAreNonEmptyNonStopwords) {
  TwitterConfig tw;
  tw.num_rows = 8000;
  std::unique_ptr<Table> t = GenerateTweetsTable(tw);
  QueryGenConfig qg;
  qg.attrs = {"text", "created_at", "coordinates"};
  qg.num_queries = 100;
  qg.output_column = "coordinates";
  std::vector<Query> qs = GenerateQueries(*t, nullptr, qg);
  for (const Query& q : qs) {
    EXPECT_FALSE(q.predicates[0].keyword.empty());
  }
}

TEST(QueryGenTest, QueriesAnchoredAtSampledRows) {
  // Every generated range starts at some row's value, so every query matches
  // at least one row (the anchor) unless ranges clip. Check non-emptiness of
  // range predicates structurally.
  TwitterConfig tw;
  tw.num_rows = 5000;
  std::unique_ptr<Table> t = GenerateTweetsTable(tw);
  QueryGenConfig qg;
  qg.attrs = {"text", "created_at", "coordinates"};
  qg.num_queries = 40;
  qg.output_column = "coordinates";
  std::vector<Query> qs = GenerateQueries(*t, nullptr, qg);
  for (const Query& q : qs) {
    EXPECT_LE(q.predicates[1].range.lo, q.predicates[1].range.hi);
    EXPECT_LT(q.predicates[2].box.min_lon, q.predicates[2].box.max_lon);
  }
}

TEST(QueryGenTest, JoinQueriesCarryRightPredicate) {
  TwitterConfig tw;
  tw.num_rows = 3000;
  tw.num_users = 200;
  std::unique_ptr<Table> t = GenerateTweetsTable(tw);
  std::unique_ptr<Table> u = GenerateUsersTable(tw);
  QueryGenConfig qg;
  qg.attrs = {"text", "created_at", "coordinates"};
  qg.num_queries = 20;
  qg.output_column = "coordinates";
  qg.join = true;
  qg.right_table = "users";
  qg.left_key = "user_id";
  qg.right_key = "id";
  qg.right_attr = "tweet_cnt";
  std::vector<Query> qs = GenerateQueries(*t, u.get(), qg);
  for (const Query& q : qs) {
    ASSERT_TRUE(q.join.has_value());
    EXPECT_EQ(q.join->right_table, "users");
    ASSERT_EQ(q.join->right_predicates.size(), 1u);
    EXPECT_EQ(q.join->right_predicates[0].column, "tweet_cnt");
  }
}

TEST(BucketSchemeTest, Exact0To4) {
  BucketScheme s = BucketScheme::Exact0To4();
  EXPECT_EQ(s.num_buckets(), 6u);
  EXPECT_EQ(s.BucketOf(0), 0);
  EXPECT_EQ(s.BucketOf(4), 4);
  EXPECT_EQ(s.BucketOf(5), 5);
  EXPECT_EQ(s.BucketOf(100), 5);
  EXPECT_EQ(s.Label(5), ">=5");
  EXPECT_EQ(s.Label(2), "2");
}

TEST(BucketSchemeTest, RangedSchemes) {
  BucketScheme s16 = BucketScheme::Ranges16();
  EXPECT_EQ(s16.BucketOf(1), 1);
  EXPECT_EQ(s16.BucketOf(2), 1);
  EXPECT_EQ(s16.BucketOf(8), 4);
  EXPECT_EQ(s16.Label(1), "1-2");
  BucketScheme s32 = BucketScheme::Ranges32();
  EXPECT_EQ(s32.BucketOf(16), 4);
  EXPECT_EQ(s32.BucketOf(17), 5);
  BucketScheme join = BucketScheme::JoinRanges();
  EXPECT_EQ(join.BucketOf(10), 5);
}

TEST(ScenarioTest, BuildTwitterScenario) {
  ScenarioConfig cfg;
  cfg.kind = DatasetKind::kTwitter;
  cfg.num_rows = 10000;
  cfg.num_queries = 100;
  Scenario s = BuildScenario(cfg);
  EXPECT_NE(s.engine->FindEntry("tweets"), nullptr);
  EXPECT_NE(s.engine->FindEntry(Engine::SampleTableName("tweets", 0.01)), nullptr);
  EXPECT_EQ(s.queries.size(), 100u);
  EXPECT_EQ(s.options.size(), 8u);
  // Split: half evaluation, then 2/3 train, 1/3 validation.
  EXPECT_EQ(s.evaluation.size(), 50u);
  EXPECT_EQ(s.train.size(), 33u);
  EXPECT_EQ(s.validation.size(), 17u);
  // Disjoint.
  std::set<const Query*> all;
  for (const Query* q : s.train) all.insert(q);
  for (const Query* q : s.validation) all.insert(q);
  for (const Query* q : s.evaluation) all.insert(q);
  EXPECT_EQ(all.size(), 100u);
}

TEST(ScenarioTest, JoinScenarioHas21Options) {
  ScenarioConfig cfg;
  cfg.kind = DatasetKind::kTwitter;
  cfg.num_rows = 8000;
  cfg.num_users = 500;
  cfg.num_queries = 40;
  cfg.join = true;
  Scenario s = BuildScenario(cfg);
  EXPECT_EQ(s.options.size(), 21u);
  EXPECT_NE(s.engine->FindEntry("users"), nullptr);
  for (const Query& q : s.queries) EXPECT_TRUE(q.join.has_value());
}

TEST(ScenarioTest, AttrCountControlsOptionCount) {
  ScenarioConfig cfg;
  cfg.kind = DatasetKind::kTwitter;
  cfg.num_rows = 8000;
  cfg.num_queries = 30;
  cfg.num_attrs = 4;
  Scenario s4 = BuildScenario(cfg);
  EXPECT_EQ(s4.options.size(), 16u);
  cfg.num_attrs = 5;
  Scenario s5 = BuildScenario(cfg);
  EXPECT_EQ(s5.options.size(), 32u);
}

TEST(ScenarioTest, TaxiAndTpchScenarios) {
  ScenarioConfig taxi;
  taxi.kind = DatasetKind::kTaxi;
  taxi.num_rows = 8000;
  taxi.num_queries = 30;
  Scenario st = BuildScenario(taxi);
  EXPECT_NE(st.engine->FindEntry("trips"), nullptr);
  EXPECT_EQ(st.options.size(), 8u);

  ScenarioConfig tpch;
  tpch.kind = DatasetKind::kTpch;
  tpch.num_rows = 8000;
  tpch.num_queries = 30;
  Scenario sp = BuildScenario(tpch);
  EXPECT_NE(sp.engine->FindEntry("lineitem"), nullptr);
  for (const Query& q : sp.queries) {
    EXPECT_EQ(q.output, OutputKind::kScatter);  // no point column in lineitem
  }
}

TEST(DifficultyTest, CountViablePlansMonotoneInTau) {
  ScenarioConfig cfg;
  cfg.kind = DatasetKind::kTwitter;
  cfg.num_rows = 10000;
  cfg.num_queries = 30;
  Scenario s = BuildScenario(cfg);
  for (const Query* q : s.evaluation) {
    size_t v250 = CountViablePlans(*s.oracle, *q, s.options, 250.0);
    size_t v1000 = CountViablePlans(*s.oracle, *q, s.options, 1000.0);
    EXPECT_LE(v250, v1000);
    EXPECT_LE(v1000, s.options.size());
  }
}

TEST(DifficultyTest, BucketQueriesPartitions) {
  ScenarioConfig cfg;
  cfg.kind = DatasetKind::kTwitter;
  cfg.num_rows = 10000;
  cfg.num_queries = 60;
  Scenario s = BuildScenario(cfg);
  BucketedWorkload bw = BucketQueries(*s.oracle, s.evaluation, s.options, 500.0,
                                      BucketScheme::Exact0To4());
  size_t total = bw.out_of_range.size();
  for (const auto& bucket : bw.buckets) total += bucket.size();
  EXPECT_EQ(total, s.evaluation.size());
}

TEST(DifficultyTest, BucketQueriesMatchesSerialCount) {
  // BucketQueries executes the grid in parallel before counting; a serial
  // CountViablePlans on a second, identically seeded scenario with a cold
  // memo must put every evaluation query in the same bucket.
  ScenarioConfig cfg;
  cfg.kind = DatasetKind::kTwitter;
  cfg.num_rows = 10000;
  cfg.num_queries = 60;
  const BucketScheme scheme = BucketScheme::Exact0To4();
  Scenario prefilled = BuildScenario(cfg);
  Scenario serial = BuildScenario(cfg);
  ASSERT_EQ(serial.oracle->CacheSize(), 0u);
  ASSERT_EQ(prefilled.evaluation.size(), serial.evaluation.size());

  BucketedWorkload bw = BucketQueries(*prefilled.oracle, prefilled.evaluation,
                                      prefilled.options, 500.0, scheme);
  std::map<const Query*, int> bucket_of;
  for (size_t b = 0; b < bw.buckets.size(); ++b) {
    for (const Query* q : bw.buckets[b]) bucket_of[q] = static_cast<int>(b);
  }
  for (const Query* q : bw.out_of_range) bucket_of[q] = -1;
  ASSERT_EQ(bucket_of.size(), prefilled.evaluation.size());

  for (size_t i = 0; i < serial.evaluation.size(); ++i) {
    SCOPED_TRACE(i);
    const int count = static_cast<int>(
        CountViablePlans(*serial.oracle, *serial.evaluation[i], serial.options, 500.0));
    EXPECT_EQ(bucket_of.at(prefilled.evaluation[i]), scheme.BucketOf(count));
  }
}

}  // namespace
}  // namespace maliva
