// Render contract tests: exact SQL strings for every query/option shape the
// service renders, plus a sweep that checks the renderer byte-for-byte
// against the original string-concatenation formula (kept below as the
// reference) over generated scenarios and adversarial literals.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "query/rewritten_query.h"
#include "util/rng.h"
#include "workload/scenario.h"

namespace maliva {
namespace {

// ---- Reference renderer: the original concatenation formula. -------------

std::string RefDouble(double v, int digits) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return std::string(buf);
}

std::string RefPredicate(const Predicate& p) {
  switch (p.type) {
    case PredicateType::kKeyword:
      return p.column + " CONTAINS '" + p.keyword + "'";
    case PredicateType::kTimeRange:
    case PredicateType::kNumericRange:
      return p.column + " BETWEEN " + RefDouble(p.range.lo, 2) + " AND " +
             RefDouble(p.range.hi, 2);
    case PredicateType::kSpatialBox:
      return p.column + " IN BOX((" + RefDouble(p.box.min_lon, 2) + "," +
             RefDouble(p.box.min_lat, 2) + "),(" + RefDouble(p.box.max_lon, 2) + "," +
             RefDouble(p.box.max_lat, 2) + "))";
  }
  return "<invalid>";
}

std::string RefQuery(const Query& q) {
  std::string out = "SELECT ";
  if (q.output == OutputKind::kHeatmap) {
    out += "BIN_ID(" + q.output_column + "), COUNT(*)";
  } else {
    out += "id, " + q.output_column;
  }
  out += " FROM " + q.table;
  if (q.join.has_value()) {
    out += " JOIN " + q.join->right_table + " ON " + q.table + "." + q.join->left_key +
           " = " + q.join->right_table + "." + q.join->right_key;
  }
  std::vector<std::string> conds;
  for (const Predicate& p : q.predicates) conds.push_back(RefPredicate(p));
  if (q.join.has_value()) {
    for (const Predicate& p : q.join->right_predicates) {
      conds.push_back(q.join->right_table + "." + RefPredicate(p));
    }
  }
  if (!conds.empty()) {
    out += " WHERE ";
    for (size_t i = 0; i < conds.size(); ++i) {
      if (i > 0) out += " AND ";
      out += conds[i];
    }
  }
  if (q.output == OutputKind::kHeatmap) out += " GROUP BY BIN_ID(" + q.output_column + ")";
  return out;
}

std::string RefHints(const HintSet& h, size_t num_predicates) {
  if (!h.HasAnyHint()) return "(no hints)";
  std::string out = "/*+ ";
  if (h.index_mask.has_value()) {
    out += "indexes=";
    for (size_t i = 0; i < num_predicates; ++i) {
      out += ((*h.index_mask >> i) & 1u) ? '1' : '0';
    }
  }
  if (h.join_method != JoinMethod::kOptimizerChoice) {
    if (h.index_mask.has_value()) out += " ";
    out += std::string("join=") + JoinMethodName(h.join_method);
  }
  out += " */";
  return out;
}

std::string RefApprox(const ApproxRule& a) {
  switch (a.kind) {
    case ApproxKind::kNone: return "exact";
    case ApproxKind::kLimit: return "limit(" + RefDouble(a.fraction * 100.0, 3) + "%)";
    case ApproxKind::kSampleTable: return "sample(" + RefDouble(a.fraction * 100.0, 0) + "%)";
  }
  return "unknown";
}

std::string RefOption(const RewriteOption& ro, size_t num_predicates) {
  std::string out = RefHints(ro.hints, num_predicates);
  if (ro.approx.IsApproximate()) out += " " + RefApprox(ro.approx);
  return out;
}

std::string RefRewritten(const Query& q, const RewriteOption& ro) {
  return RefOption(ro, q.NumPredicates()) + " " + RefQuery(q);
}

// ---- Fixtures. ------------------------------------------------------------

Query TweetsQuery(OutputKind output) {
  Query q;
  q.table = "tweets";
  q.output = output;
  q.output_column = "coordinates";
  q.predicates.push_back(Predicate::Keyword("text", "Covid"));
  q.predicates.push_back(Predicate::Time("created_at", 1600000000.0, 1600003600.5));
  q.predicates.push_back(
      Predicate::Spatial("coordinates", BoundingBox{-74.25, 40.5, -73.7, 40.9}));
  return q;
}

Query JoinQuery() {
  Query q;
  q.table = "tweets";
  q.output = OutputKind::kScatter;
  q.output_column = "coordinates";
  q.predicates.push_back(Predicate::Keyword("text", "vaccine"));
  JoinSpec js;
  js.right_table = "users";
  js.left_key = "user_id";
  js.right_key = "id";
  js.right_predicates.push_back(Predicate::Numeric("tweet_cnt", 100, 5000));
  js.right_predicates.push_back(Predicate::Numeric("followers", 0.125, 7.5));
  q.join = js;
  return q;
}

// ---- Golden strings. ------------------------------------------------------

TEST(RenderGoldenTest, ScatterQuery) {
  EXPECT_EQ(TweetsQuery(OutputKind::kScatter).ToString(),
            "SELECT id, coordinates FROM tweets WHERE text CONTAINS 'covid' AND "
            "created_at BETWEEN 1600000000.00 AND 1600003600.50 AND coordinates IN "
            "BOX((-74.25,40.50),(-73.70,40.90))");
}

TEST(RenderGoldenTest, HeatmapQuery) {
  EXPECT_EQ(TweetsQuery(OutputKind::kHeatmap).ToString(),
            "SELECT BIN_ID(coordinates), COUNT(*) FROM tweets WHERE text CONTAINS "
            "'covid' AND created_at BETWEEN 1600000000.00 AND 1600003600.50 AND "
            "coordinates IN BOX((-74.25,40.50),(-73.70,40.90)) GROUP BY "
            "BIN_ID(coordinates)");
}

TEST(RenderGoldenTest, HeatmapWithoutPredicates) {
  Query q;
  q.table = "t";
  q.output_column = "p";
  EXPECT_EQ(q.ToString(), "SELECT BIN_ID(p), COUNT(*) FROM t GROUP BY BIN_ID(p)");
}

TEST(RenderGoldenTest, JoinQuery) {
  EXPECT_EQ(JoinQuery().ToString(),
            "SELECT id, coordinates FROM tweets JOIN users ON tweets.user_id = "
            "users.id WHERE text CONTAINS 'vaccine' AND users.tweet_cnt BETWEEN "
            "100.00 AND 5000.00 AND users.followers BETWEEN 0.12 AND 7.50");
}

TEST(RenderGoldenTest, KeywordPredicate) {
  EXPECT_EQ(Predicate::Keyword("text", "Flu-Shot").ToString(),
            "text CONTAINS 'flu-shot'");
  EXPECT_EQ(Predicate::Keyword("text", "").ToString(), "text CONTAINS ''");
}

TEST(RenderGoldenTest, NegativeAndSignedZeroLiterals) {
  EXPECT_EQ(Predicate::Numeric("x", -12.5, -0.0).ToString(),
            "x BETWEEN -12.50 AND -0.00");
  EXPECT_EQ(Predicate::Numeric("x", 0.0, -0.004).ToString(),
            "x BETWEEN 0.00 AND -0.00");
  EXPECT_EQ(Predicate::Numeric("x", -0.005, -1.006).ToString(),
            "x BETWEEN -0.01 AND -1.01");
  EXPECT_EQ(Predicate::Spatial("p", BoundingBox{-180.0, -90.0, -0.0, 0.0}).ToString(),
            "p IN BOX((-180.00,-90.00),(-0.00,0.00))");
}

TEST(RenderGoldenTest, LargeLiterals) {
  EXPECT_EQ(Predicate::Time("ts", 1e9, 999999999.999).ToString(),
            "ts BETWEEN 1000000000.00 AND 1000000000.00");
  EXPECT_EQ(Predicate::Numeric("v", 123456789012.345, -4.5e15).ToString(),
            "v BETWEEN 123456789012.35 AND -4500000000000000.00");
  EXPECT_EQ(Predicate::Numeric("v", 1e20, 1e22).ToString(),
            "v BETWEEN 100000000000000000000.00 AND 10000000000000000000000.00");
}

TEST(RenderGoldenTest, OptionPrefixes) {
  RewriteOption none;
  EXPECT_EQ(none.ToString(3), "(no hints)");

  RewriteOption indexes;
  indexes.hints.index_mask = 0b101;
  EXPECT_EQ(indexes.ToString(3), "/*+ indexes=101 */");
  EXPECT_EQ(indexes.ToString(0), "/*+ indexes= */");

  RewriteOption join;
  join.hints.index_mask = 0b110;
  join.hints.join_method = JoinMethod::kHash;
  EXPECT_EQ(join.ToString(3), "/*+ indexes=011 join=hash */");
  RewriteOption join_only;
  join_only.hints.join_method = JoinMethod::kNestedLoop;
  EXPECT_EQ(join_only.ToString(3), "/*+ join=nest-loop */");

  RewriteOption limit = indexes;
  limit.approx = {ApproxKind::kLimit, 0.01};
  EXPECT_EQ(limit.ToString(3), "/*+ indexes=101 */ limit(1.000%)");
  limit.approx = {ApproxKind::kLimit, 0.0005};
  EXPECT_EQ(limit.ToString(3), "/*+ indexes=101 */ limit(0.050%)");

  RewriteOption sample;
  sample.approx = {ApproxKind::kSampleTable, 0.2};
  EXPECT_EQ(sample.ToString(3), "(no hints) sample(20%)");
  sample.hints.index_mask = 0;
  sample.approx = {ApproxKind::kSampleTable, 0.125};
  EXPECT_EQ(sample.ToString(3), "/*+ indexes=000 */ sample(12%)");

  EXPECT_EQ(ApproxRule{}.ToString(), "exact");
}

TEST(RenderGoldenTest, RewrittenQueries) {
  Query q = TweetsQuery(OutputKind::kHeatmap);
  RewriteOption ro;
  EXPECT_EQ(RewrittenQuery({&q, ro}).ToString(), "(no hints) " + q.ToString());
  ro.hints.index_mask = 0b011;
  ro.approx = {ApproxKind::kLimit, 0.2};
  EXPECT_EQ(RewrittenQuery({&q, ro}).ToString(),
            "/*+ indexes=110 */ limit(20.000%) SELECT BIN_ID(coordinates), COUNT(*) "
            "FROM tweets WHERE text CONTAINS 'covid' AND created_at BETWEEN "
            "1600000000.00 AND 1600003600.50 AND coordinates IN "
            "BOX((-74.25,40.50),(-73.70,40.90)) GROUP BY BIN_ID(coordinates)");

  Query j = JoinQuery();
  RewriteOption jo;
  jo.hints.index_mask = 1;
  jo.hints.join_method = JoinMethod::kMerge;
  EXPECT_EQ(RewrittenQuery({&j, jo}).ToString(),
            "/*+ indexes=1 join=merge */ " + j.ToString());
}

// ---- Sweeps against the reference formula. --------------------------------

TEST(RenderSweepTest, GeneratedScenariosMatchReference) {
  std::vector<ApproxRule> rules = {{ApproxKind::kLimit, 0.01},
                                   {ApproxKind::kLimit, 0.2},
                                   {ApproxKind::kSampleTable, 0.2},
                                   {ApproxKind::kSampleTable, 0.4}};
  struct Shape {
    DatasetKind kind;
    bool join;
    OutputKind output;
  };
  const Shape shapes[] = {{DatasetKind::kTwitter, false, OutputKind::kHeatmap},
                          {DatasetKind::kTwitter, true, OutputKind::kScatter},
                          {DatasetKind::kTaxi, false, OutputKind::kHeatmap},
                          {DatasetKind::kTpch, false, OutputKind::kScatter}};
  size_t compared = 0;
  for (const Shape& shape : shapes) {
    ScenarioConfig cfg;
    cfg.kind = shape.kind;
    cfg.join = shape.join;
    cfg.output = shape.output;
    cfg.num_rows = 3000;
    cfg.num_users = 500;
    cfg.num_queries = 400;
    Scenario s = BuildScenario(cfg);
    RewriteOptionSet options = CrossWithApproxRules(s.options, rules, true);
    for (const Query& q : s.queries) {
      ASSERT_EQ(q.ToString(), RefQuery(q));
      for (const Predicate& p : q.predicates) ASSERT_EQ(p.ToString(), RefPredicate(p));
      const RewriteOption& ro = options[q.id % options.size()];
      ASSERT_EQ(ro.ToString(q.NumPredicates()), RefOption(ro, q.NumPredicates()));
      ASSERT_EQ((RewrittenQuery{&q, ro}.ToString()), RefRewritten(q, ro));
      ++compared;
    }
  }
  EXPECT_EQ(compared, 4u * 400u);
}

TEST(RenderSweepTest, AdversarialLiteralsMatchReference) {
  // Literals near rounding ties, of both signs, across magnitudes up to 1e40,
  // plus signed zeros and non-finite values.
  Rng rng(17);
  auto literal = [&rng]() -> double {
    switch (rng.UniformInt(0, 5)) {
      case 0: return -0.0;
      case 1: return (rng.Uniform(0.0, 1.0) < 0.5 ? -1.0 : 1.0) *
                     (std::floor(rng.Uniform(0.0, 100000.0)) + 0.5) / 100.0;
      case 2: return rng.Uniform(-1e9, 1e9);
      case 3: return std::ldexp(rng.Uniform(-1.0, 1.0), static_cast<int>(rng.UniformInt(-40, 133)));
      case 4: return rng.Uniform(-0.01, 0.01);
      default: {
        const double specials[] = {INFINITY, -INFINITY, NAN, -NAN, 1e9, 0.005, -0.005, 2.675};
        return specials[rng.UniformInt(0, 7)];
      }
    }
  };
  for (int i = 0; i < 20000; ++i) {
    Predicate range = Predicate::Numeric("v", literal(), literal());
    ASSERT_EQ(range.ToString(), RefPredicate(range));
    Predicate box = Predicate::Spatial(
        "p", BoundingBox{literal(), literal(), literal(), literal()});
    ASSERT_EQ(box.ToString(), RefPredicate(box));
    RewriteOption ro;
    ro.approx = {rng.Uniform(0.0, 1.0) < 0.5 ? ApproxKind::kLimit : ApproxKind::kSampleTable,
                 std::fabs(literal())};
    ASSERT_EQ(ro.ToString(2), RefOption(ro, 2));
  }
}

}  // namespace
}  // namespace maliva
