// Canonicalization tests: signature stability under predicate permutation
// (every permutation of a hand-built query and of seeded generated queries
// of every dataset kind) and output/id changes, literal-binning behaviour,
// and distinct signatures for semantically different queries.

#include "query/signature.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "util/rng.h"
#include "workload/scenario.h"

namespace maliva {
namespace {

Query TwitterishQuery() {
  Query q;
  q.id = 7;
  q.table = "tweets";
  q.predicates = {
      Predicate::Keyword("text", "storm"),
      Predicate::Time("created_at", 1.5e9, 1.5e9 + 3600.0),
      Predicate::Spatial("coordinate", BoundingBox{-74.1, 40.6, -73.7, 40.9}),
  };
  q.output = OutputKind::kHeatmap;
  q.output_column = "coordinate";
  q.heatmap_bins = 32;
  return q;
}

/// Canonicalizes every permutation of `query`'s base predicates: each keeps
/// the signature and permutes the slot keys by the same permutation (slot
/// keys stay in slot order, since they key the SelectivityCache), while
/// join-side slots stay where they are. Returns the permutations checked.
size_t ExpectEveryPermutationKeepsTheSignature(const Query& query) {
  const size_t n = query.predicates.size();
  const CanonicalQuery base = Canonicalize(query);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  size_t permutations = 0;
  do {
    Query permuted = query;
    for (size_t slot = 0; slot < n; ++slot) {
      permuted.predicates[slot] = query.predicates[order[slot]];
    }
    const CanonicalQuery perm = Canonicalize(permuted);
    EXPECT_EQ(perm.signature, base.signature);
    EXPECT_EQ(perm.slot_keys.size(), base.slot_keys.size());
    for (size_t slot = 0; slot < std::min(perm.slot_keys.size(), base.slot_keys.size());
         ++slot) {
      const size_t from = slot < n ? order[slot] : slot;
      EXPECT_EQ(perm.slot_keys[slot], base.slot_keys[from]) << "slot " << slot;
    }
    ++permutations;
  } while (std::next_permutation(order.begin(), order.end()));
  return permutations;
}

TEST(QuerySignatureTest, StableUnderPredicatePermutation) {
  EXPECT_EQ(ExpectEveryPermutationKeepsTheSignature(TwitterishQuery()), 6u);

  // Seeded property over generated queries of every dataset kind: Twitter at
  // five attributes (120 permutations each) and with its join, Taxi, TPC-H.
  struct Setting {
    DatasetKind kind;
    size_t num_attrs;
    bool join;
  };
  const Setting settings[] = {{DatasetKind::kTwitter, 5, false},
                              {DatasetKind::kTwitter, 3, true},
                              {DatasetKind::kTaxi, 3, false},
                              {DatasetKind::kTpch, 3, false}};
  for (const Setting& setting : settings) {
    ScenarioConfig cfg;
    cfg.kind = setting.kind;
    cfg.num_attrs = setting.num_attrs;
    cfg.join = setting.join;
    cfg.num_rows = 3000;
    cfg.num_users = 300;
    cfg.num_queries = 40;
    cfg.seed = 41;
    const Scenario scenario = BuildScenario(cfg);
    Rng rng(0x5167 + static_cast<uint64_t>(setting.kind));
    size_t joined = 0;
    for (size_t draw = 0; draw < 12; ++draw) {
      const Query& query = scenario.queries[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(scenario.queries.size()) - 1))];
      SCOPED_TRACE(DatasetKindName(setting.kind) + std::string(" query ") +
                   std::to_string(query.id));
      ASSERT_EQ(query.predicates.size(), setting.num_attrs);
      if (query.join.has_value() && !query.join->right_predicates.empty()) ++joined;
      EXPECT_EQ(ExpectEveryPermutationKeepsTheSignature(query),
                setting.num_attrs == 5 ? 120u : 6u);
    }
    EXPECT_EQ(joined > 0, setting.join) << DatasetKindName(setting.kind);
  }
}

TEST(QuerySignatureTest, IdAndOutputFieldsAreStripped) {
  Query q = TwitterishQuery();
  CanonicalQuery base = Canonicalize(q);

  Query variant = q;
  variant.id = 123456;
  variant.output = OutputKind::kScatter;
  variant.output_column = "id";
  variant.heatmap_bins = 64;
  CanonicalQuery stripped = Canonicalize(variant);

  EXPECT_EQ(base.signature, stripped.signature);
  EXPECT_EQ(base.slot_keys, stripped.slot_keys);
}

TEST(QuerySignatureTest, DistinctForSemanticallyDifferentQueries) {
  Query q = TwitterishQuery();
  CanonicalQuery base = Canonicalize(q);

  Query other_table = q;
  other_table.table = "taxi";
  EXPECT_NE(base.signature, Canonicalize(other_table).signature);

  Query other_keyword = q;
  other_keyword.predicates[0].keyword = "flood";
  EXPECT_NE(base.signature, Canonicalize(other_keyword).signature);

  Query other_column = q;
  other_column.predicates[1].column = "user_created_at";
  EXPECT_NE(base.signature, Canonicalize(other_column).signature);

  Query extra_predicate = q;
  extra_predicate.predicates.push_back(Predicate::Numeric("statuses", 0, 100));
  EXPECT_NE(base.signature, Canonicalize(extra_predicate).signature);

  Query with_join = q;
  with_join.join = JoinSpec{"users", "user_id", "id", {}};
  EXPECT_NE(base.signature, Canonicalize(with_join).signature);
}

TEST(QuerySignatureTest, RangeLiteralsShareBinsUnderSmallJitter) {
  // Coarse bins make the binning behaviour easy to pin down: with 16 bins
  // the mantissa resolution is 1/32 relative, so 100 vs 101 (same binary
  // exponent, same mantissa bucket) share a bin while 100 vs 120 do not.
  SignatureOptions coarse{16};
  Predicate a = Predicate::Time("created_at", 100.0, 200.0);
  Predicate jitter = Predicate::Time("created_at", 101.0, 201.0);
  Predicate moved = Predicate::Time("created_at", 120.0, 220.0);

  EXPECT_EQ(PredicateSlotKey("tweets", a, coarse),
            PredicateSlotKey("tweets", jitter, coarse));
  EXPECT_NE(PredicateSlotKey("tweets", a, coarse),
            PredicateSlotKey("tweets", moved, coarse));
}

TEST(QuerySignatureTest, RangeExtentDisambiguatesSameLowBound) {
  // Both ranges start at the same bound; the extent binning must separate a
  // short window from a long one even at coarse granularity.
  SignatureOptions coarse{16};
  Predicate minute = Predicate::Time("created_at", 1.5e9, 1.5e9 + 60.0);
  Predicate hour = Predicate::Time("created_at", 1.5e9, 1.5e9 + 3600.0);
  EXPECT_NE(PredicateSlotKey("tweets", minute, coarse),
            PredicateSlotKey("tweets", hour, coarse));
}

TEST(QuerySignatureTest, SpatialPanWithinAGridCellSharesTheSlot) {
  // Grid cells scale with the box's own extent: width 4.5 -> power-of-two
  // tile 8, cell 8/16 = 0.5 degrees; height 3 -> tile 4, cell 0.25. A pan
  // below one cell per axis shares the slot; a viewport-sized pan does not,
  // no matter the coordinate magnitude.
  SignatureOptions coarse{16};
  Predicate at =
      Predicate::Spatial("coordinate", BoundingBox{10.0, 10.0, 14.5, 13.0});
  Predicate pan_small = Predicate::Spatial(
      "coordinate", BoundingBox{10.125, 10.125, 14.625, 13.125});
  Predicate pan_large =
      Predicate::Spatial("coordinate", BoundingBox{40.0, 10.0, 44.5, 13.0});

  EXPECT_EQ(PredicateSlotKey("tweets", at, coarse),
            PredicateSlotKey("tweets", pan_small, coarse));
  EXPECT_NE(PredicateSlotKey("tweets", at, coarse),
            PredicateSlotKey("tweets", pan_large, coarse));
}

TEST(QuerySignatureTest, AnchorResolutionScalesWithTheExtent) {
  // The same absolute one-hour pan is far below a month window's cell but
  // many cells for a two-hour window: anchor grids follow the extent, not
  // the (epoch-sized) magnitude of the bounds.
  SignatureOptions coarse{16};
  const double kMonth = 30.0 * 86400.0;
  Predicate month = Predicate::Time("created_at", 1.5e9, 1.5e9 + kMonth);
  Predicate month_panned =
      Predicate::Time("created_at", 1.5e9 + 3600.0, 1.5e9 + kMonth + 3600.0);
  EXPECT_EQ(PredicateSlotKey("tweets", month, coarse),
            PredicateSlotKey("tweets", month_panned, coarse));

  Predicate hours = Predicate::Time("created_at", 1.5e9, 1.5e9 + 7200.0);
  Predicate hours_panned =
      Predicate::Time("created_at", 1.5e9 + 3600.0, 1.5e9 + 7200.0 + 3600.0);
  EXPECT_NE(PredicateSlotKey("tweets", hours, coarse),
            PredicateSlotKey("tweets", hours_panned, coarse));
}

TEST(QuerySignatureTest, FinerBinsSeparateWhatCoarseBinsShare) {
  Predicate a = Predicate::Time("created_at", 100.0, 200.0);
  Predicate jitter = Predicate::Time("created_at", 101.0, 201.0);
  EXPECT_EQ(PredicateSlotKey("tweets", a, SignatureOptions{16}),
            PredicateSlotKey("tweets", jitter, SignatureOptions{16}));
  EXPECT_NE(PredicateSlotKey("tweets", a, SignatureOptions{1 << 20}),
            PredicateSlotKey("tweets", jitter, SignatureOptions{1 << 20}));
}

TEST(QuerySignatureTest, FingerprintStableWithinTauBin) {
  CanonicalQuery canonical = Canonicalize(TwitterishQuery());
  FingerprintOptions opts;  // tau_bin_ms = 25.0
  // Same [k*25, (k+1)*25) interval shares the fingerprint; crossing the bin
  // edge (exactly 25.0 starts the next bin) does not.
  RequestFingerprint lo =
      MakeRequestFingerprint(canonical.signature, "mdp", 0.0, std::nullopt, opts);
  RequestFingerprint hi = MakeRequestFingerprint(canonical.signature, "mdp",
                                                 24.999, std::nullopt, opts);
  RequestFingerprint next = MakeRequestFingerprint(canonical.signature, "mdp",
                                                   25.0, std::nullopt, opts);
  EXPECT_EQ(lo, hi);
  EXPECT_NE(lo, next);
  EXPECT_EQ(next, MakeRequestFingerprint(canonical.signature, "mdp", 49.9,
                                         std::nullopt, opts));
}

TEST(QuerySignatureTest, FingerprintSeparatesStrategyAndSignature) {
  CanonicalQuery a = Canonicalize(TwitterishQuery());
  Query other = TwitterishQuery();
  other.predicates[0].keyword = "flood";
  CanonicalQuery b = Canonicalize(other);

  RequestFingerprint base =
      MakeRequestFingerprint(a.signature, "mdp", 100.0, std::nullopt);
  EXPECT_NE(base, MakeRequestFingerprint(a.signature, "greedy", 100.0,
                                         std::nullopt));
  EXPECT_NE(base, MakeRequestFingerprint(b.signature, "mdp", 100.0,
                                         std::nullopt));
}

TEST(QuerySignatureTest, FingerprintQualityFloorBinning) {
  CanonicalQuery canonical = Canonicalize(TwitterishQuery());
  FingerprintOptions opts;  // quality_floor_bins = 100
  RequestFingerprint none =
      MakeRequestFingerprint(canonical.signature, "mdp", 100.0, std::nullopt, opts);
  RequestFingerprint low =
      MakeRequestFingerprint(canonical.signature, "mdp", 100.0, 0.901, opts);
  RequestFingerprint same_bin =
      MakeRequestFingerprint(canonical.signature, "mdp", 100.0, 0.909, opts);
  RequestFingerprint next_bin =
      MakeRequestFingerprint(canonical.signature, "mdp", 100.0, 0.911, opts);
  RequestFingerprint top =
      MakeRequestFingerprint(canonical.signature, "mdp", 100.0, 1.0, opts);

  // Absent floor is always its own key.
  EXPECT_NE(none, low);
  EXPECT_NE(none, top);
  // Floors within one 1/100 bin share; crossing the edge separates.
  EXPECT_EQ(low, same_bin);
  EXPECT_NE(low, next_bin);
  // 1.0 gets its own top bin, distinct from 0.99x floors.
  EXPECT_NE(top, MakeRequestFingerprint(canonical.signature, "mdp", 100.0,
                                        0.995, opts));
}

TEST(QuerySignatureTest, FingerprintBinWidthKnobs) {
  CanonicalQuery canonical = Canonicalize(TwitterishQuery());
  // Coarser tau bins share what the default separates.
  FingerprintOptions wide;
  wide.tau_bin_ms = 1000.0;
  EXPECT_EQ(MakeRequestFingerprint(canonical.signature, "mdp", 30.0,
                                   std::nullopt, wide),
            MakeRequestFingerprint(canonical.signature, "mdp", 970.0,
                                   std::nullopt, wide));
  FingerprintOptions dflt;
  EXPECT_NE(MakeRequestFingerprint(canonical.signature, "mdp", 30.0,
                                   std::nullopt, dflt),
            MakeRequestFingerprint(canonical.signature, "mdp", 970.0,
                                   std::nullopt, dflt));
  // One floor bin conflates every bound floor but still not the absent one.
  FingerprintOptions one_bin;
  one_bin.quality_floor_bins = 1;
  EXPECT_EQ(MakeRequestFingerprint(canonical.signature, "mdp", 100.0, 0.1,
                                   one_bin),
            MakeRequestFingerprint(canonical.signature, "mdp", 100.0, 0.9,
                                   one_bin));
  EXPECT_NE(MakeRequestFingerprint(canonical.signature, "mdp", 100.0, 0.1,
                                   one_bin),
            MakeRequestFingerprint(canonical.signature, "mdp", 100.0,
                                   std::nullopt, one_bin));
}

TEST(QuerySignatureTest, JoinRightPredicatesKeyAgainstTheRightTable) {
  Query q = TwitterishQuery();
  q.join = JoinSpec{"users", "user_id", "id",
                    {Predicate::Numeric("followers", 100.0, 1e6)}};
  CanonicalQuery canonical = Canonicalize(q);
  ASSERT_EQ(canonical.slot_keys.size(), 4u);  // 3 base + 1 right

  // The same predicate keyed against the base table must differ: slot keys
  // encode the target table.
  EXPECT_NE(canonical.slot_keys[3],
            PredicateSlotKey("tweets", q.join->right_predicates[0]));
  EXPECT_EQ(canonical.slot_keys[3],
            PredicateSlotKey("users", q.join->right_predicates[0]));
}

}  // namespace
}  // namespace maliva
