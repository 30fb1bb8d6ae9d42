// Engine: the simulated backend database.
//
// Owns the catalog (tables, indexes, statistics, sample tables), executes
// rewritten queries for real over in-memory data, and reports deterministic
// virtual execution times through the profile's cost model (see DESIGN.md).

#ifndef MALIVA_ENGINE_ENGINE_H_
#define MALIVA_ENGINE_ENGINE_H_

#include <atomic>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/cost_model.h"
#include "engine/histogram.h"
#include "engine/plan.h"
#include "engine/profile.h"
#include "engine/table_stats.h"
#include "index/btree_index.h"
#include "index/hash_index.h"
#include "index/inverted_index.h"
#include "index/rtree_index.h"
#include "query/rewritten_query.h"
#include "util/status.h"

namespace maliva {

class Optimizer;

/// A registered table plus its access structures.
struct TableEntry {
  std::unique_ptr<Table> table;
  std::unordered_map<std::string, std::unique_ptr<BTreeIndex>> btrees;
  std::unordered_map<std::string, std::unique_ptr<RTreeIndex>> rtrees;
  std::unordered_map<std::string, std::unique_ptr<InvertedIndex>> inverted;
  std::unordered_map<std::string, std::unique_ptr<HashIndex>> hashes;
  std::unique_ptr<TableStats> stats;
  /// Accurate full-table histograms (the O(1) selectivity tier); always
  /// built, consulted only through HistogramSelectivity's epoch guard.
  std::unique_ptr<TableHistograms> histograms;
  /// Sample tables of this entry keyed by per-mille rate (the SampleTableName
  /// suffix integer), so SampledSelectivity resolves its sample without
  /// formatting the name string per probe. Catalog entries are node-stable,
  /// so the cached pointers survive rehashing.
  std::unordered_map<int, const TableEntry*> samples;
};

/// The range and spatial index probes of one query, each materialized and
/// sorted once and then shared by every execution of that query handed the
/// same memo: a training grid executes all of a query's rewrite options
/// (PrefillTrueTimes), and most of them probe the same predicates. Entries
/// are keyed by (table entry, predicate), so a sample-table option keys its
/// own. Keyword postings are referenced in place and never stored. One memo
/// serves one query, on one thread at a time.
class ProbeMemo {
 private:
  friend class Engine;
  struct Probe {
    const TableEntry* entry;
    const Predicate* pred;
    RowIdList rows;
  };
  std::list<Probe> probes_;  // a list: rows handed out stay put as probes are added
};

/// The simulated backend database the middleware talks to.
class Engine {
 public:
  Engine(const EngineProfile& profile, uint64_t seed);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Registers `table` and builds an index on every column in
  /// `indexed_columns` (index kind chosen by column type: B+ tree for
  /// numeric/timestamp, R-tree for points, inverted for text, hash for int64
  /// key columns listed in `hash_columns`). Also computes optimizer stats.
  Status RegisterTable(std::unique_ptr<Table> table,
                       const std::vector<std::string>& indexed_columns,
                       const std::vector<std::string>& hash_columns = {});

  /// Builds sample tables (with indexes) of `table` at the given sampling
  /// rates. Sample tables serve approximation rules and the sampling QTE.
  Status BuildSampleTables(const std::string& table, const std::vector<double>& rates,
                           uint64_t seed);

  /// Canonical name of a sample table, e.g. "tweets#sample20".
  static std::string SampleTableName(const std::string& base, double rate);

  /// Looks up a table entry; nullptr when absent.
  const TableEntry* FindEntry(const std::string& name) const;

  /// Checks `query` against the catalog: its table and join table exist,
  /// every predicate names a column of a type the predicate can filter
  /// (keyword: text; time/numeric range: int64, double or timestamp;
  /// spatial box: point), a non-empty output column is a point column (a
  /// heatmap needs one), and the join keys are int64 columns.
  /// InvalidArgument names the first violation. Execution and selectivity
  /// probing assume a query that passes.
  Status ValidateQuery(const Query& query) const;

  /// Executes a rewritten query. When the option leaves choices open
  /// (index_mask unset / join method unset), the optimizer resolves them —
  /// this is exactly the no-rewriting baseline behaviour.
  Result<ExecResult> Execute(const RewrittenQuery& rq, ProbeMemo* memo = nullptr) const;

  /// Executes a fully resolved physical plan. Index probes go through `memo`
  /// (a call-local one when null): a probe it already holds is reused, and a
  /// full scan whose predicates' rows it already holds reads its matches
  /// from their intersection instead of scanning. The result is identical
  /// either way.
  Result<ExecResult> ExecutePlan(const Query& query, const PlanSpec& spec,
                                 ProbeMemo* memo = nullptr) const;

  /// Exact selectivity of `pred` over the named table (index-assisted count).
  Result<double> TrueSelectivity(const std::string& table, const Predicate& pred) const;

  /// Selectivity of `pred` measured by count(*) over the named table's QTE
  /// sample (with add-half smoothing). `sample_rate` selects which sample.
  Result<double> SampledSelectivity(const std::string& table, const Predicate& pred,
                                    double sample_rate) const;

  /// O(1) histogram estimate of `pred` over the named table (no table or
  /// index access). `epoch` must equal the current catalog_version(): a
  /// caller holding a stale epoch gets FailedPrecondition instead of an
  /// estimate computed against moved statistics ground truth. NotFound when
  /// the table is unknown or no histogram covers the predicate's column
  /// (keyword predicates never have one).
  Result<double> HistogramSelectivity(const std::string& table, const Predicate& pred,
                                      uint64_t epoch) const;

  /// Estimated (optimizer-stats) result cardinality of `q` in *actual* rows,
  /// used to translate LIMIT fractions into row counts.
  double EstimateOutputCardinality(const Query& q) const;

  /// Version of the statistics ground truth: bumped whenever the catalog
  /// gains a table or sample tables (i.e. whenever previously collected
  /// selectivities could go stale). The serving layer tags cross-request
  /// selectivity knowledge with this value so a stats refresh invalidates it
  /// cleanly (see qte/shared_selectivity_store.h). The counter is atomic so
  /// in-flight requests may read it while a refresh publishes a bump;
  /// structural catalog mutation itself (RegisterTable/BuildSampleTables)
  /// still requires that no concurrent query executes against the tables
  /// being (re)built.
  uint64_t catalog_version() const {
    return catalog_version_.load(std::memory_order_acquire);
  }

  const EngineProfile& profile() const { return profile_; }
  const CostModel& cost_model() const { return cost_model_; }
  /// The optimizer's miscalibrated cost model (see EngineProfile's planner
  /// factors). True execution always uses cost_model().
  const CostModel& planner_cost_model() const { return planner_cost_model_; }
  const Optimizer& optimizer() const { return *optimizer_; }

 private:
  /// TrueSelectivity body over an already resolved entry (the hot probe path
  /// skips the by-name lookup).
  double TrueSelectivityOnEntry(const TableEntry& entry, const Predicate& pred) const;

  /// Sorted rows of `pred` from its index on `entry`, or nullptr when the
  /// column has no index of the predicate's kind. A range or spatial probe is
  /// taken from `memo`, or made and stored there; with `probe` false, one the
  /// memo does not hold yet is nullptr instead.
  static const RowIdList* IndexRows(const TableEntry& entry, const Predicate& pred,
                                    ProbeMemo* memo, bool probe);

  EngineProfile profile_;
  CostModel cost_model_;
  CostModel planner_cost_model_;
  uint64_t seed_;
  std::atomic<uint64_t> catalog_version_{0};
  std::unordered_map<std::string, TableEntry> catalog_;
  std::unique_ptr<Optimizer> optimizer_;
};

}  // namespace maliva

#endif  // MALIVA_ENGINE_ENGINE_H_
