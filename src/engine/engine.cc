#include "engine/engine.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

#include "engine/binning.h"
#include "engine/optimizer.h"
#include "index/rowset.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace maliva {

namespace {

/// One predicate resolved once per plan against the table entry it filters:
/// the column's typed storage and, for a keyword with an inverted index, its
/// postings list. Evaluating a row is then a load and a compare, with no
/// per-row column lookup. Assumes a query that passed ValidateQuery.
class RowPredicate {
 public:
  RowPredicate(const TableEntry& entry, const Predicate& pred) : pred_(&pred) {
    const Column& col = entry.table->GetColumn(pred.column);
    switch (col.type()) {
      case ColumnType::kInt64:
        ints_ = col.AsInt64().data();
        break;
      case ColumnType::kTimestamp:
        ints_ = col.AsTimestamp().data();
        break;
      case ColumnType::kDouble:
        doubles_ = col.AsDouble().data();
        break;
      case ColumnType::kPoint:
        points_ = col.AsPoint().data();
        break;
      case ColumnType::kText:
        texts_ = col.AsText().data();
        break;
    }
    if (pred.type == PredicateType::kKeyword) {
      auto it = entry.inverted.find(pred.column);
      if (it != entry.inverted.end()) postings_ = &it->second->Lookup(pred.keyword);
    }
  }

  bool operator()(RowId row) const {
    switch (pred_->type) {
      case PredicateType::kKeyword: {
        // Membership in the sorted postings list is semantically identical to
        // tokenizing the row, and far cheaper (the *charged* cost is governed
        // by the cost model, not by how ground truth is computed).
        if (postings_ != nullptr) {
          return std::binary_search(postings_->begin(), postings_->end(), row);
        }
        std::vector<std::string> tokens = Tokenize(texts_[row]);
        return std::find(tokens.begin(), tokens.end(), pred_->keyword) != tokens.end();
      }
      case PredicateType::kTimeRange:
      case PredicateType::kNumericRange:
        return pred_->range.Contains(ints_ != nullptr ? static_cast<double>(ints_[row])
                                                      : doubles_[row]);
      case PredicateType::kSpatialBox:
        return pred_->box.Contains(points_[row]);
    }
    return false;
  }

 private:
  const Predicate* pred_;
  const int64_t* ints_ = nullptr;
  const double* doubles_ = nullptr;
  const GeoPoint* points_ = nullptr;
  const std::string* texts_ = nullptr;
  const RowIdList* postings_ = nullptr;
};

/// Every predicate of `preds` resolved against `entry`.
std::vector<RowPredicate> ResolvePredicates(const TableEntry& entry,
                                            const std::vector<Predicate>& preds) {
  std::vector<RowPredicate> out;
  out.reserve(preds.size());
  for (const Predicate& p : preds) out.emplace_back(entry, p);
  return out;
}

/// Name of the index kind that serves `type` in a FailedPrecondition.
const char* IndexKindName(PredicateType type) {
  switch (type) {
    case PredicateType::kKeyword:
      return "inverted";
    case PredicateType::kSpatialBox:
      return "rtree";
    case PredicateType::kTimeRange:
    case PredicateType::kNumericRange:
      break;
  }
  return "btree";
}

/// Deterministic 64-bit seed from the execution identity (query, plan).
uint64_t MixSeed(uint64_t engine_seed, const Query& query, const PlanSpec& spec) {
  uint64_t h = engine_seed;
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(query.id);
  mix(spec.index_mask);
  mix(static_cast<uint64_t>(spec.join_method));
  mix(static_cast<uint64_t>(spec.approx.kind));
  mix(std::bit_cast<uint64_t>(spec.approx.fraction));
  return h;
}

}  // namespace

namespace {

EngineProfile PlannerBeliefs(const EngineProfile& profile) {
  EngineProfile p = profile;
  p.heap_fetch_ms *= profile.planner_heap_fetch_factor;
  p.scan_row_ms *= profile.planner_scan_factor;
  p.residual_filter_ms *= profile.planner_residual_factor;
  return p;
}

}  // namespace

Engine::Engine(const EngineProfile& profile, uint64_t seed)
    : profile_(profile),
      cost_model_(profile),
      planner_cost_model_(PlannerBeliefs(profile)),
      seed_(seed) {
  optimizer_ = std::make_unique<Optimizer>(this);
}

Engine::~Engine() = default;

Status Engine::RegisterTable(std::unique_ptr<Table> table,
                             const std::vector<std::string>& indexed_columns,
                             const std::vector<std::string>& hash_columns) {
  if (table == nullptr) return Status::InvalidArgument("null table");
  std::string name = table->name();
  if (catalog_.count(name) > 0) {
    return Status::FailedPrecondition("table '" + name + "' already registered");
  }
  TableEntry entry;
  entry.table = std::move(table);
  for (const std::string& col_name : indexed_columns) {
    Result<size_t> idx = entry.table->ColumnIndex(col_name);
    if (!idx.ok()) return idx.status();
    const Column& col = entry.table->ColumnAt(idx.value());
    switch (col.type()) {
      case ColumnType::kInt64:
      case ColumnType::kDouble:
      case ColumnType::kTimestamp:
        entry.btrees[col_name] = std::make_unique<BTreeIndex>(*entry.table, col_name);
        break;
      case ColumnType::kPoint:
        entry.rtrees[col_name] = std::make_unique<RTreeIndex>(*entry.table, col_name);
        break;
      case ColumnType::kText:
        entry.inverted[col_name] =
            std::make_unique<InvertedIndex>(*entry.table, col_name);
        break;
    }
  }
  for (const std::string& col_name : hash_columns) {
    Result<size_t> idx = entry.table->ColumnIndex(col_name);
    if (!idx.ok()) return idx.status();
    entry.hashes[col_name] = std::make_unique<HashIndex>(*entry.table, col_name);
  }
  entry.stats = std::make_unique<TableStats>(*entry.table, TableStats::Options{});
  entry.histograms = std::make_unique<TableHistograms>(*entry.table, HistogramOptions{});
  catalog_.emplace(std::move(name), std::move(entry));
  // Stats ground truth changed: stale cross-request knowledge. Release pairs
  // with the acquire in catalog_version() so readers that observe the bump
  // also observe the new entry.
  catalog_version_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

std::string Engine::SampleTableName(const std::string& base, double rate) {
  int pct_x10 = static_cast<int>(std::lround(rate * 1000.0));
  return base + "#sample" + std::to_string(pct_x10);
}

Status Engine::BuildSampleTables(const std::string& table,
                                 const std::vector<double>& rates, uint64_t seed) {
  auto base_it = catalog_.find(table);
  if (base_it == catalog_.end()) return Status::NotFound("no table '" + table + "'");
  TableEntry& base = base_it->second;

  // Reconstruct which columns were indexed on the base table so the sample
  // tables get the same access paths.
  std::vector<std::string> indexed;
  std::vector<std::string> hashed;
  for (const auto& [col, idx] : base.btrees) indexed.push_back(col);
  for (const auto& [col, idx] : base.rtrees) indexed.push_back(col);
  for (const auto& [col, idx] : base.inverted) indexed.push_back(col);
  for (const auto& [col, idx] : base.hashes) hashed.push_back(col);

  Rng rng(seed);
  for (double rate : rates) {
    int pct_x10 = static_cast<int>(std::lround(rate * 1000.0));
    std::string name = SampleTableName(table, rate);
    if (catalog_.count(name) == 0) {
      std::unique_ptr<Table> sample = base.table->Sample(rate, &rng, name);
      MALIVA_RETURN_NOT_OK(RegisterTable(std::move(sample), indexed, hashed));
    }
    // Hot-path cache: SampledSelectivity resolves the sample entry through
    // this map instead of re-formatting the name string per probe. Catalog
    // entries are node-stable, so the pointer stays valid for the engine's
    // lifetime.
    base.samples[pct_x10] = &catalog_.find(name)->second;
  }
  return Status::OK();
}

const TableEntry* Engine::FindEntry(const std::string& name) const {
  auto it = catalog_.find(name);
  return it == catalog_.end() ? nullptr : &it->second;
}

namespace {

/// The named column of `table` when it exists with one of `types`.
Status CheckColumn(const Table& table, const std::string& column,
                   std::initializer_list<ColumnType> types, const char* role) {
  Result<size_t> idx = table.ColumnIndex(column);
  if (!idx.ok()) {
    return Status::InvalidArgument(std::string(role) + ": no column '" + column +
                                   "' in table '" + table.name() + "'");
  }
  ColumnType type = table.ColumnAt(idx.value()).type();
  if (std::find(types.begin(), types.end(), type) == types.end()) {
    return Status::InvalidArgument(std::string(role) + ": column '" + table.name() + "." +
                                   column + "' has type " + ColumnTypeName(type));
  }
  return Status::OK();
}

Status CheckPredicates(const Table& table, const std::vector<Predicate>& preds) {
  for (const Predicate& p : preds) {
    switch (p.type) {
      case PredicateType::kKeyword:
        MALIVA_RETURN_NOT_OK(CheckColumn(table, p.column, {ColumnType::kText},
                                         "keyword predicate"));
        break;
      case PredicateType::kTimeRange:
      case PredicateType::kNumericRange:
        MALIVA_RETURN_NOT_OK(CheckColumn(
            table, p.column, {ColumnType::kInt64, ColumnType::kDouble, ColumnType::kTimestamp},
            "range predicate"));
        break;
      case PredicateType::kSpatialBox:
        MALIVA_RETURN_NOT_OK(
            CheckColumn(table, p.column, {ColumnType::kPoint}, "spatial predicate"));
        break;
    }
  }
  return Status::OK();
}

}  // namespace

Status Engine::ValidateQuery(const Query& query) const {
  const TableEntry* entry = FindEntry(query.table);
  if (entry == nullptr) return Status::InvalidArgument("no table '" + query.table + "'");
  const Table& table = *entry->table;
  MALIVA_RETURN_NOT_OK(CheckPredicates(table, query.predicates));
  if (!query.output_column.empty() || query.output == OutputKind::kHeatmap) {
    MALIVA_RETURN_NOT_OK(
        CheckColumn(table, query.output_column, {ColumnType::kPoint}, "output column"));
  }
  if (!query.join.has_value()) return Status::OK();
  const JoinSpec& js = *query.join;
  const TableEntry* right = FindEntry(js.right_table);
  if (right == nullptr) return Status::InvalidArgument("no join table '" + js.right_table + "'");
  MALIVA_RETURN_NOT_OK(CheckColumn(table, js.left_key, {ColumnType::kInt64}, "join key"));
  MALIVA_RETURN_NOT_OK(
      CheckColumn(*right->table, js.right_key, {ColumnType::kInt64}, "join key"));
  return CheckPredicates(*right->table, js.right_predicates);
}

double Engine::TrueSelectivityOnEntry(const TableEntry& entry,
                                      const Predicate& pred) const {
  size_t n = entry.table->NumRows();
  if (n == 0) return 0.0;

  size_t count = 0;
  switch (pred.type) {
    case PredicateType::kKeyword: {
      auto it = entry.inverted.find(pred.column);
      if (it != entry.inverted.end()) {
        count = it->second->DocFreq(pred.keyword);
        return static_cast<double>(count) / static_cast<double>(n);
      }
      break;
    }
    case PredicateType::kTimeRange:
    case PredicateType::kNumericRange: {
      auto it = entry.btrees.find(pred.column);
      if (it != entry.btrees.end()) {
        count = it->second->RangeCount(pred.range.lo, pred.range.hi);
        return static_cast<double>(count) / static_cast<double>(n);
      }
      break;
    }
    case PredicateType::kSpatialBox: {
      auto it = entry.rtrees.find(pred.column);
      if (it != entry.rtrees.end()) {
        count = it->second->Count(pred.box);
        return static_cast<double>(count) / static_cast<double>(n);
      }
      break;
    }
  }
  // Scan fallback for unindexed predicates.
  RowPredicate matches(entry, pred);
  for (RowId row = 0; row < n; ++row) {
    if (matches(row)) ++count;
  }
  return static_cast<double>(count) / static_cast<double>(n);
}

Result<double> Engine::TrueSelectivity(const std::string& table,
                                       const Predicate& pred) const {
  const TableEntry* entry = FindEntry(table);
  if (entry == nullptr) return Status::NotFound("no table '" + table + "'");
  return TrueSelectivityOnEntry(*entry, pred);
}

Result<double> Engine::SampledSelectivity(const std::string& table, const Predicate& pred,
                                          double sample_rate) const {
  // Hot path: resolve the sample entry through the base entry's per-rate
  // cache (filled by BuildSampleTables) — no name formatting, one lookup.
  const TableEntry* entry = nullptr;
  const TableEntry* base = FindEntry(table);
  if (base != nullptr) {
    auto it = base->samples.find(static_cast<int>(std::lround(sample_rate * 1000.0)));
    if (it != base->samples.end()) entry = it->second;
  }
  if (entry == nullptr) {
    // Cold path (samples registered without BuildSampleTables): format the
    // canonical name and look it up.
    std::string sample_name = SampleTableName(table, sample_rate);
    entry = FindEntry(sample_name);
    if (entry == nullptr) {
      return Status::NotFound("sample table '" + sample_name + "' not built");
    }
  }
  size_t n = entry->table->NumRows();
  if (n == 0) return 0.0;
  // count(*) on the sample with add-half smoothing: rare predicates hit zero
  // sample matches, which is exactly the sampling-QTE error source.
  double count = TrueSelectivityOnEntry(*entry, pred) * static_cast<double>(n);
  return (count + 0.5) / (static_cast<double>(n) + 1.0);
}

Result<double> Engine::HistogramSelectivity(const std::string& table,
                                            const Predicate& pred,
                                            uint64_t epoch) const {
  if (epoch != catalog_version()) {
    return Status::FailedPrecondition(
        "stale histogram epoch " + std::to_string(epoch) + " (catalog is at " +
        std::to_string(catalog_version()) + "); refresh before estimating");
  }
  const TableEntry* entry = FindEntry(table);
  if (entry == nullptr) return Status::NotFound("no table '" + table + "'");
  std::optional<double> est = entry->histograms->Estimate(pred);
  if (!est.has_value()) {
    return Status::NotFound("no histogram covers column '" + pred.column + "'");
  }
  return *est;
}

double Engine::EstimateOutputCardinality(const Query& q) const {
  const TableEntry* entry = FindEntry(q.table);
  assert(entry != nullptr);
  double sel = entry->stats->EstimateConjunction(q.predicates);
  return sel * static_cast<double>(entry->table->NumRows());
}

Result<ExecResult> Engine::Execute(const RewrittenQuery& rq, ProbeMemo* memo) const {
  assert(rq.query != nullptr);
  PlanSpec spec = optimizer_->ResolvePlan(*rq.query, rq.option);
  return ExecutePlan(*rq.query, spec, memo);
}

const RowIdList* Engine::IndexRows(const TableEntry& entry, const Predicate& pred,
                                   ProbeMemo* memo, bool probe) {
  if (pred.type == PredicateType::kKeyword) {
    auto it = entry.inverted.find(pred.column);
    return it == entry.inverted.end() ? nullptr : &it->second->Lookup(pred.keyword);
  }
  for (const ProbeMemo::Probe& held : memo->probes_) {
    if (held.entry == &entry && held.pred == &pred) return &held.rows;
  }
  if (!probe) return nullptr;
  RowIdList rows;
  if (pred.type == PredicateType::kSpatialBox) {
    auto it = entry.rtrees.find(pred.column);
    if (it == entry.rtrees.end()) return nullptr;
    rows = it->second->Query(pred.box);
  } else {
    auto it = entry.btrees.find(pred.column);
    if (it == entry.btrees.end()) return nullptr;
    rows = it->second->RangeScan(pred.range.lo, pred.range.hi);
  }
  return &memo->probes_.emplace_back(ProbeMemo::Probe{&entry, &pred, std::move(rows)}).rows;
}

Result<ExecResult> Engine::ExecutePlan(const Query& query, const PlanSpec& spec,
                                       ProbeMemo* memo) const {
  ProbeMemo local_memo;
  if (memo == nullptr) memo = &local_memo;
  Rng rng(MixSeed(seed_, query, spec));

  // Commercial-DB behaviour: occasionally the engine re-plans dynamically and
  // ignores the index hints (paper challenge C2).
  PlanSpec effective = spec;
  if (profile_.plan_instability_prob > 0.0 &&
      rng.Bernoulli(profile_.plan_instability_prob)) {
    RewriteOption free;
    free.approx = spec.approx;
    effective = optimizer_->ResolvePlan(query, free);
    effective.approx = spec.approx;
  }

  std::string exec_table = query.table;
  if (effective.approx.kind == ApproxKind::kSampleTable) {
    exec_table = SampleTableName(query.table, effective.approx.fraction);
  }
  const TableEntry* entry = FindEntry(exec_table);
  if (entry == nullptr) {
    return Status::NotFound("table '" + exec_table + "' not registered");
  }
  const Table& table = *entry->table;
  const size_t m = query.predicates.size();
  const size_t n = table.NumRows();
  const double scale = profile_.cardinality_scale;

  // LIMIT target in actual rows, derived from the optimizer's cardinality
  // estimate of the original query (fixed at rewrite time).
  size_t limit_actual = std::numeric_limits<size_t>::max();
  if (effective.approx.kind == ApproxKind::kLimit) {
    double est = EstimateOutputCardinality(query);
    limit_actual = static_cast<size_t>(
        std::max<double>(1.0, std::llround(effective.approx.fraction * est)));
  }

  ExecResult result;
  result.plan = effective;
  PlanCards& cards = result.cards;
  cards.heatmap = (query.output == OutputKind::kHeatmap);

  const std::vector<RowPredicate> eval = ResolvePredicates(*entry, query.predicates);

  std::vector<RowId> matched;
  uint32_t mask = effective.index_mask;

  if (mask == 0) {
    // A full scan matches exactly the row-order intersection of its
    // predicates' sorted rows, and stops at the LIMIT's last row. So when
    // every predicate's rows are at hand without a new probe (the memo holds
    // every range and spatial list, as after a training grid's all-index
    // option), the matches are read from them instead of scanned for.
    std::vector<const RowIdList*> held;
    for (const Predicate& p : query.predicates) {
      const RowIdList* rows = IndexRows(*entry, p, memo, /*probe=*/false);
      if (rows == nullptr) break;
      held.push_back(rows);
    }
    size_t scanned = 0;
    if (m > 0 && held.size() == m) {
      RowIdList intersection;
      const RowIdList& rows = IntersectAll(std::move(held), &intersection);
      matched.assign(rows.begin(), rows.begin() + static_cast<ptrdiff_t>(
                                                      std::min(rows.size(), limit_actual)));
      scanned = matched.size() >= limit_actual ? matched.back() + 1 : n;
    } else {
      // Evaluate cheap (non-keyword) predicates first.
      std::vector<size_t> order;
      for (size_t i = 0; i < m; ++i) {
        if (query.predicates[i].type != PredicateType::kKeyword) order.push_back(i);
      }
      for (size_t i = 0; i < m; ++i) {
        if (query.predicates[i].type == PredicateType::kKeyword) order.push_back(i);
      }
      for (RowId row = 0; row < n; ++row) {
        ++scanned;
        bool ok = true;
        for (size_t i : order) {
          if (!eval[i](row)) {
            ok = false;
            break;
          }
        }
        if (ok) {
          matched.push_back(row);
          if (matched.size() >= limit_actual) break;
        }
      }
    }
    cards.scanned_rows = static_cast<double>(scanned) * scale;
    cards.scan_preds = static_cast<double>(m);
  } else {
    // Index path: fetch postings for hinted predicates, intersect, then
    // residual-filter the survivors.
    std::vector<const RowIdList*> list_ptrs;
    list_ptrs.reserve(m);
    for (size_t i = 0; i < m; ++i) {
      if (((mask >> i) & 1u) == 0) continue;
      const Predicate& p = query.predicates[i];
      const RowIdList* list = IndexRows(*entry, p, memo, /*probe=*/true);
      if (list == nullptr) {
        return Status::FailedPrecondition(std::string("no ") + IndexKindName(p.type) +
                                          " index on " + p.column);
      }
      cards.postings.push_back(static_cast<double>(list->size()) * scale);
      list_ptrs.push_back(list);
    }

    RowIdList intersection;
    const RowIdList& candidates = IntersectAll(std::move(list_ptrs), &intersection);

    size_t residual = m - static_cast<size_t>(std::popcount(mask));
    cards.residual_preds = static_cast<double>(residual);

    size_t processed = 0;
    for (RowId row : candidates) {
      ++processed;
      bool ok = true;
      if (residual > 0) {
        for (size_t i = 0; i < m; ++i) {
          if ((mask >> i) & 1u) continue;
          if (!eval[i](row)) {
            ok = false;
            break;
          }
        }
      }
      if (ok) {
        matched.push_back(row);
        if (matched.size() >= limit_actual) break;
      }
    }
    cards.candidates = static_cast<double>(processed) * scale;
  }

  cards.output_rows = static_cast<double>(matched.size()) * scale;

  // Join stage.
  if (query.join.has_value()) {
    const JoinSpec& js = *query.join;
    const TableEntry* right = FindEntry(js.right_table);
    if (right == nullptr) return Status::NotFound("no table '" + js.right_table + "'");
    const Table& rtable = *right->table;

    cards.has_join = true;
    cards.join_method = effective.join_method;
    cards.output_rows = 0.0;  // emission is accounted by the join

    const Column& fk_col = table.GetColumn(js.left_key);
    std::vector<RowId> joined;

    const std::vector<RowPredicate> right_eval =
        ResolvePredicates(*right, js.right_predicates);
    auto right_row_passes = [&right_eval](RowId rrow) {
      for (const RowPredicate& passes : right_eval) {
        if (!passes(rrow)) return false;
      }
      return true;
    };

    // Pre-filter the right side for hash/merge via the B+ tree on the first
    // right predicate (residual-check the rest).
    RowIdList right_kept;
    auto filtered_right = [&]() -> const RowIdList& {
      if (!js.right_predicates.empty()) {
        const Predicate& p0 = js.right_predicates[0];
        const RowIdList* probed = nullptr;
        if (p0.type == PredicateType::kTimeRange || p0.type == PredicateType::kNumericRange) {
          probed = IndexRows(*right, p0, memo, /*probe=*/true);
        }
        if (probed != nullptr) {
          if (js.right_predicates.size() == 1) return *probed;
          for (RowId r : *probed) {
            if (right_row_passes(r)) right_kept.push_back(r);
          }
          return right_kept;
        }
      }
      for (RowId r = 0; r < rtable.NumRows(); ++r) {
        if (right_row_passes(r)) right_kept.push_back(r);
      }
      return right_kept;
    };

    switch (effective.join_method) {
      case JoinMethod::kNestedLoop: {
        auto it = right->hashes.find(js.right_key);
        if (it == right->hashes.end()) {
          return Status::FailedPrecondition("no hash index on " + js.right_key);
        }
        cards.nl_outer = static_cast<double>(matched.size()) * scale;
        for (RowId row : matched) {
          int64_t key = fk_col.Int64At(row);
          for (RowId rrow : it->second->Lookup(key)) {
            if (right_row_passes(rrow)) {
              joined.push_back(row);
              break;
            }
          }
        }
        break;
      }
      case JoinMethod::kHash: {
        const RowIdList& rrows = filtered_right();
        cards.right_scanned = static_cast<double>(rrows.size()) * scale;
        cards.build_rows = static_cast<double>(rrows.size()) * scale;
        cards.probe_rows = static_cast<double>(matched.size()) * scale;
        const Column& pk_col = rtable.GetColumn(js.right_key);
        std::unordered_map<int64_t, bool> built;
        built.reserve(rrows.size());
        for (RowId r : rrows) built.emplace(pk_col.Int64At(r), true);
        for (RowId row : matched) {
          if (built.count(fk_col.Int64At(row)) > 0) joined.push_back(row);
        }
        break;
      }
      case JoinMethod::kMerge: {
        const RowIdList& rrows = filtered_right();
        cards.right_scanned = static_cast<double>(rrows.size()) * scale;
        cards.sort_rows =
            static_cast<double>(matched.size() + rrows.size()) * scale;
        cards.merge_rows = cards.sort_rows;
        const Column& pk_col = rtable.GetColumn(js.right_key);
        std::vector<std::pair<int64_t, RowId>> left_sorted;
        left_sorted.reserve(matched.size());
        for (RowId row : matched) left_sorted.emplace_back(fk_col.Int64At(row), row);
        std::sort(left_sorted.begin(), left_sorted.end());
        std::vector<int64_t> right_keys;
        right_keys.reserve(rrows.size());
        for (RowId r : rrows) right_keys.push_back(pk_col.Int64At(r));
        std::sort(right_keys.begin(), right_keys.end());
        size_t ri = 0;
        for (const auto& [key, row] : left_sorted) {
          while (ri < right_keys.size() && right_keys[ri] < key) ++ri;
          if (ri < right_keys.size() && right_keys[ri] == key) joined.push_back(row);
        }
        break;
      }
      case JoinMethod::kOptimizerChoice:
        return Status::Internal("unresolved join method at execution time");
    }
    cards.join_output = static_cast<double>(joined.size()) * scale;
    matched = std::move(joined);
  }

  // Visualization output.
  if (query.output == OutputKind::kHeatmap) {
    BoundingBox viewport{};
    bool have_viewport = false;
    for (const Predicate& p : query.predicates) {
      if (p.type == PredicateType::kSpatialBox) {
        viewport = p.box;
        have_viewport = true;
        break;
      }
    }
    if (!have_viewport) {
      auto it = entry->rtrees.find(query.output_column);
      if (it != entry->rtrees.end()) {
        viewport = it->second->Bounds();
      }
    }
    const Column& out_col = table.GetColumn(query.output_column);
    for (RowId row : matched) {
      ++result.vis.bins[BinId(out_col.PointAt(row), viewport, query.heatmap_bins)];
    }
  } else {
    Result<size_t> id_idx = table.ColumnIndex("id");
    if (id_idx.ok()) {
      const Column& id_col = table.ColumnAt(id_idx.value());
      result.vis.ids.reserve(matched.size());
      for (RowId row : matched) result.vis.ids.push_back(id_col.Int64At(row));
    } else {
      for (RowId row : matched) result.vis.ids.push_back(static_cast<int64_t>(row));
    }
  }

  double ms = cost_model_.PlanTimeMs(cards);

  // Deterministic stochastic behaviours.
  if (profile_.buffer_hit_prob > 0.0 && rng.Bernoulli(profile_.buffer_hit_prob)) {
    ms /= std::max(1.0, profile_.buffer_speedup);
  }
  if (profile_.noise_sigma > 0.0) {
    double sigma = profile_.noise_sigma;
    // Mean-one lognormal noise.
    ms *= std::exp(rng.Normal(0.0, sigma) - 0.5 * sigma * sigma);
  }
  result.exec_ms = ms;
  return result;
}

}  // namespace maliva
