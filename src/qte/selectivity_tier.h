// SelectivityTier: the middle rung of the three-rung selectivity ladder.
//
//   rung 1  shared-store hit   (qte/shared_selectivity_store.h, free)
//   rung 2  histogram estimate (this file: O(1), near-zero charged cost)
//   rung 3  sample probe       (Engine::SampledSelectivity, unit cost)
//
// The tier arbitrates rung 2 per lookup: it answers from the engine's
// full-table histograms (engine/histogram.h) when (a) its bound epoch still
// matches the engine's catalog_version() — a stats refresh silently demotes
// every lookup back to probing until Refresh() re-arms the tier — and (b) the
// (table, column) pair has not been demoted for inaccuracy.
//
// Trust is learned from serving feedback: whenever a probe does run for a
// slot the histogram could have answered (the QTE declined rung 2, or the
// accurate QTE collected ground truth anyway), RecordProbe logs the
// histogram's relative error against the probed value into a bounded
// per-(table, column) window. A column whose windowed mean error exceeds
// max_rel_error is demoted — its lookups fall through to rung 3, whose
// probes keep feeding the window, so a column re-promotes by itself when its
// recent errors shrink.
//
// Thread safety: Estimate/CanEstimate/RecordProbe are const and internally
// synchronized (sharded mutexes over the error windows, relaxed counters),
// mirroring the shared store's exception to the frozen-after-warm-up rule.
// Like the store, cross-request trust state makes request outcomes
// deterministic given the tier's state, not across interleavings.

#ifndef MALIVA_QTE_SELECTIVITY_TIER_H_
#define MALIVA_QTE_SELECTIVITY_TIER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/engine.h"
#include "query/predicate.h"

namespace maliva {

/// Knobs of the histogram tier.
struct SelectivityTierConfig {
  /// Virtual cost charged per histogram-answered slot, replacing the probe's
  /// QteParams::unit_cost_ms. Near-zero: the lookup touches no table.
  double histogram_cost_ms = 0.5;
  /// Demotion threshold: a (table, column) whose windowed mean relative
  /// error exceeds this falls back to probing.
  double max_rel_error = 0.35;
  /// Per-(table, column) error samples retained (ring buffer).
  size_t error_window = 32;
};

/// Arbitrates histogram-tier lookups and learns per-column trust.
class SelectivityTier {
 public:
  SelectivityTier(const Engine* engine, SelectivityTierConfig config);

  SelectivityTier(const SelectivityTier&) = delete;
  SelectivityTier& operator=(const SelectivityTier&) = delete;

  /// O(1) histogram estimate, or nullopt when the tier must decline: stale
  /// epoch, no histogram covers the predicate, or the column is demoted.
  /// Counts a histogram hit on success.
  std::optional<double> Estimate(const std::string& table, const Predicate& pred) const;

  /// Would Estimate answer right now? Same arbitration, no counters — used
  /// by QTE cost *prediction* (the C_i entries of the MDP state).
  bool CanEstimate(const std::string& table, const Predicate& pred) const;

  /// Feedback: a probe measured `probed` for this (table, pred). Records the
  /// histogram's relative error into the column's bounded window (no-op when
  /// the epoch is stale or no histogram covers the predicate).
  void RecordProbe(const std::string& table, const Predicate& pred,
                   double probed) const;

  /// Re-arms the tier after a catalog change: binds the current
  /// catalog_version() and clears all error windows (they scored the
  /// previous ground truth).
  void Refresh();

  /// Monitoring snapshot. mean_abs_rel_error averages the *currently
  /// windowed* samples across columns (the trust evidence in force), not
  /// all-time history.
  struct Stats {
    uint64_t histogram_hits = 0;   ///< Estimate calls answered by rung 2
    uint64_t probe_records = 0;    ///< RecordProbe calls that scored an error
    uint64_t error_samples = 0;    ///< samples currently windowed
    double mean_abs_rel_error = 0.0;
    uint64_t demoted_columns = 0;  ///< columns currently past max_rel_error
  };
  Stats Snapshot() const;

  const SelectivityTierConfig& config() const { return config_; }
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

 private:
  /// Bounded per-(table, column) relative-error accumulator.
  struct ErrorWindow {
    std::vector<double> ring;
    size_t next = 0;
    size_t count = 0;
    double sum = 0.0;

    double Mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, ErrorWindow> windows;
  };

  /// Demotion needs evidence: a column is only distrusted after this many
  /// windowed samples.
  static constexpr size_t kMinErrorSamples = 4;
  /// Relative-error denominator floor: near-zero probed selectivities would
  /// otherwise explode the ratio.
  static constexpr double kRelErrorFloor = 1e-3;
  static constexpr size_t kNumShards = 8;

  bool Fresh() const {
    return engine_->catalog_version() == epoch_.load(std::memory_order_acquire);
  }
  static std::string Key(const std::string& table, const std::string& column) {
    std::string key = table;
    key.push_back('\0');
    key.append(column);
    return key;
  }
  Shard& ShardFor(const std::string& key) const;
  bool Demoted(const std::string& table, const Predicate& pred) const;

  const Engine* engine_;
  SelectivityTierConfig config_;
  std::atomic<uint64_t> epoch_;
  mutable std::vector<Shard> shards_;
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> probe_records_{0};
};

}  // namespace maliva

#endif  // MALIVA_QTE_SELECTIVITY_TIER_H_
