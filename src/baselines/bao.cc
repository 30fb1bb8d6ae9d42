#include "baselines/bao.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

#include "engine/optimizer.h"

namespace maliva {

BaoQte::BaoQte(uint64_t seed) {
  Rng rng(seed);
  net_ = std::make_unique<Mlp>(std::vector<size_t>{kFeatureDim, 32, 32, 1}, &rng);
}

std::vector<double> BaoQte::Featurize(const Engine& engine, const Query& query,
                                      const RewriteOption& option) const {
  const Optimizer& opt = engine.optimizer();
  PlanSpec spec = opt.ResolvePlan(query, option);
  SelectivityVector sels = opt.EstimatedSelectivities(query);
  PlanCards cards = opt.CardsFromSelectivities(query, spec, sels);

  auto lg = [](double v) { return std::log1p(std::max(0.0, v)); };
  double total_postings = 0.0;
  for (double k : cards.postings) total_postings += k;

  std::vector<double> f;
  f.reserve(kFeatureDim);
  f.push_back(lg(cards.scanned_rows));
  f.push_back(lg(total_postings));
  f.push_back(static_cast<double>(cards.postings.size()));
  f.push_back(lg(cards.candidates));
  f.push_back(cards.residual_preds);
  f.push_back(lg(cards.output_rows));
  f.push_back(static_cast<double>(std::popcount(spec.index_mask)));
  f.push_back(cards.has_join ? 1.0 : 0.0);
  f.push_back(cards.join_method == JoinMethod::kNestedLoop ? 1.0 : 0.0);
  f.push_back(cards.join_method == JoinMethod::kHash ? 1.0 : 0.0);
  f.push_back(cards.join_method == JoinMethod::kMerge ? 1.0 : 0.0);
  f.push_back(lg(cards.build_rows + cards.nl_outer));
  f.push_back(lg(cards.sort_rows));
  f.push_back(lg(cards.join_output));
  assert(f.size() == kFeatureDim);
  return f;
}

double BaoQte::PredictMs(const std::vector<double>& features) const {
  double log_ms = net_->Forward(features)[0];
  return std::max(0.0, std::expm1(std::min(log_ms, 30.0)));
}

void BaoQte::Fit(const std::vector<Sample>& samples, size_t epochs, size_t batch_size,
                 double lr, uint64_t seed) {
  if (samples.empty()) return;
  Rng rng(seed);
  std::vector<size_t> order(samples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  // Each minibatch runs through the network as batch rows (ml/mlp.h), with
  // the bits of one AccumulateGradient per sample.
  const size_t stride = BatchStride(kFeatureDim);
  std::vector<double> rows(std::min(batch_size, samples.size()) * stride);
  std::vector<double> targets(rows.size() / stride);
  const std::vector<int> actions(targets.size(), 0);
  for (size_t epoch = 0; epoch < epochs; ++epoch) {
    rng.Shuffle(&order);
    for (size_t start = 0; start < order.size(); start += batch_size) {
      size_t end = std::min(order.size(), start + batch_size);
      for (size_t i = start; i < end; ++i) {
        const Sample& s = samples[order[i]];
        assert(s.features.size() == kFeatureDim);
        std::copy(s.features.begin(), s.features.end(), &rows[(i - start) * stride]);
        targets[i - start] = std::log1p(std::max(0.0, s.true_ms));
      }
      net_->AccumulateBatch(rows.data(), end - start, actions.data(), targets.data(),
                            nullptr);
      net_->Step(lr, end - start);
    }
  }
}

std::unique_ptr<BaoQte> BaoTrainer::Train(const std::vector<const Query*>& workload,
                                          uint64_t seed) const {
  auto qte = std::make_unique<BaoQte>(seed);
  std::vector<BaoQte::Sample> samples;
  samples.reserve(workload.size() * options_->size());
  for (const Query* q : workload) {
    for (const RewriteOption& option : *options_) {
      BaoQte::Sample s;
      s.features = qte->Featurize(*engine_, *q, option);
      s.true_ms = oracle_->TrueTimeMs(*q, option);
      samples.push_back(std::move(s));
    }
  }
  qte->Fit(samples, /*epochs=*/60, /*batch_size=*/64, /*lr=*/1e-3, seed ^ 0x5bd1e995);
  return qte;
}

RewriteOutcome BaoRewriter::RewriteForSession(const Query& query, double tau_ms,
                                              RewriteSession& session) const {
  (void)session;  // enumeration keeps no per-request state beyond locals
  double planning_ms = engine_->profile().optimizer_ms;
  size_t best = 0;
  double best_pred = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < options_->size(); ++i) {
    std::vector<double> f = qte_->Featurize(*engine_, query, (*options_)[i]);
    double pred = qte_->PredictMs(f);
    planning_ms += per_plan_cost_ms_;
    if (pred < best_pred) {
      best_pred = pred;
      best = i;
    }
  }

  RewriteOutcome out;
  out.option_index = best;
  out.planning_ms = planning_ms;
  out.exec_ms = oracle_->TrueTimeMs(query, (*options_)[best]);
  out.total_ms = out.planning_ms + out.exec_ms;
  out.viable = out.total_ms <= tau_ms;
  out.steps = options_->size();
  out.quality = 1.0;
  return out;
}

}  // namespace maliva
