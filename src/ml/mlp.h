// Minimal dense neural network with Adam, sufficient for Maliva's Q-network.
//
// The paper's Q-network is an MLP: input layer (state vector), two fully
// connected ReLU hidden layers sized like the input, and a linear output
// layer with one Q-value per action (Fig 8). PyTorch is unavailable offline,
// so forward/backward are hand-written; the network is tiny (tens of units).

#ifndef MALIVA_ML_MLP_H_
#define MALIVA_ML_MLP_H_

#include <cstddef>
#include <vector>

#include "util/rng.h"

namespace maliva {

/// One dense layer y = W x + b with Adam-optimized parameters.
class LinearLayer {
 public:
  LinearLayer(size_t in_dim, size_t out_dim, Rng* rng);

  size_t in_dim() const { return in_dim_; }
  size_t out_dim() const { return out_dim_; }

  /// y = W x + b.
  void Forward(const std::vector<double>& x, std::vector<double>* y) const;

  /// Accumulates parameter gradients for (x, grad_y) and writes grad_x
  /// (skipped when `grad_x` is null).
  void Backward(const std::vector<double>& x, const std::vector<double>& grad_y,
                std::vector<double>* grad_x);

  /// Applies one Adam update with the accumulated gradients, then zeroes them.
  void AdamStep(double lr, double beta1, double beta2, double eps, int64_t t);

  /// Multiplies accumulated gradients by `factor` (batch-mean normalization).
  void ScaleGrad(double factor);

  void ZeroGrad();

  /// Copies parameters (not optimizer state) from `other`.
  void CopyParamsFrom(const LinearLayer& other);

  const std::vector<double>& weights() const { return w_; }
  const std::vector<double>& bias() const { return b_; }

 private:
  size_t in_dim_;
  size_t out_dim_;
  std::vector<double> w_;   // row-major out_dim x in_dim
  std::vector<double> b_;
  std::vector<double> gw_, gb_;          // gradient accumulators
  std::vector<double> mw_, vw_, mb_, vb_;  // Adam moments
};

/// Multi-layer perceptron with ReLU hidden activations and linear output.
class Mlp {
 public:
  /// `layer_sizes` = {in, hidden..., out}; requires at least {in, out}.
  Mlp(const std::vector<size_t>& layer_sizes, Rng* rng);

  size_t input_dim() const { return layers_.front().in_dim(); }
  size_t output_dim() const { return layers_.back().out_dim(); }

  /// Forward pass.
  std::vector<double> Forward(const std::vector<double>& x) const;

  /// One supervised sample for DQN-style training: only output `action`
  /// receives gradient toward `target`. Accumulates gradients; returns the
  /// squared error of that output.
  double AccumulateGradient(const std::vector<double>& x, int action, double target);

  /// Adam step over all layers with accumulated (mean) gradients.
  /// `batch_size` normalizes the accumulated gradients.
  void Step(double lr, size_t batch_size);

  /// Copies all parameters from `other` (target-network sync).
  void CopyParamsFrom(const Mlp& other);

  const std::vector<LinearLayer>& layers() const { return layers_; }

 private:
  std::vector<LinearLayer> layers_;
  int64_t adam_t_ = 0;
  double grad_scale_pending_ = 0.0;  // #samples accumulated since last Step
};

}  // namespace maliva

#endif  // MALIVA_ML_MLP_H_
