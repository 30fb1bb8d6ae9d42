// Minimal dense neural network with Adam, sufficient for Maliva's Q-network.
//
// The paper's Q-network is an MLP: input layer (state vector), two fully
// connected ReLU hidden layers sized like the input, and a linear output
// layer with one Q-value per action (Fig 8). PyTorch is unavailable offline,
// so forward/backward are hand-written; the network is tiny (tens of units).
//
// Serving runs one state at a time through Forward. Training runs a whole
// minibatch at once: a batch is n samples stored row by row (row s is sample
// s), each row padded to an even number of doubles (BatchStride) so the SSE2
// kernels move whole two-lane vectors; the pad is never read as data.
// ForwardBatch and AccumulateBatch push the batch through each layer as a
// matrix and are bit-identical to the per-sample passes: each output adds
// its bias first and then its inputs in ascending order, each gradient
// element adds its samples in ascending order (skipping the zero terms), and
// the ReLU and Adam arithmetic are per element as in the scalar code.
// AccumulateGradient is the batch of one, so there is one backward.
// DESIGN.md's "Q-network kernels" has the details.

#ifndef MALIVA_ML_MLP_H_
#define MALIVA_ML_MLP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace maliva {

/// Doubles per batch row of a `dim`-wide vector: `dim` rounded up to even.
constexpr size_t BatchStride(size_t dim) { return dim + (dim & 1); }

/// Buffers of the batched passes, grown to the largest batch seen and then
/// reused, so a warm update allocates nothing. Scratch, not state: a copy
/// starts empty.
class MlpWorkspace {
 public:
  MlpWorkspace() = default;
  MlpWorkspace(const MlpWorkspace&) {}
  MlpWorkspace& operator=(const MlpWorkspace&) { return *this; }

 private:
  friend class Mlp;
  std::vector<double> input_;              // AccumulateGradient's one row
  std::vector<std::vector<double>> acts_;  // per layer: the n output rows
  std::vector<double> grad_, grad_in_;     // output / input gradient rows
};

/// One dense layer y = W x + b with Adam-optimized parameters.
class LinearLayer {
 public:
  LinearLayer(size_t in_dim, size_t out_dim, Rng* rng);

  size_t in_dim() const { return in_dim_; }
  size_t out_dim() const { return out_dim_; }

  /// y = W x + b.
  void Forward(const std::vector<double>& x, std::vector<double>* y) const;

  /// Forward over `n` batch rows: output row s (stride BatchStride(out_dim))
  /// is W x_s + b for input row s (stride BatchStride(in_dim)), bit-equal to
  /// Forward(x_s).
  void ForwardBatch(const double* x, size_t n, double* y) const;

  /// Accumulates parameter gradients for the `n` batch rows of (x, grad_y),
  /// in ascending row order, and writes the rows of grad_x (skipped when
  /// null). Zero entries of grad_y contribute nothing.
  void BackwardBatch(const double* x, const double* grad_y, size_t n, double* grad_x);

  /// Applies one Adam update with the accumulated gradients times
  /// `grad_scale` (batch-mean normalization), then zeroes them.
  void AdamStep(double grad_scale, double lr, double beta1, double beta2, double eps,
                int64_t t);

  /// Copies parameters (not optimizer state) from `other`.
  void CopyParamsFrom(const LinearLayer& other);

  const std::vector<double>& weights() const { return w_; }
  const std::vector<double>& bias() const { return b_; }

 private:
  /// Rebuilds wt_ and wp_ from w_ and b_; called wherever they change.
  void RefreshPadded();

  size_t in_dim_;
  size_t out_dim_;
  std::vector<double> w_;   // row-major out_dim x in_dim
  std::vector<double> b_;
  // Padded copies for the batched kernels, pads zero: wt_ is b_ followed by
  // the columns of w_ (1 + in_dim rows of BatchStride(out_dim)), wp_ the rows
  // of w_ (out_dim rows of BatchStride(in_dim)).
  std::vector<double> wt_, wp_;
  std::vector<double> gw_, gb_;          // gradient accumulators
  std::vector<double> mw_, vw_, mb_, vb_;  // Adam moments
  // BackwardBatch's scratch: the compacted nonzero gradient terms (indices
  // and values) and one padded gradient row.
  std::vector<uint32_t> term_idx_;
  std::vector<double> term_val_;
  std::vector<double> grad_row_;
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

  /// Forward pass over `n` batch rows of `x` (stride
  /// BatchStride(input_dim)). Returns the output rows (stride
  /// BatchStride(output_dim)), row s bit-equal to Forward(x_s); they live in
  /// `ws` until its next use.
  const double* ForwardBatch(const double* x, size_t n, MlpWorkspace* ws) const;

  /// One supervised sample for DQN-style training: only output `action`
  /// receives gradient toward `target`. Accumulates gradients; returns the
  /// squared error of that output. The batch of one of AccumulateBatch.
  double AccumulateGradient(const std::vector<double>& x, int action, double target);

  /// AccumulateGradient for `n` samples at once: sample s is batch row s of
  /// `x` (stride BatchStride(input_dim)), `actions[s]` and `targets[s]`.
  /// Gradients accumulate in ascending sample order, so the bits equal n
  /// AccumulateGradient calls.
  /// Writes each sample's squared error to `sq_err` unless it is null.
  void AccumulateBatch(const double* x, size_t n, const int* actions,
                       const double* targets, double* sq_err);

  /// Adam step over all layers with accumulated (mean) gradients.
  /// `batch_size` normalizes the accumulated gradients.
  void Step(double lr, size_t batch_size);

  /// Copies all parameters from `other` (target-network sync).
  void CopyParamsFrom(const Mlp& other);

  const std::vector<LinearLayer>& layers() const { return layers_; }

 private:
  std::vector<LinearLayer> layers_;
  int64_t adam_t_ = 0;
  MlpWorkspace ws_;  // AccumulateBatch's buffers
};

}  // namespace maliva

#endif  // MALIVA_ML_MLP_H_
