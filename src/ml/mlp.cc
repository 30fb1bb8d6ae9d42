#include "ml/mlp.h"

#include <cassert>
#include <cmath>

namespace maliva {

LinearLayer::LinearLayer(size_t in_dim, size_t out_dim, Rng* rng)
    : in_dim_(in_dim), out_dim_(out_dim) {
  assert(in_dim > 0 && out_dim > 0);
  w_.resize(in_dim * out_dim);
  b_.assign(out_dim, 0.0);
  // He initialization (ReLU-friendly).
  double stddev = std::sqrt(2.0 / static_cast<double>(in_dim));
  for (double& w : w_) w = rng->Normal(0.0, stddev);
  gw_.assign(w_.size(), 0.0);
  gb_.assign(b_.size(), 0.0);
  mw_.assign(w_.size(), 0.0);
  vw_.assign(w_.size(), 0.0);
  mb_.assign(b_.size(), 0.0);
  vb_.assign(b_.size(), 0.0);
}

void LinearLayer::Forward(const std::vector<double>& x, std::vector<double>* y) const {
  assert(x.size() == in_dim_);
  y->resize(out_dim_);
  const double* in = x.data();
  double* out = y->data();
  // Four outputs per pass over x: four independent sums instead of one
  // latency-bound chain. Each output still adds its bias first and then its
  // inputs in ascending order, so every bit matches the one-output loop.
  size_t o = 0;
  for (; o + 4 <= out_dim_; o += 4) {
    const double* r0 = &w_[o * in_dim_];
    const double* r1 = r0 + in_dim_;
    const double* r2 = r1 + in_dim_;
    const double* r3 = r2 + in_dim_;
    double a0 = b_[o], a1 = b_[o + 1], a2 = b_[o + 2], a3 = b_[o + 3];
    for (size_t i = 0; i < in_dim_; ++i) {
      const double xi = in[i];
      a0 += r0[i] * xi;
      a1 += r1[i] * xi;
      a2 += r2[i] * xi;
      a3 += r3[i] * xi;
    }
    out[o] = a0;
    out[o + 1] = a1;
    out[o + 2] = a2;
    out[o + 3] = a3;
  }
  for (; o < out_dim_; ++o) {
    const double* row = &w_[o * in_dim_];
    double acc = b_[o];
    for (size_t i = 0; i < in_dim_; ++i) acc += row[i] * in[i];
    out[o] = acc;
  }
}

void LinearLayer::Backward(const std::vector<double>& x, const std::vector<double>& grad_y,
                           std::vector<double>* grad_x) {
  assert(x.size() == in_dim_ && grad_y.size() == out_dim_);
  if (grad_x != nullptr) grad_x->assign(in_dim_, 0.0);
  for (size_t o = 0; o < out_dim_; ++o) {
    double gy = grad_y[o];
    if (gy == 0.0) continue;
    gb_[o] += gy;
    double* grow = &gw_[o * in_dim_];
    for (size_t i = 0; i < in_dim_; ++i) grow[i] += gy * x[i];
    if (grad_x == nullptr) continue;
    const double* wrow = &w_[o * in_dim_];
    for (size_t i = 0; i < in_dim_; ++i) (*grad_x)[i] += gy * wrow[i];
  }
}

void LinearLayer::AdamStep(double lr, double beta1, double beta2, double eps, int64_t t) {
  double bc1 = 1.0 - std::pow(beta1, static_cast<double>(t));
  double bc2 = 1.0 - std::pow(beta2, static_cast<double>(t));
  for (size_t i = 0; i < w_.size(); ++i) {
    mw_[i] = beta1 * mw_[i] + (1.0 - beta1) * gw_[i];
    vw_[i] = beta2 * vw_[i] + (1.0 - beta2) * gw_[i] * gw_[i];
    w_[i] -= lr * (mw_[i] / bc1) / (std::sqrt(vw_[i] / bc2) + eps);
  }
  for (size_t i = 0; i < b_.size(); ++i) {
    mb_[i] = beta1 * mb_[i] + (1.0 - beta1) * gb_[i];
    vb_[i] = beta2 * vb_[i] + (1.0 - beta2) * gb_[i] * gb_[i];
    b_[i] -= lr * (mb_[i] / bc1) / (std::sqrt(vb_[i] / bc2) + eps);
  }
  ZeroGrad();
}

void LinearLayer::ScaleGrad(double factor) {
  for (double& g : gw_) g *= factor;
  for (double& g : gb_) g *= factor;
}

void LinearLayer::ZeroGrad() {
  gw_.assign(gw_.size(), 0.0);
  gb_.assign(gb_.size(), 0.0);
}

void LinearLayer::CopyParamsFrom(const LinearLayer& other) {
  assert(in_dim_ == other.in_dim_ && out_dim_ == other.out_dim_);
  w_ = other.w_;
  b_ = other.b_;
}

Mlp::Mlp(const std::vector<size_t>& layer_sizes, Rng* rng) {
  assert(layer_sizes.size() >= 2);
  for (size_t l = 0; l + 1 < layer_sizes.size(); ++l) {
    layers_.emplace_back(layer_sizes[l], layer_sizes[l + 1], rng);
  }
}

namespace {

void Relu(std::vector<double>* v) {
  for (double& a : *v) a = a > 0.0 ? a : 0.0;
}

}  // namespace

std::vector<double> Mlp::Forward(const std::vector<double>& x) const {
  // Ping-pong between two buffers; the input is read in place.
  std::vector<double> cur;
  std::vector<double> next;
  const std::vector<double>* in = &x;
  for (size_t l = 0; l < layers_.size(); ++l) {
    layers_[l].Forward(*in, &next);
    if (l + 1 < layers_.size()) Relu(&next);  // ReLU on hidden layers
    cur.swap(next);
    in = &cur;
  }
  return cur;
}

double Mlp::AccumulateGradient(const std::vector<double>& x, int action, double target) {
  // Forward pass keeping each layer's (post-ReLU) output: acts[l] is the
  // input of layer l + 1, and x, read in place, the input of layer 0.
  const size_t num_layers = layers_.size();
  std::vector<std::vector<double>> acts(num_layers);
  for (size_t l = 0; l < num_layers; ++l) {
    layers_[l].Forward(l == 0 ? x : acts[l - 1], &acts[l]);
    if (l + 1 < num_layers) Relu(&acts[l]);
  }
  const std::vector<double>& q = acts.back();
  assert(action >= 0 && static_cast<size_t>(action) < q.size());
  double err = q[static_cast<size_t>(action)] - target;

  // Backward: dL/dq_a = 2 (q_a - y); zero elsewhere. The input gradient of
  // layer 0 is never used, so it is not computed.
  std::vector<double> grad(q.size(), 0.0);
  grad[static_cast<size_t>(action)] = 2.0 * err;
  std::vector<double> grad_in;
  for (size_t l = num_layers; l-- > 0;) {
    if (l + 1 < num_layers) {
      // Undo ReLU: gradient flows only where the activation was positive.
      const std::vector<double>& act = acts[l];
      for (size_t i = 0; i < grad.size(); ++i) {
        if (act[i] <= 0.0) grad[i] = 0.0;
      }
    }
    layers_[l].Backward(l == 0 ? x : acts[l - 1], grad, l == 0 ? nullptr : &grad_in);
    grad.swap(grad_in);
  }
  grad_scale_pending_ += 1.0;
  return err * err;
}

void Mlp::Step(double lr, size_t batch_size) {
  assert(batch_size > 0);
  ++adam_t_;
  double scale = 1.0 / static_cast<double>(batch_size);
  for (LinearLayer& layer : layers_) {
    layer.ScaleGrad(scale);
    layer.AdamStep(lr, 0.9, 0.999, 1e-8, adam_t_);
  }
  grad_scale_pending_ = 0.0;
}

void Mlp::CopyParamsFrom(const Mlp& other) {
  assert(layers_.size() == other.layers_.size());
  for (size_t l = 0; l < layers_.size(); ++l) {
    layers_[l].CopyParamsFrom(other.layers_[l]);
  }
}

}  // namespace maliva
