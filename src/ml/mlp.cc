#include "ml/mlp.h"

#include <emmintrin.h>

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>

namespace maliva {

namespace {

// The SSE2 kernels below keep each output element in its own vector lane and
// give it exactly the scalar code's operations in the scalar code's order:
// one multiply and one add per term (SSE2 has no fused multiply-add), and
// correctly rounded division and sqrt. Lanes never mix, so the bits are the
// scalar loops'. A row of vectors is cut into near-equal blocks that stay in
// registers, each wide enough that its independent sums hide the add
// latency.

// R batch rows (one or two) through V vectors of output columns: `wt`
// points at the block's first column in the bias row, followed by `in_dim`
// weight rows `stride` apart. Each output is its bias plus w_i * x_i for
// ascending i. Two rows share each weight load.
template <size_t R, size_t V>
void ForwardBlock(const double* wt, size_t stride, size_t in_dim, const double* const* x,
                  double* const* y) {
  __m128d a[R][V];
  for (size_t r = 0; r < R; ++r) {
    for (size_t v = 0; v < V; ++v) a[r][v] = _mm_load_pd(wt + 2 * v);
  }
  for (size_t i = 0; i < in_dim; ++i) {
    const double* w = wt + (i + 1) * stride;
    __m128d b[R];
    for (size_t r = 0; r < R; ++r) b[r] = _mm_set1_pd(x[r][i]);
    for (size_t v = 0; v < V; ++v) {
      const __m128d wv = _mm_load_pd(w + 2 * v);
      for (size_t r = 0; r < R; ++r) a[r][v] = _mm_add_pd(a[r][v], _mm_mul_pd(wv, b[r]));
    }
  }
  for (size_t r = 0; r < R; ++r) {
    for (size_t v = 0; v < V; ++v) _mm_storeu_pd(y[r] + 2 * v, a[r][v]);
  }
}

// acc[0, 2V) += rows[idx[k]][0, 2V) * val[k] for k = 0 .. m - 1 in order.
template <size_t V>
void AddTermsBlock(double* acc, const double* rows, size_t stride, const uint32_t* idx,
                   const double* val, size_t m) {
  __m128d a[V];
  for (size_t v = 0; v < V; ++v) a[v] = _mm_load_pd(acc + 2 * v);
  for (size_t k = 0; k < m; ++k) {
    const double* r = rows + idx[k] * stride;
    const __m128d c = _mm_set1_pd(val[k]);
    for (size_t v = 0; v < V; ++v) {
      a[v] = _mm_add_pd(a[v], _mm_mul_pd(_mm_load_pd(r + 2 * v), c));
    }
  }
  for (size_t v = 0; v < V; ++v) _mm_store_pd(acc + 2 * v, a[v]);
}

using ForwardBlockFn = void (*)(const double*, size_t, size_t, const double* const*,
                                double* const*);
using AddTermsBlockFn = void (*)(double*, const double*, size_t, const uint32_t*,
                                 const double*, size_t);

// Block widths in vectors: up to eight sums (two rows of four, or one row
// of eight) in ForwardBlock, eight in AddTermsBlock, within the sixteen SSE
// registers. kForwardBlock[r - 1] runs r rows.
constexpr ForwardBlockFn kForwardBlock[2][9] = {
    {nullptr, ForwardBlock<1, 1>, ForwardBlock<1, 2>, ForwardBlock<1, 3>, ForwardBlock<1, 4>,
     ForwardBlock<1, 5>, ForwardBlock<1, 6>, ForwardBlock<1, 7>, ForwardBlock<1, 8>},
    {nullptr, ForwardBlock<2, 1>, ForwardBlock<2, 2>, ForwardBlock<2, 3>, ForwardBlock<2, 4>}};
constexpr size_t kMaxForwardBlock[2] = {8, 4};
constexpr AddTermsBlockFn kAddTermsBlock[] = {
    nullptr,          AddTermsBlock<1>, AddTermsBlock<2>, AddTermsBlock<3>, AddTermsBlock<4>,
    AddTermsBlock<5>, AddTermsBlock<6>, AddTermsBlock<7>, AddTermsBlock<8>};
constexpr size_t kMaxAddTermsBlock = std::size(kAddTermsBlock) - 1;

// Calls fn(first vector, width) over `nvec` vectors cut into the fewest
// blocks of at most `max_width`, as equal as possible (17 -> 5 + 6 + 6).
template <typename Fn>
void ForEachBlock(size_t nvec, size_t max_width, Fn fn) {
  const size_t blocks = (nvec + max_width - 1) / max_width;
  for (size_t b = 0, v = 0; b < blocks; ++b) {
    const size_t width = (nvec - v) / (blocks - b);
    fn(v, width);
    v += width;
  }
}

// acc (a padded row of `nvec` vectors) += rows[idx[k]] * val[k] for k in
// order.
void AddTerms(double* acc, size_t nvec, const double* rows, size_t stride,
              const uint32_t* idx, const double* val, size_t m) {
  ForEachBlock(nvec, kMaxAddTermsBlock, [&](size_t v, size_t width) {
    kAddTermsBlock[width](acc + 2 * v, rows + 2 * v, stride, idx, val, m);
  });
}

// Branch-free compaction of the nonzero entries of a strided vector: writes
// their positions and values in ascending order and returns their count.
// (ReLU masks make `g == 0` a coin flip the branch predictor loses.)
inline size_t CompactNonzero(const double* g, size_t len, size_t step, uint32_t* idx,
                             double* val) {
  size_t m = 0;
  for (size_t j = 0; j < len; ++j) {
    const double gj = g[j * step];
    idx[m] = static_cast<uint32_t>(j);
    val[m] = gj;
    m += gj != 0.0;
  }
  return m;
}

// One Adam update of `n` parameters `p` from gradients `g` times `scale`
// (the batch mean), with moments `m` and `v`; zeroes `g`. Two lanes at a
// time, each lane evaluating the scalar tail's expressions.
void AdamUpdate(double* p, double* g, double* m, double* v, size_t n, double scale,
                double lr, double beta1, double beta2, double eps, double bc1, double bc2) {
  const __m128d vscale = _mm_set1_pd(scale);
  const __m128d vb1 = _mm_set1_pd(beta1), vb1c = _mm_set1_pd(1.0 - beta1);
  const __m128d vb2 = _mm_set1_pd(beta2), vb2c = _mm_set1_pd(1.0 - beta2);
  const __m128d vlr = _mm_set1_pd(lr), veps = _mm_set1_pd(eps);
  const __m128d vbc1 = _mm_set1_pd(bc1), vbc2 = _mm_set1_pd(bc2);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d gi = _mm_mul_pd(_mm_loadu_pd(g + i), vscale);
    const __m128d mi =
        _mm_add_pd(_mm_mul_pd(vb1, _mm_loadu_pd(m + i)), _mm_mul_pd(vb1c, gi));
    const __m128d vi = _mm_add_pd(_mm_mul_pd(vb2, _mm_loadu_pd(v + i)),
                                  _mm_mul_pd(_mm_mul_pd(vb2c, gi), gi));
    const __m128d step = _mm_div_pd(_mm_mul_pd(vlr, _mm_div_pd(mi, vbc1)),
                                    _mm_add_pd(_mm_sqrt_pd(_mm_div_pd(vi, vbc2)), veps));
    _mm_storeu_pd(g + i, _mm_setzero_pd());
    _mm_storeu_pd(m + i, mi);
    _mm_storeu_pd(v + i, vi);
    _mm_storeu_pd(p + i, _mm_sub_pd(_mm_loadu_pd(p + i), step));
  }
  for (; i < n; ++i) {
    const double gi = g[i] * scale;
    g[i] = 0.0;
    m[i] = beta1 * m[i] + (1.0 - beta1) * gi;
    v[i] = beta2 * v[i] + (1.0 - beta2) * gi * gi;
    p[i] -= lr * (m[i] / bc1) / (std::sqrt(v[i] / bc2) + eps);
  }
}

}  // namespace

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
  RefreshPadded();
}

void LinearLayer::RefreshPadded() {
  const size_t ostride = BatchStride(out_dim_);
  const size_t istride = BatchStride(in_dim_);
  wt_.resize((in_dim_ + 1) * ostride);  // the pads stay zero
  wp_.resize(out_dim_ * istride);
  for (size_t o = 0; o < out_dim_; ++o) {
    wt_[o] = b_[o];
    for (size_t i = 0; i < in_dim_; ++i) {
      const double w = w_[o * in_dim_ + i];
      wt_[(i + 1) * ostride + o] = w;
      wp_[o * istride + i] = w;
    }
  }
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

void LinearLayer::ForwardBatch(const double* x, size_t n, double* y) const {
  // Two rows at a time share each weight load; an odd last row runs alone.
  const size_t istride = BatchStride(in_dim_);
  const size_t ostride = BatchStride(out_dim_);
  for (size_t s = 0; s < n; s += 2) {
    const size_t rows = std::min<size_t>(2, n - s);
    const double* xs[2] = {x + s * istride, x + (s + 1) * istride};
    double* ys[2] = {y + s * ostride, y + (s + 1) * ostride};
    ForEachBlock(ostride / 2, kMaxForwardBlock[rows - 1], [&](size_t v, size_t width) {
      double* yv[2] = {ys[0] + 2 * v, ys[1] + 2 * v};
      kForwardBlock[rows - 1][width](&wt_[2 * v], ostride, in_dim_, xs, yv);
    });
  }
}

void LinearLayer::BackwardBatch(const double* x, const double* grad_y, size_t n,
                                double* grad_x) {
  const size_t istride = BatchStride(in_dim_);
  const size_t ostride = BatchStride(out_dim_);
  term_idx_.resize(std::max(n, out_dim_));
  term_val_.resize(term_idx_.size());
  grad_row_.resize(istride);
  uint32_t* idx = term_idx_.data();
  double* val = term_val_.data();
  double* row = grad_row_.data();
  // Parameter gradients, one output row at a time: the samples with a
  // nonzero gradient for output o, in ascending order, each adding its
  // input row times that gradient to row o of gw_ (via a padded copy).
  for (size_t o = 0; o < out_dim_; ++o) {
    const size_t m = CompactNonzero(grad_y + o, n, ostride, idx, val);
    if (m == 0) continue;
    for (size_t k = 0; k < m; ++k) gb_[o] += val[k];
    double* grow = &gw_[o * in_dim_];
    std::copy(grow, grow + in_dim_, row);
    AddTerms(row, istride / 2, x, istride, idx, val, m);
    std::copy(row, row + in_dim_, grow);
  }
  if (grad_x == nullptr) return;
  // Input gradients, one sample at a time: the rows of W for the sample's
  // nonzero output gradients, in ascending output order, from zero.
  for (size_t s = 0; s < n; ++s) {
    const size_t m = CompactNonzero(grad_y + s * ostride, out_dim_, 1, idx, val);
    double* gxs = grad_x + s * istride;
    std::fill(gxs, gxs + istride, 0.0);
    AddTerms(gxs, istride / 2, wp_.data(), istride, idx, val, m);
  }
}

void LinearLayer::AdamStep(double grad_scale, double lr, double beta1, double beta2,
                           double eps, int64_t t) {
  double bc1 = 1.0 - std::pow(beta1, static_cast<double>(t));
  double bc2 = 1.0 - std::pow(beta2, static_cast<double>(t));
  AdamUpdate(w_.data(), gw_.data(), mw_.data(), vw_.data(), w_.size(), grad_scale, lr,
             beta1, beta2, eps, bc1, bc2);
  AdamUpdate(b_.data(), gb_.data(), mb_.data(), vb_.data(), b_.size(), grad_scale, lr,
             beta1, beta2, eps, bc1, bc2);
  RefreshPadded();
}

void LinearLayer::CopyParamsFrom(const LinearLayer& other) {
  assert(in_dim_ == other.in_dim_ && out_dim_ == other.out_dim_);
  w_ = other.w_;
  b_ = other.b_;
  wt_ = other.wt_;
  wp_ = other.wp_;
}

Mlp::Mlp(const std::vector<size_t>& layer_sizes, Rng* rng) {
  assert(layer_sizes.size() >= 2);
  for (size_t l = 0; l + 1 < layer_sizes.size(); ++l) {
    layers_.emplace_back(layer_sizes[l], layer_sizes[l + 1], rng);
  }
}

namespace {

void Relu(double* v, size_t n) {
  for (size_t i = 0; i < n; ++i) v[i] = v[i] > 0.0 ? v[i] : 0.0;
}

}  // namespace

std::vector<double> Mlp::Forward(const std::vector<double>& x) const {
  // Ping-pong between two buffers; the input is read in place.
  std::vector<double> cur;
  std::vector<double> next;
  const std::vector<double>* in = &x;
  for (size_t l = 0; l < layers_.size(); ++l) {
    layers_[l].Forward(*in, &next);
    if (l + 1 < layers_.size()) Relu(next.data(), next.size());  // hidden layers
    cur.swap(next);
    in = &cur;
  }
  return cur;
}

const double* Mlp::ForwardBatch(const double* x, size_t n, MlpWorkspace* ws) const {
  const size_t num_layers = layers_.size();
  ws->acts_.resize(num_layers);
  const double* in = x;
  for (size_t l = 0; l < num_layers; ++l) {
    const size_t len = n * BatchStride(layers_[l].out_dim());
    std::vector<double>& act = ws->acts_[l];
    if (act.size() < len) act.resize(len);
    layers_[l].ForwardBatch(in, n, act.data());
    if (l + 1 < num_layers) Relu(act.data(), len);
    in = act.data();
  }
  return in;
}

double Mlp::AccumulateGradient(const std::vector<double>& x, int action, double target) {
  assert(x.size() == input_dim());
  ws_.input_.resize(BatchStride(input_dim()));
  std::copy(x.begin(), x.end(), ws_.input_.begin());
  double sq_err = 0.0;
  AccumulateBatch(ws_.input_.data(), 1, &action, &target, &sq_err);
  return sq_err;
}

void Mlp::AccumulateBatch(const double* x, size_t n, const int* actions,
                          const double* targets, double* sq_err) {
  // Forward pass keeping each layer's (post-ReLU) output rows: acts_[l]
  // holds the inputs of layer l + 1, and x, read in place, those of layer 0.
  const double* q = ForwardBatch(x, n, &ws_);
  const std::vector<std::vector<double>>& acts = ws_.acts_;
  const size_t num_layers = layers_.size();
  const size_t qstride = BatchStride(output_dim());

  // dL/dq_a = 2 (q_a - y) for each sample's action; zero elsewhere.
  size_t widest = 0;
  for (const LinearLayer& layer : layers_) widest = std::max(widest, layer.out_dim());
  const size_t len = n * BatchStride(widest);
  if (ws_.grad_.size() < len) {
    ws_.grad_.resize(len);
    ws_.grad_in_.resize(len);
  }
  std::fill(ws_.grad_.begin(), ws_.grad_.begin() + n * qstride, 0.0);
  for (size_t s = 0; s < n; ++s) {
    assert(actions[s] >= 0 && static_cast<size_t>(actions[s]) < output_dim());
    const size_t a = s * qstride + static_cast<size_t>(actions[s]);
    const double err = q[a] - targets[s];
    ws_.grad_[a] = 2.0 * err;
    if (sq_err != nullptr) sq_err[s] = err * err;
  }

  // Backward. The input gradient of layer 0 is never used, so it is not
  // computed.
  for (size_t l = num_layers; l-- > 0;) {
    if (l + 1 < num_layers) {
      // Undo ReLU: gradient flows only where the activation was positive
      // (branch-free: act <= 0 is a coin flip the predictor loses).
      const double* act = acts[l].data();
      double* grad = ws_.grad_.data();
      const __m128d zero = _mm_setzero_pd();
      for (size_t i = 0; i < n * BatchStride(layers_[l].out_dim()); i += 2) {
        const __m128d dead = _mm_cmple_pd(_mm_load_pd(act + i), zero);
        _mm_store_pd(grad + i, _mm_andnot_pd(dead, _mm_load_pd(grad + i)));
      }
    }
    layers_[l].BackwardBatch(l == 0 ? x : acts[l - 1].data(), ws_.grad_.data(), n,
                             l == 0 ? nullptr : ws_.grad_in_.data());
    ws_.grad_.swap(ws_.grad_in_);
  }
}

void Mlp::Step(double lr, size_t batch_size) {
  assert(batch_size > 0);
  ++adam_t_;
  double scale = 1.0 / static_cast<double>(batch_size);
  for (LinearLayer& layer : layers_) layer.AdamStep(scale, lr, 0.9, 0.999, 1e-8, adam_t_);
}

void Mlp::CopyParamsFrom(const Mlp& other) {
  assert(layers_.size() == other.layers_.size());
  for (size_t l = 0; l < layers_.size(); ++l) {
    layers_[l].CopyParamsFrom(other.layers_[l]);
  }
}

}  // namespace maliva
