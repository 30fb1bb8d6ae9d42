#include "util/rng.h"

#include <cmath>
#include <numeric>

namespace maliva {

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  assert(k <= n);
  // Floyd's algorithm would avoid the O(n) init, but n is small in all of our
  // call sites relative to the work done per sampled element.
  std::vector<size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  for (size_t i = 0; i < k; ++i) {
    size_t j = static_cast<size_t>(UniformInt(static_cast<int64_t>(i),
                                              static_cast<int64_t>(n - 1)));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

ZipfTable::ZipfTable(int64_t n, double theta) {
  assert(n > 0);
  cdf_.resize(static_cast<size_t>(n));
  double acc = 0.0;
  for (int64_t r = 0; r < n; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), theta);
    cdf_[static_cast<size_t>(r)] = acc;
  }
  for (double& c : cdf_) c /= acc;
}

int64_t ZipfTable::Sample(Rng* rng) const {
  double u = rng->Uniform(0.0, 1.0);
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return static_cast<int64_t>(it - cdf_.begin());
}

}  // namespace maliva
