#include "util/rng.h"

#include <cmath>
#include <unordered_map>

namespace maliva {

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  assert(k <= n);
  // Partial Fisher-Yates over a virtual identity array [0, n): draw i swaps
  // slots i and UniformInt(i, n - 1). Only the slots a swap has moved are
  // stored, so a call costs O(k) whatever n is (ReplayBuffer::Sample draws
  // 64 of up to 50,000 per update), with the dense version's draws and
  // output. Slot i is final once drawn: later draws only reach slots > i.
  std::vector<size_t> out(k);
  std::unordered_map<size_t, size_t> moved;
  moved.reserve(k);
  auto slot = [&moved](size_t i) {
    auto it = moved.find(i);
    return it == moved.end() ? i : it->second;
  };
  for (size_t i = 0; i < k; ++i) {
    size_t j = static_cast<size_t>(UniformInt(static_cast<int64_t>(i),
                                              static_cast<int64_t>(n - 1)));
    out[i] = slot(j);
    moved[j] = slot(i);
  }
  return out;
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
