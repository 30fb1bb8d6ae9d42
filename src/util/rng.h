// Seeded random-number generation used by every stochastic component.
//
// All experiment randomness flows through Rng instances with explicit seeds so
// that the full experiment suite is reproducible run-to-run.

#ifndef MALIVA_UTIL_RNG_H_
#define MALIVA_UTIL_RNG_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <random>
#include <vector>

namespace maliva {

/// Deterministic random source. Thin, inlined wrapper over std::mt19937_64.
class Rng {
 public:
  explicit Rng(uint64_t seed) : gen_(seed) {}

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    assert(lo <= hi);
    return std::uniform_int_distribution<int64_t>(lo, hi)(gen_);
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(gen_);
  }

  /// Standard-normal sample scaled to (mean, stddev).
  double Normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(gen_);
  }

  /// Log-normal sample with the given underlying normal parameters.
  double LogNormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(gen_);
  }

  /// True with probability p.
  bool Bernoulli(double p) { return std::bernoulli_distribution(p)(gen_); }

  /// Exponential with the given rate (lambda).
  double Exponential(double rate) {
    return std::exponential_distribution<double>(rate)(gen_);
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    std::shuffle(v->begin(), v->end(), gen_);
  }

  /// k distinct indices sampled uniformly from [0, n), in O(k) time and
  /// memory. Requires k <= n.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

 private:
  std::mt19937_64 gen_;
};

/// Precomputed Zipf CDF for repeated sampling from the same distribution.
class ZipfTable {
 public:
  ZipfTable(int64_t n, double theta);

  /// Draws a rank in [0, n).
  int64_t Sample(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace maliva

#endif  // MALIVA_UTIL_RNG_H_
