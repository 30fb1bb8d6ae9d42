// Experience replay memory for deep Q-learning (Algorithm 1, line 18).

#ifndef MALIVA_ML_REPLAY_BUFFER_H_
#define MALIVA_ML_REPLAY_BUFFER_H_

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace maliva {

/// One (s, a, s', r') experience tuple. `next_valid[i]` marks actions still
/// available in s' — the Bellman target maxes only over remaining RQs.
struct Experience {
  std::vector<double> state;
  int action = 0;
  std::vector<double> next_state;
  double reward = 0.0;
  bool terminal = false;
  std::vector<uint8_t> next_valid;
};

/// FIFO ring buffer with uniform sampling.
class ReplayBuffer {
 public:
  explicit ReplayBuffer(size_t capacity) : capacity_(capacity) {}

  void Add(Experience exp);

  /// Uniform sample of up to `k` experiences (with replacement when k exceeds
  /// size is avoided: sampled without replacement, capped at size()).
  std::vector<const Experience*> Sample(size_t k, Rng* rng) const;

  size_t size() const { return items_.size(); }

 private:
  size_t capacity_;
  size_t next_ = 0;  // overwrite cursor once full
  std::vector<Experience> items_;
};

}  // namespace maliva

#endif  // MALIVA_ML_REPLAY_BUFFER_H_
