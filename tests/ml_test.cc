// ML substrate tests: gradient correctness (finite differences), learning on
// synthetic regression, replay buffer, epsilon schedule.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>

#include "ml/epsilon.h"
#include "ml/mlp.h"
#include "ml/replay_buffer.h"

namespace maliva {
namespace {

TEST(LinearLayerTest, ForwardComputesAffine) {
  Rng rng(1);
  LinearLayer layer(2, 1, &rng);
  std::vector<double> y;
  layer.Forward({1.0, 2.0}, &y);
  ASSERT_EQ(y.size(), 1u);
  double expect = layer.weights()[0] * 1.0 + layer.weights()[1] * 2.0 + layer.bias()[0];
  EXPECT_NEAR(y[0], expect, 1e-12);
}

TEST(MlpTest, OutputDimensions) {
  Rng rng(2);
  Mlp net({5, 8, 8, 3}, &rng);
  EXPECT_EQ(net.input_dim(), 5u);
  EXPECT_EQ(net.output_dim(), 3u);
  EXPECT_EQ(net.Forward({1, 2, 3, 4, 5}).size(), 3u);
}

TEST(MlpTest, DeterministicInit) {
  Rng rng1(3), rng2(3);
  Mlp a({4, 6, 2}, &rng1);
  Mlp b({4, 6, 2}, &rng2);
  std::vector<double> x{0.1, -0.2, 0.3, 0.4};
  EXPECT_EQ(a.Forward(x), b.Forward(x));
}

TEST(MlpTest, GradientMatchesFiniteDifference) {
  // Compare the analytic loss decrease direction against finite differences
  // through a full accumulate/step cycle on a frozen copy.
  Rng rng(5);
  Mlp net({3, 5, 2}, &rng);
  std::vector<double> x{0.5, -1.0, 2.0};
  int action = 1;
  double target = 0.7;

  auto loss = [&](const Mlp& m) {
    double q = m.Forward(x)[static_cast<size_t>(action)];
    return (q - target) * (q - target);
  };

  double before = loss(net);
  net.AccumulateGradient(x, action, target);
  net.Step(1e-3, 1);
  double after = loss(net);
  EXPECT_LT(after, before);  // one small Adam step must reduce the loss
}

TEST(MlpTest, AccumulateReturnsSquaredError) {
  Rng rng(6);
  Mlp net({2, 4, 2}, &rng);
  std::vector<double> x{1.0, 1.0};
  double q = net.Forward(x)[0];
  double se = net.AccumulateGradient(x, 0, q + 2.0);
  EXPECT_NEAR(se, 4.0, 1e-9);
  net.Step(1e-3, 1);
}

TEST(MlpTest, LearnsLinearRegression) {
  // y = 2*x0 - x1 on [-1,1]^2; a small MLP should fit well.
  Rng rng(7);
  Mlp net({2, 16, 16, 1}, &rng);
  Rng data_rng(8);
  for (int step = 0; step < 3000; ++step) {
    for (int b = 0; b < 8; ++b) {
      double x0 = data_rng.Uniform(-1, 1);
      double x1 = data_rng.Uniform(-1, 1);
      net.AccumulateGradient({x0, x1}, 0, 2.0 * x0 - x1);
    }
    net.Step(3e-3, 8);
  }
  double mse = 0.0;
  for (int i = 0; i < 200; ++i) {
    double x0 = data_rng.Uniform(-1, 1);
    double x1 = data_rng.Uniform(-1, 1);
    double pred = net.Forward({x0, x1})[0];
    double err = pred - (2.0 * x0 - x1);
    mse += err * err;
  }
  mse /= 200.0;
  EXPECT_LT(mse, 0.02);
}

TEST(MlpTest, LearnsNonlinearFunction) {
  // y = x0 * x1 requires the hidden layers (not linearly representable).
  Rng rng(9);
  Mlp net({2, 24, 24, 1}, &rng);
  Rng data_rng(10);
  for (int step = 0; step < 6000; ++step) {
    for (int b = 0; b < 8; ++b) {
      double x0 = data_rng.Uniform(-1, 1);
      double x1 = data_rng.Uniform(-1, 1);
      net.AccumulateGradient({x0, x1}, 0, x0 * x1);
    }
    net.Step(3e-3, 8);
  }
  double mse = 0.0;
  for (int i = 0; i < 200; ++i) {
    double x0 = data_rng.Uniform(-1, 1);
    double x1 = data_rng.Uniform(-1, 1);
    double err = net.Forward({x0, x1})[0] - x0 * x1;
    mse += err * err;
  }
  mse /= 200.0;
  EXPECT_LT(mse, 0.03);
}

TEST(MlpTest, PerActionGradientIsolation) {
  // Training output 0 must not change output 1 much more than output 0.
  Rng rng(11);
  Mlp net({2, 8, 2}, &rng);
  std::vector<double> x{0.3, 0.7};
  double q1_before = net.Forward(x)[1];
  double q0_before = net.Forward(x)[0];
  for (int i = 0; i < 200; ++i) {
    net.AccumulateGradient(x, 0, q0_before + 1.0);
    net.Step(1e-2, 1);
  }
  double q0_after = net.Forward(x)[0];
  double q1_after = net.Forward(x)[1];
  EXPECT_GT(std::abs(q0_after - q0_before), 0.5);
  // Output 1 shares hidden layers so it may drift, but far less.
  EXPECT_LT(std::abs(q1_after - q1_before), std::abs(q0_after - q0_before));
}

TEST(MlpTest, CopyParamsMakesNetworksIdentical) {
  Rng rng1(12), rng2(13);
  Mlp a({3, 6, 2}, &rng1);
  Mlp b({3, 6, 2}, &rng2);
  std::vector<double> x{1, 2, 3};
  EXPECT_NE(a.Forward(x), b.Forward(x));
  b.CopyParamsFrom(a);
  EXPECT_EQ(a.Forward(x), b.Forward(x));
}

TEST(MlpTest, TrainingIsBitIdentical) {
  // Pins the exact bits of a fixed-seed network after K accumulate/step
  // rounds: the squared errors, the weights and biases, and Forward outputs.
  // Layer widths are odd (and one is below four) so any blocked loop over
  // outputs or inputs also runs its remainder. Summation order is part of
  // the contract: a reordered sum moves the digest.
  uint64_t h = 0x71;
  auto mix = [&h](double v) {
    h ^= std::bit_cast<uint64_t>(v) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h *= 0xff51afd7ed558ccdULL;
  };
  Rng init(17);
  Mlp net({7, 13, 11, 3}, &init);
  Rng data(23);
  auto sample = [&data]() {
    std::vector<double> x(7);
    for (double& v : x) v = data.Uniform(-1.0, 1.0);
    return x;
  };
  constexpr int kRounds = 40;
  constexpr size_t kBatch = 3;
  for (int round = 0; round < kRounds; ++round) {
    for (size_t b = 0; b < kBatch; ++b) {
      std::vector<double> x = sample();
      int action = static_cast<int>(data.UniformInt(0, 2));
      mix(net.AccumulateGradient(x, action, data.Uniform(-2.0, 2.0)));
    }
    net.Step(1e-2, kBatch);
  }
  for (const LinearLayer& layer : net.layers()) {
    for (double w : layer.weights()) mix(w);
    for (double b : layer.bias()) mix(b);
  }
  for (int probe = 0; probe < 8; ++probe) {
    for (double q : net.Forward(sample())) mix(q);
  }
  std::printf("training digest 0x%016llxULL\n", static_cast<unsigned long long>(h));
  EXPECT_EQ(h, 0xd3814fde4ba3982aULL);
}

TEST(MlpTest, ForwardBatchRowsMatchForward) {
  // Every output row of the batched forward is bit-equal to Forward of its
  // input row, on odd and even widths, odd batch sizes (the last row runs
  // alone) and inputs scaled so some hidden units are dead. The network is
  // trained a few steps first so biases are nonzero.
  const std::vector<std::vector<size_t>> shapes = {
      {7, 13, 11, 3}, {17, 17, 17, 8}, {33, 33, 33, 16}, {2, 1, 4}};
  for (const std::vector<size_t>& shape : shapes) {
    Rng init(41);
    Mlp net(shape, &init);
    Rng data(43);
    const size_t dim = shape.front();
    auto sample = [&data, dim]() {
      std::vector<double> x(dim);
      const double scale = data.Bernoulli(0.2) ? -20.0 : 1.0;
      for (double& v : x) v = scale * data.Uniform(-1.0, 1.0);
      return x;
    };
    for (int round = 0; round < 5; ++round) {
      net.AccumulateGradient(sample(), 0, 1.0);
      net.Step(1e-2, 1);
    }
    MlpWorkspace ws;
    const size_t in_stride = BatchStride(dim);
    const size_t out_stride = BatchStride(net.output_dim());
    for (size_t n : {1, 2, 3, 45, 64}) {
      std::vector<std::vector<double>> xs(n);
      std::vector<double> rows(n * in_stride);
      for (size_t s = 0; s < n; ++s) {
        xs[s] = sample();
        std::copy(xs[s].begin(), xs[s].end(), &rows[s * in_stride]);
      }
      const double* q = net.ForwardBatch(rows.data(), n, &ws);
      for (size_t s = 0; s < n; ++s) {
        const std::vector<double> want = net.Forward(xs[s]);
        for (size_t a = 0; a < want.size(); ++a) {
          ASSERT_EQ(std::bit_cast<uint64_t>(q[s * out_stride + a]),
                    std::bit_cast<uint64_t>(want[a]))
              << "shape " << shape.size() << "-layer in " << dim << ", n " << n
              << ", row " << s << ", output " << a;
        }
      }
    }
  }
}

TEST(ReplayBufferTest, FifoEviction) {
  ReplayBuffer buf(3);
  for (int i = 0; i < 5; ++i) {
    Experience e;
    e.reward = static_cast<double>(i);
    buf.Add(std::move(e));
  }
  EXPECT_EQ(buf.size(), 3u);
  // Items 0 and 1 were overwritten by 3 and 4.
  Rng rng(1);
  std::vector<const Experience*> all = buf.Sample(3, &rng);
  double min_reward = 100;
  for (const Experience* e : all) min_reward = std::min(min_reward, e->reward);
  EXPECT_GE(min_reward, 2.0);
}

TEST(ReplayBufferTest, SampleSizeCapped) {
  ReplayBuffer buf(10);
  Experience e;
  buf.Add(e);
  buf.Add(e);
  Rng rng(2);
  EXPECT_EQ(buf.Sample(5, &rng).size(), 2u);
  EXPECT_TRUE(ReplayBuffer(4).Sample(2, &rng).empty());
}

TEST(EpsilonScheduleTest, DecaysFromStartToEnd) {
  EpsilonSchedule eps(1.0, 0.05, 100);
  EXPECT_NEAR(eps.ValueAt(0), 1.0, 1e-9);
  EXPECT_LT(eps.ValueAt(100), eps.ValueAt(10));
  EXPECT_NEAR(eps.ValueAt(100000), 0.05, 1e-6);
}

TEST(EpsilonScheduleTest, MonotoneNonIncreasing) {
  EpsilonSchedule eps(0.9, 0.1, 50);
  double prev = 1.0;
  for (int64_t t = 0; t < 500; t += 10) {
    double v = eps.ValueAt(t);
    EXPECT_LE(v, prev + 1e-12);
    prev = v;
  }
}

}  // namespace
}  // namespace maliva
