#include "gsp/propagation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "rtf/rtf_model.h"
#include "util/rng.h"

namespace crowdrtse::gsp {
namespace {

/// Golden equivalence contract of the sweep kernels (see GspKernel):
///  - kScalar is bit-identical to kReference (same operations, same order,
///    inverses precomputed instead of re-derived);
///  - kUnrolled (the default) reassociates only the numerator's neighbour
///    fold, within a documented 1e-12 relative tolerance, and degrades to
///    the exact scalar arithmetic on rows of degree < 4.

/// Irregular planar-ish network with parameters varied per road/edge, so a
/// kernel that misindexes the SoA or packed arrays cannot luck into the
/// right answer (every road's parameters differ).
rtf::RtfModel VariedModel(const graph::Graph& g) {
  rtf::RtfModel model(g, 1);
  for (graph::RoadId r = 0; r < g.num_roads(); ++r) {
    model.SetMu(0, r, 30.0 + 40.0 * ((r * 29) % 97) / 97.0);
    model.SetSigma(0, r, 2.0 + 3.0 * ((r * 13) % 11) / 11.0);
  }
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    model.SetRho(0, e, 0.2 + 0.7 * ((e * 17) % 23) / 23.0);
  }
  return model;
}

graph::Graph TestNetwork(int num_roads) {
  util::Rng rng(11);
  graph::RoadNetworkOptions net;
  net.num_roads = num_roads;
  return *graph::RoadNetwork(net, rng);
}

/// A sample set: probed roads and their probed speeds.
struct Samples {
  std::vector<graph::RoadId> roads;
  std::vector<double> speeds;
};

/// Probes every `stride`-th road from `first`, each 7.5 km/h below its
/// periodic mean.
Samples EveryNth(const rtf::RtfModel& model, graph::RoadId first,
                 int stride) {
  Samples samples;
  for (graph::RoadId r = first; r < model.num_roads(); r += stride) {
    samples.roads.push_back(r);
    samples.speeds.push_back(model.Mu(0, r) - 7.5);
  }
  return samples;
}

GspResult Solve(const SpeedPropagator& propagator,
                const Samples& samples) {
  const auto result =
      propagator.Propagate(0, samples.roads, samples.speeds);
  EXPECT_TRUE(result.ok()) << result.status().message();
  return *result;
}

/// Runs a fixed number of sweeps (epsilon too small to ever converge), so
/// every kernel performs exactly the same relaxations and the final fields
/// are comparable sweep for sweep.
GspResult RunKernel(const rtf::RtfModel& model, GspKernel kernel) {
  GspOptions options;
  options.kernel = kernel;
  options.epsilon = 1e-300;
  options.max_sweeps = 12;
  return Solve(SpeedPropagator(model, options), EveryNth(model, 0, 37));
}

/// Same sweep count, convergence flag, hop levels and speed bits.
bool SameBits(const GspResult& a, const GspResult& b) {
  return a.sweeps == b.sweeps && a.converged == b.converged &&
         a.hops == b.hops && a.speeds.size() == b.speeds.size() &&
         std::memcmp(a.speeds.data(), b.speeds.data(),
                     a.speeds.size() * sizeof(double)) == 0;
}

void ExpectBitIdentical(const GspResult& got, const GspResult& want) {
  ASSERT_EQ(got.speeds.size(), want.speeds.size());
  for (size_t i = 0; i < want.speeds.size(); ++i) {
    EXPECT_EQ(got.speeds[i], want.speeds[i]) << "road " << i;
  }
}

void ExpectWithinRelative(const GspResult& got, const GspResult& want,
                          double tolerance) {
  ASSERT_EQ(got.speeds.size(), want.speeds.size());
  for (size_t i = 0; i < want.speeds.size(); ++i) {
    const double scale = std::max(1.0, std::fabs(want.speeds[i]));
    EXPECT_NEAR(got.speeds[i], want.speeds[i], tolerance * scale)
        << "road " << i;
  }
}

TEST(GspKernelGoldenTest, ScalarBitIdenticalToReference) {
  const graph::Graph g = TestNetwork(431);
  const rtf::RtfModel model = VariedModel(g);
  ExpectBitIdentical(RunKernel(model, GspKernel::kScalar),
                     RunKernel(model, GspKernel::kReference));
}

TEST(GspKernelGoldenTest, UnrolledWithinToleranceOfScalar) {
  const graph::Graph g = TestNetwork(431);
  const rtf::RtfModel model = VariedModel(g);
  ExpectWithinRelative(RunKernel(model, GspKernel::kUnrolled),
                       RunKernel(model, GspKernel::kScalar), 1e-12);
}

TEST(GspKernelGoldenTest, DefaultKernelIsUnrolled) {
  EXPECT_EQ(GspOptions{}.kernel, GspKernel::kUnrolled);
  const graph::Graph g = TestNetwork(431);
  const rtf::RtfModel model = VariedModel(g);
  const Samples samples = EveryNth(model, 0, 37);
  GspOptions unrolled;
  unrolled.kernel = GspKernel::kUnrolled;
  for (const int hop_limit : {0, 2}) {
    GspOptions defaults;
    defaults.hop_limit = hop_limit;
    unrolled.hop_limit = hop_limit;
    EXPECT_TRUE(SameBits(Solve(SpeedPropagator(model, defaults), samples),
                         Solve(SpeedPropagator(model, unrolled), samples)))
        << "hop_limit " << hop_limit;
  }
}

TEST(GspKernelGoldenTest, LowDegreeRowsStayBitIdentical) {
  // Path graph: every degree is <= 2 < 4, so the unrolled kernel must take
  // the exact scalar path on every row and match bit for bit.
  const graph::Graph g = *graph::PathNetwork(64);
  const rtf::RtfModel model = VariedModel(g);
  const GspResult reference = RunKernel(model, GspKernel::kReference);
  ExpectBitIdentical(RunKernel(model, GspKernel::kScalar), reference);
  ExpectBitIdentical(RunKernel(model, GspKernel::kUnrolled), reference);
}

TEST(GspKernelGoldenTest, DegenerateSigmaIsClampedNotPropagated) {
  // Regression for the NaN-poisoning bug: an unguarded 1/sigma^2 turns a
  // degenerate parameter into inf/NaN and poisons every speed downstream
  // of it. Every kernel must clamp instead, keep the whole field finite,
  // and agree with the reference exactly (the clamp is part of the shared
  // arithmetic, not a per-kernel patch).
  const graph::Graph g = TestNetwork(431);
  for (const double bad :
       {0.0, std::numeric_limits<double>::quiet_NaN()}) {
    rtf::RtfModel model = VariedModel(g);
    model.SetSigma(0, 17, bad);
    const uint64_t clamps_before = rtf::InvVarianceClampCount();
    const GspResult reference = RunKernel(model, GspKernel::kReference);
    EXPECT_GT(rtf::InvVarianceClampCount(), clamps_before);
    for (const double speed : reference.speeds) {
      ASSERT_TRUE(std::isfinite(speed)) << "bad sigma " << bad;
    }
    ExpectBitIdentical(RunKernel(model, GspKernel::kScalar), reference);
    for (const double speed : RunKernel(model, GspKernel::kUnrolled).speeds) {
      ASSERT_TRUE(std::isfinite(speed));
    }
  }
}

TEST(GspKernelGoldenTest, SharedPropagatorIsReentrant) {
  // The serving engines share one const propagator across all in-flight
  // queries; every per-query buffer lives in a thread-local arena. Eight
  // threads hammering one instance with different sample sets must each
  // reproduce, bit for bit, what a lone thread computes.
  constexpr int kThreads = 8;
  constexpr int kRepeats = 20;
  const graph::Graph g = TestNetwork(431);
  const rtf::RtfModel model = VariedModel(g);
  for (const int hop_limit : {0, 2}) {
    GspOptions options;
    options.hop_limit = hop_limit;
    const SpeedPropagator propagator(model, options);
    std::vector<Samples> samples;
    std::vector<GspResult> want;
    for (int t = 0; t < kThreads; ++t) {
      samples.push_back(EveryNth(model, t, 23 + 4 * t));
      want.push_back(Solve(propagator, samples.back()));
    }
    std::vector<int> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        const size_t i = static_cast<size_t>(t);
        for (int rep = 0; rep < kRepeats; ++rep) {
          const auto got = propagator.Propagate(0, samples[i].roads,
                                                samples[i].speeds);
          if (!got.ok() || !SameBits(*got, want[i])) ++mismatches[i];
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0)
          << "thread " << t << ", hop_limit " << hop_limit;
    }
  }
}

}  // namespace
}  // namespace crowdrtse::gsp
