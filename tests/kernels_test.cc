#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "factor/graph.h"
#include "inference/gibbs.h"
#include "inference/hogwild.h"
#include "inference/numa.h"
#include "util/rng.h"

namespace dd {
namespace {

uint64_t Bits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

/// Random graph stressing every compiled-op shape: all five factor
/// functions, mixed polarities, variables repeated inside one factor
/// (including both polarities, the provably-zero drop cases, and v in
/// both body and head of an imply), fixed weights, and exact-zero
/// weights.
FactorGraph AdversarialGraph(uint64_t seed, int num_vars, int num_factors) {
  Rng rng(seed);
  FactorGraph g;
  for (int v = 0; v < num_vars; ++v) {
    g.AddVariable(rng.NextBernoulli(0.15), rng.NextBernoulli(0.5));
  }
  int num_weights = 4 + static_cast<int>(rng.NextBounded(5));
  for (int w = 0; w < num_weights; ++w) {
    double value = rng.NextBernoulli(0.15) ? 0.0 : rng.NextGaussian() * 1.5;
    g.AddWeight(value, rng.NextBernoulli(0.3), "w" + std::to_string(w));
  }
  const FactorFunc funcs[] = {FactorFunc::kIsTrue, FactorFunc::kAnd, FactorFunc::kOr,
                              FactorFunc::kImply, FactorFunc::kEqual};
  for (int f = 0; f < num_factors; ++f) {
    FactorFunc func = funcs[rng.NextBounded(5)];
    size_t arity = func == FactorFunc::kIsTrue ? 1
                   : func == FactorFunc::kEqual ? 2
                                                : 1 + rng.NextBounded(4);
    std::vector<Literal> lits;
    for (size_t i = 0; i < arity; ++i) {
      uint32_t var = static_cast<uint32_t>(rng.NextBounded(num_vars));
      // Frequently reuse an earlier literal's variable so one factor
      // holds the same variable several times, with independent
      // polarities (the kernel compiler's drop/fallback cases).
      if (i > 0 && rng.NextBernoulli(0.35)) {
        lits.push_back({lits[rng.NextBounded(i)].var, rng.NextBernoulli(0.5)});
      } else {
        lits.push_back({var, rng.NextBernoulli(0.7)});
      }
    }
    EXPECT_TRUE(
        g.AddFactor(func, static_cast<uint32_t>(rng.NextBounded(num_weights)), lits)
            .ok());
  }
  EXPECT_TRUE(g.Finalize().ok());
  return g;
}

class CompiledKernelProperty : public ::testing::TestWithParam<uint64_t> {};

/// The tentpole invariant: for every variable and random assignment, the
/// compiled stream produces the exact bit pattern of the interpreted
/// CSR walk. EXPECT_EQ on doubles would accept -0.0 == 0.0 and miss
/// rounding drift; comparing bit patterns does not.
TEST_P(CompiledKernelProperty, DeltaMatchesInterpretedBitForBit) {
  const uint64_t seed = GetParam();
  FactorGraph g = AdversarialGraph(seed, 24, 160);
  Rng rng(seed ^ 0xabcdef);
  const size_t nv = g.num_variables();
  std::vector<uint8_t> assignment(nv);
  for (int round = 0; round < 50; ++round) {
    for (size_t v = 0; v < nv; ++v) assignment[v] = rng.NextBernoulli(0.5) ? 1 : 0;
    for (uint32_t v = 0; v < nv; ++v) {
      const double interpreted = g.PotentialDelta(v, assignment.data());
      const double compiled = g.PotentialDeltaCompiled(v, assignment.data());
      ASSERT_EQ(Bits(interpreted), Bits(compiled))
          << "seed=" << seed << " v=" << v << " round=" << round
          << " interpreted=" << interpreted << " compiled=" << compiled;
    }
  }
}

/// Mutating weights after Finalize (what every learning epoch does) must
/// keep the compiled stream in sync — including weights that were folded
/// into a variable's bias constant.
TEST_P(CompiledKernelProperty, DeltaMatchesAfterWeightUpdates) {
  const uint64_t seed = GetParam();
  FactorGraph g = AdversarialGraph(seed, 24, 160);
  Rng rng(seed ^ 0x5eed);
  const size_t nv = g.num_variables();
  std::vector<uint8_t> assignment(nv);
  for (int round = 0; round < 10; ++round) {
    for (uint32_t w = 0; w < g.num_weights(); ++w) {
      g.set_weight_value(w, rng.NextGaussian());
    }
    for (size_t v = 0; v < nv; ++v) assignment[v] = rng.NextBernoulli(0.5) ? 1 : 0;
    for (uint32_t v = 0; v < nv; ++v) {
      ASSERT_EQ(Bits(g.PotentialDelta(v, assignment.data())),
                Bits(g.PotentialDeltaCompiled(v, assignment.data())))
          << "seed=" << seed << " v=" << v << " round=" << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledKernelProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(CompiledKernels, SetWeightValueUpdatesDenseArray) {
  FactorGraph g;
  g.AddVariable();
  uint32_t w = g.AddWeight(1.0, false, "learned");
  ASSERT_TRUE(g.AddFactor(FactorFunc::kIsTrue, w, {{0, true}}).ok());
  ASSERT_TRUE(g.Finalize().ok());
  g.set_weight_value(w, -2.5);
  EXPECT_EQ(g.weight_value(w), -2.5);
  EXPECT_EQ(g.weight_values()[w], -2.5);
  uint8_t assignment = 0;
  EXPECT_EQ(g.PotentialDelta(0, &assignment), -2.5);
}

TEST(CompiledKernels, FixedWeightBiasRecompiles) {
  // v0's whole adjacency is fixed-weight unary factors, so its delta
  // folds to a constant. Overwriting one of those weights must trigger a
  // recompile, not leave a stale bias.
  FactorGraph g;
  g.AddVariable();
  uint32_t w0 = g.AddWeight(0.75, true, "prior0");
  uint32_t w1 = g.AddWeight(-0.25, true, "prior1");
  ASSERT_TRUE(g.AddFactor(FactorFunc::kIsTrue, w0, {{0, true}}).ok());
  ASSERT_TRUE(g.AddFactor(FactorFunc::kIsTrue, w1, {{0, false}}).ok());
  ASSERT_TRUE(g.Finalize().ok());
  uint8_t assignment = 0;
  // Folded: the stream for v0 should be empty, delta = 0.75 + 0.25.
  EXPECT_EQ(g.kernel_stream_words(), 0u);
  EXPECT_EQ(Bits(g.PotentialDeltaCompiled(0, &assignment)),
            Bits(g.PotentialDelta(0, &assignment)));
  g.set_weight_value(w0, 3.5);
  EXPECT_EQ(Bits(g.PotentialDeltaCompiled(0, &assignment)),
            Bits(g.PotentialDelta(0, &assignment)));
  EXPECT_EQ(g.PotentialDeltaCompiled(0, &assignment), 3.5 + 0.25);
}

// --- End-to-end: the sampler's chain is the interpreted oracle's chain ---

FactorGraph SamplerGraph(uint64_t seed) {
  return AdversarialGraph(seed, 40, 200);
}

/// GibbsSampler's chain (Init, then burn-in and counted sweeps) with the
/// interpreted CSR PotentialDelta in place of the compiled kernel.
std::vector<double> InterpretedMarginals(const FactorGraph& g, const GibbsOptions& opts) {
  Rng rng(opts.seed);
  std::vector<uint8_t> a(g.num_variables());
  std::vector<uint32_t> free_vars;
  for (uint32_t v = 0; v < a.size(); ++v) {
    if (g.is_evidence(v)) {
      a[v] = g.evidence_value(v) ? 1 : 0;
    } else {
      a[v] = rng.NextBernoulli(0.5) ? 1 : 0;
      free_vars.push_back(v);
    }
  }
  std::vector<uint64_t> counts(a.size(), 0);
  for (int sweep = 0; sweep < opts.burn_in + opts.num_samples; ++sweep) {
    for (uint32_t v : free_vars) {
      a[v] = rng.NextBernoulli(Sigmoid(g.PotentialDelta(v, a.data()))) ? 1 : 0;
    }
    if (sweep < opts.burn_in) continue;
    for (size_t v = 0; v < a.size(); ++v) counts[v] += a[v];
  }
  std::vector<double> marginals(a.size());
  for (size_t v = 0; v < a.size(); ++v) {
    marginals[v] = static_cast<double>(counts[v]) / opts.num_samples;
  }
  return marginals;
}

TEST(CompiledSamplers, GibbsChainMatchesInterpretedOracle) {
  for (uint64_t seed : {7, 8, 9}) {
    FactorGraph g = SamplerGraph(seed);
    GibbsOptions opts;
    opts.burn_in = 20;
    opts.num_samples = 80;
    opts.seed = 99 + seed;
    GibbsSampler sampler(&g, opts);
    auto marginals = sampler.RunMarginals();
    ASSERT_TRUE(marginals.ok());
    // Same RNG stream + bit-identical deltas => bit-identical chains.
    EXPECT_EQ(*marginals, InterpretedMarginals(g, opts)) << "seed " << seed;
  }
}

// --- Satellite guards: num_samples == 0 must be rejected, not divide ---

TEST(SamplerGuards, ZeroSamplesRejectedEverywhere) {
  FactorGraph g = SamplerGraph(23);
  ParallelGibbsOptions popts;
  popts.num_samples = 0;
  EXPECT_FALSE(HogwildSampler(&g, popts).RunMarginals().ok());
  EXPECT_FALSE(LockingSampler(&g, popts).RunMarginals().ok());
  NumaTopology topo;
  NumaSampler numa(&g, topo, 10, 0, 4);
  EXPECT_FALSE(numa.RunAware().ok());
  EXPECT_FALSE(numa.RunUnaware().ok());
}

TEST(SamplerGuards, NumaAwareHonorsSampleBudgetWithRemainder) {
  // 10 samples over 4 nodes: nodes get 3/3/2/2. Every node pays its own
  // burn-in, so total steps = (nodes * burn_in + num_samples) * nfree.
  FactorGraph g = SamplerGraph(29);
  size_t nfree = 0;
  for (uint32_t v = 0; v < g.num_variables(); ++v) {
    if (!g.is_evidence(v)) ++nfree;
  }
  NumaTopology topo;
  topo.num_nodes = 4;
  const int burn_in = 5, num_samples = 10;
  NumaSampler sampler(&g, topo, burn_in, num_samples, 4);
  auto stats = sampler.RunAware();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->steps,
            static_cast<uint64_t>(topo.num_nodes * burn_in + num_samples) * nfree);
}

TEST(SamplerGuards, NumaAwareMoreNodesThanSamples) {
  // 2 samples over 4 nodes: two nodes get one sample each, two sit idle.
  FactorGraph g = SamplerGraph(31);
  size_t nfree = 0;
  for (uint32_t v = 0; v < g.num_variables(); ++v) {
    if (!g.is_evidence(v)) ++nfree;
  }
  NumaTopology topo;
  topo.num_nodes = 4;
  NumaSampler sampler(&g, topo, /*burn_in=*/5, /*num_samples=*/2, 4);
  auto stats = sampler.RunAware();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->steps, static_cast<uint64_t>(2 * 5 + 2) * nfree);
  for (double m : stats->marginals) {
    EXPECT_GE(m, 0.0);
    EXPECT_LE(m, 1.0);
  }
}

}  // namespace
}  // namespace dd
