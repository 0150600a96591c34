#include <gtest/gtest.h>

#include <cmath>

#include "factor/graph.h"
#include "inference/exact.h"
#include "inference/gibbs.h"
#include "inference/hogwild.h"
#include "inference/learner.h"
#include "inference/meanfield.h"
#include "inference/numa.h"
#include "util/rng.h"

namespace dd {
namespace {

/// Random small factor graph for oracle comparisons.
FactorGraph RandomGraph(uint64_t seed, int num_vars, int num_factors,
                        int num_evidence = 0) {
  Rng rng(seed);
  FactorGraph g;
  for (int v = 0; v < num_vars; ++v) {
    bool ev = v < num_evidence;
    g.AddVariable(ev, rng.NextBernoulli(0.5));
  }
  int num_weights = 2 + static_cast<int>(rng.NextBounded(4));
  for (int w = 0; w < num_weights; ++w) {
    g.AddWeight(rng.NextGaussian() * 1.2, false, "w" + std::to_string(w));
  }
  const FactorFunc funcs[] = {FactorFunc::kIsTrue, FactorFunc::kAnd, FactorFunc::kOr,
                              FactorFunc::kImply, FactorFunc::kEqual};
  for (int f = 0; f < num_factors; ++f) {
    FactorFunc func = funcs[rng.NextBounded(5)];
    size_t arity = func == FactorFunc::kIsTrue ? 1
                   : func == FactorFunc::kEqual ? 2
                                                : 2 + rng.NextBounded(2);
    std::vector<Literal> lits;
    for (size_t i = 0; i < arity; ++i) {
      lits.push_back({static_cast<uint32_t>(rng.NextBounded(num_vars)),
                      rng.NextBernoulli(0.8)});
    }
    EXPECT_TRUE(
        g.AddFactor(func, static_cast<uint32_t>(rng.NextBounded(num_weights)), lits)
            .ok());
  }
  EXPECT_TRUE(g.Finalize().ok());
  return g;
}

double MaxAbsDiff(const std::vector<double>& a, const std::vector<double>& b,
                  const FactorGraph& g, bool skip_evidence) {
  double max_diff = 0.0;
  for (size_t v = 0; v < a.size(); ++v) {
    if (skip_evidence && g.is_evidence(static_cast<uint32_t>(v))) continue;
    max_diff = std::max(max_diff, std::fabs(a[v] - b[v]));
  }
  return max_diff;
}

TEST(ExactTest, SingleVariablePrior) {
  // One variable with an istrue factor of weight w: P(v=1) = sigmoid(w).
  for (double w : {-2.0, -0.5, 0.0, 0.5, 2.0}) {
    FactorGraph g;
    uint32_t v = g.AddVariable();
    uint32_t wid = g.AddWeight(w, false, "w");
    ASSERT_TRUE(g.AddFactor(FactorFunc::kIsTrue, wid, {{v, true}}).ok());
    ASSERT_TRUE(g.Finalize().ok());
    auto m = ExactMarginals(g);
    ASSERT_TRUE(m.ok());
    EXPECT_NEAR((*m)[0], Sigmoid(w), 1e-12);
  }
}

TEST(ExactTest, EvidenceClamping) {
  FactorGraph g;
  uint32_t a = g.AddVariable(true, true);  // evidence: true
  uint32_t b = g.AddVariable();
  uint32_t w = g.AddWeight(10.0, false, "w");
  ASSERT_TRUE(g.AddFactor(FactorFunc::kImply, w, {{a, true}, {b, true}}).ok());
  ASSERT_TRUE(g.Finalize().ok());
  auto m = ExactMarginals(g, /*clamp_evidence=*/true);
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ((*m)[a], 1.0);
  EXPECT_GT((*m)[b], 0.999);  // strong implication from clamped evidence
}

TEST(ExactTest, RefusesHugeGraphs) {
  FactorGraph g;
  for (int i = 0; i < 30; ++i) g.AddVariable();
  uint32_t w = g.AddWeight(1.0, false, "w");
  ASSERT_TRUE(g.AddFactor(FactorFunc::kIsTrue, w, {{0, true}}).ok());
  ASSERT_TRUE(g.Finalize().ok());
  EXPECT_EQ(ExactMarginals(g).status().code(), StatusCode::kOutOfRange);
}

TEST(ExactTest, LogZSingleVariable) {
  FactorGraph g;
  uint32_t v = g.AddVariable();
  uint32_t w = g.AddWeight(1.5, false, "w");
  ASSERT_TRUE(g.AddFactor(FactorFunc::kIsTrue, w, {{v, true}}).ok());
  ASSERT_TRUE(g.Finalize().ok());
  auto z = ExactLogZ(g);
  ASSERT_TRUE(z.ok());
  EXPECT_NEAR(*z, std::log(1.0 + std::exp(1.5)), 1e-12);
}

// Property sweep: Gibbs marginals converge to exact marginals on random
// small graphs, with and without evidence.
struct OracleParam {
  uint64_t seed;
  int num_vars;
  int num_factors;
  int num_evidence;
};

class GibbsOracleTest : public ::testing::TestWithParam<OracleParam> {};

TEST_P(GibbsOracleTest, MatchesExact) {
  const auto p = GetParam();
  FactorGraph g = RandomGraph(p.seed, p.num_vars, p.num_factors, p.num_evidence);
  auto exact = ExactMarginals(g);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();

  GibbsOptions opts;
  opts.burn_in = 500;
  opts.num_samples = 20000;
  opts.seed = p.seed * 7 + 1;
  GibbsSampler sampler(&g, opts);
  auto gibbs = sampler.RunMarginals();
  ASSERT_TRUE(gibbs.ok()) << gibbs.status().ToString();

  EXPECT_LT(MaxAbsDiff(*exact, *gibbs, g, true), 0.03)
      << "seed " << p.seed << " diverged from exact";
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, GibbsOracleTest,
    ::testing::Values(OracleParam{11, 4, 6, 0}, OracleParam{12, 6, 10, 0},
                      OracleParam{13, 8, 12, 2}, OracleParam{14, 8, 16, 3},
                      OracleParam{15, 10, 14, 0}, OracleParam{16, 10, 20, 4},
                      OracleParam{17, 12, 18, 2}, OracleParam{18, 12, 24, 6}));

class HogwildOracleTest : public ::testing::TestWithParam<OracleParam> {};

TEST_P(HogwildOracleTest, MatchesExact) {
  const auto p = GetParam();
  FactorGraph g = RandomGraph(p.seed, p.num_vars, p.num_factors, p.num_evidence);
  auto exact = ExactMarginals(g);
  ASSERT_TRUE(exact.ok());

  ParallelGibbsOptions opts;
  opts.num_threads = 4;
  opts.burn_in = 500;
  opts.num_samples = 20000;
  opts.seed = p.seed;
  HogwildSampler sampler(&g, opts);
  auto marginals = sampler.RunMarginals();
  ASSERT_TRUE(marginals.ok()) << marginals.status().ToString();
  EXPECT_LT(MaxAbsDiff(*exact, *marginals, g, true), 0.04);
  EXPECT_GT(sampler.num_steps(), 0u);

  LockingSampler locking(&g, opts);
  auto locking_marginals = locking.RunMarginals();
  ASSERT_TRUE(locking_marginals.ok());
  EXPECT_LT(MaxAbsDiff(*exact, *locking_marginals, g, true), 0.04);
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, HogwildOracleTest,
    ::testing::Values(OracleParam{21, 8, 12, 0}, OracleParam{22, 10, 16, 2},
                      OracleParam{23, 12, 20, 4}));

TEST(NumaSamplerTest, AwareAndUnawareMatchExact) {
  FactorGraph g = RandomGraph(31, 10, 16, 2);
  auto exact = ExactMarginals(g);
  ASSERT_TRUE(exact.ok());

  NumaTopology topo;
  topo.num_nodes = 4;
  NumaSampler sampler(&g, topo, 500, 20000, 99);

  auto aware = sampler.RunAware();
  ASSERT_TRUE(aware.ok()) << aware.status().ToString();
  EXPECT_LT(MaxAbsDiff(*exact, aware->marginals, g, true), 0.04);
  EXPECT_EQ(aware->remote_accesses, 0u);

  auto unaware = sampler.RunUnaware();
  ASSERT_TRUE(unaware.ok()) << unaware.status().ToString();
  EXPECT_LT(MaxAbsDiff(*exact, unaware->marginals, g, true), 0.04);
  EXPECT_GT(unaware->remote_accesses, 0u);  // cross-node traffic happened
  EXPECT_LE(unaware->remote_accesses, unaware->total_accesses);
}

TEST(MeanFieldTest, ExactOnIndependentVariables) {
  // With only unary factors mean-field is exact.
  FactorGraph g;
  std::vector<double> weights = {-1.5, 0.0, 0.8, 2.5};
  for (size_t i = 0; i < weights.size(); ++i) {
    uint32_t v = g.AddVariable();
    uint32_t w = g.AddWeight(weights[i], false, "w");
    ASSERT_TRUE(g.AddFactor(FactorFunc::kIsTrue, w, {{v, true}}).ok());
  }
  ASSERT_TRUE(g.Finalize().ok());
  MeanFieldOptions opts;
  MeanFieldEngine mf(&g, opts);
  auto mu = mf.Run();
  ASSERT_TRUE(mu.ok());
  for (size_t i = 0; i < weights.size(); ++i) {
    EXPECT_NEAR((*mu)[i], Sigmoid(weights[i]), 1e-6);
  }
}

TEST(MeanFieldTest, CloseToExactOnSparseGraphs) {
  // Mean-field is approximate; on sparse weakly-coupled graphs it should
  // land near the exact marginals.
  FactorGraph g = RandomGraph(41, 10, 8, 2);
  auto exact = ExactMarginals(g);
  ASSERT_TRUE(exact.ok());
  MeanFieldOptions opts;
  opts.damping = 0.3;
  MeanFieldEngine mf(&g, opts);
  auto mu = mf.Run();
  ASSERT_TRUE(mu.ok());
  EXPECT_LT(MaxAbsDiff(*exact, *mu, g, true), 0.15);
  EXPECT_GT(mf.iterations_used(), 0);
}

TEST(LearnerTest, RecoversUnaryBias) {
  // Evidence: 100 variables, 80 true / 20 false, all sharing an istrue
  // weight. Learned weight should make sigmoid(w) ≈ 0.8.
  FactorGraph g;
  uint32_t w = g.AddWeight(0.0, false, "bias");
  for (int i = 0; i < 100; ++i) {
    uint32_t v = g.AddVariable(true, i < 80);
    ASSERT_TRUE(g.AddFactor(FactorFunc::kIsTrue, w, {{v, true}}).ok());
  }
  ASSERT_TRUE(g.Finalize().ok());
  Learner learner(&g);
  LearnOptions opts;
  opts.epochs = 400;
  opts.learning_rate = 0.02;
  opts.decay = 0.995;
  opts.l2 = 0.0;
  ASSERT_TRUE(learner.Learn(opts).ok());
  EXPECT_NEAR(Sigmoid(g.weight_value(w)), 0.8, 0.07);
}

TEST(LearnerTest, FixedWeightsUntouched) {
  FactorGraph g;
  uint32_t fixed = g.AddWeight(3.0, true, "fixed");
  uint32_t free = g.AddWeight(0.0, false, "free");
  uint32_t v1 = g.AddVariable(true, true);
  uint32_t v2 = g.AddVariable(true, false);
  ASSERT_TRUE(g.AddFactor(FactorFunc::kIsTrue, fixed, {{v1, true}}).ok());
  ASSERT_TRUE(g.AddFactor(FactorFunc::kIsTrue, free, {{v2, true}}).ok());
  ASSERT_TRUE(g.Finalize().ok());
  Learner learner(&g);
  LearnOptions opts;
  opts.epochs = 50;
  ASSERT_TRUE(learner.Learn(opts).ok());
  EXPECT_DOUBLE_EQ(g.weight_value(fixed), 3.0);
  EXPECT_LT(g.weight_value(free), 0.0);  // pushed negative toward false evidence
}

TEST(LearnerTest, LearnedWeightsSeparateClasses) {
  // Binary classification through weight tying: variables with feature A
  // are mostly true, feature B mostly false. After learning, a fresh
  // query variable with feature A should get high marginal, B low.
  Rng rng(77);
  FactorGraph g;
  uint32_t wa = g.AddWeight(0.0, false, "feature_A");
  uint32_t wb = g.AddWeight(0.0, false, "feature_B");
  for (int i = 0; i < 120; ++i) {
    bool is_a = i % 2 == 0;
    bool label = is_a ? rng.NextBernoulli(0.9) : rng.NextBernoulli(0.1);
    uint32_t v = g.AddVariable(true, label);
    ASSERT_TRUE(g.AddFactor(FactorFunc::kIsTrue, is_a ? wa : wb, {{v, true}}).ok());
  }
  uint32_t qa = g.AddVariable();  // query with feature A
  uint32_t qb = g.AddVariable();  // query with feature B
  ASSERT_TRUE(g.AddFactor(FactorFunc::kIsTrue, wa, {{qa, true}}).ok());
  ASSERT_TRUE(g.AddFactor(FactorFunc::kIsTrue, wb, {{qb, true}}).ok());
  ASSERT_TRUE(g.Finalize().ok());

  Learner learner(&g);
  LearnOptions opts;
  opts.epochs = 500;
  opts.learning_rate = 0.02;
  opts.decay = 0.997;
  opts.l2 = 0.0;
  ASSERT_TRUE(learner.Learn(opts).ok());

  GibbsOptions gopts;
  gopts.burn_in = 200;
  gopts.num_samples = 4000;
  GibbsSampler sampler(&g, gopts);
  auto m = sampler.RunMarginals();
  ASSERT_TRUE(m.ok());
  EXPECT_GT((*m)[qa], 0.7);
  EXPECT_LT((*m)[qb], 0.3);
}

TEST(NumaLearnerTest, BothModesLearnTheBias) {
  for (bool aware : {true, false}) {
    FactorGraph g;
    uint32_t w = g.AddWeight(0.0, false, "bias");
    for (int i = 0; i < 100; ++i) {
      uint32_t v = g.AddVariable(true, i < 75);
      ASSERT_TRUE(g.AddFactor(FactorFunc::kIsTrue, w, {{v, true}}).ok());
    }
    ASSERT_TRUE(g.Finalize().ok());
    NumaTopology topo;
    topo.num_nodes = 4;
    NumaLearner learner(&g, topo);
    LearnOptions opts;
    opts.epochs = 300;
    opts.learning_rate = 0.02;
    opts.decay = 0.995;
    opts.l2 = 0.0;
    auto stats = learner.Learn(opts, aware);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_NEAR(Sigmoid(g.weight_value(w)), 0.75, 0.1)
        << "aware=" << aware;
    if (aware) {
      // Remote traffic only from the per-epoch averaging barrier.
      EXPECT_EQ(stats->remote_accesses,
                static_cast<uint64_t>(opts.epochs) * g.num_weights() * 3u);
    } else {
      EXPECT_GT(stats->remote_accesses, 0u);
    }
  }
}

TEST(GibbsTest, DeterministicGivenSeed) {
  FactorGraph g = RandomGraph(55, 8, 12, 2);
  GibbsOptions opts;
  opts.burn_in = 50;
  opts.num_samples = 500;
  opts.seed = 123;
  GibbsSampler s1(&g, opts), s2(&g, opts);
  auto m1 = s1.RunMarginals();
  auto m2 = s2.RunMarginals();
  ASSERT_TRUE(m1.ok() && m2.ok());
  EXPECT_EQ(*m1, *m2);
}

TEST(GibbsTest, RequiresFinalizedGraph) {
  FactorGraph g;
  g.AddVariable();
  GibbsOptions opts;
  GibbsSampler sampler(&g, opts);
  EXPECT_FALSE(sampler.Init().ok());
}

}  // namespace
}  // namespace dd
