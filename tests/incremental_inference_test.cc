#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "inference/exact.h"
#include "inference/incremental.h"
#include "testdata/synthetic_graphs.h"
#include "util/metrics.h"

namespace dd {
namespace {

double MaxDiff(const std::vector<double>& a, const std::vector<double>& b) {
  double out = 0;
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) out = std::max(out, std::fabs(a[i] - b[i]));
  return out;
}

uint64_t Fallbacks() {
  return MetricsRegistry::Instance().GetCounter("dd.inference.update_fallbacks")->Value();
}

/// Small base graph plus a two-variable extension, exactly checkable.
struct VersionedGraphs {
  FactorGraph base;
  FactorGraph extended;
  std::vector<uint32_t> changed;

  explicit VersionedGraphs(uint64_t seed) {
    SyntheticGraphOptions options;
    options.num_variables = 12;
    options.factors_per_variable = 1.5;
    options.evidence_fraction = 0.0;
    options.seed = seed;
    base = MakeRandomGraph(options);
    extended = ExtendGraph(base, 2, 1.0, seed + 1, &changed);
  }
};

class IncrementalStrategyTest
    : public ::testing::TestWithParam<MaterializationStrategy> {};

TEST_P(IncrementalStrategyTest, UpdateTracksExactMarginals) {
  VersionedGraphs graphs(101);
  IncrementalOptions options;
  options.full_burn_in = 500;
  options.num_samples = 20000;
  options.update_burn_in = 500;
  options.mf_max_iterations = 300;
  options.mf_tolerance = 1e-7;
  options.mf_damping = 0.3;

  IncrementalInference engine(&graphs.base, GetParam(), options);
  ASSERT_TRUE(engine.Materialize().ok());
  auto exact_base = ExactMarginals(graphs.base);
  ASSERT_TRUE(exact_base.ok());
  double tolerance =
      GetParam() == MaterializationStrategy::kSampling ? 0.03 : 0.15;
  EXPECT_LT(MaxDiff(*exact_base, engine.marginals()), tolerance);

  const uint64_t fallbacks_before = Fallbacks();
  auto updated = engine.Update(&graphs.extended, graphs.changed);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  auto exact_extended = ExactMarginals(graphs.extended);
  ASSERT_TRUE(exact_extended.ok());
  EXPECT_LT(MaxDiff(*exact_extended, *updated), tolerance);
  EXPECT_GT(engine.last_work_units(), 0u);
  // Sampling: the two new variables are drawn into the stored worlds.
  EXPECT_EQ(Fallbacks() - fallbacks_before, 0u);
}

INSTANTIATE_TEST_SUITE_P(BothStrategies, IncrementalStrategyTest,
                         ::testing::Values(MaterializationStrategy::kSampling,
                                           MaterializationStrategy::kVariational));

// ---- Metropolis–Hastings over stored worlds -------------------------------

/// A change to a graph, as incremental grounding could produce it.
struct Edit {
  uint32_t drop = UINT32_MAX;       ///< factor removed (none when out of range)
  uint32_t tombstone = UINT32_MAX;  ///< variable whose tuple was deleted
  int flip_evidence = -1;           ///< evidence variable whose label flips
  double weight_scale = 1.0;        ///< every weight multiplied (a relearn)
  std::vector<std::pair<FactorFunc, std::vector<Literal>>> extra;  ///< added
  double extra_weight = 0.0;        ///< the added factors' one new weight
};

/// A copy of `g` with `edit` applied. The tombstone becomes what the
/// grounder leaves for a deleted tuple: clamped false, with no factors.
FactorGraph Edited(const FactorGraph& g, const Edit& edit) {
  FactorGraph out;
  for (uint32_t v = 0; v < g.num_variables(); ++v) {
    if (v == edit.tombstone) {
      out.AddVariable(true, false);
    } else if (static_cast<int>(v) == edit.flip_evidence) {
      out.AddVariable(true, !g.evidence_value(v));
    } else {
      out.AddVariable(g.is_evidence(v), g.evidence_value(v));
    }
  }
  for (uint32_t w = 0; w < g.num_weights(); ++w) {
    out.AddWeight(g.weight_value(w) * edit.weight_scale, g.weight(w).is_fixed,
                  g.weight(w).description);
  }
  for (uint32_t f = 0; f < g.num_factors(); ++f) {
    size_t arity = 0;
    const Literal* lits = g.factor_literals(f, &arity);
    bool touches_tombstone = false;
    for (size_t i = 0; i < arity; ++i) touches_tombstone |= lits[i].var == edit.tombstone;
    if (f == edit.drop || touches_tombstone) continue;
    EXPECT_TRUE(out.AddFactor(g.factor_func(f), g.factor_weight(f),
                              std::vector<Literal>(lits, lits + arity))
                    .ok());
  }
  if (!edit.extra.empty()) {
    const uint32_t w = out.AddWeight(edit.extra_weight, false, "extra");
    for (const auto& [func, lits] : edit.extra) {
      EXPECT_TRUE(out.AddFactor(func, w, lits).ok());
    }
  }
  EXPECT_TRUE(out.Finalize().ok());
  return out;
}

/// Every variable of a factor of `g` that `Edited` dropped or added,
/// plus the tombstone and the flipped variable: what a grounder reports.
std::vector<uint32_t> ChangedBy(const FactorGraph& g, const Edit& edit) {
  std::vector<uint32_t> changed;
  auto add_factor = [&](uint32_t f) {
    size_t arity = 0;
    const Literal* lits = g.factor_literals(f, &arity);
    for (size_t i = 0; i < arity; ++i) changed.push_back(lits[i].var);
  };
  if (edit.drop < g.num_factors()) add_factor(edit.drop);
  if (edit.tombstone < g.num_variables()) changed.push_back(edit.tombstone);
  if (edit.flip_evidence >= 0) {
    changed.push_back(static_cast<uint32_t>(edit.flip_evidence));
  }
  for (const auto& [func, lits] : edit.extra) {
    for (const Literal& l : lits) changed.push_back(l.var);
  }
  if (edit.weight_scale != 1.0) {
    for (uint32_t v = 0; v < g.num_variables(); ++v) changed.push_back(v);
  }
  return changed;
}

IncrementalOptions ExactCheckOptions(bool clamp_evidence) {
  IncrementalOptions options;
  options.full_burn_in = 500;
  options.num_samples = 20000;
  options.update_burn_in = 500;
  options.clamp_evidence = clamp_evidence;
  return options;
}

FactorGraph SmallRandomGraph(uint64_t seed, double evidence_fraction) {
  SyntheticGraphOptions options;
  options.num_variables = 12;
  options.factors_per_variable = 1.5;
  options.evidence_fraction = evidence_fraction;
  options.seed = seed;
  return MakeRandomGraph(options);
}

/// Materialize on `base`, update to `Edited(base, edit)` and compare the
/// result with exact marginals of the edited graph. Returns the number of
/// fallbacks the update took.
uint64_t UpdateAndCompareWithExact(const FactorGraph& base, const Edit& edit,
                                   bool clamp_evidence, double tolerance) {
  FactorGraph edited = Edited(base, edit);
  IncrementalInference engine(&base, MaterializationStrategy::kSampling,
                              ExactCheckOptions(clamp_evidence));
  EXPECT_TRUE(engine.Materialize().ok());
  const uint64_t materialize_work = engine.last_work_units();
  const uint64_t fallbacks_before = Fallbacks();
  auto updated = engine.Update(&edited, ChangedBy(base, edit));
  EXPECT_TRUE(updated.ok()) << updated.status().ToString();
  const uint64_t fallbacks = Fallbacks() - fallbacks_before;
  auto exact = ExactMarginals(edited, clamp_evidence);
  EXPECT_TRUE(exact.ok());
  if (updated.ok() && exact.ok()) EXPECT_LT(MaxDiff(*exact, *updated), tolerance);
  if (fallbacks == 0) {
    EXPECT_LT(engine.last_work_units(), materialize_work / 5)
        << "the update should score a few delta factors per world";
  }
  return fallbacks;
}

TEST(WorldUpdateTest, AddedFactorMatchesExact) {
  const FactorGraph base = SmallRandomGraph(201, 0.0);
  Edit edit;
  edit.extra = {{FactorFunc::kImply, {{2, true}, {7, true}}}};
  edit.extra_weight = 0.8;
  EXPECT_EQ(UpdateAndCompareWithExact(base, edit, /*clamp_evidence=*/true, 0.03), 0u);
}

TEST(WorldUpdateTest, RemovedFactorMatchesExact) {
  const FactorGraph base = SmallRandomGraph(202, 0.0);
  Edit edit;
  edit.drop = 3;
  EXPECT_EQ(UpdateAndCompareWithExact(base, edit, /*clamp_evidence=*/true, 0.03), 0u);
}

TEST(WorldUpdateTest, TombstonedVariableMatchesExact) {
  // Unclamped, as the pipeline samples: the tombstone loses its factors
  // and becomes a free coin.
  const FactorGraph base = SmallRandomGraph(203, 0.0);
  Edit edit;
  edit.tombstone = 4;
  EXPECT_EQ(UpdateAndCompareWithExact(base, edit, /*clamp_evidence=*/false, 0.03), 0u);
}

TEST(WorldUpdateTest, NewVariablesMatchExact) {
  // Six new variables attached to the old ones and to each other: each is
  // drawn from its conditional with the undrawn ones read as 0.
  const FactorGraph base = SmallRandomGraph(210, 0.0);
  std::vector<uint32_t> changed;
  const FactorGraph extended = ExtendGraph(base, 6, 1.5, 211, &changed);
  IncrementalInference engine(&base, MaterializationStrategy::kSampling,
                              ExactCheckOptions(true));
  ASSERT_TRUE(engine.Materialize().ok());
  const uint64_t fallbacks_before = Fallbacks();
  auto updated = engine.Update(&extended, changed);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(Fallbacks() - fallbacks_before, 0u);
  auto exact = ExactMarginals(extended);
  ASSERT_TRUE(exact.ok());
  EXPECT_LT(MaxDiff(*exact, *updated), 0.03);
}

TEST(WorldUpdateTest, SecondUpdateProposesFromTheMaterializedWorlds) {
  const FactorGraph base = SmallRandomGraph(204, 0.0);
  Edit first;
  first.extra = {{FactorFunc::kIsTrue, {{5, true}}}};
  first.extra_weight = 0.5;
  const FactorGraph g1 = Edited(base, first);
  Edit second = first;
  second.drop = 0;
  const FactorGraph g2 = Edited(base, second);
  std::vector<uint32_t> changed_second;
  size_t arity = 0;
  const Literal* lits = g1.factor_literals(0, &arity);
  for (size_t i = 0; i < arity; ++i) changed_second.push_back(lits[i].var);

  IncrementalInference engine(&base, MaterializationStrategy::kSampling,
                              ExactCheckOptions(true));
  ASSERT_TRUE(engine.Materialize().ok());
  const uint64_t fallbacks_before = Fallbacks();
  ASSERT_TRUE(engine.Update(&g1, ChangedBy(base, first)).ok());
  // The second update names only its own change; the first one's stays
  // in the delta against the materialized reference.
  auto updated = engine.Update(&g2, changed_second);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(Fallbacks() - fallbacks_before, 0u);
  auto exact = ExactMarginals(g2);
  ASSERT_TRUE(exact.ok());
  EXPECT_LT(MaxDiff(*exact, *updated), 0.03);
}

TEST(WorldUpdateTest, LargeDeltaFallsBackAndStillMatchesExact) {
  // Relearned weights: every factor differs from the reference, so the
  // delta is the whole graph twice over.
  const FactorGraph base = SmallRandomGraph(205, 0.0);
  Edit edit;
  edit.weight_scale = 1.5;
  EXPECT_EQ(UpdateAndCompareWithExact(base, edit, /*clamp_evidence=*/true, 0.03), 1u);
}

TEST(WorldUpdateTest, LowAcceptanceFallsBackAndStillMatchesExact) {
  // A strong prior on the variable the old distribution least often set
  // true: few stored worlds are plausible under the new one.
  const FactorGraph base = SmallRandomGraph(206, 0.0);
  auto old_exact = ExactMarginals(base);
  ASSERT_TRUE(old_exact.ok());
  const uint32_t rare = static_cast<uint32_t>(
      std::min_element(old_exact->begin(), old_exact->end()) - old_exact->begin());
  ASSERT_LT((*old_exact)[rare], 0.4);
  Edit edit;
  edit.extra = {{FactorFunc::kIsTrue, {{rare, true}}}};
  edit.extra_weight = 8.0;
  EXPECT_EQ(UpdateAndCompareWithExact(base, edit, /*clamp_evidence=*/true, 0.03), 1u);
}

TEST(WorldUpdateTest, EvidenceFlipUnderClampFallsBack) {
  const FactorGraph base = SmallRandomGraph(207, 0.25);
  int flip = -1;
  for (uint32_t v = 0; v < base.num_variables() && flip < 0; ++v) {
    if (base.is_evidence(v)) flip = static_cast<int>(v);
  }
  ASSERT_GE(flip, 0);
  Edit edit;
  edit.flip_evidence = flip;
  EXPECT_EQ(UpdateAndCompareWithExact(base, edit, /*clamp_evidence=*/true, 0.03), 1u);
}

TEST(WorldUpdateTest, UnchangedGraphKeepsMaterializedMarginals) {
  const FactorGraph base = SmallRandomGraph(208, 0.0);
  const FactorGraph same = Edited(base, Edit());
  IncrementalInference engine(&base, MaterializationStrategy::kSampling,
                              ExactCheckOptions(true));
  ASSERT_TRUE(engine.Materialize().ok());
  const std::vector<double> materialized = engine.marginals();
  auto updated = engine.Update(&same, {});
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(*updated, materialized);
  EXPECT_EQ(engine.last_work_units(), 0u);
}

TEST(WorldUpdateTest, ChangedVariableOutOfRangeRejected) {
  const FactorGraph base = SmallRandomGraph(209, 0.0);
  IncrementalOptions options;
  options.full_burn_in = 10;
  options.num_samples = 20;
  IncrementalInference engine(&base, MaterializationStrategy::kSampling, options);
  ASSERT_TRUE(engine.Materialize().ok());
  auto result = engine.Update(&base, {static_cast<uint32_t>(base.num_variables())});
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(IncrementalInferenceTest, UpdateBeforeMaterializeFails) {
  VersionedGraphs graphs(102);
  IncrementalOptions options;
  IncrementalInference engine(&graphs.base, MaterializationStrategy::kSampling,
                              options);
  auto result = engine.Update(&graphs.extended, graphs.changed);
  EXPECT_FALSE(result.ok());
}

TEST(IncrementalInferenceTest, ShrinkingGraphRejected) {
  VersionedGraphs graphs(103);
  IncrementalOptions options;
  options.num_samples = 50;
  options.full_burn_in = 10;
  IncrementalInference engine(&graphs.extended, MaterializationStrategy::kSampling,
                              options);
  ASSERT_TRUE(engine.Materialize().ok());
  auto result = engine.Update(&graphs.base, {});
  EXPECT_FALSE(result.ok());
}

TEST(IncrementalInferenceTest, VariationalUpdateIsLocalized) {
  // A large sparse graph: updating 2 variables must touch far fewer
  // variables than a full relaxation.
  SyntheticGraphOptions options;
  options.num_variables = 5000;
  options.factors_per_variable = 1.0;
  options.evidence_fraction = 0.0;
  options.seed = 104;
  FactorGraph base = MakeRandomGraph(options);
  std::vector<uint32_t> changed;
  FactorGraph extended = ExtendGraph(base, 2, 1.0, 105, &changed);

  IncrementalOptions inc_options;
  inc_options.mf_tolerance = 1e-3;
  inc_options.mf_damping = 0.2;
  IncrementalInference engine(&base, MaterializationStrategy::kVariational,
                              inc_options);
  ASSERT_TRUE(engine.Materialize().ok());
  uint64_t full_work = engine.last_work_units();

  auto updated = engine.Update(&extended, changed);
  ASSERT_TRUE(updated.ok());
  EXPECT_LT(engine.last_work_units(), full_work / 10)
      << "warm-started update should be far cheaper than materialization";
}

TEST(ChooseStrategyTest, OptimizerRules) {
  // Dense graphs -> sampling regardless of changes.
  EXPECT_EQ(ChooseStrategy(100000, 10.0, 100), MaterializationStrategy::kSampling);
  // Few anticipated changes -> sampling.
  EXPECT_EQ(ChooseStrategy(100000, 2.0, 1), MaterializationStrategy::kSampling);
  // Tiny graphs -> sampling.
  EXPECT_EQ(ChooseStrategy(100, 2.0, 100), MaterializationStrategy::kSampling);
  // Large, sparse, many changes -> variational.
  EXPECT_EQ(ChooseStrategy(100000, 2.0, 50), MaterializationStrategy::kVariational);
}

TEST(StrategyNameTest, Names) {
  EXPECT_STREQ(StrategyName(MaterializationStrategy::kSampling), "sampling");
  EXPECT_STREQ(StrategyName(MaterializationStrategy::kVariational), "variational");
}

}  // namespace
}  // namespace dd
