#include <gtest/gtest.h>

#include "factor/graph.h"

namespace dd {
namespace {

TEST(FactorGraphTest, BuildAndSizes) {
  FactorGraph g;
  uint32_t v0 = g.AddVariable();
  uint32_t v1 = g.AddVariable(true, true);
  uint32_t w = g.AddWeight(1.5, false, "feat");
  ASSERT_TRUE(g.AddFactor(FactorFunc::kImply, w, {{v0, true}, {v1, true}}).ok());
  ASSERT_TRUE(g.Finalize().ok());
  EXPECT_EQ(g.num_variables(), 2u);
  EXPECT_EQ(g.num_factors(), 1u);
  EXPECT_EQ(g.num_weights(), 1u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_FALSE(g.is_evidence(v0));
  EXPECT_TRUE(g.is_evidence(v1));
  EXPECT_TRUE(g.evidence_value(v1));
  EXPECT_DOUBLE_EQ(g.weight_value(w), 1.5);
}

TEST(FactorGraphTest, InvalidFactorRejected) {
  FactorGraph g;
  uint32_t v = g.AddVariable();
  uint32_t w = g.AddWeight(1.0, false, "w");
  EXPECT_FALSE(g.AddFactor(FactorFunc::kIsTrue, 99, {{v, true}}).ok());   // bad weight
  EXPECT_FALSE(g.AddFactor(FactorFunc::kIsTrue, w, {{7, true}}).ok());    // bad var
  EXPECT_FALSE(g.AddFactor(FactorFunc::kIsTrue, w, {}).ok());             // empty
  EXPECT_FALSE(g.AddFactor(FactorFunc::kEqual, w, {{v, true}}).ok());     // arity
  EXPECT_FALSE(
      g.AddFactor(FactorFunc::kIsTrue, w, {{v, true}, {v, true}}).ok());  // arity
}

struct FuncCase {
  FactorFunc func;
  std::vector<uint8_t> assignment;
  std::vector<Literal> literals;
  double expected;
};

class FactorFuncTest : public ::testing::TestWithParam<FuncCase> {};

TEST_P(FactorFuncTest, Evaluates) {
  const FuncCase& c = GetParam();
  FactorGraph g;
  for (size_t i = 0; i < c.assignment.size(); ++i) g.AddVariable();
  uint32_t w = g.AddWeight(1.0, false, "w");
  ASSERT_TRUE(g.AddFactor(c.func, w, c.literals).ok());
  ASSERT_TRUE(g.Finalize().ok());
  EXPECT_DOUBLE_EQ(g.EvalFactor(0, c.assignment.data()), c.expected)
      << FactorFuncName(c.func);
}

INSTANTIATE_TEST_SUITE_P(
    AllFunctions, FactorFuncTest,
    ::testing::Values(
        // kIsTrue
        FuncCase{FactorFunc::kIsTrue, {1}, {{0, true}}, 1.0},
        FuncCase{FactorFunc::kIsTrue, {0}, {{0, true}}, 0.0},
        FuncCase{FactorFunc::kIsTrue, {0}, {{0, false}}, 1.0},  // negated literal
        // kAnd
        FuncCase{FactorFunc::kAnd, {1, 1}, {{0, true}, {1, true}}, 1.0},
        FuncCase{FactorFunc::kAnd, {1, 0}, {{0, true}, {1, true}}, 0.0},
        FuncCase{FactorFunc::kAnd, {1, 0}, {{0, true}, {1, false}}, 1.0},
        // kOr
        FuncCase{FactorFunc::kOr, {0, 0}, {{0, true}, {1, true}}, 0.0},
        FuncCase{FactorFunc::kOr, {0, 1}, {{0, true}, {1, true}}, 1.0},
        // kImply: body -> head, last literal is head
        FuncCase{FactorFunc::kImply, {1, 1}, {{0, true}, {1, true}}, 1.0},
        FuncCase{FactorFunc::kImply, {1, 0}, {{0, true}, {1, true}}, 0.0},
        FuncCase{FactorFunc::kImply, {0, 0}, {{0, true}, {1, true}}, 1.0},  // vacuous
        FuncCase{FactorFunc::kImply, {1, 1, 0}, {{0, true}, {1, true}, {2, true}}, 0.0},
        FuncCase{FactorFunc::kImply, {1, 0, 0}, {{0, true}, {1, true}, {2, true}}, 1.0},
        // kEqual
        FuncCase{FactorFunc::kEqual, {1, 1}, {{0, true}, {1, true}}, 1.0},
        FuncCase{FactorFunc::kEqual, {0, 1}, {{0, true}, {1, true}}, 0.0},
        FuncCase{FactorFunc::kEqual, {0, 0}, {{0, true}, {1, true}}, 1.0}));

TEST(FactorGraphTest, PotentialDeltaMatchesBruteForce) {
  // Build a small graph, compare PotentialDelta against LogPotential diff.
  FactorGraph g;
  uint32_t a = g.AddVariable();
  uint32_t b = g.AddVariable();
  uint32_t c = g.AddVariable();
  uint32_t w1 = g.AddWeight(0.7, false, "w1");
  uint32_t w2 = g.AddWeight(-1.3, false, "w2");
  ASSERT_TRUE(g.AddFactor(FactorFunc::kImply, w1, {{a, true}, {b, true}}).ok());
  ASSERT_TRUE(g.AddFactor(FactorFunc::kAnd, w2, {{b, true}, {c, false}}).ok());
  ASSERT_TRUE(g.AddFactor(FactorFunc::kIsTrue, w1, {{b, true}}).ok());
  ASSERT_TRUE(g.Finalize().ok());

  for (int bits = 0; bits < 8; ++bits) {
    uint8_t assign[3] = {static_cast<uint8_t>(bits & 1),
                         static_cast<uint8_t>((bits >> 1) & 1),
                         static_cast<uint8_t>((bits >> 2) & 1)};
    for (uint32_t v : {a, b, c}) {
      uint8_t saved = assign[v];
      assign[v] = 1;
      double lp1 = g.LogPotential(assign);
      assign[v] = 0;
      double lp0 = g.LogPotential(assign);
      assign[v] = saved;
      EXPECT_NEAR(g.PotentialDelta(v, assign), lp1 - lp0, 1e-12);
    }
  }
}

TEST(FactorGraphTest, DuplicateVarInFactorIndexedOnce) {
  FactorGraph g;
  uint32_t v = g.AddVariable();
  uint32_t w = g.AddWeight(1.0, false, "w");
  // v appears twice in one factor (e.g. Or(v, !v)).
  ASSERT_TRUE(g.AddFactor(FactorFunc::kOr, w, {{v, true}, {v, false}}).ok());
  ASSERT_TRUE(g.Finalize().ok());
  size_t count = 0;
  g.var_factors(v, &count);
  EXPECT_EQ(count, 1u);
  // And the delta is 0 (tautology factor).
  uint8_t assign[1] = {0};
  EXPECT_DOUBLE_EQ(g.PotentialDelta(v, assign), 0.0);
}

TEST(FactorGraphTest, VarFactorsAdjacency) {
  FactorGraph g;
  uint32_t a = g.AddVariable();
  uint32_t b = g.AddVariable();
  uint32_t w = g.AddWeight(1.0, false, "w");
  ASSERT_TRUE(g.AddFactor(FactorFunc::kIsTrue, w, {{a, true}}).ok());
  ASSERT_TRUE(g.AddFactor(FactorFunc::kImply, w, {{a, true}, {b, true}}).ok());
  ASSERT_TRUE(g.Finalize().ok());
  size_t count = 0;
  g.var_factors(a, &count);
  EXPECT_EQ(count, 2u);
  g.var_factors(b, &count);
  EXPECT_EQ(count, 1u);
}

}  // namespace
}  // namespace dd
