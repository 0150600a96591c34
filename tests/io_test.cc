#include <gtest/gtest.h>

#include "factor/io.h"
#include "inference/exact.h"
#include "testdata/synthetic_graphs.h"
#include "util/rng.h"

namespace dd {
namespace {

TEST(FactorIoTest, RoundTripSmallGraph) {
  FactorGraph g;
  uint32_t a = g.AddVariable();
  uint32_t b = g.AddVariable(true, true);
  uint32_t w1 = g.AddWeight(1.5, false, "feature one");
  uint32_t w2 = g.AddWeight(-0.25, true, "fixed prior");
  ASSERT_TRUE(g.AddFactor(FactorFunc::kImply, w1, {{a, true}, {b, false}}).ok());
  ASSERT_TRUE(g.AddFactor(FactorFunc::kIsTrue, w2, {{a, true}}).ok());
  ASSERT_TRUE(g.Finalize().ok());

  std::string text = SerializeGraph(g);
  auto parsed = DeserializeGraph(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  EXPECT_EQ(parsed->num_variables(), 2u);
  EXPECT_EQ(parsed->num_weights(), 2u);
  EXPECT_EQ(parsed->num_factors(), 2u);
  EXPECT_FALSE(parsed->is_evidence(a));
  EXPECT_TRUE(parsed->is_evidence(b));
  EXPECT_TRUE(parsed->evidence_value(b));
  EXPECT_DOUBLE_EQ(parsed->weight_value(w1), 1.5);
  EXPECT_FALSE(parsed->weight(w1).is_fixed);
  EXPECT_EQ(parsed->weight(w1).description, "feature one");
  EXPECT_TRUE(parsed->weight(w2).is_fixed);
  EXPECT_EQ(parsed->factor_func(0), FactorFunc::kImply);
  size_t arity = 0;
  const Literal* lits = parsed->factor_literals(0, &arity);
  ASSERT_EQ(arity, 2u);
  EXPECT_EQ(lits[0].var, a);
  EXPECT_TRUE(lits[0].is_positive);
  EXPECT_EQ(lits[1].var, b);
  EXPECT_FALSE(lits[1].is_positive);
}

// Property: round-tripped random graphs have identical exact marginals.
class IoRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IoRoundTripTest, PreservesDistribution) {
  SyntheticGraphOptions options;
  options.num_variables = 10;
  options.factors_per_variable = 2.0;
  options.evidence_fraction = 0.2;
  options.seed = GetParam();
  FactorGraph g = MakeRandomGraph(options);

  auto parsed = DeserializeGraph(SerializeGraph(g));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  auto original = ExactMarginals(g);
  auto round_tripped = ExactMarginals(*parsed);
  ASSERT_TRUE(original.ok() && round_tripped.ok());
  ASSERT_EQ(original->size(), round_tripped->size());
  for (size_t v = 0; v < original->size(); ++v) {
    EXPECT_NEAR((*original)[v], (*round_tripped)[v], 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IoRoundTripTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// The binary GRBN/DICT snapshot sections (the default since DESIGN.md §12)
// must describe exactly the same graph as the ddfg text oracle.
TEST_P(IoRoundTripTest, BinarySnapshotMatchesTextOracle) {
  SyntheticGraphOptions options;
  options.num_variables = 10;
  options.factors_per_variable = 2.0;
  options.evidence_fraction = 0.2;
  options.seed = GetParam();

  GraphSnapshot snap;
  snap.has_graph = true;
  snap.graph = MakeRandomGraph(options);

  auto decoded = DecodeGraphSnapshot(EncodeGraphSnapshot(snap));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(decoded->has_graph);
  // The decoded graph serializes to the exact text the oracle produces.
  EXPECT_EQ(SerializeGraph(decoded->graph), SerializeGraph(snap.graph));
}

TEST(FactorIoTest, MalformedInputsRejected) {
  EXPECT_FALSE(DeserializeGraph("").ok());
  EXPECT_FALSE(DeserializeGraph("bogus 1\n").ok());
  EXPECT_FALSE(DeserializeGraph("ddfg 2\n").ok());  // wrong version
  // Missing W section.
  EXPECT_FALSE(DeserializeGraph("ddfg 1\nV 2\n").ok());
  // Factor references unknown variable.
  EXPECT_FALSE(
      DeserializeGraph("ddfg 1\nV 1\nW 1\nw 0 1.0 0 x\nF 1\nf istrue 0 1 9 1\n")
          .ok());
  // Declared/actual factor count mismatch.
  EXPECT_FALSE(
      DeserializeGraph("ddfg 1\nV 1\nW 1\nw 0 1.0 0 x\nF 2\nf istrue 0 1 0 1\n")
          .ok());
  // Unknown factor function.
  EXPECT_FALSE(
      DeserializeGraph("ddfg 1\nV 1\nW 1\nw 0 1.0 0 x\nF 1\nf xor 0 1 0 1\n").ok());
  // Unknown record tag.
  EXPECT_FALSE(DeserializeGraph("ddfg 1\nV 0\nW 0\nz\n").ok());
}

TEST(FactorIoTest, CommentsAndBlankLinesIgnored) {
  auto parsed = DeserializeGraph(
      "# a comment\nddfg 1\n\nV 1\n# another\nW 1\nw 0 2.0 0 bias\nF 1\n"
      "f istrue 0 1 0 1\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->num_factors(), 1u);
}

}  // namespace
}  // namespace dd
