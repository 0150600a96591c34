#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/udf.h"
#include "ddlog/parser.h"
#include "grounding/grounder.h"
#include "inference/exact.h"
#include "storage/catalog.h"

namespace dd {
namespace {

constexpr char kProgram[] = R"(
  Token(s: int, t: text).
  Pair(s: int, a: int, b: int).
  Q?(a: int, b: int).
  Q_Ev(a: int, b: int, label: bool).

  # Candidate mapping.
  Q(a, b) :- Pair(s, a, b).

  # Feature rule: one weight per distinct token text in the pair's sentence.
  Q(a, b) :- Pair(s, a, b), Token(s, t) weight = identity(t).
)";

class GrounderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto parsed = ParseDdlog(kProgram);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    program_ = std::move(parsed).value();

    token_ = *catalog_.CreateTable(
        "Token", Schema({{"s", ValueType::kInt}, {"t", ValueType::kString}}));
    pair_ = *catalog_.CreateTable(
        "Pair", Schema({{"s", ValueType::kInt},
                        {"a", ValueType::kInt},
                        {"b", ValueType::kInt}}));
  }

  void AddToken(int64_t s, const std::string& t) {
    ASSERT_TRUE(token_->Insert(Tuple({Value::Int(s), Value::String(t)})).ok());
  }
  void AddPair(int64_t s, int64_t a, int64_t b) {
    ASSERT_TRUE(
        pair_->Insert(Tuple({Value::Int(s), Value::Int(a), Value::Int(b)})).ok());
  }
  void AddLabel(int64_t a, int64_t b, bool label) {
    Table* ev = *catalog_.GetOrCreateTable(
        "Q_Ev", Schema({{"a", ValueType::kInt},
                        {"b", ValueType::kInt},
                        {"label", ValueType::kBool}}));
    ASSERT_TRUE(
        ev->Insert(Tuple({Value::Int(a), Value::Int(b), Value::Bool(label)})).ok());
  }

  Catalog catalog_;
  DdlogProgram program_;
  UdfRegistry udfs_;
  Table* token_ = nullptr;
  Table* pair_ = nullptr;
};

TEST_F(GrounderTest, BuildsVariablesAndFactors) {
  AddPair(1, 10, 20);
  AddPair(2, 30, 40);
  AddToken(1, "married");
  AddToken(1, "wife");
  AddToken(2, "met");

  Grounder grounder(&catalog_, &program_, &udfs_);
  ASSERT_TRUE(grounder.Initialize().ok());

  // Two candidates -> two variables.
  EXPECT_EQ(grounder.stats().num_variables, 2u);
  // Factors: (1,10,20) has 2 tokens, (2,30,40) has 1 -> 3 feature factors.
  EXPECT_EQ(grounder.stats().num_factors, 3u);
  // Weights tied by token text: married, wife, met -> 3 weights.
  EXPECT_EQ(grounder.stats().num_weights, 3u);

  // Variable lookup round-trips.
  int64_t var = grounder.VarIdFor("Q", Tuple({Value::Int(10), Value::Int(20)}));
  EXPECT_GE(var, 0);
  EXPECT_EQ(grounder.VarIdFor("Q", Tuple({Value::Int(1), Value::Int(2)})), -1);
}

TEST_F(GrounderTest, WeightTyingSharesWeights) {
  // The same token in two sentences must produce ONE weight, two factors.
  AddPair(1, 10, 20);
  AddPair(2, 30, 40);
  AddToken(1, "married");
  AddToken(2, "married");

  Grounder grounder(&catalog_, &program_, &udfs_);
  ASSERT_TRUE(grounder.Initialize().ok());
  EXPECT_EQ(grounder.stats().num_weights, 1u);
  EXPECT_EQ(grounder.stats().num_factors, 2u);
  EXPECT_EQ(grounder.weight_observations()[0], 2u);
  EXPECT_NE(grounder.WeightKey(0).find("married"), std::string::npos);
}

TEST_F(GrounderTest, EvidenceApplied) {
  AddPair(1, 10, 20);
  AddPair(2, 30, 40);
  Grounder grounder(&catalog_, &program_, &udfs_);
  ASSERT_TRUE(grounder.Initialize().ok());
  EXPECT_EQ(grounder.stats().num_evidence, 0u);

  AddLabel(10, 20, true);
  ASSERT_TRUE(grounder.Reground().ok());
  EXPECT_EQ(grounder.stats().num_evidence, 1u);
  int64_t var = grounder.VarIdFor("Q", Tuple({Value::Int(10), Value::Int(20)}));
  ASSERT_GE(var, 0);
  EXPECT_TRUE(grounder.graph().is_evidence(static_cast<uint32_t>(var)));
  EXPECT_TRUE(grounder.graph().evidence_value(static_cast<uint32_t>(var)));
}

TEST_F(GrounderTest, ConflictingLabelsUnlabeled) {
  AddPair(1, 10, 20);
  AddLabel(10, 20, true);
  AddLabel(10, 20, false);
  Grounder grounder(&catalog_, &program_, &udfs_);
  ASSERT_TRUE(grounder.Initialize().ok());
  EXPECT_EQ(grounder.stats().num_conflicting_labels, 1u);
  EXPECT_EQ(grounder.stats().num_evidence, 0u);
}

TEST_F(GrounderTest, OrphanEvidenceCounted) {
  AddPair(1, 10, 20);
  AddLabel(99, 98, true);  // no such candidate
  Grounder grounder(&catalog_, &program_, &udfs_);
  ASSERT_TRUE(grounder.Initialize().ok());
  EXPECT_EQ(grounder.stats().num_orphan_evidence, 1u);
}

TEST_F(GrounderTest, IncrementalMatchesReground) {
  AddPair(1, 10, 20);
  AddToken(1, "married");
  Grounder grounder(&catalog_, &program_, &udfs_);
  ASSERT_TRUE(grounder.Initialize().ok());
  EXPECT_EQ(grounder.stats().num_variables, 1u);

  // Delta: a new sentence with a pair and two tokens.
  std::map<std::string, DeltaSet> delta;
  delta["Pair"][Tuple({Value::Int(2), Value::Int(30), Value::Int(40)})] = 1;
  delta["Token"][Tuple({Value::Int(2), Value::String("married")})] = 1;
  delta["Token"][Tuple({Value::Int(2), Value::String("divorced")})] = 1;
  ASSERT_TRUE(grounder.ApplyDeltas(delta).ok());

  EXPECT_EQ(grounder.stats().num_factors, 3u);
  EXPECT_EQ(grounder.stats().num_weights, 2u);
  EXPECT_FALSE(grounder.changed_vars().empty());

  // Reference: a fresh grounder over the same final base tables.
  Catalog ref;
  Table* rt = *ref.CreateTable("Token", token_->schema());
  Table* rp = *ref.CreateTable("Pair", pair_->schema());
  for (const Tuple& t : token_->Scan()) ASSERT_TRUE(rt->Insert(t).ok());
  for (const Tuple& t : pair_->Scan()) ASSERT_TRUE(rp->Insert(t).ok());
  Grounder fresh(&ref, &program_, &udfs_);
  ASSERT_TRUE(fresh.Initialize().ok());
  EXPECT_EQ(fresh.stats().num_factors, grounder.stats().num_factors);
  EXPECT_EQ(fresh.stats().num_weights, grounder.stats().num_weights);
  // Live variable count matches (the incremental one has no deletions here).
  EXPECT_EQ(fresh.stats().num_variables, grounder.stats().num_variables);
}

TEST_F(GrounderTest, DeletionMakesVariableInert) {
  AddPair(1, 10, 20);
  AddPair(2, 30, 40);
  AddToken(1, "married");
  Grounder grounder(&catalog_, &program_, &udfs_);
  ASSERT_TRUE(grounder.Initialize().ok());
  int64_t var = grounder.VarIdFor("Q", Tuple({Value::Int(10), Value::Int(20)}));
  ASSERT_GE(var, 0);

  std::map<std::string, DeltaSet> delta;
  delta["Pair"][Tuple({Value::Int(1), Value::Int(10), Value::Int(20)})] = -1;
  ASSERT_TRUE(grounder.ApplyDeltas(delta).ok());

  // The candidate is gone; its variable id persists but is inert.
  EXPECT_EQ(grounder.VarIdFor("Q", Tuple({Value::Int(10), Value::Int(20)})), -1);
  EXPECT_TRUE(grounder.graph().is_evidence(static_cast<uint32_t>(var)));
  // Its factor disappeared with it.
  EXPECT_EQ(grounder.stats().num_factors, 0u);
  // The deleted variable is reported as changed.
  auto& changed = grounder.changed_vars();
  EXPECT_NE(std::find(changed.begin(), changed.end(), static_cast<uint32_t>(var)),
            changed.end());

  // Re-inserting revives the same variable id (stable identity).
  delta.clear();
  delta["Pair"][Tuple({Value::Int(1), Value::Int(10), Value::Int(20)})] = 1;
  ASSERT_TRUE(grounder.ApplyDeltas(delta).ok());
  EXPECT_EQ(grounder.VarIdFor("Q", Tuple({Value::Int(10), Value::Int(20)})), var);
  EXPECT_EQ(grounder.stats().num_factors, 1u);
}

TEST_F(GrounderTest, SavedWeightsSurviveRebuild) {
  AddPair(1, 10, 20);
  AddToken(1, "married");
  Grounder grounder(&catalog_, &program_, &udfs_);
  ASSERT_TRUE(grounder.Initialize().ok());
  ASSERT_EQ(grounder.graph().num_weights(), 1u);
  grounder.mutable_graph()->set_weight_value(0, 2.75);
  grounder.SaveWeights();

  std::map<std::string, DeltaSet> delta;
  delta["Token"][Tuple({Value::Int(1), Value::String("wife")})] = 1;
  ASSERT_TRUE(grounder.ApplyDeltas(delta).ok());
  // The "married" weight kept its learned value across the rebuild.
  bool found = false;
  for (uint32_t w = 0; w < grounder.graph().num_weights(); ++w) {
    if (grounder.WeightKey(w).find("married") != std::string::npos) {
      EXPECT_DOUBLE_EQ(grounder.graph().weight_value(w), 2.75);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(GrounderCorrelationTest, ImplyFactorBetweenQueryRelations) {
  auto program = ParseDdlog(R"(
    Link(x: int, y: int).
    A?(x: int).
    B?(x: int).
    A(x) :- Link(x, y).
    B(y) :- Link(x, y).
    A(x) => B(y) :- Link(x, y) weight = 2.0.
  )");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Catalog catalog;
  Table* link = *catalog.CreateTable(
      "Link", Schema({{"x", ValueType::kInt}, {"y", ValueType::kInt}}));
  ASSERT_TRUE(link->Insert(Tuple({Value::Int(1), Value::Int(2)})).ok());
  UdfRegistry udfs;
  Grounder grounder(&catalog, &*program, &udfs);
  ASSERT_TRUE(grounder.Initialize().ok()) << "init failed";
  EXPECT_EQ(grounder.stats().num_variables, 2u);
  EXPECT_EQ(grounder.stats().num_factors, 1u);
  ASSERT_EQ(grounder.graph().num_factors(), 1u);
  EXPECT_EQ(grounder.graph().factor_func(0), FactorFunc::kImply);
  EXPECT_TRUE(grounder.graph().weight(0).is_fixed);
  EXPECT_DOUBLE_EQ(grounder.graph().weight_value(0), 2.0);

  // The imply factor couples the marginals: P(B) > 0.5 given weight>0.
  auto marginals = ExactMarginals(grounder.graph());
  ASSERT_TRUE(marginals.ok());
  int64_t b_var = grounder.VarIdFor("B", Tuple({Value::Int(2)}));
  ASSERT_GE(b_var, 0);
  EXPECT_GT((*marginals)[static_cast<size_t>(b_var)], 0.5);
}

TEST(GrounderErrorsTest, MissingUdfFails) {
  auto program = ParseDdlog(R"(
    T(x: int, t: text).
    Q?(x: int).
    Q(x) :- T(x, t) weight = no_such_udf(t).
  )");
  ASSERT_TRUE(program.ok());
  Catalog catalog;
  Table* t = *catalog.CreateTable(
      "T", Schema({{"x", ValueType::kInt}, {"t", ValueType::kString}}));
  ASSERT_TRUE(t->Insert(Tuple({Value::Int(1), Value::String("a")})).ok());
  UdfRegistry udfs;
  Grounder grounder(&catalog, &*program, &udfs);
  Status st = grounder.Initialize();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
}

TEST(GrounderErrorsTest, InvalidProgramFailsInitialize) {
  auto program = ParseDdlog("Q(x) :- Mystery(x).");
  ASSERT_TRUE(program.ok());
  Catalog catalog;
  UdfRegistry udfs;
  Grounder grounder(&catalog, &*program, &udfs);
  EXPECT_FALSE(grounder.Initialize().ok());
}

}  // namespace
}  // namespace dd
