#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "query/datalog.h"
#include "query/dred.h"
#include "query/rule.h"
#include "storage/catalog.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dd {
namespace {

Tuple T2(int64_t a, int64_t b) { return Tuple({Value::Int(a), Value::Int(b)}); }
Tuple T1(int64_t a) { return Tuple({Value::Int(a)}); }
Schema Int2() { return Schema({{"x", ValueType::kInt}, {"y", ValueType::kInt}}); }
Schema Int1() { return Schema({{"x", ValueType::kInt}}); }

// Q(x) :- R(x, y), S(y).
std::vector<ConjunctiveRule> JoinProgram() {
  std::vector<ConjunctiveRule> rules(1);
  rules[0].head = {"Q", {Term::Var("x")}, false};
  rules[0].body.push_back({"R", {Term::Var("x"), Term::Var("y")}, false});
  rules[0].body.push_back({"S", {Term::Var("y")}, false});
  return rules;
}

class DredTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = *catalog_.CreateTable("R", Int2());
    s_ = *catalog_.CreateTable("S", Int1());
    q_ = *catalog_.CreateTable("Q", Int1());
  }
  Catalog catalog_;
  Table* r_;
  Table* s_;
  Table* q_;
};

TEST_F(DredTest, InitializePopulatesDerived) {
  ASSERT_TRUE(r_->Insert(T2(1, 10)).ok());
  ASSERT_TRUE(r_->Insert(T2(2, 20)).ok());
  ASSERT_TRUE(s_->Insert(T1(10)).ok());
  IncrementalEngine engine(&catalog_, JoinProgram());
  ASSERT_TRUE(engine.Initialize().ok());
  EXPECT_EQ(q_->size(), 1u);
  EXPECT_TRUE(q_->Contains(T1(1)));
  EXPECT_EQ(engine.DerivationCount("Q", T1(1)), 1);
}

TEST_F(DredTest, InsertPropagates) {
  ASSERT_TRUE(r_->Insert(T2(1, 10)).ok());
  IncrementalEngine engine(&catalog_, JoinProgram());
  ASSERT_TRUE(engine.Initialize().ok());
  EXPECT_EQ(q_->size(), 0u);

  std::map<std::string, DeltaSet> delta;
  delta["S"][T1(10)] = 1;
  auto result = engine.ApplyDeltas(delta);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(q_->Contains(T1(1)));
  EXPECT_TRUE(s_->Contains(T1(10)));
  ASSERT_TRUE(result->count("Q"));
  EXPECT_EQ(result->at("Q").at(T1(1)), 1);
}

TEST_F(DredTest, DeletePropagates) {
  ASSERT_TRUE(r_->Insert(T2(1, 10)).ok());
  ASSERT_TRUE(s_->Insert(T1(10)).ok());
  IncrementalEngine engine(&catalog_, JoinProgram());
  ASSERT_TRUE(engine.Initialize().ok());
  EXPECT_TRUE(q_->Contains(T1(1)));

  std::map<std::string, DeltaSet> delta;
  delta["S"][T1(10)] = -1;
  ASSERT_TRUE(engine.ApplyDeltas(delta).ok());
  EXPECT_FALSE(q_->Contains(T1(1)));
  EXPECT_FALSE(s_->Contains(T1(10)));
}

TEST_F(DredTest, MultipleDerivationsSurviveSingleDelete) {
  // Q(1) derivable via y=10 and y=20; deleting one support keeps Q(1).
  ASSERT_TRUE(r_->Insert(T2(1, 10)).ok());
  ASSERT_TRUE(r_->Insert(T2(1, 20)).ok());
  ASSERT_TRUE(s_->Insert(T1(10)).ok());
  ASSERT_TRUE(s_->Insert(T1(20)).ok());
  IncrementalEngine engine(&catalog_, JoinProgram());
  ASSERT_TRUE(engine.Initialize().ok());
  EXPECT_EQ(engine.DerivationCount("Q", T1(1)), 2);

  std::map<std::string, DeltaSet> delta;
  delta["S"][T1(10)] = -1;
  ASSERT_TRUE(engine.ApplyDeltas(delta).ok());
  EXPECT_TRUE(q_->Contains(T1(1)));  // still one derivation
  EXPECT_EQ(engine.DerivationCount("Q", T1(1)), 1);

  delta.clear();
  delta["S"][T1(20)] = -1;
  ASSERT_TRUE(engine.ApplyDeltas(delta).ok());
  EXPECT_FALSE(q_->Contains(T1(1)));
}

TEST_F(DredTest, NoOpDeltasIgnored) {
  ASSERT_TRUE(r_->Insert(T2(1, 10)).ok());
  ASSERT_TRUE(s_->Insert(T1(10)).ok());
  IncrementalEngine engine(&catalog_, JoinProgram());
  ASSERT_TRUE(engine.Initialize().ok());

  std::map<std::string, DeltaSet> delta;
  delta["S"][T1(10)] = 1;    // already present
  delta["S"][T1(99)] = -1;   // not present
  auto result = engine.ApplyDeltas(delta);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
  EXPECT_EQ(engine.DerivationCount("Q", T1(1)), 1);
}

TEST_F(DredTest, DeltaOnDerivedRelationRejected) {
  IncrementalEngine engine(&catalog_, JoinProgram());
  ASSERT_TRUE(engine.Initialize().ok());
  std::map<std::string, DeltaSet> delta;
  delta["Q"][T1(1)] = 1;
  EXPECT_FALSE(engine.ApplyDeltas(delta).ok());
}

TEST_F(DredTest, RecursiveProgramRejected) {
  ASSERT_TRUE(catalog_.CreateTable("P", Int2()).ok());
  std::vector<ConjunctiveRule> rules(2);
  rules[0].head = {"P", {Term::Var("x"), Term::Var("y")}, false};
  rules[0].body.push_back({"R", {Term::Var("x"), Term::Var("y")}, false});
  rules[1].head = {"P", {Term::Var("x"), Term::Var("z")}, false};
  rules[1].body.push_back({"P", {Term::Var("x"), Term::Var("y")}, false});
  rules[1].body.push_back({"R", {Term::Var("y"), Term::Var("z")}, false});
  IncrementalEngine engine(&catalog_, rules);
  EXPECT_EQ(engine.Initialize().code(), StatusCode::kUnimplemented);
}

TEST_F(DredTest, NegationInsertRemovesDerived) {
  // Q(x) :- R(x, y), !S(y).
  std::vector<ConjunctiveRule> rules(1);
  rules[0].head = {"Q", {Term::Var("x")}, false};
  rules[0].body.push_back({"R", {Term::Var("x"), Term::Var("y")}, false});
  rules[0].body.push_back({"S", {Term::Var("y")}, true});
  ASSERT_TRUE(r_->Insert(T2(1, 10)).ok());
  IncrementalEngine engine(&catalog_, rules);
  ASSERT_TRUE(engine.Initialize().ok());
  EXPECT_TRUE(q_->Contains(T1(1)));

  // Inserting S(10) kills the !S(10) support.
  std::map<std::string, DeltaSet> delta;
  delta["S"][T1(10)] = 1;
  ASSERT_TRUE(engine.ApplyDeltas(delta).ok());
  EXPECT_FALSE(q_->Contains(T1(1)));

  // Deleting it again restores Q(1).
  delta.clear();
  delta["S"][T1(10)] = -1;
  ASSERT_TRUE(engine.ApplyDeltas(delta).ok());
  EXPECT_TRUE(q_->Contains(T1(1)));
}

TEST_F(DredTest, TwoLevelPropagation) {
  // Q(x) :- R(x, y), S(y).  W(x) :- Q(x), R(x, y).
  ASSERT_TRUE(catalog_.CreateTable("W", Int1()).ok());
  auto rules = JoinProgram();
  ConjunctiveRule r2;
  r2.head = {"W", {Term::Var("x")}, false};
  r2.body.push_back({"Q", {Term::Var("x")}, false});
  r2.body.push_back({"R", {Term::Var("x"), Term::Var("y")}, false});
  rules.push_back(r2);

  ASSERT_TRUE(r_->Insert(T2(1, 10)).ok());
  IncrementalEngine engine(&catalog_, rules);
  ASSERT_TRUE(engine.Initialize().ok());
  Table* w = *catalog_.GetTable("W");
  EXPECT_EQ(w->size(), 0u);

  std::map<std::string, DeltaSet> delta;
  delta["S"][T1(10)] = 1;
  ASSERT_TRUE(engine.ApplyDeltas(delta).ok());
  EXPECT_TRUE(w->Contains(T1(1)));

  delta.clear();
  delta["S"][T1(10)] = -1;
  ASSERT_TRUE(engine.ApplyDeltas(delta).ok());
  EXPECT_FALSE(w->Contains(T1(1)));
}

// Property test: random insert/delete workloads give a final state
// identical to evaluating the program from scratch on the final base
// tables. Sweeps several program shapes.
struct RandomWorkloadParam {
  uint64_t seed;
  int num_ops;
};

/// Runs the random workload with DRed at `threads` (tiny morsels so the
/// ordered merges run) and checks the final derived tables against a
/// from-scratch evaluation.
void CheckRandomWorkload(const RandomWorkloadParam& param, size_t threads) {
  Rng rng(param.seed);

  Catalog inc_catalog;
  Table* r = *inc_catalog.CreateTable("R", Int2());
  Table* s = *inc_catalog.CreateTable("S", Int1());
  ASSERT_TRUE(inc_catalog.CreateTable("Q", Int1()).ok());
  ASSERT_TRUE(inc_catalog.CreateTable("W", Int1()).ok());

  // Program with a join, a negation, and two levels:
  //   Q(x) :- R(x, y), S(y).
  //   W(x) :- R(x, y), !Q(x).
  std::vector<ConjunctiveRule> rules(2);
  rules[0].head = {"Q", {Term::Var("x")}, false};
  rules[0].body.push_back({"R", {Term::Var("x"), Term::Var("y")}, false});
  rules[0].body.push_back({"S", {Term::Var("y")}, false});
  rules[1].head = {"W", {Term::Var("x")}, false};
  rules[1].body.push_back({"R", {Term::Var("x"), Term::Var("y")}, false});
  rules[1].body.push_back({"Q", {Term::Var("x")}, true});

  std::unique_ptr<ThreadPool> pool;
  EvalParallelism par;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(threads);
    par = EvalParallelism{pool.get(), 2};
  }
  IncrementalEngine engine(&inc_catalog, rules, par);
  ASSERT_TRUE(engine.Initialize().ok());

  const int64_t domain = 6;  // small domain to force collisions
  for (int op = 0; op < param.num_ops; ++op) {
    std::map<std::string, DeltaSet> delta;
    int n_changes = 1 + static_cast<int>(rng.NextBounded(3));
    for (int c = 0; c < n_changes; ++c) {
      bool on_r = rng.NextBernoulli(0.6);
      bool insert = rng.NextBernoulli(0.55);
      if (on_r) {
        Tuple t = T2(rng.NextInt(0, domain), rng.NextInt(0, domain));
        delta["R"][t] = insert ? 1 : -1;
      } else {
        Tuple t = T1(rng.NextInt(0, domain));
        delta["S"][t] = insert ? 1 : -1;
      }
    }
    auto applied = engine.ApplyDeltas(delta);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  }

  // Reference: evaluate from scratch on copies of the final base tables.
  Catalog ref_catalog;
  Table* ref_r = *ref_catalog.CreateTable("R", Int2());
  Table* ref_s = *ref_catalog.CreateTable("S", Int1());
  ASSERT_TRUE(ref_catalog.CreateTable("Q", Int1()).ok());
  ASSERT_TRUE(ref_catalog.CreateTable("W", Int1()).ok());
  for (const Tuple& t : r->Scan()) ASSERT_TRUE(ref_r->Insert(t).ok());
  for (const Tuple& t : s->Scan()) ASSERT_TRUE(ref_s->Insert(t).ok());
  DatalogEngine full(&ref_catalog);
  ASSERT_TRUE(full.Evaluate(rules).ok());

  for (const char* rel : {"Q", "W"}) {
    auto inc_rows = (*inc_catalog.GetTable(rel))->Scan();
    auto ref_rows = (*ref_catalog.GetTable(rel))->Scan();
    std::set<Tuple> inc_set(inc_rows.begin(), inc_rows.end());
    std::set<Tuple> ref_set(ref_rows.begin(), ref_rows.end());
    EXPECT_EQ(inc_set, ref_set) << "relation " << rel << " diverged (seed "
                                << param.seed << ", " << threads << " threads)";
  }
}

class DredPropertyTest : public ::testing::TestWithParam<RandomWorkloadParam> {};

TEST_P(DredPropertyTest, MatchesFullEvaluation) { CheckRandomWorkload(GetParam(), 1); }

TEST_P(DredPropertyTest, MatchesFullEvaluationInParallel) {
  for (size_t threads : {2, 4, 8}) CheckRandomWorkload(GetParam(), threads);
}

INSTANTIATE_TEST_SUITE_P(
    RandomWorkloads, DredPropertyTest,
    ::testing::Values(RandomWorkloadParam{1, 10}, RandomWorkloadParam{2, 25},
                      RandomWorkloadParam{3, 50}, RandomWorkloadParam{4, 50},
                      RandomWorkloadParam{5, 100}, RandomWorkloadParam{6, 100},
                      RandomWorkloadParam{7, 200}, RandomWorkloadParam{8, 200}));

}  // namespace
}  // namespace dd
