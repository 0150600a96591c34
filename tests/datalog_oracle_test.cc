// Independent oracle for the query layer. The engines under test share
// one join implementation (CompiledConjunction: hash indexes, morsels,
// semi-naive and DRed delta plans), so comparing them with each other
// cannot catch a bug in it. This file evaluates the same programs with a
// textbook naive bottom-up evaluator — nested loops over whole
// relations, strata by the usual rank rule, naive iteration to fixpoint;
// no indexes, no morsels, no deltas — and requires IncrementalEngine's
// derived tables and derivation counts, after Initialize() and after an
// insert+delete ApplyDeltas(), and DatalogEngine's fixpoints on
// recursive programs, to equal it, at 1, 2, 4 and 8 threads.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "kbc_workloads.h"
#include "query/datalog.h"
#include "query/dred.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace dd {
namespace {

using testing_workloads::KbcWorkload;
using Facts = std::map<std::string, std::set<Tuple>>;
using Counts = std::map<std::string, std::map<Tuple, int64_t>>;
using Binding = std::map<std::string, Value>;

// ---- The naive evaluator ----------------------------------------------

Value Resolve(const Term& t, const Binding& b) {
  return t.is_var() ? b.at(t.var) : t.constant;
}

Tuple Instantiate(const Atom& atom, const Binding& b) {
  Tuple out;
  for (const Term& t : atom.terms) out.Append(Resolve(t, b));
  return out;
}

bool Holds(const Facts& facts, const Atom& atom, const Binding& b) {
  auto it = facts.find(atom.relation);
  return it != facts.end() && it->second.count(Instantiate(atom, b)) > 0;
}

/// Calls fn once per assignment of the rule's variables that satisfies
/// its body: every positive atom in `facts`, no negated atom in them,
/// every condition true.
void ForEachAssignment(const ConjunctiveRule& rule, const Facts& facts,
                       const std::function<void(const Binding&)>& fn) {
  std::vector<const Atom*> positive;
  for (const Atom& a : rule.body) {
    if (!a.negated) positive.push_back(&a);
  }
  std::function<void(size_t, const Binding&)> extend = [&](size_t i, const Binding& b) {
    if (i == positive.size()) {
      for (const Atom& a : rule.body) {
        if (a.negated && Holds(facts, a, b)) return;
      }
      for (const Condition& c : rule.conditions) {
        if (!EvalCondition(Resolve(c.lhs, b), c.op, Resolve(c.rhs, b))) return;
      }
      fn(b);
      return;
    }
    const Atom& atom = *positive[i];
    auto rel = facts.find(atom.relation);
    if (rel == facts.end()) return;
    for (const Tuple& row : rel->second) {
      if (row.size() != atom.terms.size()) continue;
      Binding next = b;
      bool match = true;
      for (size_t k = 0; k < row.size() && match; ++k) {
        const Term& t = atom.terms[k];
        if (!t.is_var()) {
          match = t.constant == row.at(k);
        } else {
          auto [slot, fresh] = next.emplace(t.var, row.at(k));
          match = fresh || slot->second == row.at(k);
        }
      }
      if (match) extend(i + 1, next);
    }
  };
  extend(0, Binding());
}

/// Stratified naive fixpoint over `base`; returns every relation.
Facts NaiveEvaluate(const std::vector<ConjunctiveRule>& rules, Facts facts) {
  std::map<std::string, int> rank;
  for (const ConjunctiveRule& r : rules) rank[r.head.relation] = 0;
  for (size_t round = 0; round <= rank.size(); ++round) {
    for (const ConjunctiveRule& r : rules) {
      for (const Atom& a : r.body) {
        auto it = rank.find(a.relation);
        if (it == rank.end()) continue;
        int need = it->second + (a.negated ? 1 : 0);
        if (rank[r.head.relation] < need) rank[r.head.relation] = need;
      }
    }
  }
  int max_rank = 0;
  for (const auto& [rel, r] : rank) {
    facts[rel];
    max_rank = std::max(max_rank, r);
  }
  for (int stratum = 0; stratum <= max_rank; ++stratum) {
    for (bool changed = true; changed;) {
      changed = false;
      for (const ConjunctiveRule& r : rules) {
        if (rank[r.head.relation] != stratum) continue;
        std::vector<Tuple> heads;
        ForEachAssignment(r, facts, [&](const Binding& b) {
          heads.push_back(Instantiate(r.head, b));
        });
        for (Tuple& t : heads) {
          changed |= facts[r.head.relation].insert(std::move(t)).second;
        }
      }
    }
  }
  return facts;
}

/// Derivations per derived tuple: satisfying body assignments, summed
/// over the rules deriving it (non-recursive programs).
Counts NaiveDerivationCounts(const std::vector<ConjunctiveRule>& rules,
                             const Facts& facts) {
  Counts counts;
  for (const ConjunctiveRule& r : rules) {
    ForEachAssignment(r, facts, [&](const Binding& b) {
      counts[r.head.relation][Instantiate(r.head, b)] += 1;
    });
  }
  return counts;
}

// ---- Programs and catalogs ----------------------------------------------

/// The grounder's rewrite: derivation rules stay; a feature or
/// correlation rule derives its groundings into __factors_<i>, whose
/// columns are the head terms, the implied head's terms and the weight
/// arguments.
std::vector<ConjunctiveRule> Rewrite(const DdlogProgram& program) {
  std::vector<ConjunctiveRule> out;
  for (size_t i = 0; i < program.rules.size(); ++i) {
    const DdlogRule& rule = program.rules[i];
    ConjunctiveRule r = rule.rule;
    if (rule.kind != RuleKind::kDerivation) {
      r.head.relation = StrFormat("__factors_%zu", i);
      if (rule.kind == RuleKind::kCorrelation) {
        for (const Term& t : rule.implied_head.terms) r.head.terms.push_back(t);
      }
      if (rule.weight.has_value()) {
        for (const std::string& arg : rule.weight->args) {
          r.head.terms.push_back(Term::Var(arg));
        }
      }
    }
    out.push_back(std::move(r));
  }
  return out;
}

/// Creates every declared relation missing from `catalog`, and a table
/// for each pseudo relation typed from the declarations.
void CreateTables(const DdlogProgram& program, const std::vector<ConjunctiveRule>& rules,
                  Catalog* catalog) {
  for (const RelationDecl& decl : program.declarations) {
    if (!catalog->HasTable(decl.name)) {
      ASSERT_TRUE(catalog->CreateTable(decl.name, decl.schema).ok());
    }
  }
  for (const ConjunctiveRule& r : rules) {
    if (catalog->HasTable(r.head.relation)) continue;
    std::map<std::string, ValueType> types;
    for (const Atom& a : r.body) {
      const RelationDecl* decl = program.FindDecl(a.relation);
      ASSERT_NE(decl, nullptr) << a.relation;
      for (size_t k = 0; k < a.terms.size(); ++k) {
        if (a.terms[k].is_var()) types.emplace(a.terms[k].var, decl->schema.column(k).type);
      }
    }
    std::vector<Column> columns;
    for (const Term& t : r.head.terms) {
      columns.push_back(Column{StrFormat("c%zu", columns.size()),
                               t.is_var() ? types.at(t.var) : t.constant.type()});
    }
    ASSERT_TRUE(catalog->CreateTable(r.head.relation, Schema(std::move(columns))).ok());
  }
}

Facts Snapshot(const Catalog& catalog, const std::set<std::string>& relations) {
  Facts facts;
  for (const std::string& name : relations) {
    auto table = catalog.GetTable(name);
    EXPECT_TRUE(table.ok()) << name;
    if (!table.ok()) continue;
    for (const Tuple& t : (*table)->Scan()) facts[name].insert(t);
    facts[name];
  }
  return facts;
}

std::set<std::string> BaseRelations(const DdlogProgram& program,
                                    const std::vector<ConjunctiveRule>& rules) {
  std::set<std::string> derived, base;
  for (const ConjunctiveRule& r : rules) derived.insert(r.head.relation);
  for (const RelationDecl& decl : program.declarations) {
    if (derived.count(decl.name) == 0) base.insert(decl.name);
  }
  return base;
}

std::set<std::string> DerivedRelations(const std::vector<ConjunctiveRule>& rules) {
  std::set<std::string> derived;
  for (const ConjunctiveRule& r : rules) derived.insert(r.head.relation);
  return derived;
}

/// The engine's derived tables and derivation counts equal the oracle's
/// over the catalog's current base tables.
void ExpectMatchesOracle(const IncrementalEngine& engine, const Catalog& catalog,
                         const DdlogProgram& program,
                         const std::vector<ConjunctiveRule>& rules, const char* phase) {
  SCOPED_TRACE(phase);
  const Facts expected =
      NaiveEvaluate(rules, Snapshot(catalog, BaseRelations(program, rules)));
  const Counts counts = NaiveDerivationCounts(rules, expected);
  const std::set<std::string> derived = DerivedRelations(rules);
  const Facts actual = Snapshot(catalog, derived);
  size_t checked = 0;
  for (const std::string& rel : derived) {
    EXPECT_EQ(actual.at(rel), expected.at(rel)) << "relation " << rel;
    auto it = counts.find(rel);
    if (it == counts.end()) continue;
    for (const auto& [tuple, n] : it->second) {
      EXPECT_EQ(engine.DerivationCount(rel, tuple), n)
          << rel << tuple.ToString();
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u) << "the oracle derived nothing to compare";
}

/// Initialize, compare, apply the workload's batch, compare again.
void CheckIncrementalEngine(const KbcWorkload& w, size_t threads) {
  Catalog catalog;
  ASSERT_TRUE(testing_workloads::Populate(w, &catalog).ok());
  const std::vector<ConjunctiveRule> rules = Rewrite(w.program);
  CreateTables(w.program, rules, &catalog);
  std::unique_ptr<ThreadPool> pool;
  EvalParallelism par;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(threads);
    par = EvalParallelism{pool.get(), 4};  // tiny morsels: exercise merges
  }
  IncrementalEngine engine(&catalog, rules, par);
  ASSERT_TRUE(engine.Initialize().ok());
  ExpectMatchesOracle(engine, catalog, w.program, rules, "initialize");
  auto applied = engine.ApplyDeltas(w.delta);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  ExpectMatchesOracle(engine, catalog, w.program, rules, "apply_deltas");
}

class SyntheticOracleTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t>> {};

TEST_P(SyntheticOracleTest, IncrementalEngineMatchesNaive) {
  const auto [seed, threads] = GetParam();
  auto w = testing_workloads::SyntheticKbcWorkload(seed);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  CheckIncrementalEngine(*w, threads);
}

/// Recursive programs: DatalogEngine's fixpoint over the base state and
/// again, from empty derived tables, over base + batch.
TEST_P(SyntheticOracleTest, DatalogEngineMatchesNaiveOnRecursivePrograms) {
  const auto [seed, threads] = GetParam();
  auto w = testing_workloads::SyntheticKbcWorkload(seed, /*recursive=*/true);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  Catalog catalog;
  ASSERT_TRUE(testing_workloads::Populate(*w, &catalog).ok());
  const std::vector<ConjunctiveRule> rules = Rewrite(w->program);
  CreateTables(w->program, rules, &catalog);
  std::unique_ptr<ThreadPool> pool;
  EvalParallelism par;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(threads);
    par = EvalParallelism{pool.get(), 4};
  }
  const std::set<std::string> derived = DerivedRelations(rules);
  for (const char* phase : {"base", "base+batch"}) {
    SCOPED_TRACE(phase);
    DatalogEngine engine(&catalog, par);
    ASSERT_TRUE(engine.Evaluate(rules).ok());
    const Facts expected =
        NaiveEvaluate(rules, Snapshot(catalog, BaseRelations(w->program, rules)));
    const Facts actual = Snapshot(catalog, derived);
    for (const std::string& rel : derived) {
      EXPECT_EQ(actual.at(rel), expected.at(rel)) << "relation " << rel;
    }
    EXPECT_FALSE(expected.at("Reach").empty());
    // Next phase: apply the batch to the base tables, clear derived ones.
    for (const auto& [rel, delta] : w->delta) {
      Table* table = *catalog.GetTable(rel);
      for (const auto& [tuple, count] : delta) {
        if (count > 0) {
          ASSERT_TRUE(table->Insert(tuple).ok());
        } else if (count < 0) {
          table->Erase(tuple);
        }
      }
    }
    for (const std::string& rel : derived) (*catalog.GetTable(rel))->Clear();
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedByThreads, SyntheticOracleTest,
    ::testing::Combine(::testing::Values<uint64_t>(1, 2, 3, 4, 5, 6, 7, 8, 13, 21),
                       ::testing::Values<size_t>(1, 2, 4, 8)),
    [](const ::testing::TestParamInfo<std::tuple<uint64_t, size_t>>& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

// Rules sharing a body with a negated atom inside it, and members that
// add positive and negated probes: a member's delta expansion at the
// negated body atom reads the probes placed before it in the new state.
// Random insert/delete batches over every base relation, checked against
// the oracle after each batch.
class SharedBodyOracleTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t>> {};

TEST_P(SharedBodyOracleTest, RandomBatchesMatchNaive) {
  const auto [seed, threads] = GetParam();
  auto var = [](const char* v) { return Term::Var(v); };
  auto atom = [](const char* rel, std::vector<Term> terms, bool negated = false) {
    return Atom{rel, std::move(terms), negated};
  };
  // A(x)    :- R(x, y), !N(y), T(y, z), P(x).
  // B(x, z) :- R(x, y), !N(y), T(y, z).
  // C(z)    :- R(u, v), !N(v), T(v, z), !P(u), u != z.
  std::vector<ConjunctiveRule> rules(3);
  rules[0].head = atom("A", {var("x")});
  rules[0].body = {atom("R", {var("x"), var("y")}), atom("N", {var("y")}, true),
                   atom("T", {var("y"), var("z")}), atom("P", {var("x")})};
  rules[1].head = atom("B", {var("x"), var("z")});
  rules[1].body = {atom("R", {var("x"), var("y")}), atom("N", {var("y")}, true),
                   atom("T", {var("y"), var("z")})};
  rules[2].head = atom("C", {var("z")});
  rules[2].body = {atom("R", {var("u"), var("v")}), atom("N", {var("v")}, true),
                   atom("T", {var("v"), var("z")}), atom("P", {var("u")}, true)};
  rules[2].conditions.push_back(Condition{var("u"), CmpOp::kNe, var("z")});

  Schema one({{"a", ValueType::kInt}});
  Schema two({{"a", ValueType::kInt}, {"b", ValueType::kInt}});
  Catalog catalog;
  for (const char* rel : {"R", "T", "B"}) ASSERT_TRUE(catalog.CreateTable(rel, two).ok());
  for (const char* rel : {"N", "P", "A", "C"}) {
    ASSERT_TRUE(catalog.CreateTable(rel, one).ok());
  }
  Rng rng(seed);
  auto random_tuple = [&](const std::string& rel) {
    Tuple t({Value::Int(rng.NextInt(0, 4))});
    if (rel == "R" || rel == "T") t.Append(Value::Int(rng.NextInt(0, 4)));
    return t;
  };
  const std::vector<std::string> base = {"R", "N", "T", "P"};
  const std::map<std::string, int> rows = {{"R", 20}, {"N", 2}, {"T", 20}, {"P", 4}};
  for (const auto& [rel, n] : rows) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE((*catalog.GetTable(rel))->Insert(random_tuple(rel)).ok());
    }
  }
  std::unique_ptr<ThreadPool> pool;
  EvalParallelism par;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(threads);
    par = EvalParallelism{pool.get(), 2};
  }
  DdlogProgram program;  // declares the base relations for BaseRelations()
  for (const std::string& rel : base) {
    program.declarations.push_back(RelationDecl{rel, rel == "R" || rel == "T" ? two : one});
  }
  IncrementalEngine engine(&catalog, rules, par);
  ASSERT_TRUE(engine.Initialize().ok());
  ExpectMatchesOracle(engine, catalog, program, rules, "initialize");
  for (int batch = 0; batch < 12; ++batch) {
    std::map<std::string, DeltaSet> delta;
    for (int c = 0; c < 6; ++c) {
      const std::string& rel = base[rng.NextBounded(base.size())];
      delta[rel][random_tuple(rel)] = rng.NextBernoulli(0.5) ? 1 : -1;
    }
    auto applied = engine.ApplyDeltas(delta);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    ExpectMatchesOracle(engine, catalog, program, rules,
                        ("batch " + std::to_string(batch)).c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedByThreads, SharedBodyOracleTest,
    ::testing::Combine(::testing::Values<uint64_t>(1, 2, 3, 4),
                       ::testing::Values<size_t>(1, 2, 4, 8)),
    [](const ::testing::TestParamInfo<std::tuple<uint64_t, size_t>>& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

class LogsOracleTest : public ::testing::TestWithParam<size_t> {};

TEST_P(LogsOracleTest, IncrementalEngineMatchesNaive) {
  auto w = testing_workloads::LogsWorkload(/*num_windows=*/40);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  CheckIncrementalEngine(*w, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Threads, LogsOracleTest, ::testing::Values<size_t>(1, 2, 4, 8),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "t" + std::to_string(info.param);
                         });

// The oracle itself, on a hand-checked program: Q(x) :- R(x, y), !S(y).
TEST(NaiveEvaluatorTest, CountsAssignmentsAndHonoursNegation) {
  std::vector<ConjunctiveRule> rules(1);
  rules[0].head = {"Q", {Term::Var("x")}, false};
  rules[0].body.push_back({"R", {Term::Var("x"), Term::Var("y")}, false});
  rules[0].body.push_back({"S", {Term::Var("y")}, true});
  auto t1 = [](int64_t a) { return Tuple({Value::Int(a)}); };
  auto t2 = [](int64_t a, int64_t b) { return Tuple({Value::Int(a), Value::Int(b)}); };
  Facts base;
  base["R"] = {t2(1, 10), t2(1, 20), t2(2, 10), t2(3, 30)};
  base["S"] = {t1(30)};
  const Facts facts = NaiveEvaluate(rules, base);
  EXPECT_EQ(facts.at("Q"), (std::set<Tuple>{t1(1), t1(2)}));
  const Counts counts = NaiveDerivationCounts(rules, facts);
  EXPECT_EQ(counts.at("Q").at(t1(1)), 2);
  EXPECT_EQ(counts.at("Q").at(t1(2)), 1);
}

}  // namespace
}  // namespace dd
