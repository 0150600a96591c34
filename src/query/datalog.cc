#include "query/datalog.h"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "query/evaluator.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace dd {

namespace {

/// Tarjan SCC over the relation dependency graph (edge head -> body
/// relation when the body relation is also derived).
struct SccState {
  std::map<std::string, std::vector<std::pair<std::string, bool>>> edges;  // (dep, negated)
  std::map<std::string, int> index, lowlink;
  std::map<std::string, bool> on_stack;
  std::vector<std::string> stack;
  int counter = 0;
  std::vector<std::vector<std::string>> sccs;  // reverse topological order

  void Visit(const std::string& v) {
    index[v] = lowlink[v] = counter++;
    stack.push_back(v);
    on_stack[v] = true;
    for (const auto& [w, negated] : edges[v]) {
      (void)negated;
      if (index.find(w) == index.end()) {
        Visit(w);
        lowlink[v] = std::min(lowlink[v], lowlink[w]);
      } else if (on_stack[w]) {
        lowlink[v] = std::min(lowlink[v], index[w]);
      }
    }
    if (lowlink[v] == index[v]) {
      std::vector<std::string> scc;
      while (true) {
        std::string w = stack.back();
        stack.pop_back();
        on_stack[w] = false;
        scc.push_back(w);
        if (w == v) break;
      }
      sccs.push_back(std::move(scc));
    }
  }
};

}  // namespace

Result<Stratification> Stratify(const std::vector<ConjunctiveRule>& rules) {
  std::set<std::string> derived;
  for (const ConjunctiveRule& rule : rules) derived.insert(rule.head.relation);

  SccState scc;
  for (const std::string& r : derived) scc.edges[r];  // ensure node exists
  for (const ConjunctiveRule& rule : rules) {
    for (const Atom& atom : rule.body) {
      if (derived.count(atom.relation) > 0) {
        scc.edges[rule.head.relation].emplace_back(atom.relation, atom.negated);
      }
    }
  }
  for (const std::string& r : derived) {
    if (scc.index.find(r) == scc.index.end()) scc.Visit(r);
  }

  // Map relation -> scc id; sccs are in reverse topological order, so
  // evaluation order is scc.sccs as-is (Tarjan emits sinks first; sinks
  // are dependencies, which must be evaluated first).
  std::map<std::string, size_t> scc_of;
  for (size_t i = 0; i < scc.sccs.size(); ++i) {
    for (const std::string& r : scc.sccs[i]) scc_of[r] = i;
  }

  Stratification out;
  out.strata = scc.sccs;
  out.rules_by_stratum.resize(scc.sccs.size());
  out.recursive.assign(scc.sccs.size(), false);
  for (size_t i = 0; i < rules.size(); ++i) {
    out.rules_by_stratum[scc_of[rules[i].head.relation]].push_back(i);
  }
  // Detect recursion and reject negation within a component.
  for (size_t i = 0; i < scc.sccs.size(); ++i) {
    std::set<std::string> members(scc.sccs[i].begin(), scc.sccs[i].end());
    bool recursive = members.size() > 1;
    for (size_t rid : out.rules_by_stratum[i]) {
      for (const Atom& atom : rules[rid].body) {
        if (members.count(atom.relation) == 0) continue;
        recursive = true;  // self-loop or intra-component dependency
        if (atom.negated) {
          return Status::InvalidArgument(
              "program is not stratifiable: negation through recursion at relation " +
              atom.relation);
        }
      }
    }
    out.recursive[i] = recursive;
    if (recursive) out.has_recursion = true;
  }
  return out;
}

Status DatalogEngine::Evaluate(const std::vector<ConjunctiveRule>& rules) {
  DD_ASSIGN_OR_RETURN(Stratification strat, Stratify(rules));
  TaskGraph graph;
  graph.set_trace_root(TraceSpan::CurrentPath());
  std::vector<TaskGraph::NodeId> nodes;
  DD_RETURN_IF_ERROR(Schedule(rules, strat, &graph, &nodes));
  return graph.Run(par_.pool);
}

Status DatalogEngine::Schedule(const std::vector<ConjunctiveRule>& rules,
                               const Stratification& strat, TaskGraph* graph,
                               std::vector<TaskGraph::NodeId>* node_of_stratum) {
  for (const ConjunctiveRule& rule : rules) DD_RETURN_IF_ERROR(rule.Validate());
  std::map<std::string, size_t> stratum_of;
  for (size_t s = 0; s < strat.strata.size(); ++s) {
    for (const std::string& r : strat.strata[s]) stratum_of[r] = s;
  }

  node_of_stratum->clear();
  for (size_t s = 0; s < strat.strata.size(); ++s) {
    const bool recursive = s < strat.recursive.size() && strat.recursive[s];
    node_of_stratum->push_back(graph->AddNode(
        "datalog.s" + std::to_string(s),
        [this, &rules, &strat, s, recursive]() -> Status {
          std::set<std::string> members(strat.strata[s].begin(),
                                        strat.strata[s].end());
          return EvaluateStratum(rules, strat.rules_by_stratum[s], members,
                                 recursive);
        }));
  }
  // One edge per inter-stratum dependency: stratum s reads a relation
  // another stratum derives. Tarjan's reverse-topological SCC order
  // guarantees producers have smaller stratum ids, so the serial oracle
  // (ascending node ids) is exactly the legacy strata-in-order loop.
  for (size_t s = 0; s < strat.strata.size(); ++s) {
    std::set<size_t> deps;
    for (size_t rid : strat.rules_by_stratum[s]) {
      for (const Atom& atom : rules[rid].body) {
        auto it = stratum_of.find(atom.relation);
        if (it != stratum_of.end() && it->second != s) deps.insert(it->second);
      }
    }
    for (size_t p : deps) {
      graph->AddEdge((*node_of_stratum)[p], (*node_of_stratum)[s]);
    }
  }
  return Status::OK();
}

Status DatalogEngine::EvaluateStratum(const std::vector<ConjunctiveRule>& rules,
                                      const std::vector<size_t>& rule_ids,
                                      const std::set<std::string>& stratum_relations,
                                      bool recursive) {
  RuleEvaluator evaluator(catalog_);

  // Per-rule cap on individually logged ill-typed-tuple drops; past it
  // we count silently and emit one summary line per rule at the end.
  constexpr size_t kMaxDropLogsPerRule = 5;
  std::vector<size_t> drop_logged(rule_ids.size(), 0);
  std::vector<size_t> drop_count(rule_ids.size(), 0);

  // Semi-naive iteration with frozen rounds: each round evaluates the
  // affected rules against the table state as of round start (inserts
  // are deferred to the ordered barrier merge below), so workers probe
  // strictly read-only tables and the morsel decomposition + merge make
  // the emission sequence — hence derived row order — identical to the
  // serial oracle at any thread count. Monotone rules reach the same
  // fixpoint as insert-during-scan evaluation; for non-recursive strata
  // (no rule reads an in-stratum head) the single round reproduces the
  // legacy emission order exactly.
  std::map<std::string, std::vector<Tuple>> delta;
  bool first_round = true;
  while (true) {
    std::vector<size_t> active;  // positions into rule_ids
    for (size_t i = 0; i < rule_ids.size(); ++i) {
      if (first_round) {
        active.push_back(i);
        continue;
      }
      for (const Atom& atom : rules[rule_ids[i]].body) {
        if (stratum_relations.count(atom.relation) > 0 &&
            delta.count(atom.relation) > 0 && !delta.at(atom.relation).empty()) {
          active.push_back(i);
          break;
        }
      }
    }
    if (active.empty()) break;

    // Compile the round's rules against the frozen state. The shared
    // index cache holds raw row pointers, valid exactly because nothing
    // mutates a table until the merge — it lives one round, never longer.
    JoinIndexCache cache;
    struct RoundRule {
      RuleEvaluator::CompiledRule cr;
      size_t n = 0;            // top-level enumeration units
      size_t morsel_size = 1;
      size_t num_morsels = 0;
      size_t unit_base = 0;    // first slot in the flattened unit space
    };
    std::vector<RoundRule> round(active.size());
    size_t total_units = 0;
    for (size_t k = 0; k < active.size(); ++k) {
      RoundRule& rr = round[k];
      DD_RETURN_IF_ERROR(
          evaluator.Compile(rules[rule_ids[active[k]]], &cache, &rr.cr));
      rr.cr.cc.PrepareIndexes();
      rr.n = rr.cr.cc.TopLevelSize();
      rr.morsel_size = par_.MorselSizeFor(rr.cr.cc.EstimatedUnitCost());
      rr.num_morsels = NumMorsels(rr.n, rr.morsel_size);
      rr.unit_base = total_units;
      total_units += rr.num_morsels;
    }

    // All (rule, morsel) pairs flattened into one unit space so a single
    // fan-out covers the whole round regardless of per-rule skew.
    std::vector<size_t> unit_rule(total_units);
    for (size_t k = 0; k < active.size(); ++k) {
      for (size_t u = 0; u < round[k].num_morsels; ++u) {
        unit_rule[round[k].unit_base + u] = k;
      }
    }
    std::vector<std::vector<Tuple>> drafts(total_units);
    DD_RETURN_IF_ERROR(ParallelMorsels(
        par_.pool, total_units, 1, [&](size_t unit, size_t, size_t) -> Status {
          const RoundRule& rr = round[unit_rule[unit]];
          const size_t m = unit - rr.unit_base;
          const size_t begin = m * rr.morsel_size;
          const size_t end = std::min(begin + rr.morsel_size, rr.n);
          std::vector<Tuple>& out = drafts[unit];
          rr.cr.cc.RunMorsel(
              begin, end, [&](const std::vector<Value>& slots, int64_t) {
                out.push_back(RuleEvaluator::ProjectHead(rr.cr.rule->head,
                                                         rr.cr.cc, slots));
              });
          DD_COUNTER_ADD("dd.query.head_tuples", out.size());
          return Status::OK();
        }));

    // Barrier merge in (rule order, morsel order): the only place this
    // round inserts, so every probe above saw the frozen state.
    std::map<std::string, std::vector<Tuple>> next_delta;
    bool any = false;
    for (size_t k = 0; k < active.size(); ++k) {
      const size_t i = active[k];
      const ConjunctiveRule& rule = rules[rule_ids[i]];
      DD_ASSIGN_OR_RETURN(Table* head_table,
                          catalog_->GetTable(rule.head.relation));
      for (size_t u = round[k].unit_base;
           u < round[k].unit_base + round[k].num_morsels; ++u) {
        for (Tuple& t : drafts[u]) {
          Status st = head_table->CheckTuple(t);
          if (!st.ok()) {
            ++drop_count[i];
            DD_COUNTER_ADD("dd.datalog.dropped_tuples", 1);
            if (drop_logged[i] < kMaxDropLogsPerRule) {
              ++drop_logged[i];
              DD_LOG(Error) << "dropping ill-typed derived tuple "
                            << t.ToString() << ": " << st.ToString();
            }
            continue;
          }
          auto [id, inserted] = head_table->InsertUnchecked(t);
          (void)id;
          if (inserted) {
            next_delta[rule.head.relation].push_back(std::move(t));
            any = true;
          }
        }
      }
    }
    first_round = false;
    if (!recursive || !any) break;
    delta = std::move(next_delta);
  }

  for (size_t i = 0; i < rule_ids.size(); ++i) {
    if (drop_count[i] > drop_logged[i]) {
      DD_LOG(Error) << "rule for " << rules[rule_ids[i]].head.relation
                    << " dropped " << drop_count[i]
                    << " ill-typed derived tuples total ("
                    << (drop_count[i] - drop_logged[i])
                    << " not logged individually)";
    }
  }
  return Status::OK();
}

}  // namespace dd
