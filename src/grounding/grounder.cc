#include "grounding/grounder.h"

#include <algorithm>
#include <set>
#include <unordered_set>

#include "ddlog/parser.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/task_graph.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/trace.h"
#include "util/string_util.h"

namespace dd {

namespace {

/// Infer the types of a rule's body variables from the declared schemas
/// of the positive atoms they appear in.
Status InferVarTypes(const ConjunctiveRule& rule, const DdlogProgram& program,
                     std::map<std::string, ValueType>* types) {
  for (const Atom& atom : rule.body) {
    if (atom.negated) continue;
    const RelationDecl* decl = program.FindDecl(atom.relation);
    if (decl == nullptr) {
      return Status::InvalidArgument("undeclared relation in body: " + atom.relation);
    }
    for (size_t i = 0; i < atom.terms.size() && i < decl->schema.num_columns(); ++i) {
      if (atom.terms[i].is_var()) {
        types->emplace(atom.terms[i].var, decl->schema.column(i).type);
      }
    }
  }
  return Status::OK();
}

std::string PseudoRelationName(size_t rule_index) {
  return StrFormat("__factors_%zu", rule_index);
}

// Per-row cost hints for the grounder's scans, in the same unit as
// CompiledConjunction::EstimatedUnitCost (≈ one comparison), feeding
// AdaptiveMorselSize. Constants, so the morsel decomposition stays a
// pure function of the input tables.
constexpr double kEvidenceScanCost = 16.0;   // tuple copy + hash probe
constexpr double kFactorDraftCost = 48.0;    // probes + registry lookups + key
constexpr double kFactorDraftUdfCost = 96.0; // ... plus a UDF call per row

}  // namespace

Grounder::Grounder(Catalog* catalog, const DdlogProgram* program,
                   const UdfRegistry* udfs, const GroundingOptions& options)
    : catalog_(catalog), program_(program), udfs_(udfs), options_(options) {
  if (options_.pool != nullptr) {
    num_threads_ = std::max<size_t>(1, options_.pool->num_threads());
  } else {
    num_threads_ = options_.num_threads == 0 ? HardwareThreads() : options_.num_threads;
  }
}

Grounder::~Grounder() = default;

EvalParallelism Grounder::Parallelism() {
  if (options_.pool != nullptr) {
    return EvalParallelism{options_.pool, options_.morsel_size};
  }
  // The owned pool is created on first demand so serial grounders (and
  // the num_threads=1 differential-testing oracle) never spawn workers.
  // BuildGraph resolves parallelism on the coordinating thread before
  // launching its task graph, so node bodies calling Parallelism() from
  // workers only ever read pool_, never create it.
  if (num_threads_ > 1 && pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(num_threads_);
  }
  return EvalParallelism{pool_.get(), options_.morsel_size};
}

Status Grounder::RewriteRules() {
  rewritten_rules_.clear();
  factor_rule_meta_.clear();
  for (size_t i = 0; i < program_->rules.size(); ++i) {
    const DdlogRule& rule = program_->rules[i];
    if (rule.kind == RuleKind::kDerivation) {
      rewritten_rules_.push_back(rule.rule);
      continue;
    }
    // Feature / correlation rule -> pseudo-relation derivation.
    FactorRuleMeta meta;
    meta.rule_index = i;
    meta.pseudo_relation = PseudoRelationName(i);
    meta.head_relation = rule.rule.head.relation;
    meta.head_arity = rule.rule.head.terms.size();
    meta.is_correlation = rule.kind == RuleKind::kCorrelation;

    ConjunctiveRule rewritten;
    rewritten.body = rule.rule.body;
    rewritten.conditions = rule.rule.conditions;
    rewritten.head.relation = meta.pseudo_relation;
    rewritten.head.terms = rule.rule.head.terms;
    if (meta.is_correlation) {
      meta.implied_relation = rule.implied_head.relation;
      meta.implied_arity = rule.implied_head.terms.size();
      for (const Term& t : rule.implied_head.terms) {
        rewritten.head.terms.push_back(t);
      }
    }
    meta.weight_args_begin = rewritten.head.terms.size();
    if (rule.weight.has_value()) {
      meta.num_weight_args = rule.weight->args.size();
      for (const std::string& arg : rule.weight->args) {
        rewritten.head.terms.push_back(Term::Var(arg));
      }
    }
    factor_rule_meta_.push_back(std::move(meta));
    rewritten_rules_.push_back(std::move(rewritten));
  }
  return Status::OK();
}

Status Grounder::CreateDerivedTables() {
  // Declared relations: create empty tables for any that are missing
  // (base tables are expected to be pre-populated by the caller, but a
  // missing empty one is not an error).
  for (const RelationDecl& decl : program_->declarations) {
    if (!catalog_->HasTable(decl.name)) {
      DD_RETURN_IF_ERROR(catalog_->CreateTable(decl.name, decl.schema).status());
    } else {
      // Schema must match.
      DD_ASSIGN_OR_RETURN(Table * existing, catalog_->GetTable(decl.name));
      if (!(existing->schema() == decl.schema)) {
        return Status::TypeError("table " + decl.name + " exists with schema " +
                                 existing->schema().ToString() + " but is declared " +
                                 decl.schema.ToString());
      }
    }
  }
  // Pseudo factor tables: schema from head terms of the original rule.
  for (const FactorRuleMeta& meta : factor_rule_meta_) {
    const DdlogRule& rule = program_->rules[meta.rule_index];
    std::map<std::string, ValueType> var_types;
    DD_RETURN_IF_ERROR(InferVarTypes(rule.rule, *program_, &var_types));

    std::vector<Column> columns;
    auto append_terms = [&](const Atom& atom, const std::string& decl_name,
                            const char* prefix) -> Status {
      const RelationDecl* decl = program_->FindDecl(decl_name);
      if (decl == nullptr) {
        return Status::InvalidArgument("undeclared relation: " + decl_name);
      }
      for (size_t i = 0; i < atom.terms.size(); ++i) {
        columns.push_back(
            Column{StrFormat("%s%zu", prefix, i), decl->schema.column(i).type});
      }
      return Status::OK();
    };
    DD_RETURN_IF_ERROR(append_terms(rule.rule.head, meta.head_relation, "h"));
    if (meta.is_correlation) {
      DD_RETURN_IF_ERROR(append_terms(rule.implied_head, meta.implied_relation, "g"));
    }
    if (rule.weight.has_value()) {
      for (size_t a = 0; a < rule.weight->args.size(); ++a) {
        auto it = var_types.find(rule.weight->args[a]);
        if (it == var_types.end()) {
          return Status::InvalidArgument("cannot infer type of weight argument " +
                                         rule.weight->args[a]);
        }
        columns.push_back(Column{StrFormat("w%zu", a), it->second});
      }
    }
    if (catalog_->HasTable(meta.pseudo_relation)) {
      DD_RETURN_IF_ERROR(catalog_->DropTable(meta.pseudo_relation));
    }
    DD_RETURN_IF_ERROR(
        catalog_->CreateTable(meta.pseudo_relation, Schema(std::move(columns)))
            .status());
  }
  return Status::OK();
}

Status Grounder::ClearDerivedTables() {
  std::set<std::string> derived;
  for (const ConjunctiveRule& rule : rewritten_rules_) derived.insert(rule.head.relation);
  for (const std::string& rel : derived) {
    DD_ASSIGN_OR_RETURN(Table * table, catalog_->GetTable(rel));
    table->Clear();
  }
  return Status::OK();
}

Status Grounder::Initialize() {
  DD_RETURN_IF_ERROR(AnalyzeProgram(*program_));
  // Fail fast on unregistered weight UDFs instead of during grounding.
  for (const DdlogRule& rule : program_->rules) {
    if (rule.weight.has_value() && rule.weight->kind == WeightSpec::Kind::kUdf &&
        !udfs_->Has(rule.weight->udf_name)) {
      return Status::NotFound("weight UDF not registered: " + rule.weight->udf_name);
    }
  }
  DD_RETURN_IF_ERROR(RewriteRules());
  DD_RETURN_IF_ERROR(CreateDerivedTables());
  DD_RETURN_IF_ERROR(ClearDerivedTables());

  // The incremental-vs-full path choice is made up front from the
  // program's stratification, so the recursive path can schedule stratum
  // evaluation and graph assembly in one task graph. IncrementalEngine
  // rejects exactly the recursive programs and both paths surface the
  // same validation/stratification errors, so behavior matches the old
  // try-incremental-then-fall-back flow.
  for (const ConjunctiveRule& rule : rewritten_rules_) {
    DD_RETURN_IF_ERROR(rule.Validate());
  }
  DD_ASSIGN_OR_RETURN(Stratification strat, Stratify(rewritten_rules_));
  initialized_ = true;

  if (!strat.has_recursion) {
    Stopwatch eval_watch;
    {
      DD_TRACE_SPAN("grounding.eval");
      incremental_ = std::make_unique<IncrementalEngine>(catalog_, rewritten_rules_,
                                                         Parallelism());
      DD_RETURN_IF_ERROR(incremental_->Initialize());
      use_incremental_ = true;
    }
    double eval_seconds = eval_watch.Seconds();
    DD_RETURN_IF_ERROR(BuildGraph(nullptr));
    stats_.eval_seconds = eval_seconds;
  } else {
    // Recursive program: full semi-naive evaluation, no DRed. Stratum
    // nodes join BuildGraph's task graph (which also sets eval_seconds
    // from their measured node times).
    use_incremental_ = false;
    incremental_.reset();
    DD_RETURN_IF_ERROR(BuildGraph(&strat));
  }
  // The initial grounding marks every variable as changed.
  changed_vars_.clear();
  for (uint32_t v = 0; v < var_info_.size(); ++v) changed_vars_.push_back(v);
  return Status::OK();
}

Status Grounder::ApplyDeltas(const std::map<std::string, DeltaSet>& base_deltas) {
  if (!initialized_) return Status::Internal("Grounder not initialized");
  if (!use_incremental_) {
    return Status::Unimplemented(
        "program is recursive; incremental grounding unavailable — use Reground()");
  }
  Stopwatch eval_watch;
  std::map<std::string, DeltaSet> all_deltas;
  {
    DD_TRACE_SPAN("grounding.eval");
    DD_ASSIGN_OR_RETURN(all_deltas, incremental_->ApplyDeltas(base_deltas));
  }
  double eval_seconds = eval_watch.Seconds();
  DD_RETURN_IF_ERROR(BuildGraph(nullptr));
  stats_.eval_seconds = eval_seconds;
  return CollectChangedVars(all_deltas);
}

Status Grounder::Reground() {
  if (!initialized_) return Status::Internal("Grounder not initialized");
  DD_RETURN_IF_ERROR(ClearDerivedTables());
  if (use_incremental_) {
    Stopwatch eval_watch;
    {
      DD_TRACE_SPAN("grounding.eval");
      incremental_ = std::make_unique<IncrementalEngine>(catalog_, rewritten_rules_,
                                                         Parallelism());
      DD_RETURN_IF_ERROR(incremental_->Initialize());
    }
    double eval_seconds = eval_watch.Seconds();
    DD_RETURN_IF_ERROR(BuildGraph(nullptr));
    stats_.eval_seconds = eval_seconds;
  } else {
    DD_ASSIGN_OR_RETURN(Stratification strat, Stratify(rewritten_rules_));
    DD_RETURN_IF_ERROR(BuildGraph(&strat));
  }
  changed_vars_.clear();
  for (uint32_t v = 0; v < var_info_.size(); ++v) changed_vars_.push_back(v);
  return Status::OK();
}

Status Grounder::BuildGraph(const Stratification* eval_strat) {
  stats_ = GroundingStats();
  // Resolve parallelism (creating the owned pool if needed) before any
  // node can run — see the note in Parallelism().
  const EvalParallelism par = Parallelism();

  TaskGraph tg;
  tg.set_trace_root(TraceSpan::CurrentPath());

  // Recursive programs evaluate their strata inside this same graph, so
  // factor drafting for stratum k's pseudo-relations overlaps with the
  // evaluation of strata it does not depend on. The engine and strat
  // must outlive tg.Run() — both live on this frame / in the caller.
  DatalogEngine engine(catalog_, par);
  std::vector<TaskGraph::NodeId> stratum_nodes;
  std::map<std::string, TaskGraph::NodeId> producer;  // derived rel -> eval node
  if (eval_strat != nullptr) {
    DD_RETURN_IF_ERROR(
        engine.Schedule(rewritten_rules_, *eval_strat, &tg, &stratum_nodes));
    for (size_t s = 0; s < eval_strat->strata.size(); ++s) {
      for (const std::string& rel : eval_strat->strata[s]) {
        producer[rel] = stratum_nodes[s];
      }
    }
  }

  // Shared node state lives on this stack frame; tg.Run() is synchronous,
  // so it outlives every node. Each draft node writes only its own slot.
  std::vector<int8_t> evidence;   // -1 none, 0/1 label
  std::vector<uint8_t> conflict;
  size_t orphans = 0;
  std::vector<std::vector<std::vector<FactorDraft>>> drafts(factor_rule_meta_.size());

  // Registry extension must see final query tables; evidence and draft
  // scans read the registry (and query tables transitively through it).
  const TaskGraph::NodeId reg =
      tg.AddNode("build.registry", [this]() { return ExtendVarRegistry(); });
  for (const RelationDecl& decl : program_->declarations) {
    if (!decl.is_query) continue;
    auto it = producer.find(decl.name);
    if (it != producer.end()) tg.AddEdge(it->second, reg);
  }

  const TaskGraph::NodeId ev =
      tg.AddNode("build.evidence", [this, &evidence, &conflict, &orphans]() {
        evidence.assign(var_info_.size(), -1);
        conflict.assign(var_info_.size(), 0);
        return ApplyEvidence(&evidence, &conflict, &orphans);
      });
  tg.AddEdge(reg, ev);

  std::vector<TaskGraph::NodeId> draft_nodes;
  for (size_t i = 0; i < factor_rule_meta_.size(); ++i) {
    const TaskGraph::NodeId node = tg.AddNode(
        "build.factors." + factor_rule_meta_[i].pseudo_relation,
        [this, &m = factor_rule_meta_[i], out = &drafts[i]]() {
          return BuildFactorDrafts(m, out);
        });
    tg.AddEdge(reg, node);
    auto it = producer.find(factor_rule_meta_[i].pseudo_relation);
    if (it != producer.end()) tg.AddEdge(it->second, node);
    draft_nodes.push_back(node);
  }

  const TaskGraph::NodeId assemble = tg.AddNode(
      "build.assemble",
      [this, &evidence, &conflict, &orphans, &drafts](TraceSpan* span) {
        return AssembleGraph(evidence, conflict, orphans, &drafts, span);
      });
  tg.AddEdge(ev, assemble);
  for (TaskGraph::NodeId n : draft_nodes) tg.AddEdge(n, assemble);

  DD_RETURN_IF_ERROR(tg.Run(par.pool));

  // Attribute time per node so eval-vs-build stays exact even when the
  // schedule interleaves them.
  stats_.eval_seconds = 0;
  for (TaskGraph::NodeId n : stratum_nodes) stats_.eval_seconds += tg.NodeSeconds(n);
  stats_.build_seconds =
      tg.NodeSeconds(reg) + tg.NodeSeconds(ev) + tg.NodeSeconds(assemble);
  for (TaskGraph::NodeId n : draft_nodes) stats_.build_seconds += tg.NodeSeconds(n);

  // Per-pass grounding throughput: tuples (live query variables) and
  // factors this (re-)grounding produced.
  size_t tuples_grounded = 0;
  for (const VarInfo& info : var_info_) {
    if (info.live) ++tuples_grounded;
  }
  DD_COUNTER_ADD("dd.grounding.tuples_grounded", tuples_grounded);
  DD_COUNTER_ADD("dd.grounding.factors_emitted", graph_.num_factors());
  return Status::OK();
}

Status Grounder::ExtendVarRegistry() {
  // Extend the variable registry with new live query tuples; mark
  // registry entries for vanished tuples as dead. Declaration order and
  // row order make the id assignment deterministic.
  for (const RelationDecl& decl : program_->declarations) {
    if (!decl.is_query) continue;
    DD_ASSIGN_OR_RETURN(const Table* table, catalog_->GetTable(decl.name));
    const size_t cap = table->capacity();
    for (size_t row = 0; row < cap; ++row) {
      int64_t row_id = static_cast<int64_t>(row);
      auto key = std::make_pair(decl.name, row_id);
      auto it = var_registry_.find(key);
      if (table->is_live(row_id)) {
        if (it == var_registry_.end()) {
          uint32_t var = static_cast<uint32_t>(var_info_.size());
          var_registry_.emplace(key, var);
          var_info_.push_back(VarInfo{decl.name, row_id, true});
        } else {
          var_info_[it->second].live = true;
        }
      } else if (it != var_registry_.end()) {
        var_info_[it->second].live = false;
      }
    }
  }
  return Status::OK();
}

Status Grounder::ApplyEvidence(std::vector<int8_t>* evidence,
                               std::vector<uint8_t>* conflict, size_t* orphans) {
  const EvalParallelism par = Parallelism();
  const size_t morsel_size = par.MorselSizeFor(kEvidenceScanCost);
  for (const RelationDecl& decl : program_->declarations) {
    if (!decl.is_query) continue;
    std::string ev_name = decl.name + "_Ev";
    if (!catalog_->HasTable(ev_name)) continue;
    DD_ASSIGN_OR_RETURN(const Table* ev_table, catalog_->GetTable(ev_name));
    DD_ASSIGN_OR_RETURN(const Table* q_table, catalog_->GetTable(decl.name));
    const size_t n = decl.schema.num_columns();
    const size_t cap = ev_table->capacity();

    // Each morsel records its (var, label) hits in row order plus an
    // orphan count. The first-label-wins / conflict logic is order-
    // sensitive, so it runs only in the ordered merge below — which
    // replays the exact serial row order, making the result identical to
    // the single-threaded scan at any thread count.
    struct EvMorsel {
      std::vector<std::pair<uint32_t, int8_t>> hits;
      size_t orphans = 0;
    };
    std::vector<EvMorsel> morsels(NumMorsels(cap, morsel_size));
    DD_RETURN_IF_ERROR(ParallelMorsels(
        par.pool, cap, morsel_size,
        [&](size_t m, size_t begin, size_t end) -> Status {
          Stopwatch watch;
          EvMorsel& out = morsels[m];
          for (size_t row = begin; row < end; ++row) {
            if (!ev_table->is_live(static_cast<int64_t>(row))) continue;
            // Zero-copy read of the frozen column arrays.
            RowRef ev = ev_table->ref(static_cast<int64_t>(row));
            if (ev.size() != n + 1 || ev.at(n).type() != ValueType::kBool) continue;
            Tuple target;
            for (size_t i = 0; i < n; ++i) target.Append(ev.at(i));
            int64_t q_row = q_table->Find(target);
            if (q_row < 0) {
              ++out.orphans;
              continue;
            }
            auto it = var_registry_.find(std::make_pair(decl.name, q_row));
            if (it == var_registry_.end()) continue;
            out.hits.emplace_back(it->second,
                                  static_cast<int8_t>(ev.at(n).AsBool() ? 1 : 0));
          }
          DD_HISTOGRAM_OBSERVE("dd.grounding.morsel_seconds", watch.Seconds());
          return Status::OK();
        }));
    for (const EvMorsel& m : morsels) {
      *orphans += m.orphans;
      for (const auto& [var, label] : m.hits) {
        if ((*evidence)[var] >= 0 && (*evidence)[var] != label) {
          (*conflict)[var] = 1;
        } else {
          (*evidence)[var] = label;
        }
      }
    }
  }
  return Status::OK();
}

Status Grounder::BuildFactorDrafts(const FactorRuleMeta& meta,
                                   std::vector<std::vector<FactorDraft>>* drafts) {
  const EvalParallelism par = Parallelism();
  const DdlogRule& rule = program_->rules[meta.rule_index];
  DD_ASSIGN_OR_RETURN(const Table* pseudo, catalog_->GetTable(meta.pseudo_relation));
  DD_ASSIGN_OR_RETURN(const Table* head_table,
                      catalog_->GetTable(meta.head_relation));
  const Table* implied_table = nullptr;
  if (meta.is_correlation) {
    DD_ASSIGN_OR_RETURN(implied_table, catalog_->GetTable(meta.implied_relation));
  }
  const size_t cap = pseudo->capacity();
  const bool has_udf_weight = rule.weight.has_value() &&
                              rule.weight->kind == WeightSpec::Kind::kUdf;
  const size_t morsel_size =
      par.MorselSizeFor(has_udf_weight ? kFactorDraftUdfCost : kFactorDraftCost);

  // Workers resolve variables and compute weight tying keys (including
  // UDF calls — the expensive part) into per-morsel draft buffers; the
  // ordered merge in AssembleGraph then assigns weight ids and emits
  // factors in the exact serial row order, so weight ids, factor ids,
  // and the CSR the graph compiles from are byte-identical at any
  // thread count.
  drafts->clear();
  drafts->resize(NumMorsels(cap, morsel_size));
  return ParallelMorsels(
      par.pool, cap, morsel_size,
      [&](size_t m, size_t begin, size_t end) -> Status {
        Stopwatch watch;
        std::vector<FactorDraft>& out = (*drafts)[m];
        for (size_t row = begin; row < end; ++row) {
          if (!pseudo->is_live(static_cast<int64_t>(row))) continue;
          // Zero-copy read of the frozen column arrays.
          RowRef grounding = pseudo->ref(static_cast<int64_t>(row));

          // Resolve the head variable. Lookups use find() rather than
          // at(): a miss is an internal invariant violation, and worker
          // code must report it as a Status, never throw.
          Tuple head_tuple;
          for (size_t i = 0; i < meta.head_arity; ++i) {
            head_tuple.Append(grounding.at(i));
          }
          int64_t head_row = head_table->Find(head_tuple);
          if (head_row < 0) continue;  // candidate vanished: factor is moot
          auto head_it =
              var_registry_.find(std::make_pair(meta.head_relation, head_row));
          if (head_it == var_registry_.end()) {
            return Status::Internal("factor head missing from variable registry: " +
                                    meta.head_relation);
          }
          FactorDraft draft;
          draft.head_var = head_it->second;

          if (meta.is_correlation) {
            Tuple implied_tuple;
            for (size_t i = 0; i < meta.implied_arity; ++i) {
              implied_tuple.Append(grounding.at(meta.head_arity + i));
            }
            int64_t implied_row = implied_table->Find(implied_tuple);
            if (implied_row < 0) continue;
            auto imp_it = var_registry_.find(
                std::make_pair(meta.implied_relation, implied_row));
            if (imp_it == var_registry_.end()) {
              return Status::Internal(
                  "implied head missing from variable registry: " +
                  meta.implied_relation);
            }
            draft.implied_var = imp_it->second;
          }

          // Weight tying key.
          if (!rule.weight.has_value()) {
            draft.key = StrFormat("rule%zu", meta.rule_index);
          } else {
            switch (rule.weight->kind) {
              case WeightSpec::Kind::kFixed:
                draft.key = StrFormat("rule%zu:fixed", meta.rule_index);
                draft.init = rule.weight->fixed_value;
                draft.fixed = true;
                break;
              case WeightSpec::Kind::kLearnable:
                draft.key = StrFormat("rule%zu", meta.rule_index);
                break;
              case WeightSpec::Kind::kUdf: {
                std::vector<Value> args;
                for (size_t a = 0; a < meta.num_weight_args; ++a) {
                  args.push_back(grounding.at(meta.weight_args_begin + a));
                }
                DD_ASSIGN_OR_RETURN(Value feature,
                                    udfs_->Call(rule.weight->udf_name, args));
                draft.key = StrFormat("rule%zu:%s=%s", meta.rule_index,
                                      rule.weight->udf_name.c_str(),
                                      feature.ToString().c_str());
                break;
              }
              case WeightSpec::Kind::kVariables: {
                draft.key = StrFormat("rule%zu:", meta.rule_index);
                for (size_t a = 0; a < meta.num_weight_args; ++a) {
                  if (a > 0) draft.key += '|';
                  draft.key += grounding.at(meta.weight_args_begin + a).ToString();
                }
                break;
              }
            }
          }
          out.push_back(std::move(draft));
        }
        DD_HISTOGRAM_OBSERVE("dd.grounding.morsel_seconds", watch.Seconds());
        return Status::OK();
      });
}

Status Grounder::AssembleGraph(
    const std::vector<int8_t>& evidence, const std::vector<uint8_t>& conflict,
    size_t orphans, std::vector<std::vector<std::vector<FactorDraft>>>* drafts,
    TraceSpan* span) {
  graph_ = FactorGraph();
  weight_keys_.clear();
  holdout_.clear();
  stats_.num_orphan_evidence = orphans;

  auto held_out = [&](size_t v) {
    if (options_.holdout_fraction <= 0.0) return false;
    // Deterministic per-tuple coin so membership survives rebuilds.
    const VarInfo& info = var_info_[v];
    auto table = catalog_->GetTable(info.relation);
    if (!table.ok()) return false;
    uint64_t h = HashCombine((*table)->RowHash(info.row_id),
                             options_.holdout_seed);
    return (h % 10000) < static_cast<uint64_t>(options_.holdout_fraction * 10000);
  };

  for (size_t v = 0; v < var_info_.size(); ++v) {
    if (!var_info_[v].live) {
      // Inert placeholder: clamped false, never touched by factors.
      graph_.AddVariable(true, false);
      continue;
    }
    if (conflict[v]) {
      ++stats_.num_conflicting_labels;
      graph_.AddVariable(false, false);  // conflicting labels -> unlabeled
      continue;
    }
    if (evidence[v] >= 0) {
      if (held_out(v)) {
        ++stats_.num_holdout;
        holdout_.emplace_back(static_cast<uint32_t>(v), evidence[v] == 1);
        graph_.AddVariable(false, false);  // labeled but not clamped
      } else {
        ++stats_.num_evidence;
        graph_.AddVariable(true, evidence[v] == 1);
      }
    } else {
      graph_.AddVariable(false, false);
    }
  }

  // Ordered merge of the factor drafts in (rule, morsel, row) order —
  // the exact serial emission sequence, so weight and factor ids are
  // byte-identical to the single-threaded build.
  std::map<std::string, uint32_t> weight_ids;
  auto weight_id_for = [&](const std::string& key, double init,
                           bool fixed) -> uint32_t {
    auto it = weight_ids.find(key);
    if (it != weight_ids.end()) return it->second;
    double value = init;
    if (!fixed) {
      auto saved = saved_weights_.find(key);
      if (saved != saved_weights_.end()) value = saved->second;
    }
    uint32_t id = graph_.AddWeight(value, fixed, key);
    weight_ids.emplace(key, id);
    weight_keys_.push_back(key);
    return id;
  };
  for (size_t i = 0; i < factor_rule_meta_.size(); ++i) {
    const FactorRuleMeta& meta = factor_rule_meta_[i];
    for (const auto& morsel : (*drafts)[i]) {
      for (const FactorDraft& draft : morsel) {
        uint32_t weight = weight_id_for(draft.key, draft.init, draft.fixed);
        if (meta.is_correlation) {
          DD_RETURN_IF_ERROR(graph_.AddFactor(
              FactorFunc::kImply, weight,
              {{draft.head_var, true}, {draft.implied_var, true}}));
        } else {
          DD_RETURN_IF_ERROR(graph_.AddFactor(FactorFunc::kIsTrue, weight,
                                              {{draft.head_var, true}}));
        }
      }
    }
  }

  DD_RETURN_IF_ERROR(graph_.Finalize());
  weight_observations_.assign(graph_.num_weights(), 0);
  for (uint32_t f = 0; f < graph_.num_factors(); ++f) {
    weight_observations_[graph_.factor_weight(f)]++;
  }
  stats_.num_variables = graph_.num_variables();
  stats_.num_factors = graph_.num_factors();
  stats_.num_weights = graph_.num_weights();
  if (span != nullptr) {
    size_t tuples_grounded = 0;
    for (const VarInfo& info : var_info_) {
      if (info.live) ++tuples_grounded;
    }
    span->Attr("tuples_grounded", static_cast<double>(tuples_grounded));
    span->Attr("factors_emitted", static_cast<double>(graph_.num_factors()));
    span->Attr("num_threads", static_cast<double>(num_threads_));
  }
  return Status::OK();
}

Status Grounder::CollectChangedVars(const std::map<std::string, DeltaSet>& deltas) {
  std::unordered_set<uint32_t> changed;
  auto add_var_for = [&](const std::string& relation, const Tuple& tuple,
                         size_t arity_limit) {
    // Look up by the tuple prefix of the query relation's arity.
    auto table = catalog_->GetTable(relation);
    if (!table.ok()) return;
    Tuple prefix;
    for (size_t i = 0; i < arity_limit && i < tuple.size(); ++i) {
      prefix.Append(tuple.at(i));
    }
    // Deleted tuples keep their (tombstoned) row id, so their now-inert
    // variable is still reported as changed.
    int64_t row = (*table)->FindIncludingDeleted(prefix);
    if (row < 0) return;
    auto it = var_registry_.find(std::make_pair(relation, row));
    if (it != var_registry_.end()) changed.insert(it->second);
  };

  for (const auto& [relation, delta] : deltas) {
    // Query relation deltas: tuples appearing/disappearing.
    const RelationDecl* decl = program_->FindDecl(relation);
    if (decl != nullptr && decl->is_query) {
      for (const auto& [tuple, count] : delta) {
        (void)count;
        add_var_for(relation, tuple, decl->schema.num_columns());
      }
      continue;
    }
    // Evidence deltas.
    if (decl != nullptr && EndsWith(relation, "_Ev")) {
      std::string target = relation.substr(0, relation.size() - 3);
      const RelationDecl* target_decl = program_->FindDecl(target);
      if (target_decl != nullptr) {
        for (const auto& [tuple, count] : delta) {
          (void)count;
          add_var_for(target, tuple, target_decl->schema.num_columns());
        }
      }
      continue;
    }
    // Pseudo factor-table deltas: head (and implied head) variables.
    for (const FactorRuleMeta& meta : factor_rule_meta_) {
      if (relation != meta.pseudo_relation) continue;
      for (const auto& [tuple, count] : delta) {
        (void)count;
        add_var_for(meta.head_relation, tuple, meta.head_arity);
        if (meta.is_correlation) {
          Tuple implied;
          for (size_t i = 0; i < meta.implied_arity && meta.head_arity + i < tuple.size();
               ++i) {
            implied.Append(tuple.at(meta.head_arity + i));
          }
          int64_t row = -1;
          auto table = catalog_->GetTable(meta.implied_relation);
          if (table.ok()) row = (*table)->Find(implied);
          if (row >= 0) {
            auto it = var_registry_.find(std::make_pair(meta.implied_relation, row));
            if (it != var_registry_.end()) changed.insert(it->second);
          }
        }
      }
    }
  }
  changed_vars_.assign(changed.begin(), changed.end());
  std::sort(changed_vars_.begin(), changed_vars_.end());
  return Status::OK();
}

int64_t Grounder::VarIdFor(const std::string& relation, const Tuple& tuple) const {
  auto table = catalog_->GetTable(relation);
  if (!table.ok()) return -1;
  int64_t row = (*table)->Find(tuple);
  if (row < 0) return -1;
  auto it = var_registry_.find(std::make_pair(relation, row));
  return it == var_registry_.end() ? -1 : static_cast<int64_t>(it->second);
}

void Grounder::SaveWeights() {
  for (uint32_t w = 0; w < graph_.num_weights(); ++w) {
    if (graph_.weight(w).is_fixed) continue;
    saved_weights_[weight_keys_[w]] = graph_.weight_value(w);
  }
}

const std::string& Grounder::WeightKey(uint32_t weight_id) const {
  return weight_keys_[weight_id];
}

}  // namespace dd
