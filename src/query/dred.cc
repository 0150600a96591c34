#include "query/dred.h"

#include <algorithm>
#include <memory>

#include "query/datalog.h"
#include "query/evaluator.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/parallel.h"

namespace dd {

namespace {

/// Positive atoms in the given order, then the negated ones: the order
/// every plan here fixes (a negated atom must be fully bound when
/// reached, and the DRed telescoping identity needs one fixed order).
std::vector<const Atom*> PositiveFirst(const std::vector<const Atom*>& atoms) {
  std::vector<const Atom*> out;
  for (const Atom* a : atoms) {
    if (!a->negated) out.push_back(a);
  }
  for (const Atom* a : atoms) {
    if (a->negated) out.push_back(a);
  }
  return out;
}

std::vector<const Atom*> Pointers(const std::vector<Atom>& atoms) {
  std::vector<const Atom*> out;
  for (const Atom& a : atoms) out.push_back(&a);
  return out;
}

/// Length of the shortest prefix of `body` after which every remaining
/// atom is fully bound by the prefix's positive atoms: the part of a rule
/// that enumerates bindings. The rest only filters them.
size_t CoreLength(const std::vector<Atom>& body) {
  std::set<std::string> bound;
  for (size_t len = 1; len <= body.size(); ++len) {
    if (!body[len - 1].negated) {
      for (const Term& t : body[len - 1].terms) {
        if (t.is_var()) bound.insert(t.var);
      }
    }
    bool rest_bound = true;
    for (size_t i = len; i < body.size() && rest_bound; ++i) {
      for (const Term& t : body[i].terms) {
        if (t.is_var() && bound.count(t.var) == 0) rest_bound = false;
      }
    }
    if (rest_bound) return len;
  }
  return body.size();
}

/// `rule` with its variables renamed _0, _1, ... in order of first
/// occurrence, body first: bodies equal up to a variable renaming become
/// equal, and the rest of each rule uses the shared names.
ConjunctiveRule Canonical(const ConjunctiveRule& rule) {
  std::map<std::string, std::string> names;
  auto rename = [&](Term& t) {
    if (!t.is_var()) return;
    t.var = names.try_emplace(t.var, "_" + std::to_string(names.size())).first->second;
  };
  ConjunctiveRule out = rule;
  for (Atom& a : out.body) {
    for (Term& t : a.terms) rename(t);
  }
  for (Term& t : out.head.terms) rename(t);
  for (Condition& c : out.conditions) {
    rename(c.lhs);
    rename(c.rhs);
  }
  return out;
}

bool SameTerm(const Term& a, const Term& b) {
  if (a.is_var() != b.is_var()) return false;
  return a.is_var() ? a.var == b.var : a.constant == b.constant;
}

bool SameAtom(const Atom& a, const Atom& b) {
  return a.relation == b.relation && a.negated == b.negated &&
         std::equal(a.terms.begin(), a.terms.end(), b.terms.begin(), b.terms.end(),
                    SameTerm);
}

bool SameCondition(const Condition& a, const Condition& b) {
  return a.op == b.op && SameTerm(a.lhs, b.lhs) && SameTerm(a.rhs, b.rhs);
}

/// Terms resolved against a value vector: a position per variable, the
/// constant itself otherwise.
class Projector {
 public:
  template <typename PositionOf>
  Projector(const std::vector<Term>& terms, PositionOf position_of) {
    for (const Term& t : terms) {
      positions_.push_back(t.is_var() ? position_of(t.var) : -1);
      constants_.push_back(t.is_var() ? Value() : t.constant);
    }
  }

  const Value& Get(const std::vector<Value>& values, size_t k) const {
    return positions_[k] < 0 ? constants_[k] : values[static_cast<size_t>(positions_[k])];
  }

  Tuple Project(const std::vector<Value>& values) const {
    std::vector<Value> out;
    out.reserve(positions_.size());
    for (size_t k = 0; k < positions_.size(); ++k) out.push_back(Get(values, k));
    return Tuple(std::move(out));
  }

 private:
  std::vector<int> positions_;
  std::vector<Value> constants_;
};

}  // namespace

/// (tuple, multiplicity) pairs in the order they were first added. With
/// `fold`, adding a tuple already present sums into its entry — the
/// first occurrence keeps its place, and a sum of 0 stays an entry so
/// every head it yields is still inserted, in the same order, into the
/// count maps the fan-out writes.
class IncrementalEngine::Tally {
 public:
  explicit Tally(bool fold) : fold_(fold) {}

  void Add(Tuple&& tuple, int64_t mult) {
    if (fold_) {
      auto [it, inserted] = index_.try_emplace(tuple, entries_.size());
      if (!inserted) {
        entries_[it->second].second += mult;
        return;
      }
    }
    entries_.emplace_back(std::move(tuple), mult);
  }

  std::vector<std::pair<Tuple, int64_t>>& entries() { return entries_; }
  const std::vector<std::pair<Tuple, int64_t>>& entries() const { return entries_; }

 private:
  bool fold_;
  std::unordered_map<Tuple, size_t, TupleHash> index_;
  std::vector<std::pair<Tuple, int64_t>> entries_;
};

/// One evaluation of the program — Initialize(), or one ApplyDeltas()
/// batch (`pending` non-null) — and the state its relations share.
struct IncrementalEngine::Round {
  Round(const std::vector<BodyGroup>& groups,
        const std::map<std::string, DeltaSet>* pending_deltas)
      : pending(pending_deltas), folded(groups.size()) {
    for (const BodyGroup& group : groups) members_left.push_back(group.num_members);
  }

  const std::map<std::string, DeltaSet>* pending;
  JoinIndexCache index_cache;
  /// Per group, its folded bindings (one Tally per shared pass), made
  /// when its first member comes up and dropped after its last.
  std::vector<std::vector<Tally>> folded;
  std::vector<size_t> members_left;
};

void IncrementalEngine::GroupRules() {
  groups_.clear();
  members_.assign(rules_.size(), Member());
  std::vector<ConjunctiveRule> canon;
  for (const ConjunctiveRule& rule : rules_) canon.push_back(Canonical(rule));
  // Candidate groups: rules with equal cores, in rule order.
  std::vector<std::vector<size_t>> candidates;
  std::vector<size_t> core(rules_.size());
  for (size_t rid = 0; rid < rules_.size(); ++rid) {
    const std::vector<Atom>& body = canon[rid].body;
    core[rid] = CoreLength(body);
    auto same_core = [&](const std::vector<size_t>& cand) {
      const std::vector<Atom>& other = canon[cand.front()].body;
      return core[cand.front()] == core[rid] &&
             std::equal(body.begin(), body.begin() + core[rid], other.begin(), SameAtom);
    };
    auto it = std::find_if(candidates.begin(), candidates.end(), same_core);
    if (it != candidates.end()) {
      it->push_back(rid);
    } else {
      candidates.push_back({rid});
    }
  }

  for (const std::vector<size_t>& cand : candidates) {
    const std::vector<Atom>& leader = canon[cand.front()].body;
    BodyGroup group;
    group.body.assign(leader.begin(), leader.begin() + core[cand.front()]);
    group.num_members = cand.size();
    std::vector<Member> members;
    for (size_t rid : cand) {
      const ConjunctiveRule& rule = canon[rid];
      members.push_back(Member{groups_.size(), rule.head,
                               {rule.body.begin() + core[rid], rule.body.end()},
                               rule.conditions});
    }
    // Conditions every member has are checked in the join. (The loop
    // reads a copy: it removes them from every member, the first too.)
    for (const Condition& c : std::vector<Condition>(members.front().conditions)) {
      auto has_c = [&](const Condition& o) { return SameCondition(o, c); };
      if (!std::all_of(members.begin(), members.end(), [&](const Member& m) {
            return std::any_of(m.conditions.begin(), m.conditions.end(), has_c);
          })) {
        continue;
      }
      group.conditions.push_back(c);
      for (Member& m : members) {
        m.conditions.erase(std::find_if(m.conditions.begin(), m.conditions.end(), has_c));
      }
    }
    // The fold key: every variable a member reads past the join.
    std::set<std::string> key_vars, body_vars;
    auto read = [&](const Term& t) {
      if (t.is_var() && key_vars.insert(t.var).second) group.key.push_back(t);
    };
    for (const Member& m : members) {
      for (const Term& t : m.head.terms) read(t);
      for (const Atom& a : m.probes) {
        for (const Term& t : a.terms) read(t);
      }
      for (const Condition& c : m.conditions) {
        read(c.lhs);
        read(c.rhs);
      }
    }
    for (const Atom& a : group.body) {
      for (const Term& t : a.terms) {
        if (t.is_var()) body_vars.insert(t.var);
      }
    }
    // A key covering the whole body folds nothing, and buffering every
    // binding would only cost memory: such rules stay on their own.
    if (cand.size() == 1 || key_vars.size() == body_vars.size()) {
      for (size_t rid : cand) {
        members_[rid] = Member{groups_.size(), canon[rid].head, {}, {}};
        groups_.push_back(BodyGroup{canon[rid].body, canon[rid].conditions, {}, 1});
      }
      continue;
    }
    for (size_t m = 0; m < cand.size(); ++m) members_[cand[m]] = std::move(members[m]);
    groups_.push_back(std::move(group));
  }
}

Status IncrementalEngine::Initialize() {
  for (const ConjunctiveRule& rule : rules_) DD_RETURN_IF_ERROR(rule.Validate());
  DD_ASSIGN_OR_RETURN(Stratification strat, Stratify(rules_));
  if (strat.has_recursion) {
    return Status::Unimplemented(
        "IncrementalEngine supports non-recursive programs only; use DatalogEngine");
  }
  topo_order_.clear();
  derived_.clear();
  rules_of_.clear();
  counts_.clear();
  for (const auto& stratum : strat.strata) {
    for (const std::string& rel : stratum) {
      topo_order_.push_back(rel);
      derived_.insert(rel);
    }
  }
  for (size_t i = 0; i < rules_.size(); ++i) {
    rules_of_[rules_[i].head.relation].push_back(i);
  }
  GroupRules();

  // Full evaluation in dependency order, accumulating derivation counts.
  // The round's index cache spans the whole evaluation: a table is
  // indexed only once complete, and complete tables do not change here.
  Round round(groups_, nullptr);
  for (const std::string& rel : topo_order_) {
    DD_ASSIGN_OR_RETURN(Table* table, catalog_->GetTable(rel));
    if (!table->empty()) {
      return Status::InvalidArgument("derived table must start empty: " + rel);
    }
    CountMap& counts = counts_[rel];
    DD_RETURN_IF_ERROR(EvaluateRelation(rel, &round, &counts));
    // Known-size re-materialization: size storage and index up front so
    // the insert loop never rehashes.
    table->Reserve(counts.size());
    for (const auto& [tuple, count] : counts) {
      if (count > 0) {
        DD_RETURN_IF_ERROR(table->CheckTuple(tuple));
        table->InsertUnchecked(tuple);
      }
    }
  }
  initialized_ = true;
  return Status::OK();
}

int64_t IncrementalEngine::DerivationCount(const std::string& relation,
                                           const Tuple& tuple) const {
  auto it = counts_.find(relation);
  if (it == counts_.end()) return 0;
  auto jt = it->second.find(tuple);
  return jt == it->second.end() ? 0 : jt->second;
}

Status IncrementalEngine::EvaluateRelation(const std::string& rel, Round* round,
                                           CountMap* out) {
  const bool delta = round->pending != nullptr;
  uint64_t emitted = 0;
  const Sink add = [&](Tuple&& head, int64_t mult) {
    (*out)[std::move(head)] += mult;
    ++emitted;
  };
  for (size_t rid : rules_of_[rel]) {
    const Member& member = members_[rid];
    const BodyGroup& group = groups_[member.group];
    const std::vector<const Atom*> body = PositiveFirst(Pointers(group.body));
    // The member's passes, in per-rule order: one full join, or one
    // delta expansion per position of its whole body, positive-first.
    std::vector<const Atom*> full = Pointers(group.body);
    for (const Atom& probe : member.probes) full.push_back(&probe);
    full = PositiveFirst(full);
    const size_t passes = delta ? full.size() : 1;
    if (group.key.empty()) {  // a lone rule: full == body
      for (size_t i = 0; i < passes; ++i) {
        DD_RETURN_IF_ERROR(DeltaJoin(body, group.conditions, i, round->pending,
                                     member.head.terms, /*fold=*/false,
                                     &round->index_cache, add));
      }
      continue;
    }
    // The group's join runs when its first member comes up: the shared
    // body reads only relations that precede every member's head, so
    // they are final by then.
    std::vector<Tally>& folded = round->folded[member.group];
    if (folded.empty()) {
      for (size_t j = 0; j < (delta ? body.size() : 1); ++j) {
        folded.emplace_back(/*fold=*/true);
        DD_RETURN_IF_ERROR(DeltaJoin(body, group.conditions, j, round->pending, group.key,
                                     /*fold=*/true, &round->index_cache,
                                     [&](Tuple&& key, int64_t mult) {
                                       folded[j].Add(std::move(key), mult);
                                     }));
      }
    }
    for (size_t i = 0; i < passes; ++i) {
      const size_t shared = std::find(body.begin(), body.end(), full[i]) - body.begin();
      if (shared == body.size()) {
        // A probe's own delta position: no other rule shares it.
        std::vector<Condition> conditions = group.conditions;
        conditions.insert(conditions.end(), member.conditions.begin(),
                          member.conditions.end());
        DD_RETURN_IF_ERROR(DeltaJoin(full, conditions, i, round->pending,
                                     member.head.terms, /*fold=*/false,
                                     &round->index_cache, add));
        continue;
      }
      // Probes placed before the delta position read the new state,
      // those after it the old state.
      std::vector<std::unique_ptr<TupleSource>> sources;
      std::vector<const TupleSource*> probes;
      for (const Atom& probe : member.probes) {
        DD_ASSIGN_OR_RETURN(const Table* table, catalog_->GetTable(probe.relation));
        const DeltaSet* pending = nullptr;
        if (delta && static_cast<size_t>(std::find(full.begin(), full.end(), &probe) -
                                         full.begin()) < i) {
          auto it = round->pending->find(probe.relation);
          if (it != round->pending->end() && !it->second.empty()) pending = &it->second;
        }
        if (pending != nullptr) {
          sources.push_back(std::make_unique<OverlaySource>(table, pending));
        } else {
          sources.push_back(std::make_unique<TableSource>(table));
        }
        probes.push_back(sources.back().get());
      }
      FanOut(member, folded[delta ? shared : 0], probes, out);
    }
    if (--round->members_left[member.group] == 0) folded.clear();
  }
  DD_COUNTER_ADD("dd.query.head_tuples", emitted);
  return Status::OK();
}

Status IncrementalEngine::DeltaJoin(const std::vector<const Atom*>& atoms,
                                    const std::vector<Condition>& conditions,
                                    size_t delta_pos,
                                    const std::map<std::string, DeltaSet>* pending,
                                    const std::vector<Term>& projection, bool fold,
                                    JoinIndexCache* index_cache, const Sink& sink) {
  std::vector<std::unique_ptr<TupleSource>> owned_sources;
  if (pending == nullptr) {
    std::vector<AtomInput> inputs;
    for (const Atom* atom : atoms) {
      DD_ASSIGN_OR_RETURN(const Table* table, catalog_->GetTable(atom->relation));
      owned_sources.push_back(std::make_unique<TableSource>(table));
      inputs.push_back(AtomInput{atom, owned_sources.back().get()});
    }
    return Join(std::move(inputs), conditions, projection, fold, 1, index_cache, sink);
  }

  const Atom* delta_atom = atoms[delta_pos];
  auto pend_it = pending->find(delta_atom->relation);
  if (pend_it == pending->end() || pend_it->second.empty()) return Status::OK();

  // Build (atom, source) pairs in identity order — new state before the
  // delta position, old state after — then *evaluate* with the delta
  // atom first so the join cost is O(|delta| · probes), not O(|R1|).
  // Evaluation order does not affect the result set, only the plan.
  std::vector<AtomInput> identity_inputs;
  for (size_t j = 0; j < atoms.size(); ++j) {
    const Atom* atom = atoms[j];
    DD_ASSIGN_OR_RETURN(const Table* table, catalog_->GetTable(atom->relation));
    std::unique_ptr<TupleSource> src;
    if (j == delta_pos) {
      src = std::make_unique<DeltaSource>(&pend_it->second);
    } else {
      auto it = pending->find(atom->relation);
      const DeltaSet* delta = (it != pending->end() && !it->second.empty())
                                  ? &it->second
                                  : nullptr;
      if (j < delta_pos && delta != nullptr) {
        src = std::make_unique<OverlaySource>(table, delta);  // new state
      } else {
        src = std::make_unique<TableSource>(table);  // old state
      }
    }
    owned_sources.push_back(std::move(src));
    identity_inputs.push_back(AtomInput{atom, owned_sources.back().get()});
  }

  // The delta-position atom participates positively in the scan even if
  // negated in the rule; the sign flip accounts for complement semantics
  // (a tuple entering R leaves !R and vice versa).
  Atom stripped;
  if (delta_atom->negated) {
    stripped = *delta_atom;
    stripped.negated = false;
    identity_inputs[delta_pos].atom = &stripped;
  }

  // Plan order: delta scan first, then remaining positives, negated last
  // (they must be fully bound when reached).
  std::vector<AtomInput> inputs;
  inputs.push_back(identity_inputs[delta_pos]);
  for (size_t j = 0; j < identity_inputs.size(); ++j) {
    if (j == delta_pos || identity_inputs[j].atom->negated) continue;
    inputs.push_back(identity_inputs[j]);
  }
  for (size_t j = 0; j < identity_inputs.size(); ++j) {
    if (j == delta_pos || !identity_inputs[j].atom->negated) continue;
    inputs.push_back(identity_inputs[j]);
  }
  return Join(std::move(inputs), conditions, projection, fold,
              delta_atom->negated ? -1 : 1, index_cache, sink);
}

Status IncrementalEngine::Join(std::vector<AtomInput> plan,
                               const std::vector<Condition>& conditions,
                               const std::vector<Term>& projection, bool fold,
                               int64_t sign, JoinIndexCache* index_cache,
                               const Sink& sink) {
  CompiledConjunction cc;
  DD_RETURN_IF_ERROR(cc.Build(std::move(plan), &conditions, index_cache));
  for (const Term& t : projection) {
    if (t.is_var() && cc.SlotOf(t.var) < 0) {
      return Status::InvalidArgument("head variable not bound: " + t.var);
    }
  }
  const Projector project(projection, [&](const std::string& v) { return cc.SlotOf(v); });

  if (par_.pool != nullptr) {
    // Index building (including JoinIndexCache population) happens here,
    // on the coordinating thread; workers afterwards only probe.
    cc.PrepareIndexes();
    const size_t n = cc.TopLevelSize();
    const size_t morsel_size = par_.MorselSizeFor(cc.EstimatedUnitCost());
    const size_t num_morsels = NumMorsels(n, morsel_size);
    if (num_morsels > 1) {
      std::vector<Tally> morsels(num_morsels, Tally(fold));
      DD_RETURN_IF_ERROR(ParallelMorsels(
          par_.pool, n, morsel_size, [&](size_t m, size_t begin, size_t end) {
            Tally& out = morsels[m];
            cc.RunMorsel(begin, end, [&](const std::vector<Value>& slots, int64_t mult) {
              out.Add(project.Project(slots), sign * mult);
            });
            return Status::OK();
          }));
      // Ordered merge: feeding morsels in order reproduces the serial
      // emission sequence, up to the folding the sink does anyway.
      for (Tally& morsel : morsels) {
        for (auto& [tuple, mult] : morsel.entries()) sink(std::move(tuple), mult);
        morsel = Tally(fold);
      }
      return Status::OK();
    }
  }

  cc.Run([&](const std::vector<Value>& slots, int64_t mult) {
    sink(project.Project(slots), sign * mult);
  });
  return Status::OK();
}

void IncrementalEngine::FanOut(const Member& member, const Tally& bindings,
                               const std::vector<const TupleSource*>& probes,
                               CountMap* out) const {
  const std::vector<Term>& key = groups_[member.group].key;
  auto column = [&](const std::string& v) {
    return static_cast<int>(std::find_if(key.begin(), key.end(),
                                         [&](const Term& t) { return t.var == v; }) -
                            key.begin());
  };
  const Projector head(member.head.terms, column);
  std::vector<Projector> probe_tuples;
  for (const Atom& probe : member.probes) probe_tuples.emplace_back(probe.terms, column);
  std::vector<std::pair<Projector, CmpOp>> conditions;
  for (const Condition& c : member.conditions) {
    conditions.emplace_back(Projector({c.lhs, c.rhs}, column), c.op);
  }
  uint64_t emitted = 0;
  for (const auto& [tuple, mult] : bindings.entries()) {
    const std::vector<Value>& values = tuple.values();
    bool keep = std::all_of(conditions.begin(), conditions.end(), [&](const auto& c) {
      return EvalCondition(c.first.Get(values, 0), c.second, c.first.Get(values, 1));
    });
    int64_t probe_mult = 1;
    for (size_t k = 0; k < probes.size() && keep; ++k) {
      const int64_t count = probes[k]->Count(probe_tuples[k].Project(values));
      if (member.probes[k].negated) {
        keep = count == 0;
      } else {
        keep = count != 0;
        probe_mult *= count;
      }
    }
    if (!keep) continue;
    (*out)[head.Project(values)] += mult * probe_mult;
    ++emitted;
  }
  DD_COUNTER_ADD("dd.query.head_tuples", emitted);
}

Result<std::map<std::string, DeltaSet>> IncrementalEngine::ApplyDeltas(
    const std::map<std::string, DeltaSet>& base_deltas) {
  if (!initialized_) return Status::Internal("IncrementalEngine not initialized");

  // Normalize base deltas against current table state: presence semantics,
  // counts in {-1, +1}, drop no-ops. Reject deltas on derived relations.
  std::map<std::string, DeltaSet> pending;
  for (const auto& [rel, delta] : base_deltas) {
    if (derived_.count(rel) > 0) {
      return Status::InvalidArgument("cannot apply base delta to derived relation: " +
                                     rel);
    }
    DD_ASSIGN_OR_RETURN(Table* table, catalog_->GetTable(rel));
    DeltaSet normalized;
    for (const auto& [tuple, count] : delta) {
      if (count == 0) continue;
      DD_RETURN_IF_ERROR(table->CheckTuple(tuple));
      bool present = table->Contains(tuple);
      if (count > 0 && !present) normalized[tuple] = 1;
      if (count < 0 && present) normalized[tuple] = -1;
    }
    if (!normalized.empty()) pending[rel] = std::move(normalized);
  }
  if (pending.empty()) return pending;

  // Propagate through derived relations in dependency order. Tables still
  // hold the OLD state; "new" views are overlays. The round's index cache
  // is valid for the whole batch because no table mutates until commit;
  // it must be dropped before the commit loop below.
  {
  Round round(groups_, &pending);
  for (const std::string& rel : topo_order_) {
    CountMap dcount;
    DD_RETURN_IF_ERROR(EvaluateRelation(rel, &round, &dcount));
    if (dcount.empty()) continue;
    CountMap& counts = counts_[rel];
    DeltaSet presence;
    for (const auto& [tuple, dc] : dcount) {
      if (dc == 0) continue;
      int64_t before = 0;
      auto it = counts.find(tuple);
      if (it != counts.end()) before = it->second;
      int64_t after = before + dc;
      if (after < 0) {
        return Status::Internal("negative derivation count for " + rel + " tuple " +
                                tuple.ToString());
      }
      if (after == 0) {
        counts.erase(tuple);
      } else {
        counts[tuple] = after;
      }
      if (before == 0 && after > 0) presence[tuple] = 1;
      if (before > 0 && after == 0) presence[tuple] = -1;
    }
    if (!presence.empty()) pending[rel] = std::move(presence);
  }
  }  // round (and its index cache) destroyed: safe to mutate tables below.

  // Commit: apply every presence delta to its table.
  for (const auto& [rel, delta] : pending) {
    DD_ASSIGN_OR_RETURN(Table* table, catalog_->GetTable(rel));
    for (const auto& [tuple, count] : delta) {
      if (count > 0) {
        table->InsertUnchecked(tuple);
      } else if (count < 0) {
        table->Erase(tuple);
      }
    }
  }
  return pending;
}

}  // namespace dd
