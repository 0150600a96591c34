#ifndef DEEPDIVE_QUERY_DRED_H_
#define DEEPDIVE_QUERY_DRED_H_

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "query/evaluator.h"
#include "query/rule.h"
#include "query/source.h"
#include "storage/catalog.h"
#include "util/result.h"
#include "util/status.h"

namespace dd {

/// Incremental view maintenance in the style the paper describes (§4.1):
/// each derived relation R_i carries a delta relation with a `count`
/// column recording the number of derivations of each tuple; on an
/// update, delta rules propagate signed count changes through the
/// program, and a tuple's presence flips when its count crosses zero.
///
/// Rules are evaluated in body groups (DESIGN.md §16): rules whose bodies
/// are equal up to variable renaming — a member may add atoms fully bound
/// by that body, and conditions — share one join, one set of join
/// indexes and one enumeration, in Initialize() and in every delta
/// position of ApplyDeltas(). Bindings are folded onto the variables the
/// members read, in first-occurrence order, and fanned out per rule in
/// rule order, so counts, table row ids and delta iteration order are
/// those of evaluating each rule on its own.
///
/// Supported programs: stratified and non-recursive (DeepDive grounding
/// programs are non-recursive in practice). Recursive programs are
/// rejected at Initialize() with Unimplemented; callers fall back to full
/// re-evaluation via DatalogEngine.
class IncrementalEngine {
 public:
  /// The engine takes ownership of the rule list; `catalog` must outlive
  /// the engine. Derived tables must already exist (empty) in the catalog.
  /// `par` controls morsel-parallel join scans (both the initial full
  /// evaluation and every delta join); derivation counts, table contents,
  /// and — crucially for grounding — derived-table row order are
  /// identical to serial evaluation at any thread count.
  IncrementalEngine(Catalog* catalog, std::vector<ConjunctiveRule> rules,
                    const EvalParallelism& par = EvalParallelism())
      : catalog_(catalog), rules_(std::move(rules)), par_(par) {}

  /// Full evaluation: populate derived tables and derivation counts.
  Status Initialize();

  /// Apply a batch of base-relation presence changes. Positive counts are
  /// insertions, negative deletions; no-op changes (inserting a present
  /// tuple, deleting an absent one) are ignored. On success the catalog —
  /// base and derived tables — reflects the new state, and the returned
  /// map holds the presence delta of every relation that changed
  /// (including the normalized base deltas).
  Result<std::map<std::string, DeltaSet>> ApplyDeltas(
      const std::map<std::string, DeltaSet>& base_deltas);

  /// Number of derivations currently recorded for a derived tuple.
  int64_t DerivationCount(const std::string& relation, const Tuple& tuple) const;

  /// Derived relations in dependency (evaluation) order.
  const std::vector<std::string>& topo_order() const { return topo_order_; }

 private:
  using CountMap = std::unordered_map<Tuple, int64_t, TupleHash>;
  using Sink = std::function<void(Tuple&&, int64_t)>;
  class Tally;
  struct Round;

  /// Rules whose bodies are equal up to variable renaming, with every
  /// variable renamed _0, _1, ... in order of first occurrence. A lone
  /// rule is a group of one: its body is the whole rule body and its
  /// bindings stream straight into counts.
  struct BodyGroup {
    std::vector<Atom> body;
    std::vector<Condition> conditions;  ///< conditions every member has
    /// Variables the members read, in first-occurrence order; bindings
    /// are folded onto them. Empty for a lone rule.
    std::vector<Term> key;
    size_t num_members = 0;
  };
  /// A rule's part outside its group's shared body, in the same
  /// renamed variables.
  struct Member {
    size_t group = 0;
    Atom head;
    std::vector<Atom> probes;           ///< atoms fully bound by the body
    std::vector<Condition> conditions;  ///< conditions the group lacks
  };

  /// Partition rules_ into groups_ and members_.
  void GroupRules();

  /// Add the derivations of every rule deriving `rel` to `out`: their
  /// full evaluation, or their delta expansions when `round` carries
  /// pending deltas.
  Status EvaluateRelation(const std::string& rel, Round* round, CountMap* out);

  /// Delta expansion of the body `atoms` (positive-first order) at
  /// position `delta_pos`: positions before it read the new state, the
  /// delta position scans its pending delta, positions after it read
  /// the old state. With a null `pending`, the plain join over the
  /// tables. Output as Join's.
  Status DeltaJoin(const std::vector<const Atom*>& atoms,
                   const std::vector<Condition>& conditions, size_t delta_pos,
                   const std::map<std::string, DeltaSet>* pending,
                   const std::vector<Term>& projection, bool fold,
                   JoinIndexCache* index_cache, const Sink& sink);

  /// Evaluate the conjunction `plan` (atoms in plan order) and hand each
  /// binding, projected onto `projection`, with its multiplicity times
  /// `sign` to `sink` — in serial emission order at any thread count.
  /// `fold` lets each morsel sum equal projections first (the first
  /// occurrence keeps its place); use it when the sink sums them anyway.
  Status Join(std::vector<AtomInput> plan, const std::vector<Condition>& conditions,
              const std::vector<Term>& projection, bool fold, int64_t sign,
              JoinIndexCache* index_cache, const Sink& sink);

  /// Add one member's head tuples for its group's folded `bindings` to
  /// `out`, in binding order; `probes[k]` is the view member.probes[k]
  /// reads.
  void FanOut(const Member& member, const Tally& bindings,
              const std::vector<const TupleSource*>& probes, CountMap* out) const;

  Catalog* catalog_;
  std::vector<ConjunctiveRule> rules_;
  EvalParallelism par_;
  std::vector<BodyGroup> groups_;
  std::vector<Member> members_;  // by rule id
  std::vector<std::string> topo_order_;
  std::set<std::string> derived_;
  std::map<std::string, std::vector<size_t>> rules_of_;  // head relation -> rule ids
  std::map<std::string, CountMap> counts_;
  bool initialized_ = false;
};

}  // namespace dd

#endif  // DEEPDIVE_QUERY_DRED_H_
