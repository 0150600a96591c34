#ifndef DEEPDIVE_INFERENCE_INCREMENTAL_H_
#define DEEPDIVE_INFERENCE_INCREMENTAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "factor/graph.h"
#include "factor/io.h"
#include "util/result.h"

namespace dd {

class GibbsSampler;
class ThreadPool;
class TraceSpan;

/// The two approximate-inference materialization strategies of §4.2.
enum class MaterializationStrategy {
  kSampling,    ///< store sampled worlds + marginal tallies; update by
                ///< Metropolis–Hastings over the worlds (MCDB-style)
  kVariational, ///< store mean-field marginals (graphical-model relaxation)
};

const char* StrategyName(MaterializationStrategy strategy);

struct IncrementalOptions {
  // Sampling strategy knobs.
  int full_burn_in = 300;     ///< burn-in for the initial materialization
  int update_burn_in = 30;    ///< burn-in of the warm-start fallback
  int num_samples = 1000;     ///< counted sweeps; also the stored world count
  // Variational strategy knobs.
  int mf_max_iterations = 200;
  double mf_tolerance = 1e-4;
  double mf_damping = 0.2;
  uint64_t seed = 7;
  /// When false, evidence variables are sampled like query variables —
  /// the mode DeepDive uses after training so that labeled candidates
  /// also receive calibrated probabilities (Fig. 5's train histogram).
  bool clamp_evidence = true;
  /// Durability: when non-empty, Materialize() writes its state
  /// (sampling: chain, tallies, stored worlds, RNG, sweep counter;
  /// variational: final marginals) to this file every
  /// `checkpoint_interval` sweeps plus at completion, and resumes from an
  /// existing checkpoint — a run killed mid-sampling continues to
  /// bit-identical marginals and worlds.
  std::string checkpoint_path;
  int checkpoint_interval = 100;
  /// Optional pool (not owned): the wide Gibbs levels of Materialize()
  /// and of the warm-start fallback fan out over a team resident on it
  /// for that one call. Marginals, worlds and checkpoints are the same
  /// bits without it.
  ThreadPool* pool = nullptr;
};

/// Incremental maintenance of inference results. Materialize() runs full
/// inference on the current graph and stores reusable state; Update()
/// moves to a *new version* of the graph (produced by incremental
/// grounding) given the set of variables whose factor neighborhood
/// changed, reusing the materialized state so the work is far below a
/// from-scratch run.
///
/// Sampling strategy (DESIGN.md §17): Materialize() keeps its
/// post-burn-in worlds, bit-packed, and a copy of the graph it sampled
/// (the reference). Update() runs an independent Metropolis–Hastings
/// chain over those worlds: each is extended by drawing the new
/// variables from their conditionals and accepted on the factors that
/// differ from the reference, which must all touch a variable reported
/// as changed since materialization. An evidence change under
/// clamp_evidence, a delta whose work would exceed a warm start's, or a
/// low acceptance rate falls back to warm-start Gibbs, which also
/// re-materializes the worlds and the reference.
class IncrementalInference {
 public:
  IncrementalInference(const FactorGraph* graph, MaterializationStrategy strategy,
                       const IncrementalOptions& options);
  ~IncrementalInference();

  /// Weight-oblivious warm-up that a scheduler may overlap with weight
  /// learning on the same graph: reserves result buffers and prefetches
  /// the materialization checkpoint (if any) from disk. Reads no weight
  /// values and writes nothing, so running it while the learner mutates
  /// weights is race-free; Materialize() afterwards produces the same
  /// bytes as without the warm-up.
  Status Prewarm();

  /// Full inference + state materialization on the current graph.
  Status Materialize();

  /// Switch to `new_graph` (a superset/modification of the old one whose
  /// unchanged variable ids keep their meaning); `changed_vars` lists
  /// ids whose adjacent factors or evidence changed, including brand-new
  /// ids. Every factor of `new_graph` that is not a factor of the graph
  /// last materialized must touch one of them. Returns fresh marginals
  /// for every variable of the new graph.
  Result<std::vector<double>> Update(const FactorGraph* new_graph,
                                     const std::vector<uint32_t>& changed_vars);

  /// Marginals from the last Materialize()/Update().
  const std::vector<double>& marginals() const { return marginals_; }

  /// Work spent by the last operation, in hardware-independent units:
  ///  - a Gibbs sweep (Materialize, the warm-start fallback) counts one
  ///    unit per variable it resamples;
  ///  - a Metropolis–Hastings update counts one unit per new-variable
  ///    draw and one per delta-factor evaluation, summed over all
  ///    stored worlds (an update that then falls back adds both);
  ///  - the variational strategy counts one per mean-field update.
  /// Registry counters dd.inference.materialize_work_units and
  /// dd.inference.update_work_units sum them per operation kind.
  uint64_t last_work_units() const { return last_work_units_; }

  MaterializationStrategy strategy() const { return strategy_; }

 private:
  Status MaterializeSampling();
  Status MaterializeVariational();
  /// Attempt to restore from options_.checkpoint_path; outputs the number
  /// of sweeps already performed (0 when starting fresh).
  Status TryRestoreSampling(GibbsSampler* sampler, int* sweeps_done);
  Status WriteSamplingCheckpoint(const GibbsSampler& sampler, int sweeps_done) const;
  /// The Metropolis–Hastings update over worlds_. Leaves *updated false,
  /// and the marginals untouched, when a fallback rule fires.
  Status UpdateFromWorlds(const FactorGraph& new_graph, TraceSpan* span,
                          bool* updated);
  /// Warm-start Gibbs on `new_graph` from chain_state_; re-materializes
  /// the worlds, their tallies and the reference.
  Status WarmStartUpdate(const FactorGraph* new_graph, TraceSpan* span);

  const FactorGraph* graph_;
  MaterializationStrategy strategy_;
  IncrementalOptions options_;
  std::vector<double> marginals_;
  // Sampling strategy: the last Gibbs chain's state, and what
  // Metropolis–Hastings updates propose from.
  std::vector<uint8_t> chain_state_;
  FactorGraph reference_;          ///< copy of the graph worlds_ were drawn on
  PackedWorlds worlds_;            ///< post-burn-in assignments, in sweep order
  std::vector<uint64_t> tallies_;  ///< per-variable true counts over worlds_
  std::vector<uint32_t> changed_;  ///< sorted union of changed ids since then
  /// Checkpoint prefetched by Prewarm(), consumed by the next restore.
  std::unique_ptr<GraphSnapshot> prewarmed_;
  uint64_t last_work_units_ = 0;
  bool materialized_ = false;
};

/// The paper's "simple rule-based optimizer": pick a materialization
/// strategy from the factor graph's size, its density (edges per
/// variable), and the anticipated number of future update batches.
/// Dense graphs make mean-field both slow (big cascades) and inaccurate,
/// so sampling wins; for many small updates on sparse graphs the
/// variational strategy's localized work wins by a wide margin.
MaterializationStrategy ChooseStrategy(size_t num_variables, double avg_degree,
                                       int anticipated_changes);

}  // namespace dd

#endif  // DEEPDIVE_INFERENCE_INCREMENTAL_H_
