#ifndef DEEPDIVE_INFERENCE_GIBBS_H_
#define DEEPDIVE_INFERENCE_GIBBS_H_

#include <cstdint>
#include <vector>

#include "factor/graph.h"
#include "util/result.h"
#include "util/rng.h"

namespace dd {

class ForkJoinTeam;

/// sigmoid(x) = 1 / (1 + e^-x), the Gibbs conditional for Boolean
/// variables under log-linear factors.
double Sigmoid(double x);

struct GibbsOptions {
  int burn_in = 100;          ///< sweeps discarded before counting
  int num_samples = 1000;     ///< counted sweeps
  uint64_t seed = 42;
  bool clamp_evidence = true; ///< keep evidence variables at their values
  /// Optional explicit free set (sorted ascending variable ids, owned by
  /// the caller, must outlive the sampler). When set it overrides
  /// clamp_evidence entirely: exactly these variables are resampled;
  /// every other variable is pinned — at its evidence value if it is an
  /// evidence variable, otherwise at 0 until the caller pokes the
  /// assignment. The distributed shards use this to sweep only the
  /// variables they own while ghost replicas stay pinned at the values
  /// exchanged with their owners. With free_set covering every variable
  /// the chain is bit-identical to clamp_evidence = false.
  const std::vector<uint32_t>* free_set = nullptr;
};

/// Gibbs sampler over a finalized FactorGraph. One "sweep" resamples
/// every free variable once, with the result of a sequential scan in
/// ascending id order. Marginals are empirical frequencies over the
/// counted sweeps — exactly the probabilities DeepDive writes back into
/// the database (§3.4).
///
/// A sweep runs level by level (DESIGN.md §18): a free variable's level
/// is one more than the highest level among the lower-id free variables
/// it shares a factor with (0 if none), so no two variables of a level
/// share a factor and every adjacent pair keeps its scan order. The
/// sweep's uniforms are drawn first, in scan order, from the sampler's
/// one Rng, and each variable uses the uniform of its scan position:
/// every variable sees exactly the neighbour values the sequential scan
/// gives it, and a wide level can fan out over a ForkJoinTeam without
/// changing a bit of the chain.
class GibbsSampler {
 public:
  /// Narrowest level that fans out over a team; narrower levels run on
  /// the caller. Handing a level to a resident team (open the phase,
  /// helpers claim chunks, wait for the last one) costs a few
  /// microseconds, about a hundred variable updates of spouse's kernel
  /// streams; at this width the three helpers' share of the level is
  /// several times that cost (EXPERIMENTS.md EXP-LEVEL).
  static constexpr size_t kMinFanOutWidth = 1024;
  /// Variables per claimed chunk of a fanned-out level: a few
  /// microseconds of updates, so a claim (one shared atomic increment)
  /// stays cheap and the last chunk leaves little imbalance.
  static constexpr size_t kFanOutChunk = 128;

  /// The graph must outlive the sampler and be finalized (Init checks).
  GibbsSampler(const FactorGraph* graph, const GibbsOptions& options);

  /// Reset the chain: evidence clamped (if configured), free variables
  /// initialized uniformly at random. A free_set that is not strictly
  /// ascending or names a variable out of range is InvalidArgument.
  Status Init();

  /// Resample every free variable once. Levels at least kMinFanOutWidth
  /// wide run on `team` when one is given; the chain is the same bits
  /// with or without it.
  void Sweep(ForkJoinTeam* team = nullptr);

  /// Record the current assignment into the marginal accumulators.
  void Accumulate();

  /// burn_in sweeps, then num_samples sweeps with accumulation; returns
  /// the estimated P(v = 1) for every variable.
  Result<std::vector<double>> RunMarginals();

  /// Current chain state (one byte per variable).
  const std::vector<uint8_t>& assignment() const { return assignment_; }
  std::vector<uint8_t>* mutable_assignment() { return &assignment_; }

  /// Chain persistence (checkpoint/recovery). The RNG state plus the
  /// assignment and accumulator state fully determine the chain's
  /// future, so restoring them resumes the chain bit-identically.
  RngState rng_state() const { return rng_.state(); }
  void set_rng_state(const RngState& state) { rng_.set_state(state); }
  const std::vector<uint64_t>& true_counts() const { return true_counts_; }

  /// Restore a checkpointed chain: replaces Init(). `true_counts` may be
  /// empty (accumulation not yet started); otherwise it must match the
  /// variable count, as must `assignment`. The free_set is checked as in
  /// Init().
  Status RestoreState(const std::vector<uint8_t>& assignment,
                      const std::vector<uint64_t>& true_counts,
                      uint64_t num_accumulated, const RngState& rng_state);

  /// Marginals accumulated so far (error if none).
  Result<std::vector<double>> Marginals() const;

  uint64_t num_accumulated() const { return num_accumulated_; }

  /// Total variable resampling steps performed (for throughput metrics).
  uint64_t num_steps() const { return num_steps_; }

  /// Levels of the sweep schedule (0 before Init/RestoreState).
  size_t num_levels() const {
    return level_offsets_.empty() ? 0 : level_offsets_.size() - 1;
  }

 private:
  /// Builds the level schedule for `free_vars` (ascending) in O(edges).
  void BuildLevels(const std::vector<uint32_t>& free_vars);

  const FactorGraph* graph_;
  GibbsOptions options_;
  Rng rng_;
  std::vector<uint8_t> assignment_;
  /// Free variables grouped by level, ascending within a level; level L
  /// is level_vars_[level_offsets_[L], level_offsets_[L + 1]).
  std::vector<uint32_t> level_vars_;
  std::vector<uint32_t> level_offsets_;
  /// draw_slot_[i]: where the i-th free variable in scan order sits in
  /// level_vars_, and so where its uniform goes in uniforms_.
  std::vector<uint32_t> draw_slot_;
  std::vector<double> uniforms_;  ///< this sweep's draws, level-major
  std::vector<uint64_t> true_counts_;
  uint64_t num_accumulated_ = 0;
  uint64_t num_steps_ = 0;
  bool initialized_ = false;
};

}  // namespace dd

#endif  // DEEPDIVE_INFERENCE_GIBBS_H_
