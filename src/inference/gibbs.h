#ifndef DEEPDIVE_INFERENCE_GIBBS_H_
#define DEEPDIVE_INFERENCE_GIBBS_H_

#include <cstdint>
#include <vector>

#include "factor/graph.h"
#include "util/result.h"
#include "util/rng.h"

namespace dd {

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

/// Sequential Gibbs sampler over a finalized FactorGraph. One "sweep"
/// resamples every free variable once (scan order). Marginals are
/// empirical frequencies over the counted sweeps — exactly the
/// probabilities DeepDive writes back into the database (§3.4).
class GibbsSampler {
 public:
  /// The graph must outlive the sampler and be finalized (Init checks).
  GibbsSampler(const FactorGraph* graph, const GibbsOptions& options);

  /// Reset the chain: evidence clamped (if configured), free variables
  /// initialized uniformly at random.
  Status Init();

  /// Resample every free variable once.
  void Sweep();

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
  /// variable count, as must `assignment`.
  Status RestoreState(const std::vector<uint8_t>& assignment,
                      const std::vector<uint64_t>& true_counts,
                      uint64_t num_accumulated, const RngState& rng_state);

  /// Marginals accumulated so far (error if none).
  Result<std::vector<double>> Marginals() const;

  uint64_t num_accumulated() const { return num_accumulated_; }

  /// Total variable resampling steps performed (for throughput metrics).
  uint64_t num_steps() const { return num_steps_; }

 private:
  const FactorGraph* graph_;
  GibbsOptions options_;
  Rng rng_;
  std::vector<uint8_t> assignment_;
  std::vector<uint32_t> free_vars_;
  std::vector<uint64_t> true_counts_;
  uint64_t num_accumulated_ = 0;
  uint64_t num_steps_ = 0;
  bool initialized_ = false;
};

}  // namespace dd

#endif  // DEEPDIVE_INFERENCE_GIBBS_H_
