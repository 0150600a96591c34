#ifndef DEEPDIVE_INFERENCE_LEARNER_H_
#define DEEPDIVE_INFERENCE_LEARNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "factor/graph.h"
#include "util/status.h"

namespace dd {

class ThreadPool;

struct LearnOptions {
  int epochs = 200;
  double learning_rate = 0.1;
  double decay = 0.99;        ///< learning rate multiplier per epoch
  double l2 = 0.01;           ///< L2 regularization strength
  int sweeps_per_epoch = 1;   ///< Gibbs sweeps of each chain per epoch
  uint64_t seed = 1234;
  /// Durability: when non-empty, Learn() writes `learn.snap` into this
  /// directory every `checkpoint_interval` epochs (weights, both chain
  /// states, RNG states, epoch counter, learning rate) plus once at the
  /// end, and automatically resumes from an existing checkpoint — the
  /// resumed run is bit-identical to an uninterrupted one.
  std::string checkpoint_dir;
  int checkpoint_interval = 10;
  /// Optional pool (not owned): both chains' wide Gibbs levels and the
  /// gradient fan out over a team resident on it for one Learn() call.
  /// Weights, chains and gradient norms are the same bits without it.
  ThreadPool* pool = nullptr;
};

/// Contrastive-divergence-style weight learning, as in the DimmWitted
/// engine: maximize the likelihood of the evidence variables by SGD.
/// Two Gibbs chains run side by side — the "positive" chain clamps
/// evidence variables, the "negative" chain leaves everything free.
/// For each weight the stochastic gradient is
///     Σ_{f with weight w} [ h_f(positive) − h_f(negative) ],
/// i.e. E_data[Σh] − E_model[Σh] estimated from single samples.
/// Fixed weights (Weight::is_fixed) are never updated. The registry
/// counter dd.learner.gradient_factor_evals counts the gradient's
/// factor evaluations: two (one per chain) per factor of a learnable
/// weight per epoch.
class Learner {
 public:
  explicit Learner(FactorGraph* graph) : graph_(graph) {}

  /// Run SGD; on success the graph's weights hold the learned values.
  /// Detects divergence (non-finite gradient or weight) and reports it
  /// as InvalidArgument naming the offending weight instead of letting
  /// the sampler run on garbage.
  Status Learn(const LearnOptions& options);

  /// Gradient norm history for diagnostics — one entry per epoch this
  /// Learn() call executed (a resumed run only records the epochs it
  /// actually ran).
  const std::vector<double>& gradient_norms() const { return gradient_norms_; }

  /// First epoch the last Learn() actually executed (> 0 after a resume).
  int resumed_from_epoch() const { return resumed_from_epoch_; }

 private:
  FactorGraph* graph_;
  std::vector<double> gradient_norms_;
  int resumed_from_epoch_ = 0;
};

}  // namespace dd

#endif  // DEEPDIVE_INFERENCE_LEARNER_H_
