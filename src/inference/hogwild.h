#ifndef DEEPDIVE_INFERENCE_HOGWILD_H_
#define DEEPDIVE_INFERENCE_HOGWILD_H_

#include <cstdint>
#include <vector>

#include "factor/graph.h"
#include "util/result.h"

namespace dd {

struct ParallelGibbsOptions {
  int num_threads = 4;
  int burn_in = 100;
  int num_samples = 1000;
  uint64_t seed = 42;
  bool clamp_evidence = true;
};

/// Hogwild-style lock-free parallel Gibbs (DimmWitted's execution model,
/// after Niu et al. [41]): threads partition the free variables and
/// resample their partitions concurrently against a single shared
/// assignment, with no synchronization inside a sweep. Races on
/// neighboring variables are benign for marginal estimation.
class HogwildSampler {
 public:
  HogwildSampler(const FactorGraph* graph, const ParallelGibbsOptions& options);

  /// Run burn_in + num_samples parallel sweeps; return P(v=1) estimates.
  Result<std::vector<double>> RunMarginals();

  /// Variable resampling steps performed by the last RunMarginals.
  uint64_t num_steps() const { return num_steps_; }

 private:
  const FactorGraph* graph_;
  ParallelGibbsOptions options_;
  uint64_t num_steps_ = 0;
};

/// Baseline modeling GraphLab's edge-consistency engine: identical
/// sampling math, but each variable update acquires the locks of the
/// variable and every variable sharing a factor with it (in id order, to
/// avoid deadlock). The contention and lock traffic — not the arithmetic —
/// is what the paper's 3.7× DimmWitted-vs-GraphLab comparison measures.
class LockingSampler {
 public:
  LockingSampler(const FactorGraph* graph, const ParallelGibbsOptions& options);

  Result<std::vector<double>> RunMarginals();

  uint64_t num_steps() const { return num_steps_; }

 private:
  const FactorGraph* graph_;
  ParallelGibbsOptions options_;
  uint64_t num_steps_ = 0;
};

}  // namespace dd

#endif  // DEEPDIVE_INFERENCE_HOGWILD_H_
