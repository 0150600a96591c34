#include "inference/gibbs.h"

#include <cmath>

#include "util/metrics.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "util/trace.h"

namespace dd {

double Sigmoid(double x) {
  if (x >= 0) {
    double e = std::exp(-x);
    return 1.0 / (1.0 + e);
  }
  double e = std::exp(x);
  return e / (1.0 + e);
}

GibbsSampler::GibbsSampler(const FactorGraph* graph, const GibbsOptions& options)
    : graph_(graph), options_(options), rng_(options.seed) {}

Status GibbsSampler::Init() {
  if (!graph_->finalized()) {
    return Status::InvalidArgument("GibbsSampler requires a finalized graph");
  }
  const size_t nv = graph_->num_variables();
  assignment_.resize(nv);
  free_vars_.clear();
  if (options_.free_set != nullptr) {
    // Explicit free set: draw initial values for exactly its members, in
    // ascending variable order (the same RNG consumption pattern the
    // clamp-based path uses for its free variables), pin everything else.
    size_t next = 0;
    for (uint32_t v = 0; v < nv; ++v) {
      if (next < options_.free_set->size() && (*options_.free_set)[next] == v) {
        assignment_[v] = rng_.NextBernoulli(0.5) ? 1 : 0;
        free_vars_.push_back(v);
        ++next;
      } else {
        assignment_[v] =
            graph_->is_evidence(v) && graph_->evidence_value(v) ? 1 : 0;
      }
    }
  } else {
    for (uint32_t v = 0; v < nv; ++v) {
      if (options_.clamp_evidence && graph_->is_evidence(v)) {
        assignment_[v] = graph_->evidence_value(v) ? 1 : 0;
      } else {
        assignment_[v] = rng_.NextBernoulli(0.5) ? 1 : 0;
        free_vars_.push_back(v);
      }
    }
  }
  true_counts_.assign(nv, 0);
  num_accumulated_ = 0;
  num_steps_ = 0;
  initialized_ = true;
  return Status::OK();
}

Status GibbsSampler::RestoreState(const std::vector<uint8_t>& assignment,
                                  const std::vector<uint64_t>& true_counts,
                                  uint64_t num_accumulated,
                                  const RngState& rng_state) {
  if (!graph_->finalized()) {
    return Status::InvalidArgument("GibbsSampler requires a finalized graph");
  }
  const size_t nv = graph_->num_variables();
  if (assignment.size() != nv) {
    return Status::InvalidArgument(
        StrFormat("checkpointed assignment has %zu variables, graph has %zu",
                  assignment.size(), nv));
  }
  if (!true_counts.empty() && true_counts.size() != nv) {
    return Status::InvalidArgument(
        StrFormat("checkpointed tallies have %zu variables, graph has %zu",
                  true_counts.size(), nv));
  }
  assignment_ = assignment;
  free_vars_.clear();
  if (options_.free_set != nullptr) {
    // Pinned values (ghost replicas) travel in the checkpointed
    // assignment verbatim; the caller re-pins them from the next
    // exchange before sweeping.
    free_vars_ = *options_.free_set;
  } else {
    for (uint32_t v = 0; v < nv; ++v) {
      if (options_.clamp_evidence && graph_->is_evidence(v)) {
        // Defend against a snapshot taken under different clamp settings.
        assignment_[v] = graph_->evidence_value(v) ? 1 : 0;
      } else {
        free_vars_.push_back(v);
      }
    }
  }
  true_counts_ = true_counts.empty() ? std::vector<uint64_t>(nv, 0) : true_counts;
  num_accumulated_ = num_accumulated;
  num_steps_ = 0;
  rng_.set_state(rng_state);
  initialized_ = true;
  return Status::OK();
}

void GibbsSampler::Sweep() {
  uint8_t* a = assignment_.data();
  for (uint32_t v : free_vars_) {
    double delta = graph_->PotentialDeltaCompiled(v, a);
    a[v] = rng_.NextBernoulli(Sigmoid(delta)) ? 1 : 0;
  }
  num_steps_ += free_vars_.size();
}

void GibbsSampler::Accumulate() {
  const size_t nv = assignment_.size();
  for (size_t v = 0; v < nv; ++v) {
    true_counts_[v] += assignment_[v];
  }
  ++num_accumulated_;
}

Result<std::vector<double>> GibbsSampler::RunMarginals() {
  if (!initialized_) DD_RETURN_IF_ERROR(Init());
  DD_TRACE_SPAN_VAR(span, "gibbs.run_marginals");
  Stopwatch watch;
  const uint64_t steps_before = num_steps_;
  for (int i = 0; i < options_.burn_in; ++i) Sweep();
  for (int i = 0; i < options_.num_samples; ++i) {
    Sweep();
    Accumulate();
  }
  // Throughput accounting happens once per run, not per step — the sweep
  // loop itself stays untouched (see BENCH_kernels.json's ns/delta).
  const uint64_t steps = num_steps_ - steps_before;
  const uint64_t sweeps =
      static_cast<uint64_t>(options_.burn_in) + options_.num_samples;
  DD_COUNTER_ADD("dd.sampler.sweeps", sweeps);
  DD_COUNTER_ADD("dd.sampler.deltas", steps);
  const double seconds = watch.Seconds();
  if (seconds > 0) {
    DD_GAUGE_SET("dd.sampler.deltas_per_sec",
                 static_cast<double>(steps) / seconds);
    DD_GAUGE_SET("dd.sampler.sweeps_per_sec",
                 static_cast<double>(sweeps) / seconds);
  }
  span.Attr("sweeps", static_cast<double>(sweeps));
  span.Attr("deltas", static_cast<double>(steps));
  return Marginals();
}

Result<std::vector<double>> GibbsSampler::Marginals() const {
  if (num_accumulated_ == 0) {
    return Status::Internal("no samples accumulated");
  }
  std::vector<double> out(true_counts_.size());
  for (size_t v = 0; v < out.size(); ++v) {
    out[v] = static_cast<double>(true_counts_[v]) / num_accumulated_;
  }
  return out;
}

}  // namespace dd
