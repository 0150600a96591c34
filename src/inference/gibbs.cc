#include "inference/gibbs.h"

#include <algorithm>
#include <cmath>

#include "util/fork_join.h"
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

namespace {

/// A free set must be strictly ascending and name only variables of the
/// graph: the level pass and the sweep index by its ids.
Status CheckFreeSet(const std::vector<uint32_t>& free_set, size_t num_variables) {
  for (size_t i = 0; i < free_set.size(); ++i) {
    if (free_set[i] >= num_variables) {
      return Status::InvalidArgument(
          StrFormat("free set names variable %u of a %zu-variable graph",
                    free_set[i], num_variables));
    }
    if (i > 0 && free_set[i] <= free_set[i - 1]) {
      return Status::InvalidArgument(
          StrFormat("free set is not strictly ascending at position %zu", i));
    }
  }
  return Status::OK();
}

}  // namespace

GibbsSampler::GibbsSampler(const FactorGraph* graph, const GibbsOptions& options)
    : graph_(graph), options_(options), rng_(options.seed) {}

void GibbsSampler::BuildLevels(const std::vector<uint32_t>& free_vars) {
  // Scanning in ascending id order, floor_of[f] is one more than the highest
  // level of a free variable of factor f seen so far (0 if none): a
  // variable's level is the highest floor among its factors. Pinned
  // variables never change, so they constrain nothing.
  const size_t nfree = free_vars.size();
  std::vector<uint32_t> floor_of(graph_->num_factors(), 0);
  std::vector<uint32_t> level(nfree);
  uint32_t num_levels = nfree == 0 ? 0 : 1;
  for (size_t i = 0; i < nfree; ++i) {
    size_t count = 0;
    const uint32_t* factors = graph_->var_factors(free_vars[i], &count);
    uint32_t l = 0;
    for (size_t k = 0; k < count; ++k) l = std::max(l, floor_of[factors[k]]);
    for (size_t k = 0; k < count; ++k) {
      floor_of[factors[k]] = std::max(floor_of[factors[k]], l + 1);
    }
    level[i] = l;
    num_levels = std::max(num_levels, l + 1);
  }
  // Counting sort by level; ascending ids within a level.
  level_offsets_.assign(num_levels + 1, 0);
  for (uint32_t l : level) ++level_offsets_[l + 1];
  for (uint32_t l = 0; l < num_levels; ++l) {
    level_offsets_[l + 1] += level_offsets_[l];
  }
  std::vector<uint32_t> fill(level_offsets_.begin(), level_offsets_.end() - 1);
  level_vars_.resize(nfree);
  draw_slot_.resize(nfree);
  for (size_t i = 0; i < nfree; ++i) {
    const uint32_t slot = fill[level[i]]++;
    level_vars_[slot] = free_vars[i];
    draw_slot_[i] = slot;
  }
  uniforms_.assign(nfree, 0.0);
}

Status GibbsSampler::Init() {
  if (!graph_->finalized()) {
    return Status::InvalidArgument("GibbsSampler requires a finalized graph");
  }
  const size_t nv = graph_->num_variables();
  if (options_.free_set != nullptr) {
    DD_RETURN_IF_ERROR(CheckFreeSet(*options_.free_set, nv));
  }
  assignment_.resize(nv);
  std::vector<uint32_t> free_vars;
  if (options_.free_set != nullptr) {
    // Explicit free set: draw initial values for exactly its members, in
    // ascending variable order (the same RNG consumption pattern the
    // clamp-based path uses for its free variables), pin everything else.
    size_t next = 0;
    for (uint32_t v = 0; v < nv; ++v) {
      if (next < options_.free_set->size() && (*options_.free_set)[next] == v) {
        assignment_[v] = rng_.NextBernoulli(0.5) ? 1 : 0;
        free_vars.push_back(v);
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
        free_vars.push_back(v);
      }
    }
  }
  BuildLevels(free_vars);
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
  if (options_.free_set != nullptr) {
    DD_RETURN_IF_ERROR(CheckFreeSet(*options_.free_set, nv));
  }
  assignment_ = assignment;
  std::vector<uint32_t> free_vars;
  if (options_.free_set != nullptr) {
    // Pinned values (ghost replicas) travel in the checkpointed
    // assignment verbatim; the caller re-pins them from the next
    // exchange before sweeping.
    free_vars = *options_.free_set;
  } else {
    for (uint32_t v = 0; v < nv; ++v) {
      if (options_.clamp_evidence && graph_->is_evidence(v)) {
        // Defend against a snapshot taken under different clamp settings.
        assignment_[v] = graph_->evidence_value(v) ? 1 : 0;
      } else {
        free_vars.push_back(v);
      }
    }
  }
  BuildLevels(free_vars);
  true_counts_ = true_counts.empty() ? std::vector<uint64_t>(nv, 0) : true_counts;
  num_accumulated_ = num_accumulated;
  num_steps_ = 0;
  rng_.set_state(rng_state);
  initialized_ = true;
  return Status::OK();
}

void GibbsSampler::Sweep(ForkJoinTeam* team) {
  // u_i < σ(Δ) is NextBernoulli(σ(Δ)) with its one draw taken early.
  const size_t nfree = level_vars_.size();
  for (size_t i = 0; i < nfree; ++i) uniforms_[draw_slot_[i]] = rng_.NextDouble();
  uint8_t* a = assignment_.data();
  const uint32_t* vars = level_vars_.data();
  const double* u = uniforms_.data();
  const FactorGraph& graph = *graph_;
  // Variables of one level share no factor, so a level's updates read
  // only values no other update of the level writes.
  auto update = [a, vars, u, &graph](size_t begin, size_t end) {
    for (size_t j = begin; j < end; ++j) {
      const uint32_t v = vars[j];
      a[v] = u[j] < Sigmoid(graph.PotentialDeltaCompiled(v, a)) ? 1 : 0;
    }
  };
  const bool can_fan = team != nullptr && team->max_members() > 1;
  uint64_t fanned = 0;
  for (size_t l = 0; l + 1 < level_offsets_.size(); ++l) {
    const size_t begin = level_offsets_[l];
    const size_t width = level_offsets_[l + 1] - begin;
    if (can_fan && width >= kMinFanOutWidth) {
      team->Run(width, kFanOutChunk, [&update, begin](size_t b, size_t e, size_t) {
        update(begin + b, begin + e);
      });
      ++fanned;
    } else {
      update(begin, begin + width);
    }
  }
  if (fanned > 0) DD_COUNTER_ADD("dd.sampler.fanned_levels", fanned);
  num_steps_ += nfree;
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
