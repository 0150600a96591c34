#include "inference/learner.h"

#include <cmath>
#include <limits>
#include <utility>

#include "factor/io.h"
#include "inference/gibbs.h"
#include "util/failpoint.h"
#include "util/fork_join.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "util/trace.h"

namespace dd {

namespace {

/// Factors per chunk of the fanned-out gradient, and the fewest factors
/// for which it fans out at all. A factor costs two EvalFactor calls,
/// about 15 ns on spouse, a third of a Gibbs variable update; so these
/// are the sampler's bars (GibbsSampler::kFanOutChunk, kMinFanOutWidth)
/// in factors rather than variables, about 8 µs per chunk and 60 µs per
/// phase, the work at which a level pays for its fan-out.
constexpr size_t kGradientChunk = 512;
constexpr size_t kMinFanOutFactors = 4096;

constexpr char kLearnSnapshotName[] = "learn.snap";
constexpr char kSnapshotKind[] = "learner";

std::string CheckpointPath(const LearnOptions& options) {
  return options.checkpoint_dir + "/" + kLearnSnapshotName;
}

Status WriteLearnerCheckpoint(const LearnOptions& options, const FactorGraph& graph,
                              const GibbsSampler& positive,
                              const GibbsSampler& negative, int next_epoch,
                              double lr) {
  GraphSnapshot snap;
  snap.weights.resize(graph.num_weights());
  for (uint32_t w = 0; w < graph.num_weights(); ++w) {
    snap.weights[w] = graph.weight_value(w);
  }
  snap.chains = {positive.assignment(), negative.assignment()};
  snap.rng_states = {positive.rng_state(), negative.rng_state()};
  snap.meta["kind"] = kSnapshotKind;
  snap.meta["epoch"] = StrFormat("%d", next_epoch);
  snap.meta["lr"] = FormatExactDouble(lr);
  snap.meta["seed"] = StrFormat("%llu", static_cast<unsigned long long>(options.seed));
  return WriteGraphSnapshot(snap, CheckpointPath(options));
}

/// Restore a checkpoint into the graph/samplers. Outputs the epoch to
/// continue from and the learning rate at that point.
Status RestoreLearnerCheckpoint(const LearnOptions& options, FactorGraph* graph,
                                GibbsSampler* positive, GibbsSampler* negative,
                                int* start_epoch, double* lr) {
  DD_ASSIGN_OR_RETURN(GraphSnapshot snap,
                      ReadGraphSnapshot(CheckpointPath(options), /*max_variables=*/0));
  auto kind = snap.meta.find("kind");
  if (kind == snap.meta.end() || kind->second != kSnapshotKind) {
    return Status::InvalidArgument("snapshot is not a learner checkpoint");
  }
  DD_ASSIGN_OR_RETURN(uint64_t seed, MetaU64(snap.meta, "seed"));
  if (seed != options.seed) {
    return Status::InvalidArgument(
        "learner checkpoint was written with a different seed");
  }
  if (snap.weights.size() != graph->num_weights()) {
    return Status::InvalidArgument(
        StrFormat("learner checkpoint has %zu weights, graph has %zu",
                  snap.weights.size(), graph->num_weights()));
  }
  if (snap.chains.size() != 2 || snap.rng_states.size() != 2) {
    return Status::InvalidArgument(
        "learner checkpoint must carry exactly two chains and RNG states");
  }
  DD_ASSIGN_OR_RETURN(uint64_t epoch, MetaU64(snap.meta, "epoch"));
  if (epoch > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
    return Status::Corruption(StrFormat("learner checkpoint epoch %llu out of range",
                                        static_cast<unsigned long long>(epoch)));
  }
  auto lr_meta = snap.meta.find("lr");
  if (lr_meta == snap.meta.end()) {
    return Status::InvalidArgument("learner checkpoint missing lr metadata");
  }
  for (uint32_t w = 0; w < graph->num_weights(); ++w) {
    graph->set_weight_value(w, snap.weights[w]);
  }
  DD_RETURN_IF_ERROR(
      positive->RestoreState(snap.chains[0], {}, 0, snap.rng_states[0]));
  DD_RETURN_IF_ERROR(
      negative->RestoreState(snap.chains[1], {}, 0, snap.rng_states[1]));
  *start_epoch = static_cast<int>(epoch);
  DD_ASSIGN_OR_RETURN(*lr, ParseExactDouble(lr_meta->second));
  return Status::OK();
}

}  // namespace

Status Learner::Learn(const LearnOptions& options) {
  DD_RETURN_IF_ERROR(graph_->Finalize());
  DD_TRACE_SPAN_VAR(learn_span, "learner.learn");
  gradient_norms_.clear();
  resumed_from_epoch_ = 0;

  // Helpers for both chains and the gradient, resident for this call
  // only: the destructor joins them on every return path.
  ForkJoinTeam team(options.pool);

  GibbsOptions pos_opts;
  pos_opts.seed = options.seed;
  pos_opts.clamp_evidence = true;
  GibbsSampler positive(graph_, pos_opts);
  DD_RETURN_IF_ERROR(positive.Init());

  GibbsOptions neg_opts;
  neg_opts.seed = options.seed ^ 0x5bd1e995;
  neg_opts.clamp_evidence = false;
  GibbsSampler negative(graph_, neg_opts);
  DD_RETURN_IF_ERROR(negative.Init());

  const bool durable = !options.checkpoint_dir.empty();
  int start_epoch = 0;
  double lr = options.learning_rate;
  if (durable && FileExists(CheckpointPath(options))) {
    DD_RETURN_IF_ERROR(RestoreLearnerCheckpoint(options, graph_, &positive,
                                                &negative, &start_epoch, &lr));
    resumed_from_epoch_ = start_epoch;
  }

  const size_t nw = graph_->num_weights();
  const size_t nf = graph_->num_factors();
  uint64_t learnable_factors = 0;
  for (uint32_t f = 0; f < nf; ++f) {
    learnable_factors += graph_->weight(graph_->factor_weight(f)).is_fixed ? 0 : 1;
  }
  std::vector<double> gradient(nw);
  // Every FactorFunc returns h ∈ {0, 1} (factor/graph.h), so each
  // weight's gradient Σ(h_pos − h_neg) is an integer. Each team member
  // counts its chunks into its own row; integer sums are exact in any
  // order, and below 2^53 they convert to exactly the double that a
  // sequential double sum in factor order gives.
  const size_t members = team.max_members();
  std::vector<int64_t> counts(members * nw, 0);
  auto count_factors = [&](size_t begin, size_t end, size_t member) {
    const uint8_t* pos = positive.assignment().data();
    const uint8_t* neg = negative.assignment().data();
    int64_t* row = counts.data() + member * nw;
    for (size_t i = begin; i < end; ++i) {
      const uint32_t f = static_cast<uint32_t>(i);
      const uint32_t w = graph_->factor_weight(f);
      if (graph_->weight(w).is_fixed) continue;
      row[w] += static_cast<int64_t>(graph_->EvalFactor(f, pos)) -
                static_cast<int64_t>(graph_->EvalFactor(f, neg));
    }
  };

  for (int epoch = start_epoch; epoch < options.epochs; ++epoch) {
    Stopwatch epoch_watch;
    Status injected;
    DD_FAILPOINT(failpoints::kLearnerEpoch, &injected);
    if (!injected.ok()) return injected;

    for (int s = 0; s < options.sweeps_per_epoch; ++s) {
      positive.Sweep(&team);
      negative.Sweep(&team);
    }
    if (nf >= kMinFanOutFactors) {
      team.Run(nf, kGradientChunk, count_factors);
    } else {
      count_factors(0, nf, 0);
    }
    for (uint32_t w = 0; w < nw; ++w) {
      int64_t sum = 0;
      for (size_t m = 0; m < members; ++m) sum += std::exchange(counts[m * nw + w], 0);
      gradient[w] = static_cast<double>(sum);
    }
    DD_COUNTER_ADD("dd.learner.gradient_factor_evals", 2 * learnable_factors);
    double norm = 0.0;
    for (uint32_t w = 0; w < nw; ++w) {
      if (graph_->weight(w).is_fixed) continue;
      const double value = graph_->weight_value(w);
      double g = gradient[w] - options.l2 * value;
      double updated = value + lr * g;
      if (!std::isfinite(g) || !std::isfinite(updated)) {
        return Status::InvalidArgument(StrFormat(
            "learning diverged at epoch %d: weight %u ('%s') became non-finite "
            "(value=%g, gradient=%g, lr=%g) — reduce learning_rate or increase l2",
            epoch, w, graph_->weight(w).description.c_str(), updated, g, lr));
      }
      graph_->set_weight_value(w, updated);
      norm += g * g;
    }
    gradient_norms_.push_back(std::sqrt(norm));
    DD_COUNTER_ADD("dd.learner.epochs", 1);
    DD_HISTOGRAM_OBSERVE("dd.learner.epoch_seconds", epoch_watch.Seconds());
    DD_HISTOGRAM_OBSERVE("dd.learner.gradient_norm", gradient_norms_.back());
    lr *= options.decay;

    if (durable && options.checkpoint_interval > 0 &&
        (epoch + 1) % options.checkpoint_interval == 0 &&
        epoch + 1 < options.epochs) {
      DD_RETURN_IF_ERROR(
          WriteLearnerCheckpoint(options, *graph_, positive, negative, epoch + 1,
                                 lr));
    }
  }
  if (durable) {
    DD_RETURN_IF_ERROR(WriteLearnerCheckpoint(options, *graph_, positive,
                                              negative, options.epochs, lr));
  }
  learn_span.Attr("epochs_run",
                  static_cast<double>(options.epochs - start_epoch));
  learn_span.Attr("resumed_from", static_cast<double>(resumed_from_epoch_));
  return Status::OK();
}

}  // namespace dd
