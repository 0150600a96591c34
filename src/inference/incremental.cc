#include "inference/incremental.h"

#include <algorithm>
#include <limits>

#include "factor/io.h"
#include "inference/gibbs.h"
#include "inference/meanfield.h"
#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace dd {

namespace {
constexpr char kSamplingKind[] = "inference-sampling";
constexpr char kVariationalKind[] = "inference-variational";
}  // namespace

const char* StrategyName(MaterializationStrategy strategy) {
  switch (strategy) {
    case MaterializationStrategy::kSampling: return "sampling";
    case MaterializationStrategy::kVariational: return "variational";
  }
  return "?";
}

IncrementalInference::IncrementalInference(const FactorGraph* graph,
                                           MaterializationStrategy strategy,
                                           const IncrementalOptions& options)
    : graph_(graph), strategy_(strategy), options_(options) {}

IncrementalInference::~IncrementalInference() = default;

Status IncrementalInference::Prewarm() {
  marginals_.reserve(graph_->num_variables());
  chain_state_.reserve(graph_->num_variables());
  if (strategy_ == MaterializationStrategy::kSampling &&
      !options_.checkpoint_path.empty() && FileExists(options_.checkpoint_path)) {
    Result<GraphSnapshot> snap = ReadGraphSnapshot(options_.checkpoint_path);
    // A corrupt or foreign snapshot is not an error here: the restore in
    // Materialize() re-reads the file and reports it exactly as it would
    // without the warm-up.
    if (snap.ok()) {
      prewarmed_ = std::make_unique<GraphSnapshot>(std::move(*snap));
    }
  }
  return Status::OK();
}

Status IncrementalInference::Materialize() {
  switch (strategy_) {
    case MaterializationStrategy::kSampling:
      DD_RETURN_IF_ERROR(MaterializeSampling());
      break;
    case MaterializationStrategy::kVariational:
      DD_RETURN_IF_ERROR(MaterializeVariational());
      break;
  }
  materialized_ = true;
  return Status::OK();
}

Status IncrementalInference::WriteSamplingCheckpoint(const GibbsSampler& sampler,
                                                     int sweeps_done) const {
  GraphSnapshot snap;
  snap.chains = {sampler.assignment()};
  snap.counts = sampler.true_counts();
  snap.rng_states = {sampler.rng_state()};
  snap.meta["kind"] = kSamplingKind;
  snap.meta["sweeps"] = StrFormat("%d", sweeps_done);
  snap.meta["num_accumulated"] =
      StrFormat("%llu", static_cast<unsigned long long>(sampler.num_accumulated()));
  snap.meta["seed"] =
      StrFormat("%llu", static_cast<unsigned long long>(options_.seed));
  return WriteGraphSnapshot(snap, options_.checkpoint_path);
}

Status IncrementalInference::TryRestoreSampling(GibbsSampler* sampler,
                                                int* sweeps_done) {
  *sweeps_done = 0;
  if (options_.checkpoint_path.empty()) {
    prewarmed_.reset();
    return Status::OK();
  }
  GraphSnapshot snap;
  if (prewarmed_ != nullptr) {
    // Consume the snapshot Prewarm() already read off disk.
    snap = std::move(*prewarmed_);
    prewarmed_.reset();
  } else {
    if (!FileExists(options_.checkpoint_path)) return Status::OK();
    DD_ASSIGN_OR_RETURN(snap, ReadGraphSnapshot(options_.checkpoint_path));
  }
  auto kind = snap.meta.find("kind");
  if (kind == snap.meta.end() || kind->second != kSamplingKind) {
    return Status::InvalidArgument(
        "checkpoint is not a sampling-materialization snapshot: " +
        options_.checkpoint_path);
  }
  DD_ASSIGN_OR_RETURN(uint64_t seed, MetaU64(snap.meta, "seed"));
  if (seed != options_.seed) {
    return Status::InvalidArgument(
        "sampling checkpoint was written with a different seed");
  }
  if (snap.chains.size() != 1 || snap.rng_states.size() != 1) {
    return Status::InvalidArgument("sampling checkpoint missing chain state");
  }
  DD_ASSIGN_OR_RETURN(uint64_t sweeps, MetaU64(snap.meta, "sweeps"));
  DD_ASSIGN_OR_RETURN(uint64_t accumulated, MetaU64(snap.meta, "num_accumulated"));
  if (sweeps > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
    return Status::Corruption(StrFormat("sampling checkpoint sweeps %llu out of range",
                                        static_cast<unsigned long long>(sweeps)));
  }
  DD_RETURN_IF_ERROR(sampler->RestoreState(snap.chains[0], snap.counts, accumulated,
                                           snap.rng_states[0]));
  *sweeps_done = static_cast<int>(sweeps);
  return Status::OK();
}

Status IncrementalInference::MaterializeSampling() {
  DD_TRACE_SPAN_VAR(span, "inference.materialize");
  GibbsOptions opts;
  opts.burn_in = options_.full_burn_in;
  opts.num_samples = options_.num_samples;
  opts.seed = options_.seed;
  opts.clamp_evidence = options_.clamp_evidence;
  GibbsSampler sampler(graph_, opts);
  DD_RETURN_IF_ERROR(sampler.Init());

  // Same sweep schedule as GibbsSampler::RunMarginals, but driven here
  // so the loop can checkpoint and resume mid-stream.
  const int total_sweeps = options_.full_burn_in + options_.num_samples;
  int done = 0;
  DD_RETURN_IF_ERROR(TryRestoreSampling(&sampler, &done));
  const bool durable = !options_.checkpoint_path.empty();
  const int resumed_at = done;
  for (; done < total_sweeps; ++done) {
    Status injected;
    DD_FAILPOINT(failpoints::kInferenceSweep, &injected);
    if (!injected.ok()) return injected;

    sampler.Sweep();
    if (done >= options_.full_burn_in) sampler.Accumulate();
    if (durable && options_.checkpoint_interval > 0 &&
        (done + 1) % options_.checkpoint_interval == 0 &&
        done + 1 < total_sweeps) {
      DD_RETURN_IF_ERROR(WriteSamplingCheckpoint(sampler, done + 1));
    }
  }
  DD_ASSIGN_OR_RETURN(marginals_, sampler.Marginals());
  chain_state_ = sampler.assignment();
  last_work_units_ = sampler.num_steps();
  if (durable) DD_RETURN_IF_ERROR(WriteSamplingCheckpoint(sampler, total_sweeps));
  DD_COUNTER_ADD("dd.inference.sweeps",
                 static_cast<uint64_t>(total_sweeps - resumed_at));
  DD_COUNTER_ADD("dd.inference.work_units", last_work_units_);
  span.Attr("sweeps", static_cast<double>(total_sweeps - resumed_at));
  span.Attr("resumed_at", static_cast<double>(resumed_at));
  return Status::OK();
}

Status IncrementalInference::MaterializeVariational() {
  // The variational materialization is deterministic and cheap relative
  // to sampling, so durability only persists (and reuses) the final
  // marginals rather than checkpointing mid-relaxation.
  if (!options_.checkpoint_path.empty() && FileExists(options_.checkpoint_path)) {
    DD_ASSIGN_OR_RETURN(GraphSnapshot snap,
                        ReadGraphSnapshot(options_.checkpoint_path));
    auto kind = snap.meta.find("kind");
    if (kind != snap.meta.end() && kind->second == kVariationalKind &&
        snap.marginals.size() == graph_->num_variables()) {
      marginals_ = std::move(snap.marginals);
      last_work_units_ = 0;
      return Status::OK();
    }
    return Status::InvalidArgument(
        "checkpoint is not a variational-materialization snapshot: " +
        options_.checkpoint_path);
  }
  MeanFieldOptions opts;
  opts.max_iterations = options_.mf_max_iterations;
  opts.tolerance = options_.mf_tolerance;
  opts.damping = options_.mf_damping;
  opts.clamp_evidence = options_.clamp_evidence;
  MeanFieldEngine engine(graph_, opts);
  DD_ASSIGN_OR_RETURN(marginals_, engine.Run());
  last_work_units_ = engine.updates_performed();
  if (!options_.checkpoint_path.empty()) {
    GraphSnapshot snap;
    snap.marginals = marginals_;
    snap.meta["kind"] = kVariationalKind;
    DD_RETURN_IF_ERROR(WriteGraphSnapshot(snap, options_.checkpoint_path));
  }
  return Status::OK();
}

Result<std::vector<double>> IncrementalInference::Update(
    const FactorGraph* new_graph, const std::vector<uint32_t>& changed_vars) {
  if (!materialized_) {
    return Status::Internal("Update() before Materialize()");
  }
  if (!new_graph->finalized()) {
    return Status::InvalidArgument("Update requires a finalized graph");
  }
  if (new_graph->num_variables() < graph_->num_variables()) {
    return Status::InvalidArgument(
        "new graph must preserve existing variable ids (got fewer variables)");
  }
  const size_t nv = new_graph->num_variables();
  DD_TRACE_SPAN_VAR(span, "inference.update");
  span.Attr("changed_vars", static_cast<double>(changed_vars.size()));

  if (strategy_ == MaterializationStrategy::kSampling) {
    // Warm start: reuse the stored chain state for surviving variables,
    // random-init the new ones, then run a short burn-in instead of the
    // full one — the stored state is already near the stationary
    // distribution everywhere the graph did not change.
    GibbsOptions opts;
    opts.burn_in = 0;  // manual control below
    opts.num_samples = 0;
    opts.seed = options_.seed + 1;
    opts.clamp_evidence = options_.clamp_evidence;
    GibbsSampler sampler(new_graph, opts);
    DD_RETURN_IF_ERROR(sampler.Init());
    Rng rng(options_.seed + 2);
    std::vector<uint8_t>* state = sampler.mutable_assignment();
    uint64_t reused = 0, recomputed = 0;
    for (uint32_t v = 0; v < nv; ++v) {
      if (options_.clamp_evidence && new_graph->is_evidence(v)) {
        continue;  // already clamped by Init
      }
      if (v < chain_state_.size()) {
        (*state)[v] = chain_state_[v];
        ++reused;
      } else {
        (*state)[v] = rng.NextBernoulli(0.5) ? 1 : 0;
        ++recomputed;
      }
    }
    DD_COUNTER_ADD("dd.inference.vars_reused", reused);
    DD_COUNTER_ADD("dd.inference.vars_recomputed", recomputed);
    span.Attr("vars_reused", static_cast<double>(reused));
    span.Attr("vars_recomputed", static_cast<double>(recomputed));
    for (int i = 0; i < options_.update_burn_in; ++i) sampler.Sweep();
    for (int i = 0; i < options_.num_samples; ++i) {
      sampler.Sweep();
      sampler.Accumulate();
    }
    DD_ASSIGN_OR_RETURN(marginals_, sampler.Marginals());
    chain_state_ = sampler.assignment();
    last_work_units_ = sampler.num_steps();
    DD_COUNTER_ADD("dd.inference.work_units", last_work_units_);
    graph_ = new_graph;
    return marginals_;
  }

  // Variational: warm-start μ from the materialized values and only
  // relax the changed region (MeanFieldEngine cascades as needed).
  std::vector<double> mu(nv, 0.5);
  for (uint32_t v = 0; v < nv && v < marginals_.size(); ++v) mu[v] = marginals_[v];
  {
    const uint64_t reused = std::min<uint64_t>(nv, marginals_.size());
    DD_COUNTER_ADD("dd.inference.vars_reused", reused);
    DD_COUNTER_ADD("dd.inference.vars_recomputed", nv - reused);
    span.Attr("vars_reused", static_cast<double>(reused));
    span.Attr("vars_recomputed", static_cast<double>(nv - reused));
  }
  if (options_.clamp_evidence) {
    for (uint32_t v = 0; v < nv; ++v) {
      if (new_graph->is_evidence(v)) mu[v] = new_graph->evidence_value(v) ? 1.0 : 0.0;
    }
  }
  MeanFieldOptions opts;
  opts.max_iterations = options_.mf_max_iterations;
  opts.tolerance = options_.mf_tolerance;
  opts.damping = options_.mf_damping;
  opts.clamp_evidence = options_.clamp_evidence;
  MeanFieldEngine engine(new_graph, opts);
  DD_ASSIGN_OR_RETURN(marginals_, engine.RunFrom(std::move(mu), changed_vars));
  last_work_units_ = engine.updates_performed();
  DD_COUNTER_ADD("dd.inference.work_units", last_work_units_);
  graph_ = new_graph;
  return marginals_;
}

MaterializationStrategy ChooseStrategy(size_t num_variables, double avg_degree,
                                       int anticipated_changes) {
  // Dense correlation structure: mean-field cascades touch everything and
  // its independence assumption bites — sample.
  if (avg_degree > 6.0) return MaterializationStrategy::kSampling;
  // Few (or no) anticipated changes: the materialization will rarely be
  // reused, and sampling gives the calibrated probabilities DeepDive
  // needs for its debugging loop — sample.
  if (anticipated_changes <= 2) return MaterializationStrategy::kSampling;
  // Tiny graphs: full re-sampling is cheap regardless.
  if (num_variables < 256) return MaterializationStrategy::kSampling;
  // Large sparse graphs with many future deltas: localized variational
  // updates amortize best.
  return MaterializationStrategy::kVariational;
}

}  // namespace dd
