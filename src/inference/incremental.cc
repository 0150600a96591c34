#include "inference/incremental.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>

#include "factor/io.h"
#include "inference/gibbs.h"
#include "inference/meanfield.h"
#include "util/failpoint.h"
#include "util/fork_join.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace dd {

namespace {
constexpr char kSamplingKind[] = "inference-sampling";
constexpr char kVariationalKind[] = "inference-variational";

/// Fallback rule 1: a Metropolis–Hastings update that accepts fewer than
/// this share of its proposals falls back to the warm start. Below one
/// acceptance in two, fewer than half of the stored worlds carry the
/// update's tallies, and the ones that do repeat; a fresh warm-start
/// chain of num_samples sweeps is then the better estimate for its cost.
constexpr double kMinAcceptanceRate = 0.5;

/// Fallback rule 2: an update whose Metropolis–Hastings work (new-variable
/// draws plus delta-factor evaluations, over every stored world) would
/// exceed this multiple of the warm start's work (its sweeps times the
/// free variables) runs the warm start instead. Past that point the warm
/// start is no more work, and its answer does not depend on how well the
/// old worlds cover the new distribution. Both counts are known before
/// any world is scored, so the rule costs nothing when it fires.
constexpr double kMaxWorkVersusWarmStart = 1.0;

/// log σ(x), stable for large |x|.
double LogSigmoid(double x) {
  return x >= 0 ? -std::log1p(std::exp(-x)) : x - std::log1p(std::exp(x));
}

/// Total order on factors by (function, weight value bits, literals), so
/// a factor of one graph can be matched with an identical factor of
/// another regardless of its id or weight id.
int CompareFactors(const FactorGraph& ga, uint32_t fa, const FactorGraph& gb,
                   uint32_t fb) {
  const FactorFunc func_a = ga.factor_func(fa), func_b = gb.factor_func(fb);
  if (func_a != func_b) return func_a < func_b ? -1 : 1;
  uint64_t wa, wb;
  const double va = ga.weight_value(ga.factor_weight(fa));
  const double vb = gb.weight_value(gb.factor_weight(fb));
  std::memcpy(&wa, &va, 8);
  std::memcpy(&wb, &vb, 8);
  if (wa != wb) return wa < wb ? -1 : 1;
  size_t na = 0, nb = 0;
  const Literal* la = ga.factor_literals(fa, &na);
  const Literal* lb = gb.factor_literals(fb, &nb);
  if (na != nb) return na < nb ? -1 : 1;
  for (size_t i = 0; i < na; ++i) {
    if (la[i].var != lb[i].var) return la[i].var < lb[i].var ? -1 : 1;
    if (la[i].is_positive != lb[i].is_positive) return la[i].is_positive ? 1 : -1;
  }
  return 0;
}

/// Ids of the factors of `graph` adjacent to any of `vars`, ascending.
std::vector<uint32_t> AdjacentFactors(const FactorGraph& graph,
                                      const std::vector<uint32_t>& vars) {
  std::vector<uint32_t> out;
  for (uint32_t v : vars) {
    size_t count = 0;
    const uint32_t* factors = graph.var_factors(v, &count);
    out.insert(out.end(), factors, factors + count);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Drop every pair of identical factors, one from `plus` (ids in
/// `gp`) and one from `minus` (ids in `gm`): their contributions to the
/// two log-potentials cancel. Survivors keep their ascending id order.
void CancelIdentical(const FactorGraph& gp, std::vector<uint32_t>* plus,
                     const FactorGraph& gm, std::vector<uint32_t>* minus) {
  auto sorted = [](const FactorGraph& g, const std::vector<uint32_t>& ids) {
    std::vector<size_t> order(ids.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      const int c = CompareFactors(g, ids[a], g, ids[b]);
      return c != 0 ? c < 0 : ids[a] < ids[b];
    });
    return order;
  };
  const std::vector<size_t> po = sorted(gp, *plus);
  const std::vector<size_t> mo = sorted(gm, *minus);
  std::vector<uint8_t> plus_gone(plus->size(), 0), minus_gone(minus->size(), 0);
  for (size_t i = 0, j = 0; i < po.size() && j < mo.size();) {
    const int c = CompareFactors(gp, (*plus)[po[i]], gm, (*minus)[mo[j]]);
    if (c == 0) {
      plus_gone[po[i++]] = 1;
      minus_gone[mo[j++]] = 1;
    } else if (c < 0) {
      ++i;
    } else {
      ++j;
    }
  }
  auto keep = [](std::vector<uint32_t>* ids, const std::vector<uint8_t>& gone) {
    size_t out = 0;
    for (size_t i = 0; i < ids->size(); ++i) {
      if (!gone[i]) (*ids)[out++] = (*ids)[i];
    }
    ids->resize(out);
  };
  keep(plus, plus_gone);
  keep(minus, minus_gone);
}

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
    Result<GraphSnapshot> snap =
        ReadGraphSnapshot(options_.checkpoint_path, /*max_variables=*/0);
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
  materialized_ = false;  // a failed re-materialization leaves nothing to update
  switch (strategy_) {
    case MaterializationStrategy::kSampling:
      DD_RETURN_IF_ERROR(MaterializeSampling());
      break;
    case MaterializationStrategy::kVariational:
      DD_RETURN_IF_ERROR(MaterializeVariational());
      break;
  }
  DD_COUNTER_ADD("dd.inference.materialize_work_units", last_work_units_);
  materialized_ = true;
  return Status::OK();
}

Status IncrementalInference::WriteSamplingCheckpoint(const GibbsSampler& sampler,
                                                     int sweeps_done) const {
  GraphSnapshot snap;
  snap.chains = {sampler.assignment()};
  snap.counts = sampler.true_counts();
  snap.rng_states = {sampler.rng_state()};
  snap.worlds = worlds_;
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
    DD_ASSIGN_OR_RETURN(snap, ReadGraphSnapshot(options_.checkpoint_path,
                                                /*max_variables=*/0));
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
  // One stored world per accumulated sweep; none has been stored before
  // accumulation starts (and then the checkpoint carries no WRLD).
  if (snap.worlds.num_worlds != accumulated ||
      (accumulated > 0 && snap.worlds.num_variables != graph_->num_variables())) {
    return Status::InvalidArgument(StrFormat(
        "sampling checkpoint stores %llu worlds of %llu variables for %llu "
        "accumulated sweeps of %zu variables",
        static_cast<unsigned long long>(snap.worlds.num_worlds),
        static_cast<unsigned long long>(snap.worlds.num_variables),
        static_cast<unsigned long long>(accumulated), graph_->num_variables()));
  }
  if (accumulated > 0) worlds_ = std::move(snap.worlds);
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
  worlds_ = PackedWorlds();
  worlds_.num_variables = graph_->num_variables();
  DD_RETURN_IF_ERROR(TryRestoreSampling(&sampler, &done));
  worlds_.words.reserve(static_cast<size_t>(std::max(options_.num_samples, 0)) *
                        worlds_.words_per_world());
  const bool durable = !options_.checkpoint_path.empty();
  const int resumed_at = done;
  ForkJoinTeam team(options_.pool);  // joined on every return below
  for (; done < total_sweeps; ++done) {
    Status injected;
    DD_FAILPOINT(failpoints::kInferenceSweep, &injected);
    if (!injected.ok()) return injected;

    sampler.Sweep(&team);
    if (done >= options_.full_burn_in) {
      sampler.Accumulate();
      worlds_.Append(sampler.assignment());
    }
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
  // What Update() proposes from: the worlds above, their tallies, and the
  // graph they were drawn on (the caller may rebuild *graph_ in place).
  reference_ = *graph_;
  tallies_ = sampler.true_counts();
  changed_.clear();
  DD_COUNTER_ADD("dd.inference.sweeps",
                 static_cast<uint64_t>(total_sweeps - resumed_at));
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
                        ReadGraphSnapshot(options_.checkpoint_path,
                                          /*max_variables=*/0));
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
  Status injected;
  DD_FAILPOINT(failpoints::kInferenceUpdate, &injected);
  if (!injected.ok()) return injected;
  if (!materialized_) {
    return Status::Internal("Update() before Materialize()");
  }
  if (!new_graph->finalized()) {
    return Status::InvalidArgument("Update requires a finalized graph");
  }
  if (new_graph->num_variables() < graph_->num_variables() ||
      (strategy_ == MaterializationStrategy::kSampling &&
       new_graph->num_variables() < reference_.num_variables())) {
    return Status::InvalidArgument(
        "new graph must preserve existing variable ids (got fewer variables)");
  }
  const size_t nv = new_graph->num_variables();
  DD_TRACE_SPAN_VAR(span, "inference.update");
  span.Attr("changed_vars", static_cast<double>(changed_vars.size()));

  if (strategy_ == MaterializationStrategy::kSampling) {
    std::vector<uint32_t> sorted(changed_vars);
    std::sort(sorted.begin(), sorted.end());
    if (!sorted.empty() && sorted.back() >= nv) {
      return Status::InvalidArgument(
          StrFormat("changed variable %u out of range (%zu variables)",
                    sorted.back(), nv));
    }
    std::vector<uint32_t> merged;
    merged.reserve(changed_.size() + sorted.size());
    std::set_union(changed_.begin(), changed_.end(), sorted.begin(), sorted.end(),
                   std::back_inserter(merged));
    changed_ = std::move(merged);
    bool updated = false;
    DD_RETURN_IF_ERROR(UpdateFromWorlds(*new_graph, &span, &updated));
    if (!updated) DD_RETURN_IF_ERROR(WarmStartUpdate(new_graph, &span));
    DD_COUNTER_ADD("dd.inference.update_work_units", last_work_units_);
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
  DD_COUNTER_ADD("dd.inference.update_work_units", last_work_units_);
  graph_ = new_graph;
  return marginals_;
}

Status IncrementalInference::UpdateFromWorlds(const FactorGraph& graph,
                                              TraceSpan* span, bool* updated) {
  *updated = false;
  last_work_units_ = 0;
  const FactorGraph& ref = reference_;
  const uint32_t old_nv = static_cast<uint32_t>(ref.num_variables());
  const uint32_t nv = static_cast<uint32_t>(graph.num_variables());
  const size_t num_worlds = static_cast<size_t>(worlds_.num_worlds);
  const bool clamp = options_.clamp_evidence;

  // The stored worlds hold every clamped old variable at its old value.
  if (clamp) {
    for (uint32_t v = 0; v < old_nv; ++v) {
      if (graph.is_evidence(v) != ref.is_evidence(v) ||
          (ref.is_evidence(v) && graph.evidence_value(v) != ref.evidence_value(v))) {
        span->Attr("fallback_evidence", 1);
        return Status::OK();
      }
    }
  }

  // The delta: factors of the new graph adjacent to a changed or new
  // variable, minus the reference's factors adjacent to a changed old
  // one. By the Update() precondition every other factor is in both
  // graphs, so log π_new(x) − log π_ref(x) is the delta's sum up to a
  // constant. Identical factors on both sides cancel.
  std::vector<uint32_t> old_changed(
      changed_.begin(), std::lower_bound(changed_.begin(), changed_.end(), old_nv));
  std::vector<uint32_t> touched = old_changed;
  for (uint32_t v = old_nv; v < nv; ++v) touched.push_back(v);
  std::vector<uint32_t> plus = AdjacentFactors(graph, touched);
  std::vector<uint32_t> minus = AdjacentFactors(ref, old_changed);
  CancelIdentical(graph, &plus, ref, &minus);

  // New variables are drawn in id order (clamped evidence is set, not
  // drawn); old variables are read from the world only where the delta
  // reads them.
  std::vector<uint32_t> draws;
  std::vector<uint8_t> world(nv, 0);
  for (uint32_t v = old_nv; v < nv; ++v) {
    if (clamp && graph.is_evidence(v)) {
      world[v] = graph.evidence_value(v) ? 1 : 0;
    } else {
      draws.push_back(v);
    }
  }
  std::vector<uint32_t> reads;
  auto add_reads = [&](const FactorGraph& g, const std::vector<uint32_t>& factors) {
    for (uint32_t f : factors) {
      size_t arity = 0;
      const Literal* lits = g.factor_literals(f, &arity);
      for (size_t i = 0; i < arity; ++i) {
        if (lits[i].var < old_nv) reads.push_back(lits[i].var);
      }
    }
  };
  add_reads(graph, plus);
  add_reads(ref, minus);
  std::sort(reads.begin(), reads.end());
  reads.erase(std::unique(reads.begin(), reads.end()), reads.end());

  const uint64_t per_world = draws.size() + plus.size() + minus.size();
  uint64_t free_vars = nv;
  if (clamp) {
    for (uint32_t v = 0; v < nv; ++v) free_vars -= graph.is_evidence(v) ? 1 : 0;
  }
  const double warm_work =
      static_cast<double>(options_.update_burn_in + options_.num_samples) *
      static_cast<double>(free_vars);
  span->Attr("delta_factors", static_cast<double>(plus.size() + minus.size()));
  span->Attr("new_draws", static_cast<double>(draws.size()));
  span->Attr("world_reads", static_cast<double>(reads.size()));
  const double mh_work =
      static_cast<double>(num_worlds) * static_cast<double>(per_world);
  if (num_worlds == 0 || mh_work > kMaxWorkVersusWarmStart * warm_work) {
    span->Attr("fallback_cost", 1);
    return Status::OK();
  }

  // Independent Metropolis–Hastings: world i, extended by its draws, is
  // the proposal; score = delta log-potential − log q(draws). The chain
  // starts on world 0 and moves to world i with probability
  // min(1, exp(score_i − score_current)).
  Rng rng(options_.seed + 3);
  std::vector<uint32_t> stays(num_worlds, 0);
  std::vector<uint8_t> current(draws.size(), 0), proposed(draws.size(), 0);
  std::vector<uint64_t> drawn_tallies(draws.size(), 0);
  size_t at = 0;
  double current_score = 0;
  uint64_t accepted = 0;
  for (size_t i = 0; i < num_worlds; ++i) {
    for (uint32_t v : reads) world[v] = worlds_.Get(i, v) ? 1 : 0;
    for (uint32_t v : draws) world[v] = 0;
    double log_q = 0;
    for (size_t k = 0; k < draws.size(); ++k) {
      const double delta = graph.PotentialDeltaCompiled(draws[k], world.data());
      const uint8_t x = rng.NextBernoulli(Sigmoid(delta)) ? 1 : 0;
      world[draws[k]] = x;
      proposed[k] = x;
      log_q += LogSigmoid(x ? delta : -delta);
    }
    double log_ratio = 0;
    for (uint32_t f : plus) {
      log_ratio += graph.weight_value(graph.factor_weight(f)) *
                   graph.EvalFactor(f, world.data());
    }
    for (uint32_t f : minus) {
      log_ratio -=
          ref.weight_value(ref.factor_weight(f)) * ref.EvalFactor(f, world.data());
    }
    const double score = log_ratio - log_q;
    if (i == 0 || score >= current_score ||
        rng.NextDouble() < std::exp(score - current_score)) {
      at = i;
      current_score = score;
      current.swap(proposed);
      ++accepted;
    }
    ++stays[at];
    for (size_t k = 0; k < draws.size(); ++k) drawn_tallies[k] += current[k];
  }
  last_work_units_ = num_worlds * per_world;
  DD_COUNTER_ADD("dd.inference.update_proposals", num_worlds);
  DD_COUNTER_ADD("dd.inference.update_accepted", accepted);
  span->Attr("proposals", static_cast<double>(num_worlds));
  span->Attr("accepted", static_cast<double>(accepted));
  if (static_cast<double>(accepted) <
      kMinAcceptanceRate * static_cast<double>(num_worlds)) {
    span->Attr("fallback_acceptance", 1);
    return Status::OK();
  }

  // Old variables: the materialized tallies, corrected for each world the
  // chain sat on other than once. New variables: the chain's own tallies.
  std::vector<int64_t> tallies(tallies_.begin(), tallies_.end());
  const size_t wpw = worlds_.words_per_world();
  for (size_t i = 0; i < num_worlds; ++i) {
    if (stays[i] == 1) continue;
    const int64_t extra = static_cast<int64_t>(stays[i]) - 1;
    const uint64_t* words = worlds_.words.data() + i * wpw;
    for (size_t w = 0; w < wpw; ++w) {
      for (uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
        tallies[w * 64 + static_cast<size_t>(__builtin_ctzll(bits))] += extra;
      }
    }
  }
  const uint64_t denom = worlds_.num_worlds;
  marginals_.assign(nv, 0.0);
  for (uint32_t v = 0; v < old_nv; ++v) {
    marginals_[v] = static_cast<double>(tallies[v]) / denom;
  }
  for (uint32_t v = old_nv; v < nv; ++v) marginals_[v] = world[v];  // clamped
  for (size_t k = 0; k < draws.size(); ++k) {
    marginals_[draws[k]] = static_cast<double>(drawn_tallies[k]) / denom;
  }
  *updated = true;
  return Status::OK();
}

Status IncrementalInference::WarmStartUpdate(const FactorGraph* new_graph,
                                             TraceSpan* span) {
  // Warm start: reuse the stored chain state for surviving variables,
  // random-init the new ones, then run a short burn-in instead of the
  // full one — the stored state is already near the stationary
  // distribution everywhere the graph did not change.
  const size_t nv = new_graph->num_variables();
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
  DD_COUNTER_ADD("dd.inference.update_fallbacks", 1);
  span->Attr("vars_reused", static_cast<double>(reused));
  span->Attr("vars_recomputed", static_cast<double>(recomputed));
  PackedWorlds worlds;
  worlds.num_variables = nv;
  worlds.words.reserve(static_cast<size_t>(std::max(options_.num_samples, 0)) *
                       worlds.words_per_world());
  {
    ForkJoinTeam team(options_.pool);
    for (int i = 0; i < options_.update_burn_in; ++i) sampler.Sweep(&team);
    for (int i = 0; i < options_.num_samples; ++i) {
      sampler.Sweep(&team);
      sampler.Accumulate();
      worlds.Append(sampler.assignment());
    }
  }
  DD_ASSIGN_OR_RETURN(marginals_, sampler.Marginals());
  chain_state_ = sampler.assignment();
  last_work_units_ += sampler.num_steps();
  // Re-materialize: later updates propose these worlds, against this graph.
  reference_ = *new_graph;
  worlds_ = std::move(worlds);
  tallies_ = sampler.true_counts();
  changed_.clear();
  return Status::OK();
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
