#include "inference/meanfield.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "inference/gibbs.h"
#include "util/string_util.h"

namespace dd {

namespace {
constexpr size_t kMaxEnumeratedArity = 20;
}  // namespace

MeanFieldEngine::MeanFieldEngine(const FactorGraph* graph,
                                 const MeanFieldOptions& options)
    : graph_(graph), options_(options) {}

double MeanFieldEngine::ExpectedFactor(uint32_t f, const std::vector<double>& mu,
                                       uint32_t v, bool value) const {
  size_t nlit = 0;
  const Literal* lits = graph_->factor_literals(f, &nlit);
  // Enumerate assignments of the other variables in the factor, weighted
  // by their q probabilities. Factor arities in grounded DeepDive graphs
  // are tiny (1-3), so this is cheap.
  std::vector<uint32_t> others;
  for (size_t i = 0; i < nlit; ++i) {
    if (lits[i].var != v) others.push_back(lits[i].var);
  }
  // Dedup (a variable may appear in several literals).
  std::sort(others.begin(), others.end());
  others.erase(std::unique(others.begin(), others.end()), others.end());
  if (others.size() > kMaxEnumeratedArity) return 0.0;  // refuse silently; arity capped upstream

  std::vector<uint8_t> assignment(graph_->num_variables(), 0);  // sparse use
  double expectation = 0.0;
  const uint64_t num_configs = 1ULL << others.size();
  for (uint64_t config = 0; config < num_configs; ++config) {
    double prob = 1.0;
    for (size_t i = 0; i < others.size(); ++i) {
      bool bit = (config >> i) & 1;
      assignment[others[i]] = bit;
      prob *= bit ? mu[others[i]] : (1.0 - mu[others[i]]);
    }
    if (prob == 0.0) continue;
    expectation += prob * graph_->EvalFactor(f, assignment.data(), v, value ? 1 : 0);
  }
  return expectation;
}

double MeanFieldEngine::Update(uint32_t v, const std::vector<double>& mu) const {
  size_t nfac = 0;
  const uint32_t* factors = graph_->var_factors(v, &nfac);
  double delta = 0.0;
  for (size_t i = 0; i < nfac; ++i) {
    uint32_t f = factors[i];
    double w = graph_->weight_value(graph_->factor_weight(f));
    if (w == 0.0) continue;
    delta += w * (ExpectedFactor(f, mu, v, true) - ExpectedFactor(f, mu, v, false));
  }
  return Sigmoid(delta);
}

Result<std::vector<double>> MeanFieldEngine::Run() {
  if (!graph_->finalized()) {
    return Status::InvalidArgument("MeanFieldEngine requires a finalized graph");
  }
  const size_t nv = graph_->num_variables();
  std::vector<double> mu(nv, 0.5);
  std::vector<uint32_t> active;
  for (uint32_t v = 0; v < nv; ++v) {
    if (options_.clamp_evidence && graph_->is_evidence(v)) {
      mu[v] = graph_->evidence_value(v) ? 1.0 : 0.0;
    } else {
      active.push_back(v);
    }
  }
  return RunFrom(std::move(mu), active);
}

Result<std::vector<double>> MeanFieldEngine::RunFrom(
    std::vector<double> mu, const std::vector<uint32_t>& active) {
  if (!graph_->finalized()) {
    return Status::InvalidArgument("MeanFieldEngine requires a finalized graph");
  }
  if (mu.size() != graph_->num_variables()) {
    return Status::InvalidArgument(
        StrFormat("mu has %zu entries, graph has %zu variables", mu.size(),
                  graph_->num_variables()));
  }
  iterations_used_ = 0;
  updates_performed_ = 0;

  std::vector<uint32_t> frontier;
  std::unordered_set<uint32_t> in_frontier;
  for (uint32_t v : active) {
    if (options_.clamp_evidence && graph_->is_evidence(v)) continue;
    if (in_frontier.insert(v).second) frontier.push_back(v);
  }

  for (int iter = 0; iter < options_.max_iterations && !frontier.empty(); ++iter) {
    ++iterations_used_;
    std::vector<uint32_t> next;
    std::unordered_set<uint32_t> in_next;
    for (uint32_t v : frontier) {
      double updated = Update(v, mu);
      if (options_.damping > 0.0) {
        updated = (1.0 - options_.damping) * updated + options_.damping * mu[v];
      }
      ++updates_performed_;
      if (std::fabs(updated - mu[v]) > options_.tolerance) {
        mu[v] = updated;
        // Cascade: the change can move any neighbor's fixed point.
        size_t nfac = 0;
        const uint32_t* factors = graph_->var_factors(v, &nfac);
        for (size_t i = 0; i < nfac; ++i) {
          size_t nlit = 0;
          const Literal* lits = graph_->factor_literals(factors[i], &nlit);
          for (size_t j = 0; j < nlit; ++j) {
            uint32_t u = lits[j].var;
            if (options_.clamp_evidence && graph_->is_evidence(u)) continue;
            if (in_next.insert(u).second) next.push_back(u);
          }
        }
      }
    }
    frontier = std::move(next);
    in_frontier = std::move(in_next);
  }
  return mu;
}

}  // namespace dd
