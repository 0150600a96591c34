// EXP-INC — §4.2 incremental inference: "We conducted an experimental
// evaluation of these two approaches [sampling-based vs variational-
// based materialization] ... sensitive to changes in the size of the
// factor graph, the sparsity of correlations, and the anticipated number
// of future changes. The performance varies by up to two orders of
// magnitude in different points of the space. To automatically choose
// the materialization strategy, we use a simple rule-based optimizer."
//
// We sweep (graph size, density, number of update batches), apply the
// same sequence of small graph deltas under both strategies, and report
// total update work (hardware-neutral units, defined beside
// IncrementalInference::last_work_units(): Metropolis–Hastings draws and
// delta-factor evaluations for sampling, plus the sweeps of any warm-
// start fallback; mean-field updates for variational) plus wall-clock.
// The sampling columns also show its accepted/proposed worlds and
// fallbacks over the sequence. The optimizer's pick is printed per point.

#include <cstdio>
#include <string>

#include "inference/incremental.h"
#include "testdata/synthetic_graphs.h"
#include "util/metrics.h"
#include "util/timer.h"

namespace {
uint64_t CounterValue(const char* name) {
  return dd::MetricsRegistry::Instance().GetCounter(name)->Value();
}
}  // namespace

int main() {
  std::printf("=== EXP-INC: sampling vs variational materialization ===\n");
  std::printf("%-8s %-8s %-9s %-14s %-14s %-11s %-12s %-13s %-10s %s\n", "vars",
              "density", "changes", "sampling work", "variational", "work ratio",
              "wall ratio", "accepted", "fallbacks", "optimizer");

  double min_ratio = 1e300, max_ratio = 0;
  for (size_t num_vars : {2000, 10000}) {
    for (double density : {0.5, 2.0, 8.0}) {
      for (int num_changes : {1, 10, 30}) {
        dd::SyntheticGraphOptions base;
        base.num_variables = num_vars;
        base.factors_per_variable = density;
        base.evidence_fraction = 0.1;
        base.seed = 61;
        dd::FactorGraph base_graph = dd::MakeRandomGraph(base);

        dd::IncrementalOptions options;
        options.full_burn_in = 50;
        options.update_burn_in = 8;
        options.num_samples = 40;
        options.mf_max_iterations = 100;
        options.mf_tolerance = 1e-3;
        options.mf_damping = 0.2;

        uint64_t work[2] = {0, 0};
        double seconds[2] = {0, 0};
        uint64_t proposals = 0, accepted = 0, fallbacks = 0;
        const dd::MaterializationStrategy strategies[2] = {
            dd::MaterializationStrategy::kSampling,
            dd::MaterializationStrategy::kVariational};
        for (int s = 0; s < 2; ++s) {
          dd::IncrementalInference engine(&base_graph, strategies[s], options);
          if (!engine.Materialize().ok()) {
            std::fprintf(stderr, "materialize failed\n");
            return 1;
          }
          // Apply a sequence of versions, each extending the previous one
          // with a sliver of new variables/factors (0.2% of the graph per
          // change) — the shape incremental grounding produces.
          size_t sliver = num_vars / 500 + 1;
          std::vector<dd::FactorGraph> versions;
          std::vector<std::vector<uint32_t>> changed(num_changes);
          versions.reserve(num_changes);
          for (int c = 0; c < num_changes; ++c) {
            const dd::FactorGraph& prev = c == 0 ? base_graph : versions.back();
            versions.push_back(
                dd::ExtendGraph(prev, sliver, 2.0, 200 + c, &changed[c]));
          }
          const uint64_t proposals_before = CounterValue("dd.inference.update_proposals");
          const uint64_t accepted_before = CounterValue("dd.inference.update_accepted");
          const uint64_t fallbacks_before = CounterValue("dd.inference.update_fallbacks");
          dd::Stopwatch watch;
          for (int c = 0; c < num_changes; ++c) {
            auto result = engine.Update(&versions[c], changed[c]);
            if (!result.ok()) {
              std::fprintf(stderr, "update failed: %s\n",
                           result.status().ToString().c_str());
              return 1;
            }
            work[s] += engine.last_work_units();
          }
          seconds[s] = watch.Seconds();
          if (strategies[s] == dd::MaterializationStrategy::kSampling) {
            proposals = CounterValue("dd.inference.update_proposals") - proposals_before;
            accepted = CounterValue("dd.inference.update_accepted") - accepted_before;
            fallbacks = CounterValue("dd.inference.update_fallbacks") - fallbacks_before;
          }
        }

        auto pick = dd::ChooseStrategy(num_vars, density * 2.0, num_changes);
        double ratio = static_cast<double>(work[0]) / (work[1] ? work[1] : 1);
        if (ratio < min_ratio) min_ratio = ratio;
        if (ratio > max_ratio) max_ratio = ratio;
        char work_ratio[32], wall_ratio[32];
        std::snprintf(work_ratio, sizeof(work_ratio), "%.1fx", ratio);
        std::snprintf(wall_ratio, sizeof(wall_ratio), "%.1fx",
                      seconds[1] > 0 ? seconds[0] / seconds[1] : 0.0);
        const std::string acceptance =
            std::to_string(accepted) + "/" + std::to_string(proposals);
        std::printf("%-8zu %-8.1f %-9d %-14llu %-14llu %-11s %-12s %-13s %-10llu %s\n",
                    num_vars, density, num_changes,
                    static_cast<unsigned long long>(work[0]),
                    static_cast<unsigned long long>(work[1]), work_ratio, wall_ratio,
                    acceptance.c_str(), static_cast<unsigned long long>(fallbacks),
                    dd::StrategyName(pick));
      }
    }
  }
  std::printf("\nwork ratio (sampling/variational) spans %.1fx .. %.1fx across the\n"
              "space — the paper's \"up to two orders of magnitude\" sensitivity.\n",
              min_ratio, max_ratio);
  return 0;
}
