// EXP-DIST — sharded multi-process inference via model averaging. Three
// measurements:
//
//  1. Identity: a 1-shard distributed run must be bit-identical to the
//     single-node Learner + GibbsSampler pipeline — same weights, same
//     marginals. The wire protocol, the shard worker, and the
//     coordinator are all in the loop, so any drift is a protocol bug,
//     not sampling noise.
//  2. Inference fidelity: over a fixed (pre-learned) model, 2- and
//     4-shard boundary-exchanged marginals against the single-node
//     chain. Factor replication keeps every owner's Gibbs conditional
//     complete, so the deviation must sit at the sampling noise floor
//     (a 0.05 ceiling). These numbers are deterministic per seed — they
//     do not move across machines.
//  3. Scaling: wall clock of the full learn + infer run at 1/2/4/8
//     shards (thread launch mode), plus the single-node oracle, so the
//     coordination overhead and the shard speedup are both visible.
//     The speedup bar needs the cores behind it, so it carries
//     min_cores.
//
// Writes BENCH_distributed.json (gated by ci/bench_gate.py).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench_report.h"
#include "dist/coordinator.h"
#include "inference/gibbs.h"
#include "inference/learner.h"
#include "testdata/synthetic_graphs.h"
#include "util/timer.h"

namespace {

struct Schedule {
  int epochs = 20;
  double learning_rate = 0.05;
  double decay = 0.99;
  double l2 = 0.01;
  uint64_t learn_seed = 1234;
  int burn_in = 300;
  int num_samples = 6000;
  uint64_t inference_seed = 7;
};

dd::FactorGraph MakeGraph(size_t num_variables) {
  dd::SyntheticGraphOptions options;
  options.num_variables = num_variables;
  options.factors_per_variable = 2.0;
  options.evidence_fraction = 0.2;
  options.weight_scale = 0.5;
  options.num_weights = 32;
  options.seed = 17;
  dd::FactorGraph graph = dd::MakeRandomGraph(options);
  if (!graph.Finalize().ok()) {
    std::fprintf(stderr, "graph finalize failed\n");
    std::exit(1);
  }
  return graph;
}

dd::DistributedOptions DistOptions(const Schedule& s, int num_shards) {
  dd::DistributedOptions options;
  options.num_shards = num_shards;
  options.launch = dd::DistLaunchMode::kThreads;
  options.epochs = s.epochs;
  options.learning_rate = s.learning_rate;
  options.decay = s.decay;
  options.l2 = s.l2;
  options.learn_seed = s.learn_seed;
  options.burn_in = s.burn_in;
  options.num_samples = s.num_samples;
  options.inference_seed = s.inference_seed;
  return options;
}

double MaxAbsDiff(const std::vector<double>& a, const std::vector<double>& b) {
  double max = 0;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    max = std::max(max, std::fabs(a[i] - b[i]));
  }
  return max;
}

}  // namespace

int main() {
  const int repeats = 3;
  const int num_vars = 1200;

  std::printf("=== EXP-DIST: sharded inference via model averaging ===\n");
  std::printf("hardware_concurrency: %zu  repeats (best-of): %d  "
              "variables: %d\n\n", dd::HardwareThreads(), repeats, num_vars);

  Schedule s;
  dd::FactorGraph graph = MakeGraph(static_cast<size_t>(num_vars));

  // --- single-node oracle: learn, then marginals --------------------
  dd::FactorGraph oracle_graph = graph;
  dd::LearnOptions learn;
  learn.epochs = s.epochs;
  learn.learning_rate = s.learning_rate;
  learn.decay = s.decay;
  learn.l2 = s.l2;
  learn.seed = s.learn_seed;
  double single_seconds = 0;
  std::vector<double> oracle_marginals;
  {
    dd::Stopwatch timer;
    if (!dd::Learner(&oracle_graph).Learn(learn).ok()) {
      std::fprintf(stderr, "single-node learning failed\n");
      return 1;
    }
    dd::GibbsOptions gibbs;
    gibbs.burn_in = s.burn_in;
    gibbs.num_samples = s.num_samples;
    gibbs.seed = s.inference_seed;
    gibbs.clamp_evidence = false;
    dd::GibbsSampler sampler(&oracle_graph, gibbs);
    auto marginals = sampler.RunMarginals();
    if (!marginals.ok()) {
      std::fprintf(stderr, "single-node inference failed\n");
      return 1;
    }
    oracle_marginals = *marginals;
    single_seconds = timer.Seconds();
  }

  // --- 1: identity --------------------------------------------------
  bool one_shard_identical = true;
  {
    dd::FactorGraph g = graph;
    auto result = dd::RunDistributed(&g, DistOptions(s, 1));
    if (!result.ok()) {
      std::fprintf(stderr, "1-shard run failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    for (uint32_t w = 0; w < oracle_graph.num_weights(); ++w) {
      if (result->weights[w] != oracle_graph.weight_value(w)) {
        one_shard_identical = false;
      }
    }
    if (result->marginals != oracle_marginals) one_shard_identical = false;
  }
  std::printf("1-shard vs single-node: %s\n",
              one_shard_identical ? "bit-identical" : "DIVERGED");

  // --- 2: inference fidelity over the learned model -----------------
  double dev2 = 1.0, dev4 = 1.0;
  uint64_t cut_edges = 0, initial_cut_edges = 0;
  size_t boundary_vars = 0;
  for (int shards : {2, 4}) {
    dd::FactorGraph g = oracle_graph;  // learned weights stand
    dd::DistributedOptions options = DistOptions(s, shards);
    options.epochs = 0;
    auto result = dd::RunDistributed(&g, options);
    if (!result.ok()) {
      std::fprintf(stderr, "%d-shard inference failed: %s\n", shards,
                   result.status().ToString().c_str());
      return 1;
    }
    const double dev = MaxAbsDiff(result->marginals, oracle_marginals);
    if (shards == 2) dev2 = dev;
    if (shards == 4) {
      dev4 = dev;
      cut_edges = result->cut_edges;
      initial_cut_edges = result->initial_cut_edges;
      boundary_vars = result->boundary_vars;
    }
    std::printf("%d-shard inference max |dev| vs single-node: %.4f "
                "(cut %llu/%llu edges, %zu boundary vars)\n",
                shards, dev,
                static_cast<unsigned long long>(result->cut_edges),
                static_cast<unsigned long long>(result->initial_cut_edges),
                result->boundary_vars);
  }

  // --- 3: scaling ----------------------------------------------------
  // Every repeat runs every shard count, so the best-of times behind a
  // speedup come from the same stretch of the host's drifting speed.
  const std::vector<int> shard_counts = {1, 2, 4, 8};
  std::map<int, double> seconds;  // best wall clock per shard count
  for (int r = 0; r < repeats; ++r) {
    for (int shards : shard_counts) {
      dd::FactorGraph g = graph;
      dd::Stopwatch timer;
      auto result = dd::RunDistributed(&g, DistOptions(s, shards));
      const double elapsed = timer.Seconds();
      if (!result.ok()) {
        std::fprintf(stderr, "%d-shard run failed: %s\n", shards,
                     result.status().ToString().c_str());
        return 1;
      }
      if (r == 0 || elapsed < seconds[shards]) seconds[shards] = elapsed;
    }
  }
  const double t1 = seconds[1];
  std::printf("\nfull learn + infer wall clock (thread launch mode)\n");
  std::printf("%-10s %-14s %s\n", "shards", "seconds", "speedup");
  for (int shards : shard_counts) {
    std::printf("%-10d %-14.4f %6.2fx\n", shards, seconds[shards], t1 / seconds[shards]);
  }
  const double overhead = single_seconds > 0 ? t1 / single_seconds : 0;
  std::printf("single-node (no coordinator): %.4fs -> 1-shard coordination "
              "overhead %.2fx\n", single_seconds, overhead);

  dd::BenchReport report("bench_distributed",
                         "EXP-DIST sharded inference via model averaging");
  report.Identity("one_shard_identical", one_shard_identical);
  report.Lower("inference_max_dev_2shard", dev2, "prob", {.limit = 0.05});
  report.Lower("inference_max_dev_4shard", dev4, "prob", {.limit = 0.05});
  report.Lower("cut_edges_4shard", static_cast<double>(cut_edges), "edges");
  report.Lower("initial_cut_edges_4shard", static_cast<double>(initial_cut_edges), "edges");
  report.Lower("boundary_vars_4shard", static_cast<double>(boundary_vars), "vars");
  report.Lower("single_node_s", single_seconds, "s");
  for (int shards : shard_counts) {
    report.Lower("shards_" + std::to_string(shards) + "_s", seconds[shards], "s");
  }
  report.Lower("coordination_overhead", overhead, "x");
  report.Higher("shard_speedup_2t", t1 / seconds[2], "x");
  report.Higher("shard_speedup_4t", t1 / seconds[4], "x",
                {.tolerance = 0.25, .limit = 1.0, .min_cores = 4});
  report.Higher("shard_speedup_8t", t1 / seconds[8], "x");
  const bool wrote = report.Write("BENCH_distributed.json");
  return (wrote && one_shard_identical) ? 0 : 1;
}
