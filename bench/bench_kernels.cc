// EXP-KERN — google-benchmark microbenchmarks of the hot kernels behind
// every number in §4.2: the interpreted CSR column-to-row access
// (PotentialDelta), the compiled per-variable kernel streams
// (PotentialDeltaCompiled), single-variable Gibbs steps, full sweeps at
// several densities, the grounding join, and the mean-field update.
//
// After the google-benchmark run, main() performs a head-to-head
// interpreted-vs-compiled comparison on an ads/spouse-scale graph, times
// the level sweep (DESIGN.md §18) on the same graph with one and four
// team members, and writes BENCH_kernels.json (gated by
// ci/bench_gate.py).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_report.h"
#include "inference/gibbs.h"
#include "inference/meanfield.h"
#include "query/evaluator.h"
#include "storage/catalog.h"
#include "testdata/synthetic_graphs.h"
#include "util/fork_join.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace dd {
namespace {

void BM_PotentialDelta(benchmark::State& state) {
  SyntheticGraphOptions options;
  options.num_variables = 10000;
  options.factors_per_variable = state.range(0);
  options.seed = 1;
  FactorGraph graph = MakeRandomGraph(options);
  std::vector<uint8_t> assignment(graph.num_variables(), 0);
  Rng rng(2);
  for (auto& a : assignment) a = rng.NextBernoulli(0.5);
  uint32_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph.PotentialDelta(v, assignment.data()));
    v = (v + 1) % graph.num_variables();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PotentialDelta)->Arg(1)->Arg(4)->Arg(16);

void BM_PotentialDeltaCompiled(benchmark::State& state) {
  SyntheticGraphOptions options;
  options.num_variables = 10000;
  options.factors_per_variable = state.range(0);
  options.seed = 1;
  FactorGraph graph = MakeRandomGraph(options);
  std::vector<uint8_t> assignment(graph.num_variables(), 0);
  Rng rng(2);
  for (auto& a : assignment) a = rng.NextBernoulli(0.5);
  uint32_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph.PotentialDeltaCompiled(v, assignment.data()));
    v = (v + 1) % graph.num_variables();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PotentialDeltaCompiled)->Arg(1)->Arg(4)->Arg(16);

void BM_GibbsSweep(benchmark::State& state) {
  SyntheticGraphOptions options;
  options.num_variables = state.range(0);
  options.factors_per_variable = 3.0;
  options.seed = 1;
  FactorGraph graph = MakeRandomGraph(options);
  // GibbsSampler's sweep with the interpreted CSR PotentialDelta in place
  // of the compiled kernel.
  std::vector<uint8_t> assignment(graph.num_variables());
  Rng rng(42);
  for (uint32_t v = 0; v < assignment.size(); ++v) {
    assignment[v] = graph.is_evidence(v) ? graph.evidence_value(v)
                                         : (rng.NextBernoulli(0.5) ? 1 : 0);
  }
  for (auto _ : state) {
    for (uint32_t v = 0; v < assignment.size(); ++v) {
      if (graph.is_evidence(v)) continue;
      const double delta = graph.PotentialDelta(v, assignment.data());
      assignment[v] = rng.NextBernoulli(Sigmoid(delta)) ? 1 : 0;
    }
  }
  state.SetItemsProcessed(state.iterations() * options.num_variables);
}
BENCHMARK(BM_GibbsSweep)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_GibbsSweepCompiled(benchmark::State& state) {
  SyntheticGraphOptions options;
  options.num_variables = state.range(0);
  options.factors_per_variable = 3.0;
  options.seed = 1;
  FactorGraph graph = MakeRandomGraph(options);
  GibbsOptions gibbs_options;
  GibbsSampler sampler(&graph, gibbs_options);
  if (!sampler.Init().ok()) state.SkipWithError("init failed");
  for (auto _ : state) {
    sampler.Sweep();
  }
  state.SetItemsProcessed(state.iterations() * options.num_variables);
}
BENCHMARK(BM_GibbsSweepCompiled)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_MeanFieldUpdateRound(benchmark::State& state) {
  SyntheticGraphOptions options;
  options.num_variables = state.range(0);
  options.factors_per_variable = 2.0;
  options.seed = 1;
  FactorGraph graph = MakeRandomGraph(options);
  MeanFieldOptions mf_options;
  mf_options.max_iterations = 1;  // one relaxation round per timing unit
  for (auto _ : state) {
    MeanFieldEngine engine(&graph, mf_options);
    auto result = engine.Run();
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * options.num_variables);
}
BENCHMARK(BM_MeanFieldUpdateRound)->Arg(1000)->Arg(10000);

void BM_GroundingJoin(benchmark::State& state) {
  // R(x, y) |><| S(y, z) with |R| = |S| = range(0).
  Catalog catalog;
  Schema two({{"a", ValueType::kInt}, {"b", ValueType::kInt}});
  Table* r = *catalog.CreateTable("R", two);
  Table* s = *catalog.CreateTable("S", two);
  Rng rng(3);
  const int64_t n = state.range(0);
  for (int64_t i = 0; i < n; ++i) {
    (void)r->Insert(Tuple({Value::Int(i), Value::Int(rng.NextInt(0, n / 4))}));
    (void)s->Insert(Tuple({Value::Int(rng.NextInt(0, n / 4)), Value::Int(i)}));
  }
  ConjunctiveRule rule;
  rule.head = {"Q", {Term::Var("x"), Term::Var("z")}, false};
  rule.body.push_back({"R", {Term::Var("x"), Term::Var("y")}, false});
  rule.body.push_back({"S", {Term::Var("y"), Term::Var("z")}, false});
  RuleEvaluator evaluator(&catalog);
  for (auto _ : state) {
    size_t count = 0;
    auto status = evaluator.Evaluate(rule, [&](const Tuple&) { ++count; });
    benchmark::DoNotOptimize(count);
    if (!status.ok()) state.SkipWithError("evaluate failed");
  }
}
BENCHMARK(BM_GroundingJoin)->Arg(1000)->Arg(10000);

void BM_SigmoidSample(benchmark::State& state) {
  Rng rng(4);
  double x = -4.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextBernoulli(Sigmoid(x)));
    x += 0.001;
    if (x > 4.0) x = -4.0;
  }
}
BENCHMARK(BM_SigmoidSample);

/// Head-to-head interpreted-vs-compiled sweep over an ads/spouse-scale
/// random graph (the shape §6's grounded applications produce), written
/// to BENCH_kernels.json. Both paths visit every variable in the same
/// order against the same frozen assignment, so the comparison isolates
/// the delta kernel itself.
bool RunHeadToHead() {
  SyntheticGraphOptions options;
  options.num_variables = 100000;
  options.factors_per_variable = 3.0;
  options.seed = 7;
  FactorGraph graph = MakeRandomGraph(options);
  const size_t nv = graph.num_variables();

  std::vector<uint8_t> assignment(nv);
  Rng rng(11);
  for (auto& a : assignment) a = rng.NextBernoulli(0.5);

  const int sweeps = 20;
  volatile double sink = 0.0;
  bool agree = true;

  // Warm both paths once (page in the CSR arrays and the streams) and
  // verify bit-for-bit agreement on the full graph.
  for (uint32_t v = 0; v < nv; ++v) {
    const double a = graph.PotentialDelta(v, assignment.data());
    const double b = graph.PotentialDeltaCompiled(v, assignment.data());
    if (std::memcmp(&a, &b, sizeof(a)) != 0) agree = false;
  }

  // Each path's ns/delta is its median sweep, so a host stall costs the
  // sweeps it hits rather than the measurement.
  auto median_sweep_ns = [&](auto delta) {
    std::vector<double> seconds;
    for (int s = 0; s < sweeps; ++s) {
      Stopwatch clock;
      for (uint32_t v = 0; v < nv; ++v) sink += delta(v);
      seconds.push_back(clock.Seconds());
    }
    std::sort(seconds.begin(), seconds.end());
    return seconds[sweeps / 2] * 1e9 / static_cast<double>(nv);
  };
  const double interpreted_ns = median_sweep_ns(
      [&](uint32_t v) { return graph.PotentialDelta(v, assignment.data()); });
  const double compiled_ns = median_sweep_ns(
      [&](uint32_t v) { return graph.PotentialDeltaCompiled(v, assignment.data()); });
  const double speedup = interpreted_ns / compiled_ns;

  std::printf("\n=== head-to-head: interpreted CSR vs compiled streams ===\n");
  std::printf("graph: %zu vars, %zu factors, %zu edges, %zu stream words\n", nv,
              graph.num_factors(), graph.num_edges(), graph.kernel_stream_words());
  std::printf("interpreted: %.1f ns/delta   compiled: %.1f ns/delta   "
              "speedup: %.2fx   agree: %s\n",
              interpreted_ns, compiled_ns, speedup, agree ? "yes" : "NO");

  (void)sink;

  // The level sweep on the same graph: GibbsSampler::Sweep with no pool
  // (every level on the caller) and on a team of four (the caller plus a
  // 3-worker pool). Same seed, so both chains are the same bits.
  GibbsOptions gibbs_options;
  gibbs_options.seed = 13;
  auto median_level_sweep_ns = [&](ThreadPool* pool, size_t* levels,
                                   std::vector<uint8_t>* chain) {
    GibbsSampler sampler(&graph, gibbs_options);
    if (!sampler.Init().ok()) return 0.0;
    *levels = sampler.num_levels();
    ForkJoinTeam team(pool);
    sampler.Sweep(&team);  // warm: page in the streams, start the helpers
    std::vector<double> seconds;
    for (int s = 0; s < sweeps; ++s) {
      Stopwatch clock;
      sampler.Sweep(&team);
      seconds.push_back(clock.Seconds());
    }
    std::sort(seconds.begin(), seconds.end());
    *chain = sampler.assignment();
    return seconds[sweeps / 2] * 1e9 / static_cast<double>(sampler.num_steps() / (sweeps + 1));
  };
  size_t levels = 0;
  std::vector<uint8_t> chain_1t, chain_4t;
  const double level_1t_ns = median_level_sweep_ns(nullptr, &levels, &chain_1t);
  ThreadPool pool(3);
  const double level_4t_ns = median_level_sweep_ns(&pool, &levels, &chain_4t);
  const bool chains_agree = !chain_1t.empty() && chain_1t == chain_4t;
  std::printf("level sweep: %zu levels, %.1f ns/delta on 1 member, %.1f on 4: "
              "%.2fx   chains agree: %s\n",
              levels, level_1t_ns, level_4t_ns, level_1t_ns / level_4t_ns,
              chains_agree ? "yes" : "NO");

  BenchReport report("bench_kernels", "EXP-KERN head-to-head");
  report.Identity("deltas_agree", agree);
  report.Identity("level_chains_agree", chains_agree);
  report.Lower("interpreted_ns_per_delta", interpreted_ns, "ns");
  report.Lower("compiled_ns_per_delta", compiled_ns, "ns", {.tolerance = 0.55});
  report.Higher("speedup", speedup, "x");
  report.Lower("sweep_levels", static_cast<double>(levels), "count", {.tolerance = 0});
  report.Lower("level_sweep_ns_per_delta_1t", level_1t_ns, "ns");
  report.Lower("level_sweep_ns_per_delta_4t", level_4t_ns, "ns");
  report.Higher("level_sweep_speedup_4t", level_1t_ns / level_4t_ns, "x");
  return report.Write("BENCH_kernels.json") && agree && chains_agree;
}

}  // namespace
}  // namespace dd

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return dd::RunHeadToHead() ? 0 : 2;
}
