// EXP-KERN — google-benchmark microbenchmarks of the hot kernels behind
// every number in §4.2: the interpreted CSR column-to-row access
// (PotentialDelta), the compiled per-variable kernel streams
// (PotentialDeltaCompiled), single-variable Gibbs steps, full sweeps at
// several densities, the grounding join, and the mean-field update.
//
// After the google-benchmark run, main() performs a head-to-head
// interpreted-vs-compiled comparison on an ads/spouse-scale graph and
// writes BENCH_kernels.json (consumed by EXPERIMENTS.md).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "inference/gibbs.h"
#include "inference/meanfield.h"
#include "query/evaluator.h"
#include "storage/catalog.h"
#include "testdata/synthetic_graphs.h"
#include "util/rng.h"
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
/// Env override with a default, for CI smoke sizing (DD_BENCH_VARS,
/// DD_BENCH_SWEEPS). Keeping the defaults means the committed baseline
/// numbers stay comparable run to run.
int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') return fallback;
  int parsed = std::atoi(value);
  return parsed > 0 ? parsed : fallback;
}

void RunHeadToHead() {
  SyntheticGraphOptions options;
  options.num_variables = EnvInt("DD_BENCH_VARS", 100000);
  options.factors_per_variable = 3.0;
  options.seed = 7;
  FactorGraph graph = MakeRandomGraph(options);
  const size_t nv = graph.num_variables();

  std::vector<uint8_t> assignment(nv);
  Rng rng(11);
  for (auto& a : assignment) a = rng.NextBernoulli(0.5);

  const int sweeps = EnvInt("DD_BENCH_SWEEPS", 20);
  volatile double sink = 0.0;
  bool agree = true;

  // Warm both paths once (page in the CSR arrays and the streams) and
  // verify bit-for-bit agreement on the full graph.
  for (uint32_t v = 0; v < nv; ++v) {
    const double a = graph.PotentialDelta(v, assignment.data());
    const double b = graph.PotentialDeltaCompiled(v, assignment.data());
    if (std::memcmp(&a, &b, sizeof(a)) != 0) agree = false;
  }

  Stopwatch interpreted_clock;
  for (int s = 0; s < sweeps; ++s) {
    for (uint32_t v = 0; v < nv; ++v) {
      sink += graph.PotentialDelta(v, assignment.data());
    }
  }
  const double interpreted_s = interpreted_clock.Seconds();

  Stopwatch compiled_clock;
  for (int s = 0; s < sweeps; ++s) {
    for (uint32_t v = 0; v < nv; ++v) {
      sink += graph.PotentialDeltaCompiled(v, assignment.data());
    }
  }
  const double compiled_s = compiled_clock.Seconds();

  const double deltas = static_cast<double>(sweeps) * nv;
  const double interpreted_ns = interpreted_s * 1e9 / deltas;
  const double compiled_ns = compiled_s * 1e9 / deltas;
  const double speedup = interpreted_ns / compiled_ns;

  std::printf("\n=== head-to-head: interpreted CSR vs compiled streams ===\n");
  std::printf("graph: %zu vars, %zu factors, %zu edges, %zu stream words\n", nv,
              graph.num_factors(), graph.num_edges(), graph.kernel_stream_words());
  std::printf("interpreted: %.1f ns/delta   compiled: %.1f ns/delta   "
              "speedup: %.2fx   agree: %s\n",
              interpreted_ns, compiled_ns, speedup, agree ? "yes" : "NO");

  FILE* out = std::fopen("BENCH_kernels.json", "w");
  if (out) {
    std::fprintf(out,
                 "{\n"
                 "  \"experiment\": \"EXP-KERN head-to-head\",\n"
                 "  \"graph\": {\n"
                 "    \"num_variables\": %zu,\n"
                 "    \"num_factors\": %zu,\n"
                 "    \"num_edges\": %zu,\n"
                 "    \"kernel_stream_words\": %zu\n"
                 "  },\n"
                 "  \"sweeps\": %d,\n"
                 "  \"interpreted_ns_per_delta\": %.2f,\n"
                 "  \"compiled_ns_per_delta\": %.2f,\n"
                 "  \"speedup\": %.3f,\n"
                 "  \"deltas_agree\": %s\n"
                 "}\n",
                 nv, graph.num_factors(), graph.num_edges(),
                 graph.kernel_stream_words(), sweeps, interpreted_ns, compiled_ns,
                 speedup, agree ? "true" : "false");
    std::fclose(out);
    std::printf("wrote BENCH_kernels.json\n");
  }
  (void)sink;
}

}  // namespace
}  // namespace dd

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  dd::RunHeadToHead();
  return 0;
}
