// EXP-SCHED — task-graph scheduler: parallel recursive strata and phase
// overlap. Two measurements:
//
//  1. Recursive grounding scaling: the synthetic workload's transitive-
//     closure SCC (semi-naive fixpoint, each round morsel-parallel with
//     an ordered barrier merge) grounded at 1/2/4/8 worker threads.
//     Every parallel run's factor graph must be CRC-identical to the
//     serial oracle's.
//  2. Pipeline overlap: the spouse application run end to end with the
//     strictly sequential phase schedule (num_threads = 1) and with the
//     overlapped task-graph schedule (num_threads = 4, learning
//     overlapping the inference warm-up, eval overlapping the factor
//     build). Marginals must be identical; the overlapped wall clock
//     should not exceed the sequential one on a multicore machine.
//
// Writes BENCH_scheduler.json (gated by ci/bench_gate.py). The speedup
// bar needs the cores behind it, so it carries min_cores. The overlap
// ratio carries no bar: on a 4-core host its run-to-run spread straddles
// 1.0 (EXPERIMENTS.md EXP-SCHED).

#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_report.h"
#include "core/pipeline.h"
#include "core/udf.h"
#include "factor/io.h"
#include "grounding/grounder.h"
#include "storage/catalog.h"
#include "testdata/spouse_app.h"
#include "testdata/synthetic_programs.h"
#include "util/crc32c.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace {

struct RunResult {
  double seconds = 0;
  uint32_t crc = 0;
  size_t num_variables = 0;
  size_t num_factors = 0;
  bool ok = false;
};

RunResult GroundRecursive(const dd::SyntheticProgramOptions& sopt, size_t threads) {
  RunResult r;
  auto workload = dd::MakeSyntheticWorkload(sopt);
  if (!workload.ok()) return r;
  dd::Catalog catalog;
  if (!dd::PopulateCatalog(*workload, &catalog).ok()) return r;
  dd::UdfRegistry udfs;
  dd::RegisterBuiltinUdfs(&udfs);
  dd::GroundingOptions gopt;
  gopt.num_threads = threads;
  dd::Grounder grounder(&catalog, &workload->program, &udfs, gopt);
  dd::Stopwatch watch;
  if (!grounder.Initialize().ok()) return r;
  r.seconds = watch.Seconds();
  std::string text = dd::SerializeGraph(grounder.graph());
  r.crc = dd::Crc32c(text.data(), text.size());
  r.num_variables = grounder.stats().num_variables;
  r.num_factors = grounder.stats().num_factors;
  r.ok = true;
  return r;
}

struct PipelineResult {
  double seconds = 0;
  std::vector<double> marginals;
  bool ok = false;
};

PipelineResult RunSpousePipeline(const dd::SpouseCorpus& corpus, size_t threads) {
  PipelineResult r;
  dd::PipelineOptions options;
  options.learn.epochs = 200;
  options.learn.learning_rate = 0.05;
  options.inference.full_burn_in = 200;
  options.inference.num_samples = 800;
  options.threshold = 0.7;
  options.strategy = dd::PipelineOptions::Strategy::kSampling;
  options.num_threads = threads;
  auto pipeline = dd::MakeSpousePipeline(corpus, dd::SpouseAppOptions(), options);
  if (!pipeline.ok()) return r;
  dd::Stopwatch watch;
  if (!(*pipeline)->Run().ok()) return r;
  r.seconds = watch.Seconds();
  auto marginals = (*pipeline)->Marginals("MarriedPair");
  if (!marginals.ok()) return r;
  for (const auto& [tuple, prob] : *marginals) r.marginals.push_back(prob);
  r.ok = true;
  return r;
}

}  // namespace

int main() {
  const int repeats = 5;
  const std::vector<size_t> thread_counts = {1, 2, 4, 8};

  std::printf("=== EXP-SCHED: task-graph scheduler ===\n");
  std::printf("hardware_concurrency: %zu  repeats (best-of): %d\n\n",
              dd::HardwareThreads(), repeats);

  // --- Part 1: recursive strata scaling (transitive-closure SCC).
  dd::SyntheticProgramOptions sopt;
  sopt.seed = 7;
  sopt.recursive = true;
  sopt.num_sentences = 600;
  sopt.num_entities = 50;
  sopt.vocab_size = 150;
  sopt.tokens_per_sentence = 8;
  sopt.max_pairs_per_sentence = 3;

  // Every repeat runs every thread count, so the best-of times behind a
  // speedup come from the same stretch of the host's drifting speed. Every
  // run's graph must match the serial one.
  std::map<size_t, RunResult> recursive;  // best run per thread count
  bool identical = true;
  for (int rep = 0; rep < repeats; ++rep) {
    for (size_t t : thread_counts) {
      RunResult run = GroundRecursive(sopt, t);
      if (!run.ok) {
        std::fprintf(stderr, "recursive grounding failed at %zu threads\n", t);
        return 1;
      }
      if (rep == 0 || run.seconds < recursive[t].seconds) recursive[t] = run;
      identical = identical && run.crc == recursive[1].crc;
    }
  }
  std::printf("recursive grounding (semi-naive fixpoint, morsel-parallel rounds)\n");
  std::printf("%-10s %-14s %s\n", "threads", "seconds", "speedup");
  for (size_t t : thread_counts) {
    std::printf("%-10zu %-14.4f %6.2fx\n", t, recursive[t].seconds,
                recursive[1].seconds / recursive[t].seconds);
  }
  std::printf("graphs identical to the serial oracle: %s\n", identical ? "yes" : "NO");

  // --- Part 2: overlapped vs sequential pipeline schedule (spouse app).
  dd::SpouseCorpusOptions corpus_options;
  const int num_docs = 200;
  corpus_options.num_documents = num_docs;
  corpus_options.num_persons = 60;
  corpus_options.seed = 31;
  dd::SpouseCorpus corpus = dd::GenerateSpouseCorpus(corpus_options);

  PipelineResult sequential, overlapped;
  for (int rep = 0; rep < repeats; ++rep) {
    PipelineResult seq = RunSpousePipeline(corpus, 1);
    PipelineResult ovl = RunSpousePipeline(corpus, 4);
    if (!seq.ok || !ovl.ok) {
      std::fprintf(stderr, "spouse pipeline run failed\n");
      return 1;
    }
    if (rep == 0 || seq.seconds < sequential.seconds) sequential = std::move(seq);
    if (rep == 0 || ovl.seconds < overlapped.seconds) overlapped = std::move(ovl);
  }
  const bool marginals_identical = sequential.marginals == overlapped.marginals;
  const double overlap_ratio =
      sequential.seconds > 0 ? overlapped.seconds / sequential.seconds : 1.0;
  std::printf("\npipeline schedule (spouse, %d docs)\n", num_docs);
  std::printf("sequential (t1): %.4fs   overlapped (t4): %.4fs   ratio %.3f   "
              "marginals %s\n",
              sequential.seconds, overlapped.seconds, overlap_ratio,
              marginals_identical ? "identical" : "DIFFER");

  dd::BenchReport report("bench_scheduler", "EXP-SCHED task-graph scheduler");
  report.Identity("graphs_identical", identical);
  report.Identity("marginals_identical", marginals_identical);
  for (size_t t : thread_counts) {
    report.Lower("recursive_t" + std::to_string(t) + "_s", recursive[t].seconds, "s");
  }
  auto speedup = [&](size_t t) { return recursive[1].seconds / recursive[t].seconds; };
  report.Higher("recursive_speedup_2t", speedup(2), "x");
  report.Higher("recursive_speedup_4t", speedup(4), "x",
                {.tolerance = 0.20, .limit = 1.0, .min_cores = 4});
  report.Higher("recursive_speedup_8t", speedup(8), "x");
  report.Lower("pipeline_sequential_s", sequential.seconds, "s");
  report.Lower("pipeline_overlapped_s", overlapped.seconds, "s");
  report.Lower("overlap_ratio", overlap_ratio, "x");
  const bool wrote = report.Write("BENCH_scheduler.json");
  return (wrote && identical && marginals_identical) ? 0 : 2;
}
