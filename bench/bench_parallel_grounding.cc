// EXP-PAR — morsel-parallel grounding scaling. The same workload is
// grounded end to end (datalog evaluation + evidence scan + factor
// assembly) at 1/2/4/8 worker threads; every parallel run's factor
// graph must be CRC-identical to the serial oracle's, and the wall-clock
// ratio is the speedup the deterministic merge buys. Two workloads: the
// randomized synthetic program family (the differential harness's
// generator, scaled up) and the paper's spouse application grounded from
// extractor output.
//
// Writes BENCH_grounding.json (gated by ci/bench_gate.py). The speedups
// carry no bar: on a 4-core host the run-to-run spread of these 50 ms
// groundings straddles 1.0x (EXPERIMENTS.md EXP-PAR), so even a 1.0x
// floor would flake.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_report.h"
#include "core/udf.h"
#include "ddlog/parser.h"
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

uint32_t GraphCrc(const dd::Grounder& grounder) {
  std::string text = dd::SerializeGraph(grounder.graph());
  return dd::Crc32c(text.data(), text.size());
}

RunResult GroundSynthetic(const dd::SyntheticProgramOptions& sopt, size_t threads) {
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
  r.crc = GraphCrc(grounder);
  r.num_variables = grounder.stats().num_variables;
  r.num_factors = grounder.stats().num_factors;
  r.ok = true;
  return r;
}

// Extractor output for the first `num_docs` documents, as insert-ready
// per-relation tuple lists (kept in emission order for determinism).
std::map<std::string, dd::DeltaSet> ExtractSpouseBase(
    const dd::SpouseCorpus& corpus, size_t num_docs, const dd::Extractor& extractor) {
  std::map<std::string, dd::DeltaSet> base;
  for (size_t d = 0; d < num_docs && d < corpus.documents.size(); ++d) {
    dd::Document doc =
        dd::AnnotateDocument(corpus.documents[d].first, corpus.documents[d].second);
    dd::TupleEmitter emitter;
    if (!extractor(doc, &emitter).ok()) continue;
    for (const auto& [relation, tuples] : emitter.emitted()) {
      for (const dd::Tuple& t : tuples) base[relation][t] += 1;
    }
  }
  for (const auto& [a, b] : corpus.kb_married) {
    base["KbMarried"][dd::Tuple({dd::Value::String(a), dd::Value::String(b)})] = 1;
  }
  for (const auto& [a, b] : corpus.kb_siblings) {
    base["KbSiblings"][dd::Tuple({dd::Value::String(a), dd::Value::String(b)})] = 1;
  }
  return base;
}

RunResult GroundSpouse(const dd::DdlogProgram& program,
                       const std::map<std::string, dd::DeltaSet>& base,
                       size_t threads) {
  RunResult r;
  dd::Catalog catalog;
  for (const auto& [relation, delta] : base) {
    const dd::RelationDecl* decl = program.FindDecl(relation);
    if (decl == nullptr) continue;
    auto table = catalog.GetOrCreateTable(relation, decl->schema);
    if (!table.ok()) return r;
    for (const auto& [tuple, count] : delta) {
      if (count > 0) (void)(*table)->Insert(tuple);
    }
  }
  dd::UdfRegistry udfs;
  dd::GroundingOptions gopt;
  gopt.num_threads = threads;
  dd::Grounder grounder(&catalog, &program, &udfs, gopt);
  dd::Stopwatch watch;
  if (!grounder.Initialize().ok()) return r;
  r.seconds = watch.Seconds();
  r.crc = GraphCrc(grounder);
  r.num_variables = grounder.stats().num_variables;
  r.num_factors = grounder.stats().num_factors;
  r.ok = true;
  return r;
}

}  // namespace

int main() {
  const int repeats = 5;
  const std::vector<size_t> thread_counts = {1, 2, 4, 8};

  std::printf("=== EXP-PAR: morsel-parallel grounding scaling ===\n");
  std::printf("hardware_concurrency: %zu  repeats (best-of): %d\n\n",
              dd::HardwareThreads(), repeats);

  // --- Synthetic workload (Fig. 2-scale candidate/feature join).
  dd::SyntheticProgramOptions sopt;
  sopt.seed = 7;
  sopt.num_sentences = 1500;
  sopt.num_entities = 60;
  sopt.vocab_size = 200;
  sopt.tokens_per_sentence = 8;
  sopt.max_pairs_per_sentence = 3;

  // --- Spouse workload (the paper's running example, §3/§5).
  dd::SpouseCorpusOptions corpus_options;
  corpus_options.num_documents = 300;
  corpus_options.seed = 51;
  dd::SpouseCorpus corpus = dd::GenerateSpouseCorpus(corpus_options);
  dd::SpouseAppOptions app;
  dd::Extractor extractor = dd::MakeSpouseExtractor(app);
  auto parsed = dd::ParseDdlog(dd::SpouseDdlog(app));
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }
  auto spouse_base =
      ExtractSpouseBase(corpus, corpus_options.num_documents, extractor);

  // Every repeat runs every thread count, so the best-of times behind a
  // speedup come from the same stretch of the host's drifting speed. Every
  // run's graph must match the serial one.
  std::map<size_t, RunResult> synthetic, spouse;  // best run per thread count
  bool identical = true;
  for (int rep = 0; rep < repeats; ++rep) {
    for (size_t t : thread_counts) {
      RunResult syn = GroundSynthetic(sopt, t);
      RunResult sp = GroundSpouse(*parsed, spouse_base, t);
      if (!syn.ok || !sp.ok) {
        std::fprintf(stderr, "grounding failed at %zu threads\n", t);
        return 1;
      }
      if (rep == 0 || syn.seconds < synthetic[t].seconds) synthetic[t] = syn;
      if (rep == 0 || sp.seconds < spouse[t].seconds) spouse[t] = sp;
      identical = identical && syn.crc == synthetic[1].crc && sp.crc == spouse[1].crc;
    }
  }
  std::printf("%-10s %-16s %-16s %s\n", "threads", "synthetic(s)", "spouse(s)", "speedup");
  for (size_t t : thread_counts) {
    std::printf("%-10zu %-16.4f %-16.4f %6.2fx\n", t, synthetic[t].seconds,
                spouse[t].seconds, synthetic[1].seconds / synthetic[t].seconds);
  }
  std::printf("graphs identical to the serial oracle: %s\n", identical ? "yes" : "NO");

  dd::BenchReport report("bench_parallel_grounding", "EXP-PAR morsel-parallel grounding");
  report.Identity("graphs_identical", identical);
  for (size_t t : thread_counts) {
    report.Lower("synthetic_t" + std::to_string(t) + "_s", synthetic[t].seconds, "s");
    report.Lower("spouse_t" + std::to_string(t) + "_s", spouse[t].seconds, "s");
  }
  auto speedup = [&](size_t t) { return synthetic[1].seconds / synthetic[t].seconds; };
  report.Higher("speedup_2t", speedup(2), "x");
  report.Higher("speedup_4t", speedup(4), "x");
  report.Higher("speedup_8t", speedup(8), "x");
  return (report.Write("BENCH_grounding.json") && identical) ? 0 : 2;
}
