// Test inputs shared by the query-layer oracle and the pinned-bytes
// suites: the logs, spouse and synthetic KBC programs with their base
// rows in a fixed insertion order (row ids, hence variable ids, depend on
// it) and one incremental batch that both inserts and deletes.

#ifndef DEEPDIVE_TESTS_KBC_WORKLOADS_H_
#define DEEPDIVE_TESTS_KBC_WORKLOADS_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "core/udf.h"
#include "ddlog/parser.h"
#include "grounding/grounder.h"
#include "nlp/document.h"
#include "query/source.h"
#include "storage/catalog.h"
#include "testdata/corpus_logs.h"
#include "testdata/corpus_spouse.h"
#include "testdata/logs_app.h"
#include "testdata/spouse_app.h"
#include "testdata/synthetic_programs.h"

namespace dd {
namespace testing_workloads {

struct KbcWorkload {
  DdlogProgram program;
  /// Base rows, in insertion order.
  std::vector<std::pair<std::string, Tuple>> rows;
  /// One batch of presence changes on base relations.
  std::map<std::string, DeltaSet> delta;
};

inline Tuple StringPair(const std::string& a, const std::string& b) {
  return Tuple({Value::String(a), Value::String(b)});
}

/// Create every declared relation the rows touch and insert the rows in
/// order.
inline Status Populate(const KbcWorkload& w, Catalog* catalog) {
  for (const auto& [relation, tuple] : w.rows) {
    const RelationDecl* decl = w.program.FindDecl(relation);
    if (decl == nullptr) return Status::NotFound("undeclared " + relation);
    DD_ASSIGN_OR_RETURN(Table * table, catalog->GetOrCreateTable(relation, decl->schema));
    DD_RETURN_IF_ERROR(table->Insert(tuple).status());
  }
  return Status::OK();
}

/// The logs application over `num_windows` windows. The first three
/// quarters of the stream are the base; the batch adds the rest, deletes
/// every fifth base error event, learns one KbCauses pair and forgets
/// one KbNotCauses pair.
inline Result<KbcWorkload> LogsWorkload(int num_windows, uint64_t seed = 21) {
  LogsCorpusOptions options;
  options.num_windows = num_windows;
  options.seed = seed;
  const LogsCorpus corpus = GenerateLogsCorpus(options);
  KbcWorkload w;
  DD_ASSIGN_OR_RETURN(w.program, ParseDdlog(LogsDdlog()));
  for (const auto& [a, b] : corpus.kb_causes) {
    w.rows.emplace_back("KbCauses", StringPair(a, b));
  }
  for (const auto& [a, b] : corpus.kb_not_causes) {
    w.rows.emplace_back("KbNotCauses", StringPair(a, b));
  }
  StreamExtractor extractor = MakeLogsStreamExtractor();
  const int64_t cut = num_windows * 3 / 4;
  size_t base_events = 0;
  for (size_t i = 0; i < corpus.lines.size(); ++i) {
    const std::string text = corpus.lines[i].Format();
    StreamRecord record;
    record.index = i;
    record.line = text;
    TupleEmitter emitter;
    DD_RETURN_IF_ERROR(extractor(record, &emitter));
    for (const auto& [relation, tuples] : emitter.emitted()) {
      for (const Tuple& t : tuples) {
        if (t.at(3).AsInt() < cut) {
          if (base_events++ % 5 == 4) w.delta[relation][t] = -1;
          w.rows.emplace_back(relation, t);
        } else {
          w.delta[relation][t] = 1;
        }
      }
    }
  }
  std::set<std::pair<std::string, std::string>> known(corpus.kb_causes.begin(),
                                                      corpus.kb_causes.end());
  for (const auto& pair : corpus.causal_pairs) {
    if (known.count(pair) == 0) {
      w.delta["KbCauses"][StringPair(pair.first, pair.second)] = 1;
      break;
    }
  }
  if (!corpus.kb_not_causes.empty()) {
    const auto& [a, b] = corpus.kb_not_causes.front();
    w.delta["KbNotCauses"][StringPair(a, b)] = -1;
  }
  return w;
}

/// The spouse application (default options) over `num_documents`
/// documents. By default the first three quarters are the base, and the
/// batch adds the rest and deletes every fourth base mention pair. With
/// `batch_documents` > 0 the batch only adds the last `batch_documents`
/// documents: the small step of a KBC system taking in a few new ones.
inline Result<KbcWorkload> SpouseWorkload(int num_documents, int batch_documents = 0,
                                          uint64_t seed = 42) {
  SpouseCorpusOptions options;
  options.num_documents = num_documents;
  options.seed = seed;
  const SpouseCorpus corpus = GenerateSpouseCorpus(options);
  const SpouseAppOptions app_options;
  KbcWorkload w;
  DD_ASSIGN_OR_RETURN(w.program, ParseDdlog(SpouseDdlog(app_options)));
  for (const auto& [a, b] : corpus.kb_married) {
    w.rows.emplace_back("KbMarried", StringPair(a, b));
  }
  for (const auto& [a, b] : corpus.kb_siblings) {
    w.rows.emplace_back("KbSiblings", StringPair(a, b));
  }
  Extractor extractor = MakeSpouseExtractor(app_options);
  const bool small_batch = batch_documents > 0;
  const size_t cut = small_batch
                         ? corpus.documents.size() - static_cast<size_t>(batch_documents)
                         : corpus.documents.size() * 3 / 4;
  size_t base_pairs = 0;
  for (size_t d = 0; d < corpus.documents.size(); ++d) {
    const auto& [id, text] = corpus.documents[d];
    TupleEmitter emitter;
    DD_RETURN_IF_ERROR(extractor(AnnotateDocument(id, text, false), &emitter));
    for (const auto& [relation, tuples] : emitter.emitted()) {
      for (const Tuple& t : tuples) {
        if (d < cut) {
          if (!small_batch && relation == "MentionPair" && base_pairs++ % 4 == 3) {
            w.delta[relation][t] = -1;
          }
          w.rows.emplace_back(relation, t);
        } else {
          w.delta[relation][t] = 1;
        }
      }
    }
  }
  return w;
}

/// A synthetic program and corpus. The batch is the generator's (new
/// sentences, deleted pairs, new labels) plus one new and one deleted
/// Link, so probe and negated-atom delta positions fire too.
inline Result<KbcWorkload> SyntheticKbcWorkload(uint64_t seed, bool recursive = false) {
  SyntheticProgramOptions options;
  options.seed = seed;
  options.recursive = recursive;
  DD_ASSIGN_OR_RETURN(dd::SyntheticWorkload s, MakeSyntheticWorkload(options));
  KbcWorkload w;
  w.program = s.program;
  for (const Tuple& t : s.tokens) w.rows.emplace_back("Token", t);
  for (const Tuple& t : s.pairs) w.rows.emplace_back("Pair", t);
  for (const Tuple& t : s.links) w.rows.emplace_back("Link", t);
  for (const Tuple& t : s.labels) w.rows.emplace_back("Q_Ev", t);
  w.delta = s.delta;
  std::set<Tuple> links(s.links.begin(), s.links.end());
  if (!s.links.empty()) w.delta["Link"][s.links.front()] = -1;
  for (int64_t a = 0; a < static_cast<int64_t>(options.num_entities); ++a) {
    Tuple link({Value::Int(a), Value::Int(a)});
    if (links.count(link) == 0) {
      w.delta["Link"][link] = 1;
      break;
    }
  }
  return w;
}

/// The workloads the pinned suites run, by name: "logs" (120 windows),
/// "spouse" (40 documents), "spouse_small" (100 documents, a 2-document
/// batch) and "synthetic1" to "synthetic8".
inline Result<KbcWorkload> PinnedWorkload(const std::string& name) {
  if (name == "logs") return LogsWorkload(/*num_windows=*/120);
  if (name == "spouse") return SpouseWorkload(/*num_documents=*/40);
  if (name == "spouse_small") {
    return SpouseWorkload(/*num_documents=*/100, /*batch_documents=*/2);
  }
  return SyntheticKbcWorkload(std::stoull(name.substr(9)));
}

/// A pinned workload grounded the way the pinned suites ground it:
/// built-in UDFs, `threads` grounding threads, 16-tuple morsels and a
/// 20% holdout, after Initialize(). Owns everything the grounder reads.
struct PinnedGrounding {
  KbcWorkload workload;
  Catalog catalog;
  UdfRegistry udfs;
  std::unique_ptr<Grounder> grounder;
};

inline Result<std::unique_ptr<PinnedGrounding>> GroundPinned(const std::string& name,
                                                             size_t threads) {
  auto g = std::make_unique<PinnedGrounding>();
  DD_ASSIGN_OR_RETURN(g->workload, PinnedWorkload(name));
  DD_RETURN_IF_ERROR(Populate(g->workload, &g->catalog));
  RegisterBuiltinUdfs(&g->udfs);
  GroundingOptions options;
  options.num_threads = threads;
  options.morsel_size = 16;
  options.holdout_fraction = 0.2;
  g->grounder =
      std::make_unique<Grounder>(&g->catalog, &g->workload.program, &g->udfs, options);
  DD_RETURN_IF_ERROR(g->grounder->Initialize());
  return g;
}

/// The batch that undoes `delta`.
inline std::map<std::string, DeltaSet> Undo(std::map<std::string, DeltaSet> delta) {
  for (auto& [relation, rows] : delta) {
    for (auto& [tuple, count] : rows) count = -count;
  }
  return delta;
}

}  // namespace testing_workloads
}  // namespace dd

#endif  // DEEPDIVE_TESTS_KBC_WORKLOADS_H_
