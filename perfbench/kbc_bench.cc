// End-to-end KBC benchmark: the program run.py builds and runs.
//
//   kbc_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// Workloads (README.md records why each exists and its input sizes):
//   spouse_full    spouse KBC: documents in, Run(), PublishEpoch
//   logs_stream    a log corpus streamed through StreamIngester, then Run()
//
// Both run one lifecycle: set-up; for the --seconds window, cycles of a
// full run and the same few incremental batches; then open- and
// closed-loop serving of the last cycle's epochs. So every workload
// reports every end-to-end metric. Inputs come from --seed only.
// With --trace 0 the end-to-end metrics are measured untraced. With
// --trace 1 the lifecycle runs untraced and, in lockstep, twice traced
// (kbc_runner.h); the per-layer metrics come from the traced runs' spans.
// Every run checks its outputs; the last stdout line is the JSON result.
// A failed identity check (traced vs untraced epochs, served vs published
// answers, repeated counts) exits 1.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/error_analysis.h"
#include "kbc_runner.h"
#include "serve/epoch.h"
#include "serve/server.h"
#include "serve_load.h"
#include "span_log.h"
#include "testdata/corpus_logs.h"
#include "testdata/corpus_spouse.h"
#include "testdata/logs_app.h"
#include "testdata/spouse_app.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using dd::Status;

// ---- Pinned sizes and thread counts (nproc = 4) -----------------------

constexpr size_t kPipelineThreads = 3;  // pool workers; the caller helps: 4
constexpr size_t kStreamWorkers = 2;    // + producer + merger: 4
constexpr size_t kServerWorkers = 2;    // + kLoadSenders (2): 4
// Set-up is timed twice over, before the window and after serving. Each
// time it runs at least kMinSetups times, and up to kMaxSetups while the
// set-ups so far took under kSetupBudgetSeconds.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 31;
constexpr double kSetupBudgetSeconds = 0.5;
// Update batches applied after each full run of the window.
constexpr int kBatchesPerRun = 2;
constexpr size_t kMaxUnits = 200;  // cycles in one window

constexpr int kSpouseDocs = 3000;
constexpr int kSpouseBatchDocs = 50;
constexpr int kSpousePersons = 400;
constexpr int kSpouseMarried = 120;
constexpr int kSpouseSiblings = 60;

constexpr int kLogWindows = 30000;
constexpr int kLogBatchWindows = 1000;
constexpr int kLogServices = 12;
constexpr int kLogHosts = 16;
constexpr int kLogCausalPairs = 24;

// Sanity floors for the marginals against the planted truth.
constexpr double kMinF1 = 0.5;
constexpr double kMaxBrier = 0.2;

// ---- Small helpers ------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median without the first (warm-up) sample when there are enough.
double SteadyMedian(const std::vector<double>& v) {
  if (v.size() < 3) return Median(v);
  return Median(std::vector<double>(v.begin() + 1, v.end()));
}

uint64_t Mix(uint64_t x) {  // splitmix64: decorrelates derived seeds
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---- Result accounting ----------------------------------------------------

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              const std::string& better) {
    metrics_[name] = {value, unit, better};
  }
  /// A wrong output: the run is reported incorrect.
  void Wrong(const std::string& what) {
    correct_ = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  /// A failed identity check also makes the process exit 1.
  void Mismatch(const std::string& what) {
    Wrong(what);
    identity_failed_ = true;
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) Wrong(what);
  }
  void Ops(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// Counts one operation; a failed one is also a wrong result.
  bool Do(const Status& status, const std::string& what) {
    Ops(1, status.ok() ? 0 : 1);
    if (!status.ok()) Wrong(what + ": " + status.ToString());
    return status.ok();
  }

  int Finish() const {
    for (const auto& [name, m] : metrics_) {
      std::printf("%-32s %18.6f %-6s (%s is better)\n", name.c_str(), m.value,
                  m.unit.c_str(), m.better.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct_ ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    const char* sep = "";
    for (const auto& [name, m] : metrics_) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, name.c_str(),
                  std::isfinite(m.value) ? m.value : -1.0, m.unit.c_str());
      sep = ", ";
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return identity_failed_ ? 1 : 0;
  }

 private:
  struct Value {
    double value;
    std::string unit;
    std::string better;
  };
  std::map<std::string, Value> metrics_;
  bool correct_ = true;
  bool identity_failed_ = false;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ---- Inputs -----------------------------------------------------------------

dd::PipelineOptions KbcOptions() {
  dd::PipelineOptions options;  // the Fig. 2 schedule of bench_fig2_phases
  options.learn.epochs = 200;
  options.learn.learning_rate = 0.05;
  options.inference.full_burn_in = 200;
  options.inference.num_samples = 800;
  options.inference.update_burn_in = 30;
  options.threshold = 0.7;
  options.strategy = dd::PipelineOptions::Strategy::kSampling;
  options.num_threads = kPipelineThreads;
  return options;
}

/// A unit of input: documents, or a slice of the log stream.
struct Batch {
  std::vector<std::pair<std::string, std::string>> documents;
  std::string stream;
};

struct Inputs {
  KbcApp app;
  Batch base;                  // the full run's input
  std::vector<Batch> batches;  // incremental batches, in order
  std::string query_relation;  // scored against the planted truth
  std::unordered_set<dd::Tuple, dd::TupleHash> truth;
  std::vector<std::string> serve_relations;
};

dd::Tuple Pair(const std::string& a, const std::string& b) {
  return dd::Tuple({dd::Value::String(a), dd::Value::String(b)});
}

Inputs SpouseInputs(uint64_t seed) {
  dd::SpouseCorpusOptions corpus_options;
  corpus_options.num_persons = kSpousePersons;
  corpus_options.num_married_pairs = kSpouseMarried;
  corpus_options.num_sibling_pairs = kSpouseSiblings;
  corpus_options.num_documents = kSpouseDocs + kSpouseBatchDocs * kBatchesPerRun;
  corpus_options.seed = seed;
  dd::SpouseCorpus corpus = dd::GenerateSpouseCorpus(corpus_options);

  Inputs in;
  dd::SpouseAppOptions app_options;
  in.app.ddlog = dd::SpouseDdlog(app_options);
  in.app.extractor = dd::MakeSpouseExtractor(app_options);
  for (const auto& [a, b] : corpus.kb_married) in.app.kb.emplace_back("KbMarried", Pair(a, b));
  for (const auto& [a, b] : corpus.kb_siblings) in.app.kb.emplace_back("KbSiblings", Pair(a, b));
  in.app.options = KbcOptions();
  auto doc = corpus.documents.begin();
  in.base.documents.assign(doc, doc + kSpouseDocs);
  doc += kSpouseDocs;
  for (int b = 0; b < kBatchesPerRun; ++b, doc += kSpouseBatchDocs) {
    in.batches.push_back(Batch{{doc, doc + kSpouseBatchDocs}, ""});
  }
  in.query_relation = "MarriedPair";
  in.truth = dd::SpouseTruthTuples(corpus);
  in.serve_relations = {"MarriedMention", "MarriedPair"};
  return in;
}

Inputs LogsInputs(uint64_t seed) {
  dd::LogsCorpusOptions corpus_options;
  corpus_options.num_services = kLogServices;
  corpus_options.num_hosts = kLogHosts;
  corpus_options.num_causal_pairs = kLogCausalPairs;
  corpus_options.num_windows = kLogWindows + kLogBatchWindows * kBatchesPerRun;
  corpus_options.seed = seed;
  dd::LogsCorpus corpus = dd::GenerateLogsCorpus(corpus_options);

  Inputs in;
  in.app.ddlog = dd::LogsDdlog();
  for (const auto& [a, b] : corpus.kb_causes) in.app.kb.emplace_back("KbCauses", Pair(a, b));
  for (const auto& [a, b] : corpus.kb_not_causes) {
    in.app.kb.emplace_back("KbNotCauses", Pair(a, b));
  }
  in.app.options = KbcOptions();
  in.app.options.learn.epochs = 1000;
  in.app.options.learn.decay = 0.995;
  in.app.stream.num_workers = kStreamWorkers;
  in.app.stream_extractor = dd::MakeLogsStreamExtractor();
  // Split the time-ordered stream at window boundaries.
  in.batches.resize(kBatchesPerRun);
  for (const dd::LogLine& line : corpus.lines) {
    const int64_t w = line.ts / corpus_options.window_seconds;
    std::string& out =
        w < kLogWindows
            ? in.base.stream
            : in.batches[static_cast<size_t>((w - kLogWindows) / kLogBatchWindows)].stream;
    out += line.Format();
    out += '\n';
  }
  in.query_relation = "Causes";
  for (const auto& [a, b] : corpus.causal_pairs) in.truth.insert(Pair(a, b));
  in.serve_relations = {"Causes", "CoOccurs"};
  return in;
}

// ---- The benchmark ----------------------------------------------------------

/// One runner and where it publishes. In trace mode there are three, fed
/// the same inputs in lockstep: untraced, traced "a" and traced "b" (the
/// two traced runs must repeat every count exactly).
struct Variant {
  std::unique_ptr<KbcRunner> runner;
  SpanLog* log = nullptr;  // null for the untraced runner
  std::string dir;
};

class Bench {
 public:
  Bench(std::string workload, uint64_t seed, double seconds, bool trace,
        const std::string& out_dir)
      : workload_(std::move(workload)),
        seed_(seed),
        seconds_(seconds),
        trace_(trace),
        work_dir_(out_dir + "/work-" + std::to_string(getpid())),
        trace_path_(out_dir + "/traces/" + workload_ + "-seed" + std::to_string(seed) +
                    ".json"),
        log_a_(workload_ + "-seed" + std::to_string(seed) + "-a"),
        log_b_(workload_ + "-seed" + std::to_string(seed) + "-b") {}

  ~Bench() {
    variants_.clear();
    std::error_code ec;
    std::filesystem::remove_all(work_dir_, ec);
  }

  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  /// Runs the workload; returns the process exit code, or -1 for an
  /// unknown workload.
  int Main();

 private:
  void Lifecycle(const std::function<Inputs()>& generate);

  /// Generates the inputs several times, timing each.
  void TimeSetups(const std::function<Inputs()>& generate);
  /// A full run of `in.base` on fresh runners. Returns false on failure.
  bool FullRun(const Inputs& in);
  /// One incremental batch on the current runners. Returns false on failure.
  bool UpdateRun(const Batch& batch);
  bool Feed(Variant* v, const Batch& batch);
  void CompareEpochs(bool full);
  void CaptureAnswers(const Inputs& in);
  void Quality(const Inputs& in);
  void Serve(const Inputs& in);
  void LayerMetrics();

  const std::string workload_;
  const uint64_t seed_;
  const double seconds_;
  const bool trace_;
  const std::string work_dir_;
  const std::string trace_path_;
  int next_dir_ = 0;
  Report report_;
  SpanLog log_a_;
  SpanLog log_b_;

  Inputs inputs_;
  std::vector<Variant> variants_;
  std::string first_full_epoch_;       // determinism across full runs
  std::vector<EpochAnswers> answers_;  // the untraced runner's epochs...
  std::vector<std::string> epoch_paths_;  // ...and their files

  std::vector<double> setup_s_, kbc_run_s_, update_s_;
  std::vector<double> traced_full_s_;
};

void Bench::TimeSetups(const std::function<Inputs()>& generate) {
  // The repeats take the allowed CPUs in turn: the host slows single vCPUs
  // for seconds at a time, and a run whose set-ups all ran on slowed ones
  // read 60% slower.
  const std::vector<int> cpus = AllowedCpus();
  double total = 0;
  for (int r = 0; r < kMaxSetups; ++r) {
    if (r >= kMinSetups && total >= kSetupBudgetSeconds) break;
    if (!cpus.empty()) PinThisThread({cpus[static_cast<size_t>(r) % cpus.size()]});
    // Drop the previous set-up's inputs first so repeats start alike.
    inputs_ = Inputs();
    dd::Stopwatch watch;
    inputs_ = generate();
    setup_s_.push_back(watch.Seconds());
    total += setup_s_.back();
  }
  PinThisThread(cpus);
}

bool Bench::Feed(Variant* v, const Batch& batch) {
  for (const auto& [id, text] : batch.documents) {
    if (!report_.Do(v->runner->AddDocument(id, text), "AddDocument")) return false;
  }
  if (!batch.stream.empty()) {
    dd::IngestStats stats;
    if (!report_.Do(v->runner->Ingest(batch.stream, &stats), "Ingest")) return false;
    report_.Ops(stats.records, stats.records_quarantined);
  }
  if (!report_.Do(v->runner->Run(), "Run")) return false;
  report_.Ops(0, v->runner->documents_quarantined());  // counted by AddDocument
  return report_.Do(v->runner->Publish(v->dir), "PublishEpoch");
}

bool Bench::FullRun(const Inputs& in) {
  // Epoch ids start again in the new runners' directories.
  variants_.clear();
  answers_.clear();
  epoch_paths_.clear();
  SpanLog* logs[] = {nullptr, &log_a_, &log_b_};
  for (int k = 0; k < (trace_ ? 3 : 1); ++k) {
    Variant v;
    v.log = logs[k];
    v.dir = work_dir_ + "/epochs-" + std::to_string(next_dir_++);
    dd::Stopwatch watch;
    {
      std::unique_ptr<SpanLog::Scope> root;
      if (v.log != nullptr) root = std::make_unique<SpanLog::Scope>(v.log, "run.full");
      auto runner = v.log != nullptr ? MakeTracedRunner(in.app, v.log)
                                     : MakePipelineRunner(in.app);
      if (!report_.Do(runner.status(), "create runner")) return false;
      v.runner = std::move(runner).value();
      if (!Feed(&v, in.base)) return false;
    }
    (k == 0 ? kbc_run_s_ : traced_full_s_).push_back(watch.Seconds());
    variants_.push_back(std::move(v));
  }
  CompareEpochs(/*full=*/true);
  return true;
}

bool Bench::UpdateRun(const Batch& batch) {
  if (variants_.empty()) return false;
  for (size_t k = 0; k < variants_.size(); ++k) {
    Variant& v = variants_[k];
    dd::Stopwatch watch;
    {
      std::unique_ptr<SpanLog::Scope> root;
      if (v.log != nullptr) root = std::make_unique<SpanLog::Scope>(v.log, "run.update");
      if (!Feed(&v, batch)) return false;
    }
    if (k == 0) update_s_.push_back(watch.Seconds());
  }
  CompareEpochs(/*full=*/false);
  return true;
}

/// The untraced and traced runners must publish byte-identical epochs,
/// and every full run over the same inputs the same epoch.
void Bench::CompareEpochs(bool full) {
  auto current = [](const Variant& v) -> std::string {
    auto file = dd::EpochDirectory(v.dir).CurrentEpochFile();
    return file.ok() ? ReadFile(*file) : std::string();
  };
  if (variants_.empty()) return;  // the failed run was reported
  const std::string untraced = current(variants_[0]);
  if (untraced.empty()) report_.Mismatch("untraced run published no epoch");
  for (size_t k = 1; k < variants_.size(); ++k) {
    if (current(variants_[k]) != untraced) {
      report_.Mismatch("traced run's epoch differs from the untraced Run()'s");
    }
  }
  if (!full) return;
  if (first_full_epoch_.empty()) {
    first_full_epoch_ = untraced;
  } else if (untraced != first_full_epoch_) {
    report_.Mismatch("two full runs over the same inputs published different epochs");
  }
}

void Bench::CaptureAnswers(const Inputs& in) {
  if (variants_.empty()) return;
  const dd::EpochDirectory dir(variants_[0].dir);
  auto id = dir.CurrentEpochId();
  auto path = dir.CurrentEpochFile();
  if (!report_.Do(id.status(), "epoch id") || !report_.Do(path.status(), "epoch file")) {
    return;
  }
  auto answers = AnswersOf(*variants_[0].runner, *id, in.serve_relations);
  if (!report_.Do(answers.status(), "expected answers")) return;
  answers_.push_back(std::move(answers).value());
  epoch_paths_.push_back(*path);
}

/// F1 of the thresholded extractions and Brier score of the marginals of
/// the query relation against the planted truth.
void Bench::Quality(const Inputs& in) {
  if (variants_.empty()) {
    report_.Wrong("no run to score");
    return;
  }
  auto marginals = variants_[0].runner->Marginals(in.query_relation);
  if (!report_.Do(marginals.status(), "marginals")) return;
  std::vector<dd::Tuple> extracted;
  double squared_error = 0;
  bool in_range = true;
  for (const auto& [tuple, p] : *marginals) {
    const double y = in.truth.count(tuple) > 0 ? 1.0 : 0.0;
    squared_error += (p - y) * (p - y);
    in_range = in_range && p >= 0.0 && p <= 1.0;
    if (p >= in.app.options.threshold) extracted.push_back(tuple);
  }
  const double brier =
      marginals->empty() ? 1.0 : squared_error / static_cast<double>(marginals->size());
  const double f1 = dd::Evaluate(extracted, in.truth).f1;
  report_.Check(in_range, "marginal outside [0, 1]");
  report_.Check(f1 >= kMinF1, "f1 below the sanity floor");
  report_.Check(brier <= kMaxBrier, "brier above the sanity ceiling");
  if (!trace_) {
    report_.Metric("f1", f1, "ratio", "higher");
    report_.Metric("brier", brier, "ratio", "lower");
  }
}

/// Serves the captured epochs: loads the first, runs the open- and
/// closed-loop steps (which swap the others in), and checks every answer.
void Bench::Serve(const Inputs& in) {
  if (answers_.empty()) {
    report_.Wrong("no epoch to serve");
    return;
  }
  dd::ServerOptions server_options;
  server_options.num_workers = kServerWorkers;
  dd::KbcServer server(server_options);
  // Senders and server workers on disjoint CPUs, so every run sees the
  // same hand-off between cores (placement otherwise moves p50 by 4x).
  const std::vector<int> cpus = AllowedCpus();
  const bool pin = cpus.size() >= kLoadSenders + kServerWorkers;
  if (pin) PinThisThread(std::vector<int>(cpus.begin() + kLoadSenders,
                                          cpus.begin() + kLoadSenders + kServerWorkers));
  const Status started = server.Start();  // workers inherit the mask
  PinThisThread(cpus);
  if (!report_.Do(started, "server start")) return;
  dd::Stopwatch load_watch;
  if (!report_.Do(server.LoadAndSwap(epoch_paths_[0]), "LoadAndSwap")) return;
  const double first_load_s = load_watch.Seconds();

  LoadInputs load;
  load.relations = in.serve_relations;
  if (pin) load.sender_cpus.assign(cpus.begin(), cpus.begin() + kLoadSenders);
  load.seed = Mix(seed_ ^ 0x5e57e);
  dd::Rng rng(load.seed);
  for (const auto& by_row : answers_[0].marginals) {
    std::vector<int64_t> rows;
    for (const auto& [row, p] : by_row) rows.push_back(row);
    std::sort(rows.begin(), rows.end());
    for (size_t i = rows.size(); i > 1; --i) std::swap(rows[i - 1], rows[rng.NextBounded(i)]);
    load.rows.push_back(std::move(rows));
  }
  load.swap_paths.assign(epoch_paths_.begin() + 1, epoch_paths_.end());

  auto result = RunLoad(&server, load, answers_);
  const uint64_t last_epoch = server.current_epoch_id();
  server.Stop();
  if (!report_.Do(result.status(), "serving load")) return;
  report_.Ops(result->attempted, result->failed);
  if (result->mismatches > 0) {
    report_.Mismatch(std::to_string(result->mismatches) + " of " +
                     std::to_string(result->checked) +
                     " answers differ from the epoch they name");
  }
  report_.Check(result->epochs_monotone, "a client saw an older epoch after a newer one");
  report_.Check(last_epoch == answers_.back().epoch, "the newest epoch was not swapped in");

  for (const StepResult& s : result->steps) {
    std::fprintf(stderr,
                 "serve %s %6.0f qps: sent %7llu achieved %9.1f p50 %.3f ms p99 %.3f ms "
                 "late p99 %.3f ms failed %llu%s\n",
                 s.offered_qps > 0 ? "open" : "closed", s.offered_qps,
                 static_cast<unsigned long long>(s.sent), s.achieved_qps,
                 s.p50_ms, s.p99_ms, s.late_p99_ms, static_cast<unsigned long long>(s.failed),
                 s.meets_limit ? "" : "  (misses the limit)");
  }
  if (!trace_) {
    report_.Metric("serve_p50_ms", result->nominal_p50_ms, "ms", "lower");
    report_.Metric("serve_max_qps", result->max_qps, "1/s", "higher");
    return;
  }
  std::vector<double> loads = result->load_seconds;
  loads.push_back(first_load_s);
  const dd::ServerStats& stats = result->stats;
  const double lookups = static_cast<double>(stats.cache_hits + stats.cache_misses);
  report_.Metric("serve.load_s", Median(loads), "s", "lower");
  report_.Metric("serve.cache_hits", static_cast<double>(stats.cache_hits), "count", "higher");
  report_.Metric("serve.cache_misses", static_cast<double>(stats.cache_misses), "count",
                 "lower");
  report_.Metric("serve.cache_hit_ratio",
                 lookups > 0 ? static_cast<double>(stats.cache_hits) / lookups : 0, "ratio",
                 "higher");
  report_.Metric("serve.shed",
                 static_cast<double>(stats.shed_queue_full + stats.shed_queue_budget),
                 "count", "lower");
  report_.Metric("serve.late_ms", result->nominal_late_p99_ms, "ms", "lower");
  report_.Metric("serve.p99_ms", result->nominal_p99_ms, "ms", "lower");
  report_.Metric("serve.p99_pooled_ms", result->nominal_pooled_p99_ms, "ms", "lower");
}

// Per-layer metrics: each traced unit (root span: a full run or an update
// batch) gives a ledger of layer self times and counts. A layer's metric
// is its median over the full runs, from both traced runs; a layer that
// only runs in update batches (DRed, inference Update) takes its median
// from those.
void Bench::LayerMetrics() {
  struct LayerMetric {
    const char* name;
    const char* unit;
    const char* better;
  };
  static const LayerMetric kLayers[] = {
      {"nlp.annotate_s", "s", "lower"},
      {"nlp.docs", "count", "higher"},
      {"core.add_document_s", "s", "lower"},
      {"core.extract_s", "s", "lower"},
      {"core.tuples", "count", "higher"},
      {"stream.ingest_s", "s", "lower"},
      {"stream.mb_per_s", "MB/s", "higher"},
      {"stream.records", "count", "higher"},
      {"stream.chunks", "count", "higher"},
      {"stream.peak_in_flight_bytes", "bytes", "lower"},
      {"stream.quarantined", "count", "lower"},
      {"storage.load_s", "s", "lower"},
      {"storage.rows", "count", "higher"},
      {"query.eval_s", "s", "lower"},
      {"grounding.initialize_s", "s", "lower"},
      {"grounding.apply_deltas_s", "s", "lower"},
      {"grounding.build_s", "s", "lower"},
      {"grounding.variables", "count", "higher"},
      {"grounding.factors", "count", "higher"},
      {"grounding.changed_vars", "count", "lower"},
      {"inference.learn_s", "s", "lower"},
      {"inference.learn_epoch_ms", "ms", "lower"},
      {"inference.materialize_s", "s", "lower"},
      {"inference.update_s", "s", "lower"},
      {"inference.work_units", "count", "lower"},
      {"inference.ns_per_work_unit", "ns", "lower"},
      {"core.calibrate_s", "s", "lower"},
      {"serve.publish_s", "s", "lower"},
      {"serve.epoch_bytes", "bytes", "lower"},
      {"trace.wall_s", "s", "lower"},
  };
  // Attributes that are counts must repeat exactly between the two traced
  // runs; the ones ending in _s are layer-reported times, and the ingest
  // high-water mark depends on thread timing.
  auto is_count = [](const std::string& key) {
    return (key.size() < 2 || key.compare(key.size() - 2, 2, "_s") != 0) &&
           key != "stream.peak_in_flight_bytes";
  };
  auto get = [](const std::map<std::string, double>& m, const std::string& key) {
    auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
  };

  // samples[root name][metric] over that kind of unit.
  std::map<std::string, std::map<std::string, std::vector<double>>> samples;
  double worst_unattributed = 0;
  for (const std::string root_name : {"run.full", "run.update"}) {
    const std::vector<int> roots_a = log_a_.Roots(root_name);
    const std::vector<int> roots_b = log_b_.Roots(root_name);
    if (roots_a.size() != roots_b.size()) {
      report_.Mismatch("traced runs recorded different numbers of units");
      continue;
    }
    auto& kind = samples[root_name];
    for (size_t i = 0; i < roots_a.size(); ++i) {
      const SpanLog::Ledger a = log_a_.RootLedger(roots_a[i]);
      const SpanLog::Ledger b = log_b_.RootLedger(roots_b[i]);
      for (const auto& [key, value] : a.attrs) {
        if (is_count(key) && get(b.attrs, key) != value) {
          report_.Mismatch("count " + key + " differs between two traced runs");
        }
      }
      for (const SpanLog::Ledger* ledger : {&a, &b}) {
        const auto& self = ledger->self_s;
        // The root's own self time is what no layer span covers.
        worst_unattributed =
            std::max(worst_unattributed, get(self, root_name) / ledger->wall_s);
        kind["trace.wall_s"].push_back(ledger->wall_s);
        for (const auto& [name, value] : self) {
          if (name != root_name) kind[name + "_s"].push_back(value);
        }
        for (const auto& [key, value] : ledger->attrs) kind[key].push_back(value);
        const double work_units = get(ledger->attrs, "inference.work_units");
        if (work_units > 0) {
          kind["inference.ns_per_work_unit"].push_back(
              1e9 * (get(self, "inference.materialize") + get(self, "inference.update")) /
              work_units);
        }
        if (self.count("inference.learn") > 0) {
          kind["inference.learn_epoch_ms"].push_back(
              1e3 * get(self, "inference.learn") /
              get(ledger->attrs, "inference.learn_epochs"));
        }
        if (get(self, "stream.ingest") > 0) {
          kind["stream.mb_per_s"].push_back(get(ledger->attrs, "stream.bytes") / 1e6 /
                                            get(self, "stream.ingest"));
        }
      }
    }
  }
  for (const LayerMetric& m : kLayers) {
    const auto& full = samples["run.full"][m.name];
    report_.Metric(m.name, Median(full.empty() ? samples["run.update"][m.name] : full), m.unit,
                   m.better);
  }
  // Ledger: layer self times must cover the traced wall time within 5%.
  report_.Check(!samples["run.full"]["trace.wall_s"].empty(), "no traced unit recorded");
  report_.Check(worst_unattributed <= 0.05,
                "layer self times miss more than 5% of traced wall time");
  report_.Metric("trace.unattributed_share", worst_unattributed, "ratio", "lower");
  report_.Metric("trace.overhead_s", SteadyMedian(traced_full_s_) - SteadyMedian(kbc_run_s_),
                 "s", "lower");

  std::error_code ec;
  std::filesystem::create_directories(std::filesystem::path(trace_path_).parent_path(), ec);
  std::ofstream out(trace_path_);
  out << "[" << log_a_.ToJson() << "," << log_b_.ToJson() << "]\n";
}

// ---- Workloads ----------------------------------------------------------------

// Set-up generates the inputs; it is timed before the window and again
// after serving, so the host's phase at one moment does not decide
// setup_s. The window repeats cycles of a full run (Fig. 2's run; the log
// stream through the bounded-memory ingester) and the same kBatchesPerRun
// update batches (DRed grounding + warm-started inference), so both kinds
// of sample spread over the whole window. The serving loads then serve
// the last cycle's epochs.
void Bench::Lifecycle(const std::function<Inputs()>& generate) {
  inputs_ = generate();  // warm-up: the first set-up faults its memory in
  if (!trace_) TimeSetups(generate);
  dd::Stopwatch window;
  for (size_t cycle = 0;
       cycle < 2 || (window.Seconds() < seconds_ && cycle < kMaxUnits); ++cycle) {
    if (!FullRun(inputs_)) return;
    CaptureAnswers(inputs_);
    for (const Batch& batch : inputs_.batches) {
      if (!UpdateRun(batch)) return;
      CaptureAnswers(inputs_);
    }
  }
  Quality(inputs_);
  Serve(inputs_);
  if (!trace_) {
    variants_.clear();
    TimeSetups(generate);
  }
}

int Bench::Main() {
  dd::SetLogLevel(dd::LogLevel::kWarning);
  // With one malloc arena per thread, runs of one process switched
  // between about 0.9 and 2 s at random points, depending on which arena
  // the pipeline's, ingester's and server's threads (new ones every run)
  // happened to draw. One arena for all threads is steady. glibc raises
  // its mmap threshold the first time it frees a large mmapped block; it
  // is fixed at the value it would reach. Freed memory is never returned
  // to the kernel, so later runs reuse it instead of faulting pages in.
  mallopt(M_ARENA_MAX, 1);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  std::error_code ec;
  std::filesystem::create_directories(work_dir_, ec);
  // Each workload's inputs come from its own stream of the seed.
  if (workload_ == "spouse_full") {
    const uint64_t seed = Mix(seed_);
    Lifecycle([seed] { return SpouseInputs(seed); });
  } else if (workload_ == "logs_stream") {
    const uint64_t seed = Mix(seed_ + 2);
    Lifecycle([seed] { return LogsInputs(seed); });
  } else {
    return -1;
  }
  if (trace_) {
    LayerMetrics();
  } else {
    report_.Metric("setup_s", Median(setup_s_), "s", "lower");
    // The process's first full run and batch are warm-ups.
    report_.Metric("kbc_run_s", SteadyMedian(kbc_run_s_), "s", "lower");
    report_.Metric("update_s", SteadyMedian(update_s_), "s", "lower");
    report_.Metric("peak_rss_mb", PeakRssMb(), "MB", "lower");
  }
  auto print = [](const char* name, const std::vector<double>& v) {
    std::fprintf(stderr, "%s (%zu):", name, v.size());
    for (double x : v) std::fprintf(stderr, " %.4f", x);
    std::fprintf(stderr, "\n");
  };
  print("setup_s samples", setup_s_);
  print("kbc_run_s samples", kbc_run_s_);
  print("update_s samples", update_s_);
  return report_.Finish();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::string workload, out_dir = ".bench_build/perfbench";
  long long seed = -1;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::atoll(value);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (workload.empty() || seed < 0 || seconds <= 0 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "usage: kbc_bench --workload <spouse_full|logs_stream> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  perfbench::Bench bench(workload, static_cast<uint64_t>(seed), seconds, trace == 1,
                         out_dir);
  const int code = bench.Main();
  if (code < 0) {
    std::fprintf(stderr, "unknown workload %s\n", workload.c_str());
    return 2;
  }
  return code;
}
