#include "core/pipeline.h"

#include "core/diagnostics.h"
#include "ddlog/parser.h"
#include "stream/ingester.h"
#include "serve/epoch.h"
#include "util/failpoint.h"
#include "util/retry.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/string_util.h"
#include "util/task_graph.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/trace.h"

namespace dd {

void TupleEmitter::Emit(const std::string& relation, Tuple tuple) {
  emitted_[relation].push_back(std::move(tuple));
}

DeepDivePipeline::DeepDivePipeline(PipelineOptions options)
    : options_(std::move(options)) {}

DeepDivePipeline::~DeepDivePipeline() = default;

Status DeepDivePipeline::LoadProgram(std::string_view ddlog_source) {
  if (has_run_) return Status::Internal("cannot reload program after Run()");
  DD_ASSIGN_OR_RETURN(program_, ParseDdlog(ddlog_source));
  DD_RETURN_IF_ERROR(AnalyzeProgram(program_));
  program_loaded_ = true;
  return Status::OK();
}

void DeepDivePipeline::RegisterExtractor(Extractor extractor) {
  extractors_.push_back(std::move(extractor));
}

Status DeepDivePipeline::AddDocument(std::string id, const std::string& text) {
  if (!document_ids_.insert(id).second) {
    return Status::AlreadyExists("duplicate document id: " + id);
  }
  documents_.push_back(AnnotateDocument(std::move(id), text, options_.html_documents));
  return Status::OK();
}

void DeepDivePipeline::QueueDelta(const std::string& relation, Tuple tuple,
                                  int64_t count) {
  queued_deltas_[relation][std::move(tuple)] += count;
}

namespace {

/// Feeds merged chunk results straight into QueueDelta in exact record
/// order — the same call sequence a batch loop over the same records
/// would make, so everything downstream (delta-set iteration, table row
/// ids, factor graph bytes) is identical to the batch path.
class QueueDeltaSink : public StreamSink {
 public:
  explicit QueueDeltaSink(DeepDivePipeline* pipeline) : pipeline_(pipeline) {}
  Status Apply(ChunkResult&& result) override {
    for (auto& [relation, tuple] : result.tuples) {
      pipeline_->QueueDelta(relation, std::move(tuple), 1);
    }
    return Status::OK();
  }

 private:
  DeepDivePipeline* pipeline_;
};

}  // namespace

Status DeepDivePipeline::IngestStream(StreamIngester* ingester,
                                      ByteSource* source) {
  QueueDeltaSink sink(this);
  return ingester->Ingest(source, &sink);
}

Status DeepDivePipeline::ExtractDocument(const Document& doc,
                                         TupleEmitter* emitter) {
  Status injected;
  DD_FAILPOINT(failpoints::kPipelineExtractor, &injected);
  DD_RETURN_IF_ERROR(injected);
  for (const Extractor& extractor : extractors_) {
    DD_RETURN_IF_ERROR(extractor(doc, emitter));
  }
  return Status::OK();
}

Status DeepDivePipeline::RunExtraction(std::map<std::string, DeltaSet>* deltas) {
  run_stats_ = RunStats();
  const size_t batch_size = documents_.size() - next_document_;
  // UDFs are the flakiest part of a KBC system: retry each document once
  // on a fresh emitter, then quarantine it rather than let one bad
  // document kill hours of work. The policy (attempts, no backoff —
  // extraction is deterministic, so sleeping buys nothing) lives in the
  // shared retry helper.
  RetryOptions retry;
  retry.max_attempts = 2;
  retry.initial_backoff_ms = 0;
  retry.jitter_fraction = 0;
  Rng retry_rng(0);  // unused while backoff is 0; RetryWithBackoff needs one
  for (; next_document_ < documents_.size(); ++next_document_) {
    const Document& doc = documents_[next_document_];
    TupleEmitter emitter;
    Status status = RetryWithBackoff(
        retry, &retry_rng,
        [&]() -> Status { return ExtractDocument(doc, &emitter); },
        /*sleep_fn=*/{},
        [&](int /*attempt*/, const Status& /*error*/, double /*sleep_ms*/) {
          ++run_stats_.extractor_retries;
          DD_COUNTER_ADD("dd.pipeline.extractor_retries", 1);
          emitter = TupleEmitter();
        });
    if (!status.ok()) {
      ++run_stats_.documents_quarantined;
      DD_COUNTER_ADD("dd.pipeline.documents_quarantined", 1);
      run_stats_.quarantined.push_back({doc.id, status});
      DD_LOG(Warning) << "quarantined document '" << doc.id
                      << "': " << status.ToString();
      continue;
    }
    ++run_stats_.documents_processed;
    for (const auto& [relation, tuples] : emitter.emitted()) {
      for (const Tuple& t : tuples) {
        (*deltas)[relation][t] += 1;
      }
    }
  }
  if (run_stats_.documents_quarantined > 0 &&
      static_cast<double>(run_stats_.documents_quarantined) >
          options_.max_quarantine_fraction * static_cast<double>(batch_size)) {
    // Systematic extractor failure, not occasional flakiness — surface
    // the first error with its original code and message.
    return run_stats_.quarantined.front().error;
  }
  // Fold in raw queued deltas.
  for (auto& [relation, delta] : queued_deltas_) {
    for (auto& [tuple, count] : delta) {
      (*deltas)[relation][tuple] += count;
    }
  }
  queued_deltas_.clear();
  return Status::OK();
}

Status DeepDivePipeline::RunGrounding(
    const std::map<std::string, DeltaSet>& deltas) {
  if (!has_run_) {
    // Bulk-load the first batch directly into the base tables.
    for (const auto& [relation, delta] : deltas) {
      const RelationDecl* decl = program_.FindDecl(relation);
      if (decl == nullptr) {
        return Status::NotFound(
            "extractor emitted into undeclared relation: " + relation);
      }
      DD_ASSIGN_OR_RETURN(Table * table,
                          catalog_.GetOrCreateTable(relation, decl->schema));
      for (const auto& [tuple, count] : delta) {
        if (count <= 0) continue;  // deletions meaningless on first load
        DD_RETURN_IF_ERROR(table->Insert(tuple).status());
      }
    }
    GroundingOptions grounding_options;
    grounding_options.holdout_fraction = options_.holdout_fraction;
    grounding_options.pool = pool_.get();
    // Sequential pipeline => sequential grounder (the full oracle).
    if (pool_ == nullptr) grounding_options.num_threads = 1;
    grounder_ = std::make_unique<Grounder>(&catalog_, &program_, &udfs_,
                                           grounding_options);
    DD_RETURN_IF_ERROR(grounder_->Initialize());
  } else if (!deltas.empty()) {
    DD_RETURN_IF_ERROR(grounder_->ApplyDeltas(deltas));
  }
  return Status::OK();
}

Status DeepDivePipeline::RunCalibration() {
  run_calibration_.clear();
  for (const RelationDecl& decl : program_.declarations) {
    if (!decl.is_query) continue;
    DD_ASSIGN_OR_RETURN(CalibrationPair pair, Calibration(decl.name));
    run_calibration_.emplace(decl.name, std::move(pair));
  }
  return Status::OK();
}

Result<DistributedResult> DeepDivePipeline::RunDistributed(
    const DistributedOptions& dist) {
  if (!program_loaded_) return Status::Internal("LoadProgram() before Run()");
  DD_TRACE_SPAN_VAR(run_span, "pipeline.distributed");

  Stopwatch extraction_watch;
  std::map<std::string, DeltaSet> deltas;
  DD_RETURN_IF_ERROR(RunExtraction(&deltas));
  timings_.extraction_seconds = extraction_watch.Seconds();

  Stopwatch grounding_watch;
  DD_RETURN_IF_ERROR(RunGrounding(deltas));
  timings_.grounding_seconds = grounding_watch.Seconds();

  DD_RETURN_IF_ERROR(PrepareRunDirectory());

  // Topology comes from the caller; the schedule always comes from the
  // pipeline's own options so RunDistributed() answers the same question
  // Run() answers (and with one shard, with the same bits).
  DistributedOptions opts = dist;
  opts.epochs = options_.learn.epochs;
  opts.learning_rate = options_.learn.learning_rate;
  opts.decay = options_.learn.decay;
  opts.l2 = options_.learn.l2;
  opts.sweeps_per_epoch = options_.learn.sweeps_per_epoch;
  opts.learn_seed = options_.learn.seed;
  opts.burn_in = options_.inference.full_burn_in;
  opts.num_samples = options_.inference.num_samples;
  opts.inference_seed = options_.inference.seed;
  if (opts.checkpoint_dir.empty() && run_dir_ != nullptr) {
    opts.checkpoint_dir = run_dir_->path();
  }

  Stopwatch dist_watch;
  FactorGraph* graph = grounder_->mutable_graph();
  DD_RETURN_IF_ERROR(graph->Finalize());
  DD_ASSIGN_OR_RETURN(DistributedResult result,
                      dd::RunDistributed(graph, opts));
  grounder_->SaveWeights();
  marginals_ = result.marginals;
  // Distributed sampling leaves no single-node materialization to reuse;
  // a later incremental Run() rebuilds inference state from scratch.
  chosen_strategy_ = MaterializationStrategy::kSampling;
  inference_ = nullptr;
  inference_materialized_ = false;
  timings_.learning_seconds = 0;
  timings_.inference_seconds = dist_watch.Seconds();
  DD_RETURN_IF_ERROR(UpdateManifestPhase("done"));
  has_run_ = true;

  Stopwatch calibration_watch;
  DD_RETURN_IF_ERROR(RunCalibration());
  timings_.calibration_seconds = calibration_watch.Seconds();
  run_span.Attr("num_shards", static_cast<double>(opts.num_shards));
  return result;
}

Status DeepDivePipeline::SetRunDirectory(const std::string& dir) {
  if (has_run_) return Status::Internal("SetRunDirectory() before Run()");
  run_dir_ = std::make_unique<RunDirectory>(dir);
  resuming_ = false;
  return run_dir_->Create();
}

Status DeepDivePipeline::ResumeFrom(const std::string& dir) {
  DD_RETURN_IF_ERROR(SetRunDirectory(dir));
  resuming_ = true;
  return Status::OK();
}

Status DeepDivePipeline::PrepareRunDirectory() {
  if (run_dir_ == nullptr) return Status::OK();
  const uint32_t crc = GraphFingerprint(grounder_->graph());
  if (resuming_ && run_dir_->HasManifest()) {
    DD_ASSIGN_OR_RETURN(auto manifest, run_dir_->ReadManifest());
    DD_ASSIGN_OR_RETURN(uint64_t manifest_crc, MetaU64(manifest, "graph_crc"));
    if (manifest_crc != crc) {
      return Status::InvalidArgument(StrFormat(
          "run directory %s belongs to a different pipeline: manifest graph "
          "fingerprint %llu, grounded graph %u",
          run_dir_->path().c_str(), static_cast<unsigned long long>(manifest_crc),
          crc));
    }
    return Status::OK();
  }
  // Fresh run (or resume of a run killed before its manifest existed):
  // drop stale snapshots so an unrelated checkpoint cannot leak in.
  if (!resuming_) DD_RETURN_IF_ERROR(run_dir_->Clear());
  return run_dir_->WriteManifest(
      {{"graph_crc", StrFormat("%u", crc)}, {"phase", "grounded"}});
}

Status DeepDivePipeline::UpdateManifestPhase(const std::string& phase) {
  if (run_dir_ == nullptr) return Status::OK();
  std::map<std::string, std::string> manifest;
  if (run_dir_->HasManifest()) {
    DD_ASSIGN_OR_RETURN(manifest, run_dir_->ReadManifest());
  }
  manifest["phase"] = phase;
  return run_dir_->WriteManifest(manifest);
}

MaterializationStrategy DeepDivePipeline::PickStrategy() const {
  switch (options_.strategy) {
    case PipelineOptions::Strategy::kSampling:
      return MaterializationStrategy::kSampling;
    case PipelineOptions::Strategy::kVariational:
      return MaterializationStrategy::kVariational;
    case PipelineOptions::Strategy::kAuto:
      break;
  }
  const FactorGraph& graph = grounder_->graph();
  double avg_degree = graph.num_variables() == 0
                          ? 0.0
                          : static_cast<double>(graph.num_edges()) /
                                graph.num_variables();
  return ChooseStrategy(graph.num_variables(), avg_degree,
                        options_.anticipated_changes);
}

Status DeepDivePipeline::Run() {
  if (!program_loaded_) return Status::Internal("LoadProgram() before Run()");
  // Root span: children named below are exactly the Fig. 2 phases and
  // surface as "phases" in RunMetrics::ToJson().
  DD_TRACE_SPAN_VAR(run_span, "pipeline");

  const size_t threads =
      options_.num_threads == 0 ? HardwareThreads() : options_.num_threads;
  if (threads > 1 && pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(threads);
  }

  // The run is a task graph rather than a fixed call sequence: phases
  // with no data dependency on each other overlap (weight learning and
  // the inference warm-up below), while explicit edges order every
  // hand-off. With num_threads == 1 the graph degenerates to exactly the
  // sequential schedule (ready nodes in creation order) — the oracle the
  // differential tests compare against; results are byte-identical at
  // every thread count.
  TaskGraph tg;
  tg.set_trace_root(TraceSpan::CurrentPath());

  std::map<std::string, DeltaSet> deltas;

  // Phase 1: candidate generation + feature extraction UDFs (§3 step 1).
  const TaskGraph::NodeId extraction =
      tg.AddNode("extraction", [this, &deltas](TraceSpan* span) -> Status {
        DD_RETURN_IF_ERROR(RunExtraction(&deltas));
        if (span != nullptr) {
          span->Attr("documents_processed",
                     static_cast<double>(run_stats_.documents_processed));
          span->Attr("documents_quarantined",
                     static_cast<double>(run_stats_.documents_quarantined));
        }
        DD_COUNTER_ADD("dd.pipeline.documents_processed",
                       run_stats_.documents_processed);
        return Status::OK();
      });

  // Phase 2: grounding — candidate mappings, supervision rules, and
  // factor generation, incrementally after the first run (§3 steps 1-2,
  // §4.1). The grounder shares the pipeline's pool, so its own task
  // graph (datalog strata + factor build) nests inside this node.
  const TaskGraph::NodeId grounding =
      tg.AddNode("grounding", [this, &deltas](TraceSpan* span) -> Status {
        DD_RETURN_IF_ERROR(RunGrounding(deltas));
        if (span != nullptr) {
          span->Attr("variables",
                     static_cast<double>(grounder_->stats().num_variables));
          span->Attr("factors",
                     static_cast<double>(grounder_->stats().num_factors));
        }
        return Status::OK();
      });
  tg.AddEdge(extraction, grounding);

  // Bookkeeping between phases (never a Fig. 2 phase): crash-test
  // failpoint + run-directory manifest, once the graph fingerprint
  // exists.
  const TaskGraph::NodeId prepare =
      tg.AddUntracedNode("prepare", [this]() -> Status {
        Status injected;
        DD_FAILPOINT(failpoints::kPipelinePhase, &injected);
        DD_RETURN_IF_ERROR(injected);
        return PrepareRunDirectory();
      });
  tg.AddEdge(grounding, prepare);

  // Phase 3: weight learning (§3 step 3).
  const TaskGraph::NodeId learning =
      tg.AddNode("learning", [this](TraceSpan* span) -> Status {
        const bool learn = !has_run_ || options_.relearn_on_update;
        if (learn) {
          LearnOptions learn_opts = options_.learn;
          if (run_dir_ != nullptr) learn_opts.checkpoint_dir = run_dir_->path();
          Learner learner(grounder_->mutable_graph());
          DD_RETURN_IF_ERROR(learner.Learn(learn_opts));
          grounder_->SaveWeights();
        }
        if (span != nullptr) span->Attr("learned", learn ? 1 : 0);
        Status injected;
        DD_FAILPOINT(failpoints::kPipelinePhase, &injected);
        DD_RETURN_IF_ERROR(injected);
        return UpdateManifestPhase("learned");
      });
  tg.AddEdge(prepare, learning);

  // Overlap: while the learner fits weights, warm inference up with the
  // weight-oblivious part of its start-up — strategy choice, buffer
  // reservation, and reading the materialization checkpoint off disk.
  // Prewarm() reads no weight values, so sharing the graph with the
  // learner is race-free. Runs after prepare because PrepareRunDirectory
  // may clear stale snapshots on a fresh run.
  const TaskGraph::NodeId warmup =
      tg.AddUntracedNode("inference.warmup", [this]() -> Status {
        if (inference_materialized_) return Status::OK();  // Update path
        chosen_strategy_ = PickStrategy();
        IncrementalOptions opts = options_.inference;
        opts.clamp_evidence = false;  // probabilities for labeled tuples too
        if (run_dir_ != nullptr) {
          opts.checkpoint_path = run_dir_->InferenceSnapshotPath();
        }
        inference_ = std::make_unique<IncrementalInference>(
            &grounder_->graph(), chosen_strategy_, opts);
        return inference_->Prewarm();
      });
  tg.AddEdge(prepare, warmup);

  // Phase 4: inference (§3 step 3, §4.2).
  const TaskGraph::NodeId inference =
      tg.AddNode("inference", [this](TraceSpan* span) -> Status {
        DD_RETURN_IF_ERROR(RunInference());
        if (span != nullptr) {
          span->Attr("marginals", static_cast<double>(marginals_.size()));
        }
        DD_RETURN_IF_ERROR(UpdateManifestPhase("done"));
        has_run_ = true;
        return Status::OK();
      });
  tg.AddEdge(learning, inference);
  tg.AddEdge(warmup, inference);

  // Phase 5: calibration (Fig. 2's last phase / Fig. 5's input) — bucket
  // the fresh marginals of every query relation against its held-out and
  // clamped labels. Cheap (one pass over the variables per relation) but
  // measured, because the developer loop reads these plots every cycle.
  const TaskGraph::NodeId calibration =
      tg.AddNode("calibration", [this](TraceSpan* span) -> Status {
        DD_RETURN_IF_ERROR(RunCalibration());
        if (span != nullptr) {
          span->Attr("relations", static_cast<double>(run_calibration_.size()));
        }
        return Status::OK();
      });
  tg.AddEdge(inference, calibration);

  const Status run_status = tg.Run(pool_.get());

  // Per-phase time spent *inside* each node — accurate under overlap,
  // where stopwatch segments around blocking calls would double-count.
  auto record = [&tg](TaskGraph::NodeId id, double* out) {
    if (!tg.NodeSkipped(id)) *out = tg.NodeSeconds(id);
  };
  record(extraction, &timings_.extraction_seconds);
  record(grounding, &timings_.grounding_seconds);
  record(learning, &timings_.learning_seconds);
  record(inference, &timings_.inference_seconds);
  record(calibration, &timings_.calibration_seconds);

  return run_status;
}

std::string DeepDivePipeline::RunSummary() const {
  std::string out = StrFormat(
      "phases: extraction %.3fs, grounding %.3fs, learning %.3fs, "
      "inference %.3fs, calibration %.3fs (total %.3fs)\n",
      timings_.extraction_seconds, timings_.grounding_seconds,
      timings_.learning_seconds, timings_.inference_seconds,
      timings_.calibration_seconds, timings_.total_seconds());
  out += StrFormat("documents: %zu processed, %zu retried, %zu quarantined\n",
                   run_stats_.documents_processed, run_stats_.extractor_retries,
                   run_stats_.documents_quarantined);
  for (const QuarantinedDocument& q : run_stats_.quarantined) {
    out += StrFormat("  quarantined '%s': %s\n", q.document_id.c_str(),
                     q.error.ToString().c_str());
  }
  return out;
}

Status DeepDivePipeline::RunInference() {
  const FactorGraph* graph = &grounder_->graph();
  if (!inference_materialized_) {
    if (inference_ == nullptr) {
      // The warm-up node constructs inference_ on the normal Run() path;
      // this fallback keeps RunInference self-contained.
      chosen_strategy_ = PickStrategy();
      IncrementalOptions opts = options_.inference;
      opts.clamp_evidence = false;  // probabilities for labeled tuples too
      if (run_dir_ != nullptr) {
        opts.checkpoint_path = run_dir_->InferenceSnapshotPath();
      }
      inference_ =
          std::make_unique<IncrementalInference>(graph, chosen_strategy_, opts);
    }
    DD_RETURN_IF_ERROR(inference_->Materialize());
    marginals_ = inference_->marginals();
    inference_materialized_ = true;
    return Status::OK();
  }
  DD_ASSIGN_OR_RETURN(marginals_,
                      inference_->Update(graph, grounder_->changed_vars()));
  return Status::OK();
}

Result<std::vector<std::pair<Tuple, double>>> DeepDivePipeline::Marginals(
    const std::string& relation) const {
  if (!has_run_) return Status::Internal("Run() first");
  const RelationDecl* decl = program_.FindDecl(relation);
  if (decl == nullptr || !decl->is_query) {
    return Status::NotFound("not a query relation: " + relation);
  }
  DD_ASSIGN_OR_RETURN(const Table* table, catalog_.GetTable(relation));
  std::vector<std::pair<Tuple, double>> out;
  const auto& vars = grounder_->var_info();
  for (size_t v = 0; v < vars.size() && v < marginals_.size(); ++v) {
    if (!vars[v].live || vars[v].relation != relation) continue;
    out.emplace_back(table->row(vars[v].row_id), marginals_[v]);
  }
  return out;
}

Result<std::vector<Tuple>> DeepDivePipeline::Extractions(
    const std::string& relation) const {
  DD_ASSIGN_OR_RETURN(auto marginals, Marginals(relation));
  std::vector<Tuple> out;
  for (auto& [tuple, prob] : marginals) {
    if (prob >= options_.threshold) out.push_back(std::move(tuple));
  }
  return out;
}

Result<double> DeepDivePipeline::ProbabilityOf(const std::string& relation,
                                               const Tuple& tuple) const {
  if (!has_run_) return Status::Internal("Run() first");
  int64_t var = grounder_->VarIdFor(relation, tuple);
  if (var < 0 || static_cast<size_t>(var) >= marginals_.size()) {
    return Status::NotFound("tuple is not a live candidate of " + relation);
  }
  return marginals_[static_cast<size_t>(var)];
}

Status DeepDivePipeline::WriteMarginalTables() {
  if (!has_run_) return Status::Internal("Run() first");
  for (const RelationDecl& decl : program_.declarations) {
    if (!decl.is_query) continue;
    std::string name = decl.name + "__marginals";
    std::vector<Column> columns = decl.schema.columns();
    columns.push_back(Column{"prob", ValueType::kDouble});
    if (catalog_.HasTable(name)) DD_RETURN_IF_ERROR(catalog_.DropTable(name));
    DD_ASSIGN_OR_RETURN(Table * out, catalog_.CreateTable(name, Schema(columns)));
    DD_ASSIGN_OR_RETURN(auto marginals, Marginals(decl.name));
    for (const auto& [tuple, prob] : marginals) {
      Tuple row = tuple;
      row.Append(Value::Double(prob));
      DD_RETURN_IF_ERROR(out->Insert(std::move(row)).status());
    }
  }
  return Status::OK();
}

Status DeepDivePipeline::PublishEpoch(const std::string& dir) {
  if (!has_run_) return Status::Internal("Run() first");
  const FactorGraph& graph = grounder_->graph();
  if (marginals_.size() != graph.num_variables()) {
    return Status::Internal("marginals do not cover the grounded graph");
  }
  const auto& info = grounder_->var_info();
  std::vector<EpochVarEntry> vars;
  vars.reserve(info.size());
  for (const VarInfo& v : info) {
    vars.push_back(EpochVarEntry{v.relation, v.row_id, v.live});
  }

  EpochDirectory epochs(dir);
  DD_RETURN_IF_ERROR(epochs.Create());
  uint64_t next_id = 1;
  Result<uint64_t> current = epochs.CurrentEpochId();
  if (current.ok()) {
    next_id = *current + 1;
  } else if (current.status().code() != StatusCode::kNotFound) {
    return current.status();
  }
  std::string bytes = EncodeEpochSnapshot(graph, marginals_, vars, next_id);
  DD_RETURN_IF_ERROR(epochs.Publish(next_id, bytes));
  DD_LOG(Info) << "published serving epoch " << next_id << " ("
               << graph.num_variables() << " variables) to " << dir;
  return Status::OK();
}

Result<DeepDivePipeline::CalibrationPair> DeepDivePipeline::Calibration(
    const std::string& relation) const {
  if (!has_run_) return Status::Internal("Run() first");
  const RelationDecl* decl = program_.FindDecl(relation);
  if (decl == nullptr || !decl->is_query) {
    return Status::NotFound("not a query relation: " + relation);
  }
  const auto& vars = grounder_->var_info();
  const FactorGraph& graph = grounder_->graph();

  // Test set: held-out labels of this relation.
  std::vector<double> test_probs;
  std::vector<int> test_truth;
  for (const auto& [var, label] : grounder_->holdout()) {
    if (var >= marginals_.size() || vars[var].relation != relation) continue;
    test_probs.push_back(marginals_[var]);
    test_truth.push_back(label ? 1 : 0);
  }
  // Train set: clamped evidence of this relation (marginals come from the
  // unclamped inference pass, so they are informative, not pinned).
  std::vector<double> train_probs;
  std::vector<int> train_truth;
  for (uint32_t v = 0; v < graph.num_variables() && v < marginals_.size(); ++v) {
    if (!vars[v].live || vars[v].relation != relation) continue;
    if (!graph.is_evidence(v)) continue;
    train_probs.push_back(marginals_[v]);
    train_truth.push_back(graph.evidence_value(v) ? 1 : 0);
  }

  CalibrationPair out;
  out.test = CalibrationReport::Build(test_probs, test_truth);
  out.train = CalibrationReport::Build(train_probs, train_truth);
  out.num_test = test_probs.size();
  out.num_train = train_probs.size();
  return out;
}

Result<std::string> DeepDivePipeline::SupervisionWarnings() const {
  if (grounder_ == nullptr) return Status::Internal("Run() first");
  auto stats = SupervisionDiagnostics::Analyze(*grounder_);
  return SupervisionDiagnostics::Report(stats);
}

const GroundingStats& DeepDivePipeline::grounding_stats() const {
  static const GroundingStats kEmpty;
  return grounder_ == nullptr ? kEmpty : grounder_->stats();
}

}  // namespace dd
