#include "kbc_runner.h"

#include "core/calibration.h"
#include "ddlog/parser.h"
#include "inference/learner.h"
#include "nlp/document.h"
#include "serve/epoch.h"
#include "stream/stream.h"

namespace perfbench {

namespace {

using dd::DeltaSet;
using dd::Status;

class PipelineRunner : public KbcRunner {
 public:
  explicit PipelineRunner(const KbcApp& app)
      : app_(app), pipeline_(std::make_unique<dd::DeepDivePipeline>(app.options)) {}

  Status Init() {
    DD_RETURN_IF_ERROR(pipeline_->LoadProgram(app_.ddlog));
    if (app_.extractor) pipeline_->RegisterExtractor(app_.extractor);
    for (const auto& [relation, tuple] : app_.kb) {
      pipeline_->QueueDelta(relation, tuple, 1);
    }
    return Status::OK();
  }

  Status AddDocument(const std::string& id, const std::string& text) override {
    return pipeline_->AddDocument(id, text);
  }

  Status Ingest(const std::string& text, dd::IngestStats* stats) override {
    dd::StreamIngester ingester(app_.stream, app_.stream_extractor);
    dd::StringSource source(text);
    Status status = pipeline_->IngestStream(&ingester, &source);
    *stats = ingester.stats();
    return status;
  }

  Status Run() override { return pipeline_->Run(); }
  Status Publish(const std::string& dir) override {
    return pipeline_->PublishEpoch(dir);
  }

  uint64_t documents_quarantined() const override {
    return pipeline_->run_stats().documents_quarantined;
  }
  const dd::Grounder& grounder() const override { return *pipeline_->grounder(); }
  dd::Result<std::vector<std::pair<dd::Tuple, double>>> Marginals(
      const std::string& relation) const override {
    return pipeline_->Marginals(relation);
  }

 private:
  const KbcApp& app_;
  std::unique_ptr<dd::DeepDivePipeline> pipeline_;
};

/// Folds merged stream results into queued deltas in record order — the
/// call sequence DeepDivePipeline::IngestStream makes.
class QueueSink : public dd::StreamSink {
 public:
  QueueSink(std::map<std::string, DeltaSet>* queued, uint64_t* tuples)
      : queued_(queued), tuples_(tuples) {}
  Status Apply(dd::ChunkResult&& result) override {
    for (auto& [relation, tuple] : result.tuples) {
      (*queued_)[relation][std::move(tuple)] += 1;
      ++*tuples_;
    }
    return Status::OK();
  }

 private:
  std::map<std::string, DeltaSet>* queued_;
  uint64_t* tuples_;
};

/// DeepDivePipeline::Run() decomposed into the layers' public calls, in
/// the order and with the arguments the pipeline uses, so the graph,
/// weights and marginals come out bitwise equal.
class TracedRunner : public KbcRunner {
 public:
  TracedRunner(const KbcApp& app, SpanLog* log)
      : app_(app), log_(log), pool_(app.options.num_threads) {}

  Status Init() {
    if (app_.options.strategy != dd::PipelineOptions::Strategy::kSampling ||
        app_.options.num_threads < 2 || app_.options.relearn_on_update) {
      return Status::InvalidArgument(
          "traced runner mirrors the sampling strategy on a shared pool only");
    }
    DD_ASSIGN_OR_RETURN(program_, dd::ParseDdlog(app_.ddlog));
    DD_RETURN_IF_ERROR(dd::AnalyzeProgram(program_));
    for (const auto& [relation, tuple] : app_.kb) queued_[relation][tuple] += 1;
    return Status::OK();
  }

  Status AddDocument(const std::string& id, const std::string& text) override {
    SpanLog::Scope add(log_, "core.add_document");
    for (const dd::Document& doc : documents_) {
      if (doc.id == id) return Status::AlreadyExists("duplicate document id: " + id);
    }
    SpanLog::Scope annotate(log_, "nlp.annotate");
    documents_.push_back(
        dd::AnnotateDocument(id, text, app_.options.html_documents));
    annotate.Attr("nlp.docs", 1);
    return Status::OK();
  }

  Status Ingest(const std::string& text, dd::IngestStats* stats) override {
    SpanLog::Scope span(log_, "stream.ingest");
    dd::StreamIngester ingester(app_.stream, app_.stream_extractor);
    dd::StringSource source(text);
    uint64_t tuples = 0;
    QueueSink sink(&queued_, &tuples);
    Status status = ingester.Ingest(&source, &sink);
    *stats = ingester.stats();
    span.Attr("stream.bytes", static_cast<double>(stats->bytes_in));
    span.Attr("stream.records", static_cast<double>(stats->records));
    span.Attr("stream.chunks", static_cast<double>(stats->chunks));
    span.Attr("stream.quarantined", static_cast<double>(stats->records_quarantined));
    span.Attr("stream.peak_in_flight_bytes",
              static_cast<double>(stats->peak_in_flight_bytes));
    span.Attr("stream.tuples", static_cast<double>(tuples));
    return status;
  }

  Status Run() override {
    std::map<std::string, DeltaSet> deltas;
    DD_RETURN_IF_ERROR(Extract(&deltas));
    if (grounder_ == nullptr) {
      DD_RETURN_IF_ERROR(Load(deltas));
      DD_RETURN_IF_ERROR(Initialize());
      DD_RETURN_IF_ERROR(Learn());
      DD_RETURN_IF_ERROR(Materialize());
    } else {
      if (!deltas.empty()) DD_RETURN_IF_ERROR(ApplyDeltas(deltas));
      DD_RETURN_IF_ERROR(Update());
    }
    return Calibrate();
  }

  Status Publish(const std::string& dir) override {
    SpanLog::Scope span(log_, "serve.publish");
    const dd::FactorGraph& graph = grounder_->graph();
    std::vector<dd::EpochVarEntry> vars;
    vars.reserve(grounder_->var_info().size());
    for (const dd::VarInfo& v : grounder_->var_info()) {
      vars.push_back(dd::EpochVarEntry{v.relation, v.row_id, v.live});
    }
    dd::EpochDirectory epochs(dir);
    DD_RETURN_IF_ERROR(epochs.Create());
    uint64_t next_id = 1;
    dd::Result<uint64_t> current = epochs.CurrentEpochId();
    if (current.ok()) {
      next_id = *current + 1;
    } else if (current.status().code() != dd::StatusCode::kNotFound) {
      return current.status();
    }
    const std::string bytes =
        dd::EncodeEpochSnapshot(graph, marginals_, vars, next_id);
    span.Attr("serve.epoch_bytes", static_cast<double>(bytes.size()));
    return epochs.Publish(next_id, bytes);
  }

  uint64_t documents_quarantined() const override { return quarantined_; }
  const dd::Grounder& grounder() const override { return *grounder_; }

  dd::Result<std::vector<std::pair<dd::Tuple, double>>> Marginals(
      const std::string& relation) const override {
    DD_ASSIGN_OR_RETURN(const dd::Table* table, catalog_.GetTable(relation));
    std::vector<std::pair<dd::Tuple, double>> out;
    const auto& vars = grounder_->var_info();
    for (size_t v = 0; v < vars.size() && v < marginals_.size(); ++v) {
      if (!vars[v].live || vars[v].relation != relation) continue;
      out.emplace_back(table->row(vars[v].row_id), marginals_[v]);
    }
    return out;
  }

 private:
  // DeepDivePipeline::RunExtraction: each document once, retried once on
  // failure and then quarantined; queued deltas folded in last.
  Status Extract(std::map<std::string, DeltaSet>* deltas) {
    quarantined_ = 0;
    const size_t batch_size = documents_.size() - next_document_;
    Status first_error;
    for (; next_document_ < documents_.size(); ++next_document_) {
      SpanLog::Scope span(log_, "core.extract");
      const dd::Document& doc = documents_[next_document_];
      dd::TupleEmitter emitter;
      Status status = app_.extractor(doc, &emitter);
      if (!status.ok()) {
        emitter = dd::TupleEmitter();
        status = app_.extractor(doc, &emitter);
      }
      if (!status.ok()) {
        if (quarantined_++ == 0) first_error = status;
        continue;
      }
      uint64_t tuples = 0;
      for (const auto& [relation, rows] : emitter.emitted()) {
        for (const dd::Tuple& t : rows) (*deltas)[relation][t] += 1;
        tuples += rows.size();
      }
      span.Attr("core.tuples", static_cast<double>(tuples));
    }
    if (quarantined_ > 0 &&
        static_cast<double>(quarantined_) >
            app_.options.max_quarantine_fraction * static_cast<double>(batch_size)) {
      return first_error;
    }
    SpanLog::Scope span(log_, "core.extract");
    for (auto& [relation, delta] : queued_) {
      for (auto& [tuple, count] : delta) (*deltas)[relation][tuple] += count;
    }
    queued_.clear();
    return Status::OK();
  }

  // DeepDivePipeline::RunGrounding, first run: bulk load, then ground.
  Status Load(const std::map<std::string, DeltaSet>& deltas) {
    SpanLog::Scope span(log_, "storage.load");
    uint64_t rows = 0;
    for (const auto& [relation, delta] : deltas) {
      const dd::RelationDecl* decl = program_.FindDecl(relation);
      if (decl == nullptr) {
        return Status::NotFound("extractor emitted into undeclared relation: " +
                                relation);
      }
      DD_ASSIGN_OR_RETURN(dd::Table * table,
                          catalog_.GetOrCreateTable(relation, decl->schema));
      for (const auto& [tuple, count] : delta) {
        if (count <= 0) continue;
        DD_RETURN_IF_ERROR(table->Insert(tuple).status());
        ++rows;
      }
    }
    span.Attr("storage.rows", static_cast<double>(rows));
    return Status::OK();
  }

  void GroundingAttrs(SpanLog::Scope* span) {
    const dd::GroundingStats& stats = grounder_->stats();
    span->Attr("query.eval_s", stats.eval_seconds);
    span->Attr("grounding.build_s", stats.build_seconds);
    span->Attr("grounding.variables", static_cast<double>(stats.num_variables));
    span->Attr("grounding.factors", static_cast<double>(stats.num_factors));
  }

  Status Initialize() {
    SpanLog::Scope span(log_, "grounding.initialize");
    dd::GroundingOptions options;
    options.holdout_fraction = app_.options.holdout_fraction;
    options.pool = &pool_;
    grounder_ = std::make_unique<dd::Grounder>(&catalog_, &program_, &udfs_, options);
    DD_RETURN_IF_ERROR(grounder_->Initialize());
    GroundingAttrs(&span);
    return Status::OK();
  }

  Status ApplyDeltas(const std::map<std::string, DeltaSet>& deltas) {
    SpanLog::Scope span(log_, "grounding.apply_deltas");
    DD_RETURN_IF_ERROR(grounder_->ApplyDeltas(deltas));
    GroundingAttrs(&span);
    span.Attr("grounding.changed_vars",
              static_cast<double>(grounder_->changed_vars().size()));
    return Status::OK();
  }

  Status Learn() {
    SpanLog::Scope span(log_, "inference.learn");
    dd::Learner learner(grounder_->mutable_graph());
    DD_RETURN_IF_ERROR(learner.Learn(app_.options.learn));
    grounder_->SaveWeights();
    span.Attr("inference.learn_epochs", app_.options.learn.epochs);
    return Status::OK();
  }

  Status Materialize() {
    SpanLog::Scope span(log_, "inference.materialize");
    dd::IncrementalOptions options = app_.options.inference;
    options.clamp_evidence = false;  // as the pipeline: labeled tuples too
    inference_ = std::make_unique<dd::IncrementalInference>(
        &grounder_->graph(), dd::MaterializationStrategy::kSampling, options);
    DD_RETURN_IF_ERROR(inference_->Prewarm());
    DD_RETURN_IF_ERROR(inference_->Materialize());
    marginals_ = inference_->marginals();
    span.Attr("inference.work_units",
              static_cast<double>(inference_->last_work_units()));
    return Status::OK();
  }

  Status Update() {
    SpanLog::Scope span(log_, "inference.update");
    DD_ASSIGN_OR_RETURN(marginals_, inference_->Update(&grounder_->graph(),
                                                       grounder_->changed_vars()));
    span.Attr("inference.work_units",
              static_cast<double>(inference_->last_work_units()));
    return Status::OK();
  }

  // DeepDivePipeline::Calibration for every query relation.
  Status Calibrate() {
    SpanLog::Scope span(log_, "core.calibrate");
    const auto& vars = grounder_->var_info();
    const dd::FactorGraph& graph = grounder_->graph();
    for (const dd::RelationDecl& decl : program_.declarations) {
      if (!decl.is_query) continue;
      std::vector<double> test_probs;
      std::vector<int> test_truth;
      for (const auto& [var, label] : grounder_->holdout()) {
        if (var >= marginals_.size() || vars[var].relation != decl.name) continue;
        test_probs.push_back(marginals_[var]);
        test_truth.push_back(label ? 1 : 0);
      }
      std::vector<double> train_probs;
      std::vector<int> train_truth;
      for (uint32_t v = 0; v < graph.num_variables() && v < marginals_.size(); ++v) {
        if (!vars[v].live || vars[v].relation != decl.name) continue;
        if (!graph.is_evidence(v)) continue;
        train_probs.push_back(marginals_[v]);
        train_truth.push_back(graph.evidence_value(v) ? 1 : 0);
      }
      calibration_[decl.name] = {dd::CalibrationReport::Build(test_probs, test_truth),
                                 dd::CalibrationReport::Build(train_probs, train_truth)};
    }
    return Status::OK();
  }

  const KbcApp& app_;
  SpanLog* log_;
  dd::DdlogProgram program_;
  dd::Catalog catalog_;
  dd::UdfRegistry udfs_;
  std::vector<dd::Document> documents_;
  size_t next_document_ = 0;
  uint64_t quarantined_ = 0;
  std::map<std::string, DeltaSet> queued_;
  dd::ThreadPool pool_;
  std::unique_ptr<dd::Grounder> grounder_;
  std::unique_ptr<dd::IncrementalInference> inference_;
  std::vector<double> marginals_;
  /// Kept like the pipeline's run_calibration_ (test, train) per relation.
  std::map<std::string, std::pair<dd::CalibrationReport, dd::CalibrationReport>>
      calibration_;
};

}  // namespace

dd::Result<std::unique_ptr<KbcRunner>> MakePipelineRunner(const KbcApp& app) {
  auto runner = std::make_unique<PipelineRunner>(app);
  DD_RETURN_IF_ERROR(runner->Init());
  return std::unique_ptr<KbcRunner>(std::move(runner));
}

dd::Result<std::unique_ptr<KbcRunner>> MakeTracedRunner(const KbcApp& app,
                                                        SpanLog* log) {
  auto runner = std::make_unique<TracedRunner>(app, log);
  DD_RETURN_IF_ERROR(runner->Init());
  return std::unique_ptr<KbcRunner>(std::move(runner));
}

}  // namespace perfbench
