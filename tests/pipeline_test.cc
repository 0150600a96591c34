#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/calibration.h"
#include "core/error_analysis.h"
#include "core/pipeline.h"
#include "factor/io.h"
#include "grounding/grounder.h"
#include "inference/incremental.h"
#include "serve/epoch.h"
#include "testdata/spouse_app.h"
#include "util/failpoint.h"
#include "util/metrics.h"

namespace dd {
namespace {

PipelineOptions FastOptions() {
  PipelineOptions options;
  options.learn.epochs = 150;
  options.learn.learning_rate = 0.05;
  options.learn.decay = 0.99;
  options.learn.l2 = 0.005;
  options.inference.full_burn_in = 100;
  options.inference.num_samples = 400;
  options.threshold = 0.7;
  options.strategy = PipelineOptions::Strategy::kSampling;
  return options;
}

TEST(PipelineTest, SpouseEndToEndQuality) {
  SpouseCorpusOptions corpus_opts;
  corpus_opts.num_documents = 120;
  corpus_opts.seed = 11;
  SpouseCorpus corpus = GenerateSpouseCorpus(corpus_opts);

  SpouseAppOptions app;
  auto pipeline = MakeSpousePipeline(corpus, app, FastOptions());
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  ASSERT_TRUE((*pipeline)->Run().ok());

  auto extractions = (*pipeline)->Extractions("MarriedPair");
  ASSERT_TRUE(extractions.ok()) << extractions.status().ToString();
  auto truth = SpouseTruthTuples(corpus);
  EvaluationResult metrics = Evaluate(*extractions, truth);

  // The paper's claim: with features + distant supervision the system
  // reaches high quality. On the synthetic corpus (complete truth) we
  // demand strong precision and recall.
  EXPECT_GT(metrics.precision, 0.8) << "precision too low";
  EXPECT_GT(metrics.recall, 0.6) << "recall too low";
  EXPECT_GT(metrics.f1, 0.7);

  // Phase timings were recorded (Figure 2's quantities).
  const PhaseTimings& t = (*pipeline)->timings();
  EXPECT_GT(t.extraction_seconds, 0.0);
  EXPECT_GT(t.grounding_seconds, 0.0);
  EXPECT_GT(t.learning_seconds, 0.0);
  EXPECT_GT(t.inference_seconds, 0.0);
}

TEST(PipelineTest, MarginalsAreProbabilities) {
  SpouseCorpusOptions corpus_opts;
  corpus_opts.num_documents = 40;
  corpus_opts.seed = 12;
  SpouseCorpus corpus = GenerateSpouseCorpus(corpus_opts);
  auto pipeline = MakeSpousePipeline(corpus, SpouseAppOptions(), FastOptions());
  ASSERT_TRUE(pipeline.ok());
  ASSERT_TRUE((*pipeline)->Run().ok());
  auto marginals = (*pipeline)->Marginals("MarriedMention");
  ASSERT_TRUE(marginals.ok());
  EXPECT_FALSE(marginals->empty());
  for (const auto& [tuple, p] : *marginals) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(PipelineTest, IncrementalUpdateAddsDocuments) {
  SpouseCorpusOptions corpus_opts;
  corpus_opts.num_documents = 60;
  corpus_opts.seed = 13;
  SpouseCorpus corpus = GenerateSpouseCorpus(corpus_opts);

  // First run with the first 40 documents.
  PipelineOptions options = FastOptions();
  options.anticipated_changes = 10;
  auto pipeline = std::make_unique<DeepDivePipeline>(options);
  SpouseAppOptions app;
  ASSERT_TRUE(pipeline->LoadProgram(SpouseDdlog(app)).ok());
  pipeline->RegisterExtractor(MakeSpouseExtractor(app));
  LoadSpouseKb(pipeline.get(), corpus, app);
  for (size_t d = 0; d < 40; ++d) {
    ASSERT_TRUE(
        pipeline->AddDocument(corpus.documents[d].first, corpus.documents[d].second)
            .ok());
  }
  ASSERT_TRUE(pipeline->Run().ok());
  size_t factors_before = pipeline->grounding_stats().num_factors;

  // Incremental run over the remaining documents.
  for (size_t d = 40; d < corpus.documents.size(); ++d) {
    ASSERT_TRUE(
        pipeline->AddDocument(corpus.documents[d].first, corpus.documents[d].second)
            .ok());
  }
  ASSERT_TRUE(pipeline->Run().ok());
  EXPECT_GT(pipeline->grounding_stats().num_factors, factors_before);

  // Marginals exist for candidates from the new documents too.
  auto marginals = pipeline->Marginals("MarriedMention");
  ASSERT_TRUE(marginals.ok());
  EXPECT_FALSE(marginals->empty());
}

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Instance().GetCounter(name)->Value();
}

// Learning and inference fan out over the pipeline's pool (DESIGN.md
// §18) without changing a bit: on a corpus large enough that every Gibbs
// chain and the gradient fan out, the epochs published at 1 and 4
// threads — after the full run and after an update batch — are the same
// bytes.
TEST(PipelineTest, EpochsAreByteIdenticalAtOneAndFourThreads) {
  SpouseCorpusOptions corpus_opts;
  corpus_opts.num_persons = 400;
  corpus_opts.num_married_pairs = 120;
  corpus_opts.num_sibling_pairs = 60;
  corpus_opts.num_documents = 3050;
  corpus_opts.seed = 7;
  const SpouseCorpus corpus = GenerateSpouseCorpus(corpus_opts);

  auto epochs = [&](size_t threads) {
    PipelineOptions options = FastOptions();
    options.learn.epochs = 8;
    options.inference.full_burn_in = 8;
    options.inference.num_samples = 16;
    options.inference.update_burn_in = 4;
    options.num_threads = threads;
    auto pipeline = std::make_unique<DeepDivePipeline>(options);
    SpouseAppOptions app;
    EXPECT_TRUE(pipeline->LoadProgram(SpouseDdlog(app)).ok());
    pipeline->RegisterExtractor(MakeSpouseExtractor(app));
    LoadSpouseKb(pipeline.get(), corpus, app);
    const std::string dir =
        ::testing::TempDir() + "pipeline_epochs_t" + std::to_string(threads);
    std::filesystem::remove_all(dir);  // epoch ids start at 1 on both sides
    std::vector<std::string> out;
    for (size_t end : {size_t{3000}, corpus.documents.size()}) {
      for (size_t d = out.empty() ? 0 : 3000; d < end; ++d) {
        EXPECT_TRUE(pipeline
                        ->AddDocument(corpus.documents[d].first,
                                      corpus.documents[d].second)
                        .ok());
      }
      Status st = pipeline->Run();
      EXPECT_TRUE(st.ok()) << st.ToString();
      st = pipeline->PublishEpoch(dir);
      EXPECT_TRUE(st.ok()) << st.ToString();
      auto bytes = ReadFileBytes(EpochDirectory(dir).EpochFilePath(out.size() + 1));
      EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
      out.push_back(bytes.ok() ? *bytes : std::string());
    }
    std::filesystem::remove_all(dir);
    return out;
  };
  const uint64_t fanned = CounterValue("dd.sampler.fanned_levels");
  const std::vector<std::string> serial = epochs(1);
  EXPECT_EQ(CounterValue("dd.sampler.fanned_levels"), fanned);
  const std::vector<std::string> pooled = epochs(4);
  EXPECT_GT(CounterValue("dd.sampler.fanned_levels"), fanned);
  ASSERT_EQ(serial.size(), 2u);
  ASSERT_EQ(pooled.size(), 2u);
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_FALSE(serial[i].empty());
    EXPECT_TRUE(serial[i] == pooled[i]) << "epoch " << i + 1 << " differs";
  }
}

double MeanAbsDiff(const std::vector<double>& a, const std::vector<double>& b) {
  double sum = 0;
  for (size_t i = 0; i < a.size(); ++i) sum += std::fabs(a[i] - b[i]);
  return a.empty() ? 0.0 : sum / static_cast<double>(a.size());
}

// Small batches are answered by Metropolis–Hastings over the worlds the
// first run stored. After each of two batches the answer must stay within
// sampling noise of a from-scratch Materialize() on the same graph — the
// seed-to-seed envelope of two such runs, measured here — at no more than
// a fifth of the first run's inference work.
TEST(PipelineTest, WorldUpdatesStayInSeedEnvelope) {
  SpouseCorpusOptions corpus_opts;
  corpus_opts.num_documents = 204;
  corpus_opts.seed = 15;
  SpouseCorpus corpus = GenerateSpouseCorpus(corpus_opts);
  const PipelineOptions options = FastOptions();
  DeepDivePipeline pipeline(options);
  SpouseAppOptions app;
  ASSERT_TRUE(pipeline.LoadProgram(SpouseDdlog(app)).ok());
  pipeline.RegisterExtractor(MakeSpouseExtractor(app));
  LoadSpouseKb(&pipeline, corpus, app);
  size_t next = 0;
  for (; next < 200; ++next) {
    ASSERT_TRUE(pipeline
                    .AddDocument(corpus.documents[next].first,
                                 corpus.documents[next].second)
                    .ok());
  }
  const uint64_t materialize_before = CounterValue("dd.inference.materialize_work_units");
  ASSERT_TRUE(pipeline.Run().ok());
  const uint64_t full_work =
      CounterValue("dd.inference.materialize_work_units") - materialize_before;
  ASSERT_GT(full_work, 0u);

  for (int batch = 0; batch < 2; ++batch) {
    for (size_t end = next + 2; next < end; ++next) {
      ASSERT_TRUE(pipeline
                      .AddDocument(corpus.documents[next].first,
                                   corpus.documents[next].second)
                      .ok());
    }
    const uint64_t update_before = CounterValue("dd.inference.update_work_units");
    const uint64_t fallbacks_before = CounterValue("dd.inference.update_fallbacks");
    ASSERT_TRUE(pipeline.Run().ok());
    const uint64_t update_work =
        CounterValue("dd.inference.update_work_units") - update_before;
    EXPECT_EQ(CounterValue("dd.inference.update_fallbacks") - fallbacks_before, 0u)
        << "batch " << batch;
    EXPECT_LE(update_work * 5, full_work)
        << "batch " << batch << ": " << update_work << " vs " << full_work;

    // Two from-scratch materializations of the same graph, as the
    // pipeline samples (evidence unclamped), seeds apart.
    const Grounder& grounder = *pipeline.grounder();
    IncrementalOptions fresh_options = options.inference;
    fresh_options.clamp_evidence = false;
    IncrementalInference fresh(&grounder.graph(), MaterializationStrategy::kSampling,
                               fresh_options);
    ASSERT_TRUE(fresh.Materialize().ok());
    fresh_options.seed = 999;
    IncrementalInference reseeded(&grounder.graph(), MaterializationStrategy::kSampling,
                                  fresh_options);
    ASSERT_TRUE(reseeded.Materialize().ok());

    std::vector<double> updated, fresh_marginals, other_seed;
    for (const char* relation : {"MarriedMention", "MarriedPair"}) {
      auto marginals = pipeline.Marginals(relation);
      ASSERT_TRUE(marginals.ok()) << marginals.status().ToString();
      for (const auto& [tuple, p] : *marginals) {
        const int64_t v = grounder.VarIdFor(relation, tuple);
        ASSERT_GE(v, 0);
        updated.push_back(p);
        fresh_marginals.push_back(fresh.marginals()[v]);
        other_seed.push_back(reseeded.marginals()[v]);
      }
    }
    const double envelope = MeanAbsDiff(other_seed, fresh_marginals);
    ASSERT_GT(envelope, 0.0);
    EXPECT_LE(MeanAbsDiff(updated, fresh_marginals), 2.0 * envelope)
        << "batch " << batch << ": envelope " << envelope;
  }
}

TEST(PipelineTest, InjectedUpdateErrorIsRunStatus) {
  SpouseCorpusOptions corpus_opts;
  corpus_opts.num_documents = 30;
  corpus_opts.seed = 16;
  SpouseCorpus corpus = GenerateSpouseCorpus(corpus_opts);
  DeepDivePipeline pipeline(FastOptions());
  SpouseAppOptions app;
  ASSERT_TRUE(pipeline.LoadProgram(SpouseDdlog(app)).ok());
  pipeline.RegisterExtractor(MakeSpouseExtractor(app));
  LoadSpouseKb(&pipeline, corpus, app);
  for (size_t d = 0; d < 25; ++d) {
    ASSERT_TRUE(
        pipeline.AddDocument(corpus.documents[d].first, corpus.documents[d].second).ok());
  }
  ASSERT_TRUE(pipeline.Run().ok());
  for (size_t d = 25; d < corpus.documents.size(); ++d) {
    ASSERT_TRUE(
        pipeline.AddDocument(corpus.documents[d].first, corpus.documents[d].second).ok());
  }
  FailpointConfig config;
  config.code = StatusCode::kIoError;
  config.max_hits = 1;
  Failpoints::Instance().Enable(failpoints::kInferenceUpdate, config);
  const Status status = pipeline.Run();
  Failpoints::Instance().Reset();
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
}

TEST(PipelineTest, WriteMarginalTables) {
  SpouseCorpusOptions corpus_opts;
  corpus_opts.num_documents = 30;
  corpus_opts.seed = 14;
  SpouseCorpus corpus = GenerateSpouseCorpus(corpus_opts);
  auto pipeline = MakeSpousePipeline(corpus, SpouseAppOptions(), FastOptions());
  ASSERT_TRUE(pipeline.ok());
  ASSERT_TRUE((*pipeline)->Run().ok());
  ASSERT_TRUE((*pipeline)->WriteMarginalTables().ok());
  auto table = (*pipeline)->catalog()->GetTable("MarriedPair__marginals");
  ASSERT_TRUE(table.ok());
  EXPECT_GT((*table)->size(), 0u);
  // prob column is a double in [0, 1].
  for (const Tuple& row : (*table)->Scan()) {
    const Value& prob = row.at(row.size() - 1);
    ASSERT_EQ(prob.type(), ValueType::kDouble);
    EXPECT_GE(prob.AsDouble(), 0.0);
    EXPECT_LE(prob.AsDouble(), 1.0);
  }
}

TEST(PipelineTest, ErrorsBeforeRun) {
  DeepDivePipeline pipeline;
  EXPECT_FALSE(pipeline.Run().ok());  // no program
  EXPECT_FALSE(pipeline.Marginals("X").ok());
  EXPECT_FALSE(pipeline.ProbabilityOf("X", Tuple()).ok());
}

TEST(PipelineTest, DuplicateDocumentRejected) {
  DeepDivePipeline pipeline;
  ASSERT_TRUE(pipeline.AddDocument("d1", "Some text.").ok());
  EXPECT_EQ(pipeline.AddDocument("d1", "Other text.").code(),
            StatusCode::kAlreadyExists);
}

TEST(PipelineTest, DuplicateDocumentRejectedAfterRun) {
  SpouseCorpusOptions corpus_opts;
  corpus_opts.num_documents = 10;
  SpouseCorpus corpus = GenerateSpouseCorpus(corpus_opts);
  PipelineOptions options = FastOptions();
  options.learn.epochs = 5;
  options.inference.full_burn_in = 5;
  options.inference.num_samples = 20;
  DeepDivePipeline pipeline(options);
  SpouseAppOptions app;
  ASSERT_TRUE(pipeline.LoadProgram(SpouseDdlog(app)).ok());
  pipeline.RegisterExtractor(MakeSpouseExtractor(app));
  LoadSpouseKb(&pipeline, corpus, app);
  for (const auto& [id, text] : corpus.documents) {
    ASSERT_TRUE(pipeline.AddDocument(id, text).ok());
  }
  ASSERT_TRUE(pipeline.Run().ok());
  EXPECT_EQ(pipeline.AddDocument(corpus.documents.front().first, "Other text.").code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(pipeline.AddDocument(corpus.documents.back().first, "Other text.").code(),
            StatusCode::kAlreadyExists);
  ASSERT_EQ(pipeline.documents().size(), corpus.documents.size());
  // A new id is still taken, after every earlier document.
  ASSERT_TRUE(pipeline.AddDocument("late", "Some text.").ok());
  ASSERT_EQ(pipeline.documents().size(), corpus.documents.size() + 1);
  EXPECT_EQ(pipeline.documents().back().id, "late");
  for (size_t d = 0; d < corpus.documents.size(); ++d) {
    EXPECT_EQ(pipeline.documents()[d].id, corpus.documents[d].first);
  }
}

TEST(CalibrationTest, PerfectPredictionsCalibrate) {
  std::vector<double> probs;
  std::vector<int> truth;
  // 100 items at p=0.95 of which 95 true; 100 at p=0.05 of which 5 true.
  for (int i = 0; i < 100; ++i) {
    probs.push_back(0.95);
    truth.push_back(i < 95 ? 1 : 0);
    probs.push_back(0.05);
    truth.push_back(i < 5 ? 1 : 0);
  }
  auto report = CalibrationReport::Build(probs, truth, 10);
  EXPECT_LT(report.MaxCalibrationGap(), 0.05);
  EXPECT_DOUBLE_EQ(report.ExtremeMassFraction(), 1.0);  // perfect U-shape
  EXPECT_FALSE(report.ToText().empty());
}

TEST(CalibrationTest, MiscalibratedDetected) {
  std::vector<double> probs(100, 0.9);
  std::vector<int> truth(100, 0);  // all wrong
  auto report = CalibrationReport::Build(probs, truth, 10);
  EXPECT_GT(report.MaxCalibrationGap(), 0.8);
}

TEST(CalibrationTest, UnknownTruthIgnored) {
  std::vector<double> probs = {0.5, 0.5, 0.5};
  std::vector<int> truth = {-1, -1, -1};
  auto report = CalibrationReport::Build(probs, truth, 10);
  EXPECT_DOUBLE_EQ(report.MaxCalibrationGap(), 0.0);  // no labeled buckets
}

TEST(ErrorAnalysisTest, MetricsAndBuckets) {
  std::unordered_set<Tuple, TupleHash> truth;
  truth.insert(Tuple({Value::Int(1)}));
  truth.insert(Tuple({Value::Int(2)}));
  truth.insert(Tuple({Value::Int(3)}));

  std::vector<std::pair<Tuple, double>> marginals = {
      {Tuple({Value::Int(1)}), 0.95},  // TP
      {Tuple({Value::Int(2)}), 0.40},  // FN (below threshold)
      {Tuple({Value::Int(9)}), 0.99},  // FP
  };
  // Int(3) never became a candidate -> FN via candidate-generation miss.
  auto analysis = ErrorAnalysis::Build(
      marginals, 0.9, truth,
      [](const Tuple&, bool is_fp) {
        return is_fp ? std::string("bad extraction") : std::string("missed");
      });
  EXPECT_EQ(analysis.metrics().true_positives, 1u);
  EXPECT_EQ(analysis.metrics().false_positives, 1u);
  EXPECT_EQ(analysis.metrics().false_negatives, 2u);
  ASSERT_EQ(analysis.buckets().size(), 2u);
  EXPECT_EQ(analysis.buckets()[0].tag, "missed");  // 2 errors, sorted first
  EXPECT_EQ(analysis.buckets()[0].count, 2u);
  EXPECT_FALSE(analysis.ToText().empty());
}

TEST(ErrorAnalysisTest, PerfectExtractionHasNoBuckets) {
  std::unordered_set<Tuple, TupleHash> truth;
  truth.insert(Tuple({Value::Int(1)}));
  std::vector<std::pair<Tuple, double>> marginals = {{Tuple({Value::Int(1)}), 0.99}};
  auto analysis = ErrorAnalysis::Build(marginals, 0.9, truth,
                                       [](const Tuple&, bool) { return "x"; });
  EXPECT_DOUBLE_EQ(analysis.metrics().f1, 1.0);
  EXPECT_TRUE(analysis.buckets().empty());
}

}  // namespace
}  // namespace dd
