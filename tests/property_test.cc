// Property and fuzz tests across modules: NLP robustness on adversarial
// byte soup, mean-field vs exact sweeps, learner planted-weight
// recovery, and end-to-end failure injection.

#include <gtest/gtest.h>

#include <cmath>

#include "core/pipeline.h"
#include "inference/exact.h"
#include "inference/gibbs.h"
#include "inference/learner.h"
#include "inference/meanfield.h"
#include "nlp/document.h"
#include "nlp/html.h"
#include "testdata/synthetic_graphs.h"
#include "util/rng.h"

namespace dd {
namespace {

std::string RandomBytes(Rng* rng, size_t max_len) {
  size_t len = rng->NextBounded(max_len + 1);
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out += static_cast<char>(rng->NextBounded(256));
  }
  return out;
}

class NlpFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NlpFuzzTest, AnnotateNeverCrashesAndOffsetsAreValid) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    std::string text = RandomBytes(&rng, 300);
    for (bool html : {false, true}) {
      Document doc = AnnotateDocument("fuzz", text, html);
      for (const Sentence& sentence : doc.sentences) {
        for (const Token& token : sentence.tokens) {
          ASSERT_LE(token.begin, token.end);
          ASSERT_LE(token.end, doc.text.size());
          ASSERT_EQ(doc.text.substr(token.begin, token.end - token.begin),
                    token.text);
          ASSERT_FALSE(token.pos.empty());
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NlpFuzzTest, ::testing::Values(1, 2, 3, 4));

TEST(NlpFuzzTest, HtmlSoup) {
  Rng rng(99);
  const char* fragments[] = {"<", ">", "</", "<script>", "&amp", "&", "\"",
                             "<p", "word", " ", "\n", "<style>", "=x>"};
  for (int trial = 0; trial < 500; ++trial) {
    std::string soup;
    int pieces = 1 + static_cast<int>(rng.NextBounded(30));
    for (int i = 0; i < pieces; ++i) {
      soup += fragments[rng.NextBounded(13)];
    }
    std::string stripped = StripHtml(soup);  // must not crash or hang
    EXPECT_LE(stripped.size(), soup.size() + pieces);
  }
}

// Mean-field tracks exact marginals on random weakly-coupled graphs; the
// error grows with coupling strength but stays bounded.
struct MeanFieldParam {
  uint64_t seed;
  double weight_scale;
  double tolerance;
};

class MeanFieldSweepTest : public ::testing::TestWithParam<MeanFieldParam> {};

TEST_P(MeanFieldSweepTest, TracksExact) {
  const auto p = GetParam();
  SyntheticGraphOptions options;
  options.num_variables = 12;
  options.factors_per_variable = 1.2;
  options.evidence_fraction = 0.1;
  options.weight_scale = p.weight_scale;
  options.seed = p.seed;
  FactorGraph graph = MakeRandomGraph(options);

  auto exact = ExactMarginals(graph);
  ASSERT_TRUE(exact.ok());
  MeanFieldOptions mf_options;
  mf_options.damping = 0.3;
  mf_options.tolerance = 1e-8;
  mf_options.max_iterations = 500;
  MeanFieldEngine engine(&graph, mf_options);
  auto mu = engine.Run();
  ASSERT_TRUE(mu.ok());
  double max_err = 0;
  for (uint32_t v = 0; v < graph.num_variables(); ++v) {
    if (graph.is_evidence(v)) continue;
    max_err = std::max(max_err, std::fabs((*exact)[v] - (*mu)[v]));
  }
  EXPECT_LT(max_err, p.tolerance) << "seed " << p.seed;
}

INSTANTIATE_TEST_SUITE_P(
    CouplingSweep, MeanFieldSweepTest,
    ::testing::Values(MeanFieldParam{1, 0.3, 0.05}, MeanFieldParam{2, 0.3, 0.05},
                      MeanFieldParam{3, 0.8, 0.12}, MeanFieldParam{4, 0.8, 0.12},
                      MeanFieldParam{5, 1.5, 0.25}, MeanFieldParam{6, 1.5, 0.25}));

// The learner recovers planted classification weights well enough to
// rank: features planted strongly positive must end up with higher
// learned weight than features planted strongly negative.
class LearnerRecoveryTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LearnerRecoveryTest, RecoversWeightOrdering) {
  uint64_t seed = GetParam();
  // Re-derive the planted weights the generator used.
  Rng rng(seed);
  const size_t num_features = 12;
  std::vector<double> planted(num_features);
  for (size_t f = 0; f < num_features; ++f) planted[f] = rng.NextGaussian() * 1.5;

  FactorGraph graph = MakeClassificationGraph(600, num_features, 4, seed);
  Learner learner(&graph);
  LearnOptions options;
  options.epochs = 400;
  options.learning_rate = 0.05;
  options.decay = 0.997;
  options.l2 = 0.002;
  options.seed = seed + 1;
  ASSERT_TRUE(learner.Learn(options).ok());

  // Spearman-style check: strong positive vs strong negative features.
  for (size_t i = 0; i < num_features; ++i) {
    for (size_t j = 0; j < num_features; ++j) {
      if (planted[i] > planted[j] + 1.5) {
        EXPECT_GT(graph.weight_value(static_cast<uint32_t>(i)),
                  graph.weight_value(static_cast<uint32_t>(j)))
            << "planted " << planted[i] << " vs " << planted[j];
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LearnerRecoveryTest, ::testing::Values(11, 12, 13));

// Failure injection: the pipeline surfaces errors as Status, never dies.
TEST(FailureInjectionTest, MalformedProgram) {
  DeepDivePipeline pipeline;
  EXPECT_EQ(pipeline.LoadProgram("This is not DDlog").code(),
            StatusCode::kParseError);
  EXPECT_FALSE(pipeline.LoadProgram("Q(x) :- Undeclared(x).").ok());
}

TEST(FailureInjectionTest, ExtractorEmitsGarbage) {
  DeepDivePipeline pipeline;
  ASSERT_TRUE(pipeline.LoadProgram("T(x: int).\nQ?(x: int).\nQ(x) :- T(x).").ok());
  pipeline.RegisterExtractor([](const Document&, TupleEmitter* emitter) -> Status {
    emitter->Emit("T", Tuple({Value::String("wrong type")}));
    return Status::OK();
  });
  ASSERT_TRUE(pipeline.AddDocument("d", "text").ok());
  Status status = pipeline.Run();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kTypeError);
}

TEST(FailureInjectionTest, ExtractorIntoUndeclaredRelation) {
  DeepDivePipeline pipeline;
  ASSERT_TRUE(pipeline.LoadProgram("T(x: int).\nQ?(x: int).\nQ(x) :- T(x).").ok());
  pipeline.RegisterExtractor([](const Document&, TupleEmitter* emitter) -> Status {
    emitter->Emit("Nowhere", Tuple({Value::Int(1)}));
    return Status::OK();
  });
  ASSERT_TRUE(pipeline.AddDocument("d", "text").ok());
  EXPECT_EQ(pipeline.Run().code(), StatusCode::kNotFound);
}

TEST(FailureInjectionTest, ExtractorReportsItsOwnError) {
  DeepDivePipeline pipeline;
  ASSERT_TRUE(pipeline.LoadProgram("T(x: int).\nQ?(x: int).\nQ(x) :- T(x).").ok());
  pipeline.RegisterExtractor([](const Document&, TupleEmitter*) -> Status {
    return Status::Internal("extractor exploded");
  });
  ASSERT_TRUE(pipeline.AddDocument("d", "text").ok());
  Status status = pipeline.Run();
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("exploded"), std::string::npos);
}

TEST(FailureInjectionTest, EmptyCorpusStillRuns) {
  // No documents at all: the pipeline grounds an empty graph and succeeds
  // with zero extractions (not an error — an empty corpus is valid input).
  DeepDivePipeline pipeline;
  ASSERT_TRUE(pipeline.LoadProgram("T(x: int).\nQ?(x: int).\nQ(x) :- T(x).").ok());
  ASSERT_TRUE(pipeline.Run().ok());
  auto extractions = pipeline.Extractions("Q");
  ASSERT_TRUE(extractions.ok());
  EXPECT_TRUE(extractions->empty());
}

// Gibbs chain invariance: marginal estimates from two disjoint halves of
// one long chain agree (stationarity check).
TEST(GibbsStationarityTest, HalvesAgree) {
  SyntheticGraphOptions options;
  options.num_variables = 30;
  options.factors_per_variable = 2.0;
  options.seed = 21;
  FactorGraph graph = MakeRandomGraph(options);

  GibbsOptions gibbs;
  gibbs.burn_in = 1000;
  gibbs.num_samples = 15000;
  gibbs.seed = 5;
  GibbsSampler first(&graph, gibbs);
  auto m1 = first.RunMarginals();
  gibbs.burn_in = 16000;  // = first run's total: the "second half"
  GibbsSampler second(&graph, gibbs);
  auto m2 = second.RunMarginals();
  ASSERT_TRUE(m1.ok() && m2.ok());
  for (uint32_t v = 0; v < graph.num_variables(); ++v) {
    if (graph.is_evidence(v)) continue;
    EXPECT_NEAR((*m1)[v], (*m2)[v], 0.06);
  }
}

}  // namespace
}  // namespace dd
