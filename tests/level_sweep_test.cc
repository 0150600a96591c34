// Bit-identity of the level-parallel Gibbs sweep and the fanned-out CD
// gradient (DESIGN.md §18). Every comparison runs once without a pool —
// the sequential schedule — and once on each pool size below, and
// demands the same bits: chain assignments, tallies, RNG states and step
// counts; learned weights and gradient norms; materialized marginals,
// stored worlds and chain state (through the checkpoint bytes); a
// warm-start fallback; and a materialization killed mid-way and resumed.
//
// The graphs are wider than GibbsSampler::kMinFanOutWidth where the test
// wants the fan-out path, and dd.sampler.fanned_levels shows which path
// ran. Labeled concurrency (TSan) and failpoints (the CI fault sweep fires
// learner.epoch and inference.sweep here while a team is live).

#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "factor/graph.h"
#include "factor/io.h"
#include "inference/gibbs.h"
#include "inference/incremental.h"
#include "inference/learner.h"
#include "testdata/synthetic_graphs.h"
#include "util/failpoint.h"
#include "util/fork_join.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dd {
namespace {

constexpr size_t kPoolSizes[] = {1, 2, 3, 7};

std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> out(values.size());
  if (!values.empty()) std::memcpy(out.data(), values.data(), values.size() * 8);
  return out;
}

uint64_t FannedLevels() {
  return MetricsRegistry::Instance().GetCounter("dd.sampler.fanned_levels")->Value();
}

/// The spouse program's shape: mention variables carrying unary
/// features (some of them labeled), then pair variables — with later
/// ids — each implied by the mentions of its pair. The mentions form
/// level 0 and the pairs level 1, both wider than the fan-out width.
FactorGraph SpouseShapedGraph(uint64_t seed) {
  constexpr uint32_t kMentions = 3000;
  constexpr uint32_t kPairs = 1500;
  constexpr uint32_t kFeatures = 64;
  Rng rng(seed);
  FactorGraph g;
  for (uint32_t m = 0; m < kMentions; ++m) {
    g.AddVariable(rng.NextBernoulli(0.3), rng.NextBernoulli(0.5));
  }
  for (uint32_t p = 0; p < kPairs; ++p) g.AddVariable();
  for (uint32_t w = 0; w < kFeatures; ++w) {
    g.AddWeight(rng.NextGaussian() * 0.5, false, "feature" + std::to_string(w));
  }
  const uint32_t imply = g.AddWeight(1.0, false, "imply");
  const uint32_t prior = g.AddWeight(-0.5, true, "prior");
  for (uint32_t m = 0; m < kMentions; ++m) {
    const int features = 2 + static_cast<int>(rng.NextBounded(6));
    for (int i = 0; i < features; ++i) {
      EXPECT_TRUE(g.AddFactor(FactorFunc::kIsTrue,
                              static_cast<uint32_t>(rng.NextBounded(kFeatures)),
                              {{m, true}})
                      .ok());
    }
    const uint32_t pair = kMentions + static_cast<uint32_t>(rng.NextBounded(kPairs));
    EXPECT_TRUE(g.AddFactor(FactorFunc::kImply, imply, {{m, true}, {pair, true}}).ok());
  }
  for (uint32_t p = kMentions; p < kMentions + kPairs; ++p) {
    EXPECT_TRUE(g.AddFactor(FactorFunc::kIsTrue, prior, {{p, true}}).ok());
  }
  EXPECT_TRUE(g.Finalize().ok());
  return g;
}

FactorGraph WideRandomGraph() {
  SyntheticGraphOptions options;
  options.num_variables = 20000;
  options.factors_per_variable = 2.0;
  options.seed = 5;
  FactorGraph g = MakeRandomGraph(options);
  EXPECT_TRUE(g.Finalize().ok());
  return g;
}

class LevelSweepTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    for (size_t n : kPoolSizes) pools_.push_back(std::make_unique<ThreadPool>(n));
  }
  static void TearDownTestSuite() { pools_.clear(); }
  void TearDown() override { Failpoints::Instance().Reset(); }

  static std::vector<std::unique_ptr<ThreadPool>> pools_;
};

std::vector<std::unique_ptr<ThreadPool>> LevelSweepTest::pools_;

// ---- The chain ------------------------------------------------------------

struct ChainBits {
  std::vector<uint8_t> assignment;
  std::vector<uint64_t> counts;
  RngState rng;
  uint64_t steps = 0;
  size_t levels = 0;
};

ChainBits RunChain(const FactorGraph& g, const GibbsOptions& opts, ThreadPool* pool,
                   int sweeps) {
  GibbsSampler sampler(&g, opts);
  EXPECT_TRUE(sampler.Init().ok());
  {
    ForkJoinTeam team(pool);
    for (int i = 0; i < sweeps; ++i) {
      sampler.Sweep(&team);
      sampler.Accumulate();
    }
  }
  return {sampler.assignment(), sampler.true_counts(), sampler.rng_state(),
          sampler.num_steps(), sampler.num_levels()};
}

void ExpectSameChain(const ChainBits& want, const ChainBits& got, const std::string& what) {
  EXPECT_EQ(got.assignment, want.assignment) << what;
  EXPECT_EQ(got.counts, want.counts) << what;
  EXPECT_EQ(got.rng.s0, want.rng.s0) << what;
  EXPECT_EQ(got.rng.s1, want.rng.s1) << what;
  EXPECT_EQ(got.steps, want.steps) << what;
}

TEST_F(LevelSweepTest, ChainsAreBitIdenticalAtEveryPoolSize) {
  const FactorGraph spouse = SpouseShapedGraph(3);
  const FactorGraph random = WideRandomGraph();
  const std::vector<uint32_t> free_set = [] {
    std::vector<uint32_t> ids;
    for (uint32_t v = 0; v < 4500; v += 1 + v % 3) ids.push_back(v);
    return ids;
  }();
  struct Case {
    std::string name;
    const FactorGraph* graph;
    GibbsOptions opts;
  };
  std::vector<Case> cases;
  for (bool clamp : {true, false}) {
    GibbsOptions opts;
    opts.seed = 11;
    opts.clamp_evidence = clamp;
    cases.push_back({clamp ? "spouse clamped" : "spouse unclamped", &spouse, opts});
    cases.push_back({clamp ? "random clamped" : "random unclamped", &random, opts});
  }
  GibbsOptions free_opts;
  free_opts.seed = 12;
  free_opts.free_set = &free_set;
  cases.push_back({"spouse free set", &spouse, free_opts});

  for (const Case& c : cases) {
    const ChainBits want = RunChain(*c.graph, c.opts, nullptr, 12);
    EXPECT_GE(want.levels, 2u) << c.name;
    for (const auto& pool : pools_) {
      const uint64_t fanned = FannedLevels();
      const ChainBits got = RunChain(*c.graph, c.opts, pool.get(), 12);
      ExpectSameChain(want, got, c.name + " on " + std::to_string(pool->num_threads()) +
                                     " workers");
      EXPECT_GT(FannedLevels(), fanned) << c.name << " never fanned out";
    }
  }
}

TEST_F(LevelSweepTest, NoPoolAndChainGraphsNeverFanOut) {
  const FactorGraph spouse = SpouseShapedGraph(4);
  GibbsOptions opts;
  uint64_t fanned = FannedLevels();
  RunChain(spouse, opts, nullptr, 3);
  EXPECT_EQ(FannedLevels(), fanned) << "a poolless sweep fanned out";

  // One variable per level: every level runs on the caller.
  FactorGraph chain = MakeChainGraph(3000, 1.0, 9);
  ASSERT_TRUE(chain.Finalize().ok());
  opts.clamp_evidence = false;
  const ChainBits want = RunChain(chain, opts, nullptr, 5);
  EXPECT_EQ(want.levels, 3000u);
  fanned = FannedLevels();
  ExpectSameChain(want, RunChain(chain, opts, pools_.back().get(), 5), "chain");
  EXPECT_EQ(FannedLevels(), fanned) << "a chain graph fanned out";
}

// The pool's workers are all blocked until the team is gone, so no
// helper ever starts: the caller runs every phase alone, with the same
// bits, and the team's teardown drains the helpers it queued.
TEST_F(LevelSweepTest, BlockedPoolStillFinishesEverySweep) {
  const FactorGraph spouse = SpouseShapedGraph(5);
  GibbsOptions opts;
  opts.burn_in = 5;
  opts.num_samples = 10;
  opts.clamp_evidence = false;
  auto want = GibbsSampler(&spouse, opts).RunMarginals();
  ASSERT_TRUE(want.ok());
  GibbsSampler sampler(&spouse, opts);
  ASSERT_TRUE(sampler.Init().ok());

  ThreadPool pool(3);
  std::mutex mu;
  std::condition_variable cv;
  size_t blocked = 0;
  bool release = false;
  for (size_t i = 0; i < pool.num_threads(); ++i) {
    pool.Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      ++blocked;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return blocked == pool.num_threads(); });
  }
  const uint64_t fanned = FannedLevels();
  {
    ForkJoinTeam team(&pool);
    for (int i = 0; i < opts.burn_in; ++i) sampler.Sweep(&team);
    for (int i = 0; i < opts.num_samples; ++i) {
      sampler.Sweep(&team);
      sampler.Accumulate();
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.Wait();
  auto got = sampler.Marginals();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(Bits(*got), Bits(*want));
  EXPECT_GT(FannedLevels(), fanned);
}

// ---- Learning -------------------------------------------------------------

struct LearnBits {
  std::vector<uint64_t> weights;
  std::vector<uint64_t> norms;
};

LearnBits RunLearner(const FactorGraph& base, ThreadPool* pool, uint64_t* evals) {
  FactorGraph g = base;
  LearnOptions options;
  options.epochs = 25;
  options.learning_rate = 0.05;
  options.pool = pool;
  Counter* counter = MetricsRegistry::Instance().GetCounter("dd.learner.gradient_factor_evals");
  const uint64_t before = counter->Value();
  Learner learner(&g);
  EXPECT_TRUE(learner.Learn(options).ok());
  *evals = counter->Value() - before;
  std::vector<double> weights(g.weight_values(), g.weight_values() + g.num_weights());
  return {Bits(weights), Bits(learner.gradient_norms())};
}

TEST_F(LevelSweepTest, LearnerWeightsAndNormsAreBitIdentical) {
  const FactorGraph spouse = SpouseShapedGraph(6);
  uint64_t learnable = 0;
  for (uint32_t f = 0; f < spouse.num_factors(); ++f) {
    learnable += spouse.weight(spouse.factor_weight(f)).is_fixed ? 0 : 1;
  }
  uint64_t evals = 0;
  const LearnBits want = RunLearner(spouse, nullptr, &evals);
  EXPECT_EQ(evals, 2 * learnable * 25);
  for (const auto& pool : pools_) {
    const uint64_t fanned = FannedLevels();
    const LearnBits got = RunLearner(spouse, pool.get(), &evals);
    EXPECT_EQ(got.weights, want.weights) << pool->num_threads() << " workers";
    EXPECT_EQ(got.norms, want.norms) << pool->num_threads() << " workers";
    EXPECT_EQ(evals, 2 * learnable * 25);
    EXPECT_GT(FannedLevels(), fanned);
  }
}

// ---- Materialization and the warm start -----------------------------------

IncrementalOptions MaterializeOptions() {
  IncrementalOptions options;
  options.full_burn_in = 20;
  options.num_samples = 40;
  options.update_burn_in = 10;
  options.seed = 17;
  options.clamp_evidence = false;
  options.checkpoint_interval = 10;
  return options;
}

std::string CheckpointPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "level_sweep_" + name + ".snap";
  std::remove(path.c_str());
  return path;
}

/// Checkpoint bytes after a completed Materialize(): chain, tallies, RNG
/// state and every stored world.
std::string FinalCheckpoint(const std::string& path) {
  auto bytes = ReadFileBytes(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  std::remove(path.c_str());
  return bytes.ok() ? *bytes : std::string();
}

TEST_F(LevelSweepTest, MaterializeAndWarmStartAreBitIdentical) {
  const FactorGraph spouse = SpouseShapedGraph(7);
  // Every weight moved: no delta factor cancels, so the Metropolis–
  // Hastings update would cost more than the warm start, which runs.
  FactorGraph relearned = spouse;
  for (uint32_t w = 0; w < relearned.num_weights(); ++w) {
    relearned.set_weight_value(w, relearned.weight_value(w) * 0.75 + 0.125);
  }
  std::vector<uint32_t> all(spouse.num_variables());
  for (uint32_t v = 0; v < all.size(); ++v) all[v] = v;
  Counter* fallbacks = MetricsRegistry::Instance().GetCounter("dd.inference.update_fallbacks");

  struct Run {
    std::vector<uint64_t> marginals, updated;
    std::string checkpoint;
    uint64_t update_work = 0;
  };
  auto run = [&](ThreadPool* pool, const std::string& name) {
    IncrementalOptions options = MaterializeOptions();
    options.pool = pool;
    options.checkpoint_path = CheckpointPath(name);
    IncrementalInference engine(&spouse, MaterializationStrategy::kSampling, options);
    Run out;
    EXPECT_TRUE(engine.Materialize().ok());
    out.marginals = Bits(engine.marginals());
    out.checkpoint = FinalCheckpoint(options.checkpoint_path);
    const uint64_t before = fallbacks->Value();
    auto updated = engine.Update(&relearned, all);
    EXPECT_TRUE(updated.ok()) << updated.status().ToString();
    EXPECT_EQ(fallbacks->Value(), before + 1) << "the update did not fall back";
    if (updated.ok()) out.updated = Bits(*updated);
    out.update_work = engine.last_work_units();
    return out;
  };
  const Run want = run(nullptr, "poolless");
  ASSERT_FALSE(want.checkpoint.empty());
  for (const auto& pool : pools_) {
    const std::string what = std::to_string(pool->num_threads()) + " workers";
    const uint64_t fanned = FannedLevels();
    const Run got = run(pool.get(), "pooled");
    EXPECT_EQ(got.marginals, want.marginals) << what;
    EXPECT_TRUE(got.checkpoint == want.checkpoint) << "checkpoint bytes differ, " << what;
    EXPECT_EQ(got.updated, want.updated) << what;
    EXPECT_EQ(got.update_work, want.update_work) << what;
    EXPECT_GT(FannedLevels(), fanned) << what;
  }
}

// A pooled materialization killed by the inference.sweep failpoint and
// resumed on another pool ends with the bytes of an uninterrupted
// poolless run.
TEST_F(LevelSweepTest, KilledPooledMaterializationResumesToPoollessBytes) {
  const FactorGraph spouse = SpouseShapedGraph(8);
  IncrementalOptions options = MaterializeOptions();
  options.checkpoint_path = CheckpointPath("clean");
  IncrementalInference clean(&spouse, MaterializationStrategy::kSampling, options);
  ASSERT_TRUE(clean.Materialize().ok());
  const std::string want = FinalCheckpoint(options.checkpoint_path);

  options.checkpoint_path = CheckpointPath("killed");
  options.pool = pools_[2].get();
  // Die at sweep 35: past burn-in, after the checkpoint at sweep 30.
  ASSERT_TRUE(Failpoints::Instance().Configure("inference.sweep=error(skip=35)").ok());
  IncrementalInference killed(&spouse, MaterializationStrategy::kSampling, options);
  ASSERT_FALSE(killed.Materialize().ok());
  Failpoints::Instance().Reset();

  options.pool = pools_[1].get();
  IncrementalInference resumed(&spouse, MaterializationStrategy::kSampling, options);
  ASSERT_TRUE(resumed.Materialize().ok());
  EXPECT_EQ(Bits(resumed.marginals()), Bits(clean.marginals()));
  EXPECT_TRUE(FinalCheckpoint(options.checkpoint_path) == want)
      << "resumed checkpoint bytes differ from the uninterrupted run";
}

}  // namespace
}  // namespace dd
