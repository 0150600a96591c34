// Pinned inference work per operation on the KBC workloads. Each
// workload is grounded, its weights learned and its marginals
// materialized; then the workload's batch and the batch that undoes it
// are each applied and followed by IncrementalInference::Update(). The
// registry counters the inference layer adds to during each operation
// are asserted exactly:
//
//   dd.inference.materialize_work_units  work of Materialize()
//   dd.inference.update_work_units       work of each Update()
//   dd.inference.update_proposals        worlds the Metropolis–Hastings
//   dd.inference.update_accepted         update proposed and accepted
//   dd.inference.update_fallbacks        updates that ran the warm start
//
// Learning adds one more, asserted exactly around Learn():
//
//   dd.learner.gradient_factor_evals  factor evaluations of the CD
//                                     gradient (two per learnable
//                                     factor per epoch)
//
// Work units are defined beside IncrementalInference::last_work_units().
// The graphs are byte-identical at every grounding thread count
// (grounding_pinned_test), and learning and inference get a pool of the
// same thread count: work units count variable steps and factor
// evaluations, not threads, so one pin holds at 1, 2, 4 and 8 threads.
// A change that moves a pin changes how much work inference does;
// re-record it only with that change, and list the old and new values in
// CHANGES.md. These graphs are narrower than a level fan-out, so
// dd.sampler.fanned_levels must not move on any of them.
//
// "spouse_small" adds 2 of 100 documents: a batch that small must take
// the Metropolis–Hastings path, at most a fifth of a Materialize()'s work.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <tuple>

#include "grounding/grounder.h"
#include "inference/incremental.h"
#include "inference/learner.h"
#include "kbc_workloads.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace dd {
namespace {

const char* const kCounters[] = {
    "dd.inference.materialize_work_units", "dd.inference.update_work_units",
    "dd.inference.update_proposals",       "dd.inference.update_accepted",
    "dd.inference.update_fallbacks",
};
constexpr size_t kNumCounters = sizeof(kCounters) / sizeof(kCounters[0]);

struct Counts {
  uint64_t v[kNumCounters] = {};
};

/// What the counters gained while `op` ran.
template <typename Op>
Counts Measure(Op op) {
  Counts before, after;
  for (size_t i = 0; i < kNumCounters; ++i) {
    before.v[i] = MetricsRegistry::Instance().GetCounter(kCounters[i])->Value();
  }
  op();
  for (size_t i = 0; i < kNumCounters; ++i) {
    after.v[i] = MetricsRegistry::Instance().GetCounter(kCounters[i])->Value() -
                 before.v[i];
  }
  return after;
}

/// Learn() adds gradient_evals to gradient_factor_evals. Per Update():
/// update_work_units, update_proposals, update_accepted,
/// update_fallbacks. Materialize() adds to materialize_work_units only.
struct Pinned {
  const char* workload;
  uint64_t gradient_evals;
  uint64_t materialize;
  uint64_t batch[4];
  uint64_t undo[4];
};

const Pinned kPinned[] = {
    {"logs", 880, 5760, {10660, 100, 15, 1}, {9860, 100, 9, 1}},
    {"spouse", 18680, 15960, {20240, 0, 0, 1}, {20240, 0, 0, 1}},
    {"spouse_small", 61160, 46920, {6200, 100, 94, 0}, {500, 100, 100, 0}},
    {"synthetic1", 2560, 3480, {3630, 0, 0, 1}, {3630, 0, 0, 1}},
    {"synthetic2", 4600, 5040, {4950, 0, 0, 1}, {4950, 0, 0, 1}},
    {"synthetic3", 3220, 4440, {4400, 0, 0, 1}, {4400, 0, 0, 1}},
    {"synthetic4", 5420, 2640, {2640, 0, 0, 1}, {2640, 0, 0, 1}},
    {"synthetic5", 3420, 3240, {3080, 0, 0, 1}, {3080, 0, 0, 1}},
    {"synthetic6", 2100, 3960, {4180, 0, 0, 1}, {4180, 0, 0, 1}},
    {"synthetic7", 5740, 3480, {3190, 0, 0, 1}, {3190, 0, 0, 1}},
    {"synthetic8", 8220, 4680, {4510, 0, 0, 1}, {4510, 0, 0, 1}},
};

class WorkPinnedTest : public ::testing::TestWithParam<std::tuple<Pinned, size_t>> {};

TEST_P(WorkPinnedTest, CountsMatchRecorded) {
  ASSERT_TRUE(MetricsRegistry::enabled());
  const auto [pinned, threads] = GetParam();
  auto grounding = testing_workloads::GroundPinned(pinned.workload, threads);
  ASSERT_TRUE(grounding.ok()) << grounding.status().ToString();
  const testing_workloads::KbcWorkload& workload = (*grounding)->workload;
  Grounder& grounder = *(*grounding)->grounder;

  ThreadPool pool(threads);
  Counter* gradient_evals =
      MetricsRegistry::Instance().GetCounter("dd.learner.gradient_factor_evals");
  Counter* fanned = MetricsRegistry::Instance().GetCounter("dd.sampler.fanned_levels");
  const uint64_t fanned_before = fanned->Value();
  LearnOptions learn;
  learn.epochs = 10;
  learn.pool = &pool;
  const uint64_t evals_before = gradient_evals->Value();
  Status st = Learner(grounder.mutable_graph()).Learn(learn);
  ASSERT_TRUE(st.ok()) << st.ToString();
  const uint64_t evals = gradient_evals->Value() - evals_before;
  grounder.SaveWeights();

  // The pipeline's setting: evidence is sampled too.
  IncrementalOptions options;
  options.full_burn_in = 20;
  options.num_samples = 100;
  options.update_burn_in = 10;
  options.clamp_evidence = false;
  options.pool = &pool;
  IncrementalInference engine(&grounder.graph(), MaterializationStrategy::kSampling,
                              options);
  const Counts materialize = Measure([&] { st = engine.Materialize(); });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(materialize.v[0], engine.last_work_units());
  for (size_t i = 1; i < kNumCounters; ++i) {
    EXPECT_EQ(materialize.v[i], 0u) << kCounters[i] << " moved in Materialize()";
  }

  Counts updates[2];
  const std::map<std::string, DeltaSet> batches[2] = {
      workload.delta, testing_workloads::Undo(workload.delta)};
  for (int b = 0; b < 2; ++b) {
    st = grounder.ApplyDeltas(batches[b]);
    ASSERT_TRUE(st.ok()) << st.ToString();
    updates[b] = Measure([&] {
      st = engine.Update(&grounder.graph(), grounder.changed_vars()).status();
    });
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(updates[b].v[0], 0u) << "Update() added materialize work";
    EXPECT_EQ(updates[b].v[1], engine.last_work_units());
  }

  auto row = [](const Counts& c) {
    return "{" + std::to_string(c.v[1]) + ", " + std::to_string(c.v[2]) + ", " +
           std::to_string(c.v[3]) + ", " + std::to_string(c.v[4]) + "}";
  };
  const std::string actual = "{\"" + std::string(pinned.workload) + "\", " +
                             std::to_string(evals) + ", " +
                             std::to_string(materialize.v[0]) + ", " + row(updates[0]) +
                             ", " + row(updates[1]) + "},";
  EXPECT_EQ(evals, pinned.gradient_evals) << actual;
  EXPECT_EQ(fanned->Value(), fanned_before) << "a level fanned out";
  EXPECT_EQ(materialize.v[0], pinned.materialize) << actual;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(updates[0].v[i + 1], pinned.batch[i]) << kCounters[i + 1] << " " << actual;
    EXPECT_EQ(updates[1].v[i + 1], pinned.undo[i]) << kCounters[i + 1] << " " << actual;
  }

  if (std::string(pinned.workload) == "spouse_small") {
    EXPECT_EQ(updates[0].v[4], 0u) << "a 2% spouse batch fell back";
    EXPECT_LE(updates[0].v[1] * 5, materialize.v[0])
        << "a 2% spouse batch did more than a fifth of a Materialize()'s work";
  }
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadByThreads, WorkPinnedTest,
    ::testing::Combine(::testing::ValuesIn(kPinned),
                       ::testing::Values<size_t>(1, 2, 4, 8)),
    [](const ::testing::TestParamInfo<std::tuple<Pinned, size_t>>& info) {
      return std::string(std::get<0>(info.param).workload) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace dd
