#include "inference/hogwild.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <memory>
#include <mutex>
#include <thread>

#include "inference/gibbs.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/timer.h"
#include "util/trace.h"

namespace dd {

namespace {

/// Partition the free variables round-robin across threads and initialize
/// the shared assignment. Returns free variable lists per thread.
std::vector<std::vector<uint32_t>> PartitionAndInit(const FactorGraph& graph,
                                                    const ParallelGibbsOptions& options,
                                                    std::vector<uint8_t>* assignment,
                                                    Rng* rng) {
  const size_t nv = graph.num_variables();
  assignment->resize(nv);
  std::vector<std::vector<uint32_t>> parts(static_cast<size_t>(options.num_threads));
  size_t next = 0;
  for (uint32_t v = 0; v < nv; ++v) {
    if (options.clamp_evidence && graph.is_evidence(v)) {
      (*assignment)[v] = graph.evidence_value(v) ? 1 : 0;
    } else {
      (*assignment)[v] = rng->NextBernoulli(0.5) ? 1 : 0;
      parts[next % parts.size()].push_back(v);
      ++next;
    }
  }
  return parts;
}

}  // namespace

HogwildSampler::HogwildSampler(const FactorGraph* graph,
                               const ParallelGibbsOptions& options)
    : graph_(graph), options_(options) {}

Result<std::vector<double>> HogwildSampler::RunMarginals() {
  if (!graph_->finalized()) {
    return Status::InvalidArgument("HogwildSampler requires a finalized graph");
  }
  if (options_.num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  if (options_.num_samples < 1) {
    return Status::InvalidArgument("num_samples must be >= 1");
  }
  DD_TRACE_SPAN_VAR(run_span, "hogwild.run_marginals");
  Stopwatch run_watch;
  Rng init_rng(options_.seed);
  std::vector<uint8_t> assignment;
  auto parts = PartitionAndInit(*graph_, options_, &assignment, &init_rng);

  const size_t nv = graph_->num_variables();
  const int total_sweeps = options_.burn_in + options_.num_samples;
  std::vector<std::vector<uint64_t>> counts(
      parts.size(), std::vector<uint64_t>(nv, 0));  // per-thread accumulators
  std::atomic<uint64_t> steps{0};
  // Sweep-level epoch barrier: within a sweep threads race freely
  // (Hogwild's benign races), but sweeps stay aligned so no thread runs
  // far ahead against stale neighbor state — essential on hosts where
  // threads would otherwise serialize completely.
  std::barrier sweep_barrier(static_cast<std::ptrdiff_t>(parts.size()));

  std::vector<std::thread> threads;
  threads.reserve(parts.size());
  for (size_t t = 0; t < parts.size(); ++t) {
    threads.emplace_back([&, t] {
      Rng rng(options_.seed + 0x9e3779b9 * (t + 1));
      uint8_t* a = assignment.data();
      uint64_t local_steps = 0;
      for (int sweep = 0; sweep < total_sweeps; ++sweep) {
        for (uint32_t v : parts[t]) {
          double delta = graph_->PotentialDeltaCompiled(v, a);
          a[v] = rng.NextBernoulli(Sigmoid(delta)) ? 1 : 0;
        }
        local_steps += parts[t].size();
        if (sweep >= options_.burn_in) {
          // Each thread accumulates its own variables only (no races).
          for (uint32_t v : parts[t]) counts[t][v] += a[v];
        }
        sweep_barrier.arrive_and_wait();
      }
      steps.fetch_add(local_steps, std::memory_order_relaxed);
    });
  }
  for (auto& th : threads) th.join();
  num_steps_ = steps.load();
  DD_COUNTER_ADD("dd.sampler.sweeps", static_cast<uint64_t>(total_sweeps));
  DD_COUNTER_ADD("dd.sampler.deltas", num_steps_);
  const double seconds = run_watch.Seconds();
  if (seconds > 0) {
    DD_GAUGE_SET("dd.sampler.deltas_per_sec",
                 static_cast<double>(num_steps_) / seconds);
  }
  run_span.Attr("threads", static_cast<double>(parts.size()));
  run_span.Attr("deltas", static_cast<double>(num_steps_));

  std::vector<double> marginals(nv, 0.0);
  for (size_t t = 0; t < parts.size(); ++t) {
    for (uint32_t v : parts[t]) {
      marginals[v] = static_cast<double>(counts[t][v]) / options_.num_samples;
    }
  }
  // Evidence variables (clamped): deterministic marginals.
  for (uint32_t v = 0; v < nv; ++v) {
    if (options_.clamp_evidence && graph_->is_evidence(v)) {
      marginals[v] = graph_->evidence_value(v) ? 1.0 : 0.0;
    }
  }
  return marginals;
}

LockingSampler::LockingSampler(const FactorGraph* graph,
                               const ParallelGibbsOptions& options)
    : graph_(graph), options_(options) {}

Result<std::vector<double>> LockingSampler::RunMarginals() {
  if (!graph_->finalized()) {
    return Status::InvalidArgument("LockingSampler requires a finalized graph");
  }
  if (options_.num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  if (options_.num_samples < 1) {
    return Status::InvalidArgument("num_samples must be >= 1");
  }
  DD_TRACE_SPAN_VAR(run_span, "locking.run_marginals");
  Stopwatch run_watch;
  Rng init_rng(options_.seed);
  const size_t nv = graph_->num_variables();
  std::vector<uint8_t> assignment(nv);
  std::vector<uint32_t> free_vars;
  for (uint32_t v = 0; v < nv; ++v) {
    if (options_.clamp_evidence && graph_->is_evidence(v)) {
      assignment[v] = graph_->evidence_value(v) ? 1 : 0;
    } else {
      assignment[v] = init_rng.NextBernoulli(0.5) ? 1 : 0;
      free_vars.push_back(v);
    }
  }

  // Per-variable locks (edge-consistency scope: variable + factor neighbors).
  std::unique_ptr<std::mutex[]> locks(new std::mutex[nv]);

  // Precompute each variable's sorted lock scope.
  std::vector<std::vector<uint32_t>> scope(nv);
  for (uint32_t v = 0; v < nv; ++v) {
    size_t nfac = 0;
    const uint32_t* factors = graph_->var_factors(v, &nfac);
    std::vector<uint32_t>& s = scope[v];
    s.push_back(v);
    for (size_t i = 0; i < nfac; ++i) {
      size_t nlit = 0;
      const Literal* lits = graph_->factor_literals(factors[i], &nlit);
      for (size_t j = 0; j < nlit; ++j) s.push_back(lits[j].var);
    }
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
  }

  const size_t num_threads = static_cast<size_t>(options_.num_threads);
  const int total_sweeps = options_.burn_in + options_.num_samples;
  std::vector<std::vector<uint64_t>> counts(num_threads,
                                            std::vector<uint64_t>(nv, 0));
  std::atomic<uint64_t> steps{0};
  std::barrier sweep_barrier(static_cast<std::ptrdiff_t>(num_threads));
  // GraphLab-style shared scheduler: every vertex update is dispensed
  // through one global queue (here a mutex-protected cursor over the
  // free-variable list). The per-update scheduler round-trip plus the
  // neighborhood locking is the engine cost DimmWitted avoids.
  std::mutex scheduler_mu;
  size_t scheduler_cursor = 0;

  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(options_.seed + 0x9e3779b9 * (t + 1));
      uint8_t* a = assignment.data();
      uint64_t local_steps = 0;
      for (int sweep = 0; sweep < total_sweeps; ++sweep) {
        while (true) {
          uint32_t v;
          {
            std::lock_guard<std::mutex> sched_lock(scheduler_mu);
            if (scheduler_cursor >= free_vars.size()) break;
            v = free_vars[scheduler_cursor++];
          }
          // Lock the neighborhood in id order (deadlock-free).
          for (uint32_t u : scope[v]) locks[u].lock();
          double delta = graph_->PotentialDeltaCompiled(v, a);
          a[v] = rng.NextBernoulli(Sigmoid(delta)) ? 1 : 0;
          if (sweep >= options_.burn_in) counts[t][v] += a[v];
          for (auto it = scope[v].rbegin(); it != scope[v].rend(); ++it) {
            locks[*it].unlock();
          }
          ++local_steps;
        }
        sweep_barrier.arrive_and_wait();
        if (t == 0) scheduler_cursor = 0;  // rearm the scheduler
        sweep_barrier.arrive_and_wait();
      }
      steps.fetch_add(local_steps, std::memory_order_relaxed);
    });
  }
  for (auto& th : threads) th.join();
  num_steps_ = steps.load();
  DD_COUNTER_ADD("dd.sampler.sweeps", static_cast<uint64_t>(total_sweeps));
  DD_COUNTER_ADD("dd.sampler.deltas", num_steps_);
  const double seconds = run_watch.Seconds();
  if (seconds > 0) {
    DD_GAUGE_SET("dd.sampler.deltas_per_sec",
                 static_cast<double>(num_steps_) / seconds);
  }
  run_span.Attr("threads", static_cast<double>(num_threads));
  run_span.Attr("deltas", static_cast<double>(num_steps_));

  std::vector<double> marginals(nv, 0.0);
  for (uint32_t v : free_vars) {
    uint64_t total = 0;
    for (size_t t = 0; t < num_threads; ++t) total += counts[t][v];
    marginals[v] = static_cast<double>(total) / options_.num_samples;
  }
  for (uint32_t v = 0; v < nv; ++v) {
    if (options_.clamp_evidence && graph_->is_evidence(v)) {
      marginals[v] = graph_->evidence_value(v) ? 1.0 : 0.0;
    }
  }
  return marginals;
}

}  // namespace dd
