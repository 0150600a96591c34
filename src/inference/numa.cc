#include "inference/numa.h"

#include <atomic>
#include <barrier>
#include <memory>
#include <thread>

#include "inference/gibbs.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/trace.h"

namespace dd {

namespace {

/// Simulated interconnect latency for one remote access.
inline void SpinPenalty(uint64_t iters) {
  volatile uint64_t sink = 0;
  for (uint64_t i = 0; i < iters; ++i) sink = sink + i;
}

/// Variables touched when resampling v: v plus all variables sharing a
/// factor with v. (Weight reads are attributed to the factor's owner.)
std::vector<std::vector<uint32_t>> BuildScopes(const FactorGraph& graph) {
  const size_t nv = graph.num_variables();
  std::vector<std::vector<uint32_t>> scope(nv);
  for (uint32_t v = 0; v < nv; ++v) {
    size_t nfac = 0;
    const uint32_t* factors = graph.var_factors(v, &nfac);
    auto& s = scope[v];
    s.push_back(v);
    for (size_t i = 0; i < nfac; ++i) {
      size_t nlit = 0;
      const Literal* lits = graph.factor_literals(factors[i], &nlit);
      for (size_t j = 0; j < nlit; ++j) {
        if (lits[j].var != v) s.push_back(lits[j].var);
      }
    }
  }
  return scope;
}

}  // namespace

NumaSampler::NumaSampler(const FactorGraph* graph, const NumaTopology& topology,
                         int burn_in, int num_samples, uint64_t seed)
    : graph_(graph),
      topology_(topology),
      burn_in_(burn_in),
      num_samples_(num_samples),
      seed_(seed) {}

int NumaSampler::OwnerNode(uint32_t var) const {
  const size_t nv = graph_->num_variables();
  size_t block = (nv + topology_.num_nodes - 1) / topology_.num_nodes;
  if (block == 0) block = 1;
  int node = static_cast<int>(var / block);
  return node >= topology_.num_nodes ? topology_.num_nodes - 1 : node;
}

Result<NumaRunStats> NumaSampler::RunAware() {
  if (!graph_->finalized()) {
    return Status::InvalidArgument("NumaSampler requires a finalized graph");
  }
  const int nodes = topology_.num_nodes;
  if (nodes < 1) return Status::InvalidArgument("num_nodes must be >= 1");
  if (num_samples_ < 1) return Status::InvalidArgument("num_samples must be >= 1");
  DD_TRACE_SPAN_VAR(run_span, "numa.run_aware");
  const size_t nv = graph_->num_variables();
  // Split the sample budget across nodes, spreading the remainder over
  // the first num_samples_ % nodes nodes so the requested budget is
  // honored exactly; every node burns in separately. Nodes left with a
  // zero share (more nodes than samples) sit the run out.
  std::vector<int> node_samples(nodes, num_samples_ / nodes);
  for (int n = 0; n < num_samples_ % nodes; ++n) node_samples[n] += 1;

  std::vector<std::vector<double>> node_marginals(nodes);
  std::vector<Status> node_status(nodes, Status::OK());
  std::atomic<uint64_t> steps{0};
  std::vector<std::thread> threads;
  for (int n = 0; n < nodes; ++n) {
    if (node_samples[n] == 0) continue;
    threads.emplace_back([&, n] {
      // Local replica chain: all state owned by node n; zero remote traffic.
      GibbsOptions opts;
      opts.burn_in = burn_in_;
      opts.num_samples = node_samples[n];
      opts.seed = seed_ + 0x51ed270bULL * static_cast<uint64_t>(n + 1);
      opts.clamp_evidence = true;
      GibbsSampler chain(graph_, opts);
      auto result = chain.RunMarginals();
      if (result.ok()) {
        node_marginals[n] = std::move(result).value();
      } else {
        node_status[n] = result.status();
      }
      steps.fetch_add(chain.num_steps(), std::memory_order_relaxed);
    });
  }
  for (auto& th : threads) th.join();
  for (const Status& st : node_status) DD_RETURN_IF_ERROR(st);

  NumaRunStats stats;
  stats.marginals.assign(nv, 0.0);
  // Sample-weighted model averaging: a node's estimate counts in
  // proportion to the samples it actually drew.
  for (int n = 0; n < nodes; ++n) {
    if (node_samples[n] == 0) continue;
    for (size_t v = 0; v < nv; ++v) {
      stats.marginals[v] += node_marginals[n][v] * node_samples[n];
    }
  }
  for (double& m : stats.marginals) m /= num_samples_;
  stats.steps = steps.load();
  stats.total_accesses = stats.steps;  // local accesses only, one owner touch per step
  stats.remote_accesses = 0;
  DD_COUNTER_ADD("dd.numa.total_accesses", stats.total_accesses);
  run_span.Attr("nodes", static_cast<double>(nodes));
  run_span.Attr("steps", static_cast<double>(stats.steps));
  return stats;
}

Result<NumaRunStats> NumaSampler::RunUnaware() {
  if (!graph_->finalized()) {
    return Status::InvalidArgument("NumaSampler requires a finalized graph");
  }
  const int nodes = topology_.num_nodes;
  if (nodes < 1) return Status::InvalidArgument("num_nodes must be >= 1");
  if (num_samples_ < 1) return Status::InvalidArgument("num_samples must be >= 1");
  DD_TRACE_SPAN_VAR(run_span, "numa.run_unaware");
  const size_t nv = graph_->num_variables();
  auto scopes = BuildScopes(*graph_);

  // Shared assignment; each node's thread samples the variables it owns,
  // but must read (and count) neighbor state on other nodes.
  Rng init_rng(seed_);
  std::vector<uint8_t> assignment(nv);
  std::vector<std::vector<uint32_t>> parts(nodes);
  for (uint32_t v = 0; v < nv; ++v) {
    if (graph_->is_evidence(v)) {
      assignment[v] = graph_->evidence_value(v) ? 1 : 0;
    } else {
      assignment[v] = init_rng.NextBernoulli(0.5) ? 1 : 0;
      parts[OwnerNode(v)].push_back(v);
    }
  }

  const int total_sweeps = burn_in_ + num_samples_;
  std::vector<std::vector<uint64_t>> counts(nodes, std::vector<uint64_t>(nv, 0));
  std::atomic<uint64_t> steps{0}, total_acc{0}, remote_acc{0};
  std::barrier sweep_barrier(nodes);

  std::vector<std::thread> threads;
  for (int n = 0; n < nodes; ++n) {
    threads.emplace_back([&, n] {
      Rng rng(seed_ + 0x9e3779b9 * (n + 1));
      uint8_t* a = assignment.data();
      uint64_t local_total = 0, local_remote = 0, local_steps = 0;
      for (int sweep = 0; sweep < total_sweeps; ++sweep) {
        for (uint32_t v : parts[n]) {
          for (uint32_t u : scopes[v]) {
            ++local_total;
            if (OwnerNode(u) != n) {
              ++local_remote;
              SpinPenalty(topology_.remote_penalty_iters);
            }
          }
          double delta = graph_->PotentialDeltaCompiled(v, a);
          a[v] = rng.NextBernoulli(Sigmoid(delta)) ? 1 : 0;
        }
        local_steps += parts[n].size();
        if (sweep >= burn_in_) {
          for (uint32_t v : parts[n]) counts[n][v] += a[v];
        }
        sweep_barrier.arrive_and_wait();
      }
      steps.fetch_add(local_steps, std::memory_order_relaxed);
      total_acc.fetch_add(local_total, std::memory_order_relaxed);
      remote_acc.fetch_add(local_remote, std::memory_order_relaxed);
    });
  }
  for (auto& th : threads) th.join();

  NumaRunStats stats;
  stats.marginals.assign(nv, 0.0);
  for (int n = 0; n < nodes; ++n) {
    for (uint32_t v : parts[n]) {
      stats.marginals[v] = static_cast<double>(counts[n][v]) / num_samples_;
    }
  }
  for (uint32_t v = 0; v < nv; ++v) {
    if (graph_->is_evidence(v)) {
      stats.marginals[v] = graph_->evidence_value(v) ? 1.0 : 0.0;
    }
  }
  stats.steps = steps.load();
  stats.total_accesses = total_acc.load();
  stats.remote_accesses = remote_acc.load();
  DD_COUNTER_ADD("dd.numa.total_accesses", stats.total_accesses);
  DD_COUNTER_ADD("dd.numa.remote_accesses", stats.remote_accesses);
  run_span.Attr("nodes", static_cast<double>(nodes));
  run_span.Attr("remote_accesses", static_cast<double>(stats.remote_accesses));
  return stats;
}

Result<NumaLearnStats> NumaLearner::Learn(const LearnOptions& options, bool numa_aware) {
  DD_RETURN_IF_ERROR(graph_->Finalize());
  const int nodes = topology_.num_nodes;
  if (nodes < 1) return Status::InvalidArgument("num_nodes must be >= 1");
  const size_t nw = graph_->num_weights();
  const size_t nf = graph_->num_factors();

  // Factor f is owned by the node owning its first literal's variable.
  const size_t nv = graph_->num_variables();
  size_t block = (nv + nodes - 1) / nodes;
  if (block == 0) block = 1;
  auto owner_of_var = [&](uint32_t v) {
    int n = static_cast<int>(v / block);
    return n >= nodes ? nodes - 1 : n;
  };
  // Weight w owned by node w % nodes (weights are shared model state).
  auto owner_of_weight = [&](uint32_t w) { return static_cast<int>(w % nodes); };

  NumaLearnStats stats;

  if (numa_aware) {
    // Per-node weight replicas; each node runs CD-style SGD on its own
    // full-graph chains (replicated), then replicas are averaged per epoch.
    // All per-epoch accesses are node-local.
    std::vector<std::vector<double>> replicas(nodes, std::vector<double>(nw));
    for (int n = 0; n < nodes; ++n) {
      for (uint32_t w = 0; w < nw; ++w) replicas[n][w] = graph_->weight_value(w);
    }
    std::vector<double> averaged(nw);
    for (uint32_t w = 0; w < nw; ++w) averaged[w] = graph_->weight_value(w);

    // Chains per node.
    struct NodeChains {
      std::unique_ptr<GibbsSampler> pos, neg;
    };
    std::vector<NodeChains> chains(nodes);
    for (int n = 0; n < nodes; ++n) {
      GibbsOptions pos_opts;
      pos_opts.seed = options.seed + 2 * n;
      pos_opts.clamp_evidence = true;
      chains[n].pos = std::make_unique<GibbsSampler>(graph_, pos_opts);
      DD_RETURN_IF_ERROR(chains[n].pos->Init());
      GibbsOptions neg_opts;
      neg_opts.seed = options.seed + 2 * n + 1;
      neg_opts.clamp_evidence = false;
      chains[n].neg = std::make_unique<GibbsSampler>(graph_, neg_opts);
      DD_RETURN_IF_ERROR(chains[n].neg->Init());
    }

    double lr = options.learning_rate;
    std::atomic<uint64_t> total_acc{0};
    for (int epoch = 0; epoch < options.epochs; ++epoch) {
      // NOTE: the per-epoch weight values live in the replica, so the
      // gradient step must read the replica, not graph_ weights. We
      // temporarily install the replica into the graph per node — but
      // that would race across threads; instead evaluate factors (which
      // depend only on assignments) and apply gradients to replicas.
      std::vector<std::thread> threads;
      for (int n = 0; n < nodes; ++n) {
        threads.emplace_back([&, n] {
          for (int s = 0; s < options.sweeps_per_epoch; ++s) {
            chains[n].pos->Sweep();
            chains[n].neg->Sweep();
          }
          const uint8_t* pos = chains[n].pos->assignment().data();
          const uint8_t* neg = chains[n].neg->assignment().data();
          std::vector<double> grad(nw, 0.0);
          uint64_t acc = 0;
          for (uint32_t f = 0; f < nf; ++f) {
            uint32_t w = graph_->factor_weight(f);
            if (graph_->weight(w).is_fixed) continue;
            double h_pos = graph_->EvalFactor(f, pos);
            double h_neg = graph_->EvalFactor(f, neg);
            ++acc;  // local access to the replica weight
            if (h_pos != h_neg) grad[w] += h_pos - h_neg;
          }
          for (uint32_t w = 0; w < nw; ++w) {
            if (graph_->weight(w).is_fixed) continue;
            replicas[n][w] += lr * (grad[w] - options.l2 * replicas[n][w]);
          }
          total_acc.fetch_add(acc, std::memory_order_relaxed);
        });
      }
      for (auto& th : threads) th.join();

      // Model averaging at the epoch barrier (the only cross-node step;
      // nw remote accesses per node).
      for (uint32_t w = 0; w < nw; ++w) {
        if (graph_->weight(w).is_fixed) continue;
        double sum = 0.0;
        for (int n = 0; n < nodes; ++n) sum += replicas[n][w];
        averaged[w] = sum / nodes;
        for (int n = 0; n < nodes; ++n) replicas[n][w] = averaged[w];
        graph_->set_weight_value(w, averaged[w]);
      }
      stats.remote_accesses += static_cast<uint64_t>(nw) * (nodes - 1);
      lr *= options.decay;
    }
    stats.total_accesses = total_acc.load() + stats.remote_accesses;
    return stats;
  }

  // Non-NUMA-aware: one shared weight vector; every node's gradient pass
  // reads and writes weights wherever they live.
  struct NodeChains {
    std::unique_ptr<GibbsSampler> pos, neg;
  };
  std::vector<NodeChains> chains(nodes);
  for (int n = 0; n < nodes; ++n) {
    GibbsOptions pos_opts;
    pos_opts.seed = options.seed + 2 * n;
    pos_opts.clamp_evidence = true;
    chains[n].pos = std::make_unique<GibbsSampler>(graph_, pos_opts);
    DD_RETURN_IF_ERROR(chains[n].pos->Init());
    GibbsOptions neg_opts;
    neg_opts.seed = options.seed + 2 * n + 1;
    neg_opts.clamp_evidence = false;
    chains[n].neg = std::make_unique<GibbsSampler>(graph_, neg_opts);
    DD_RETURN_IF_ERROR(chains[n].neg->Init());
  }

  double lr = options.learning_rate;
  std::atomic<uint64_t> total_acc{0}, remote_acc{0};
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    std::vector<std::thread> threads;
    for (int n = 0; n < nodes; ++n) {
      threads.emplace_back([&, n] {
        for (int s = 0; s < options.sweeps_per_epoch; ++s) {
          chains[n].pos->Sweep();
          chains[n].neg->Sweep();
        }
        const uint8_t* pos = chains[n].pos->assignment().data();
        const uint8_t* neg = chains[n].neg->assignment().data();
        uint64_t acc = 0, remote = 0;
        double local_lr = lr / nodes;  // scale so the combined step matches
        for (uint32_t f = 0; f < nf; ++f) {
          uint32_t w = graph_->factor_weight(f);
          if (graph_->weight(w).is_fixed) continue;
          double h_pos = graph_->EvalFactor(f, pos);
          double h_neg = graph_->EvalFactor(f, neg);
          ++acc;
          bool weight_remote = owner_of_weight(w) != n;
          size_t nlit = 0;
          const Literal* lits = graph_->factor_literals(f, &nlit);
          if (nlit > 0 && owner_of_var(lits[0].var) != n) ++remote;  // factor fetch
          if (weight_remote) {
            ++remote;
            SpinPenalty(topology_.remote_penalty_iters);
          }
          if (h_pos != h_neg) {
            // Hogwild-style racy update on the shared weight.
            graph_->set_weight_value(
                w, graph_->weight_value(w) + local_lr * (h_pos - h_neg));
            if (weight_remote) {
              ++remote;
              SpinPenalty(topology_.remote_penalty_iters);
            }
          }
        }
        total_acc.fetch_add(acc, std::memory_order_relaxed);
        remote_acc.fetch_add(remote, std::memory_order_relaxed);
      });
    }
    for (auto& th : threads) th.join();
    // L2 + decay applied once per epoch on the shared model.
    for (uint32_t w = 0; w < nw; ++w) {
      if (graph_->weight(w).is_fixed) continue;
      const double value = graph_->weight_value(w);
      graph_->set_weight_value(w, value - lr * options.l2 * value);
    }
    lr *= options.decay;
  }
  stats.total_accesses = total_acc.load();
  stats.remote_accesses = remote_acc.load();
  return stats;
}

}  // namespace dd
