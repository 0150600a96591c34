#include "serve_load.h"

#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>

#include "util/rng.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// The open loop's rates: the nominal rate, whose latency is reported,
// recurs between the other rates, so its repeats sample that whole
// stretch; together they get kNominalShare of kOpenSeconds, and the other
// steps share the rest equally. Epochs are swapped in during the first
// two steps, before any nominal repeat.
constexpr double kNominalQps = 16000;
const std::vector<double> kOpenQps = {
    8000,  12000,       kNominalQps, 20000, kNominalQps, 24000, kNominalQps, 28000,
    kNominalQps, 32000, kNominalQps, 40000, kNominalQps, 48000, kNominalQps};
constexpr double kOpenSeconds = 8.0;
constexpr double kNominalShare = 0.7;
constexpr size_t kSwapSteps = 2;
/// After each later open step comes a closed-loop window of this length,
/// so the windows sample the whole run; the senders cycle through
/// kClosedRequests distinct requests.
constexpr double kClosedWindowSeconds = 0.3;
constexpr size_t kClosedRequests = 1 << 16;
/// A step or window meets the limit when its p99 is within it and
/// nothing failed.
constexpr double kP99LimitMs = 10.0;

/// An open-loop step, or a closed-loop window (qps 0).
struct Step {
  double qps = 0;
  double start_s = 0;
  double seconds = 0;
  bool closed() const { return qps == 0; }
  bool nominal() const { return qps == kNominalQps; }
};

std::vector<Step> MakeSteps() {
  const size_t nominal =
      static_cast<size_t>(std::count(kOpenQps.begin(), kOpenQps.end(), kNominalQps));
  std::vector<Step> steps;
  double start_s = 0;
  auto add = [&](double qps, double seconds) {
    steps.push_back(Step{qps, start_s, seconds});
    start_s += seconds;
  };
  for (size_t i = 0; i < kOpenQps.size(); ++i) {
    const double qps = kOpenQps[i];
    add(qps, qps == kNominalQps
                 ? kNominalShare * kOpenSeconds / static_cast<double>(nominal)
                 : (1 - kNominalShare) * kOpenSeconds /
                       static_cast<double>(kOpenQps.size() - nominal));
    if (i >= kSwapSteps) add(0, kClosedWindowSeconds);
  }
  return steps;
}

// Query mix marginal:fact:top-k, the skew of row ids (Zipf exponent), the
// top-k size and the fact threshold.
constexpr int kMarginalWeight = 8;
constexpr int kFactWeight = 3;
constexpr int kTopKWeight = 1;
constexpr double kZipfS = 0.9;
constexpr size_t kTopK = 10;
constexpr double kFactThreshold = 0.7;
/// Per-request budget from its due time; later answers fail.
constexpr double kDeadlineMs = 200.0;

struct Request {
  dd::QueryKind kind = dd::QueryKind::kMarginal;
  uint32_t relation = 0;
  int64_t row = 0;
  double due_s = 0;
};

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

/// Sleeps until shortly before `when`, then spins until it passes. The
/// senders run with minimal timer slack, so the sleep overshoots by a few
/// microseconds; spinning only the last stretch leaves the cores to the
/// server and to the thread swapping epochs in.
void WaitUntil(Clock::time_point when) {
  const auto margin = std::chrono::microseconds(30);
  if (when - Clock::now() > margin) std::this_thread::sleep_until(when - margin);
  while (Clock::now() < when) {
  }
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const size_t idx = std::min(values.size() - 1,
                              static_cast<size_t>(q * static_cast<double>(values.size())));
  std::nth_element(values.begin(), values.begin() + static_cast<long>(idx), values.end());
  return values[idx];
}

/// Draws requests of the query mix, row ids Zipf-skewed per relation.
class QueryMix {
 public:
  explicit QueryMix(const LoadInputs& inputs) : inputs_(inputs), rng_(inputs.seed) {
    // Zipf CDF per relation over its rows (rank 0 hottest).
    cdf_.resize(inputs.rows.size());
    for (size_t r = 0; r < inputs.rows.size(); ++r) {
      double total = 0;
      for (size_t i = 0; i < inputs.rows[r].size(); ++i) {
        total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfS);
        cdf_[r].push_back(total);
      }
      for (double& c : cdf_[r]) c /= total;
    }
  }

  Request Next() {
    const int weight_sum = kMarginalWeight + kFactWeight + kTopKWeight;
    Request req;
    const int dice = static_cast<int>(rng_.NextBounded(static_cast<uint64_t>(weight_sum)));
    req.kind = dice < kMarginalWeight                 ? dd::QueryKind::kMarginal
               : dice < kMarginalWeight + kFactWeight ? dd::QueryKind::kFact
                                                      : dd::QueryKind::kTopK;
    req.relation = static_cast<uint32_t>(rng_.NextBounded(inputs_.rows.size()));
    const auto& c = cdf_[req.relation];
    const size_t rank = static_cast<size_t>(
        std::upper_bound(c.begin(), c.end(), rng_.NextDouble()) - c.begin());
    req.row = inputs_.rows[req.relation][std::min(rank, c.size() - 1)];
    return req;
  }

 private:
  const LoadInputs& inputs_;
  dd::Rng rng_;
  std::vector<std::vector<double>> cdf_;
};

bool Matches(const Request& req, const dd::QueryResponse& response,
             const EpochAnswers& answers) {
  if (req.kind == dd::QueryKind::kTopK) {
    const auto& want = answers.top[req.relation];
    if (response.top.size() != want.size()) return false;
    for (size_t i = 0; i < want.size(); ++i) {
      if (response.top[i].row != want[i].row ||
          !SameBits(response.top[i].probability, want[i].probability)) {
        return false;
      }
    }
    return true;
  }
  const auto& marginals = answers.marginals[req.relation];
  auto it = marginals.find(req.row);
  if (it == marginals.end() || !SameBits(it->second, response.probability)) {
    return false;
  }
  return req.kind != dd::QueryKind::kFact ||
         response.is_fact == (it->second >= kFactThreshold);
}

/// Whether `response` is the answer of the epoch it names.
bool Answered(const Request& req, const dd::QueryResponse& response,
              const std::vector<EpochAnswers>& answers) {
  for (const EpochAnswers& a : answers) {
    if (a.epoch == response.epoch) return Matches(req, response, a);
  }
  return false;
}

dd::QueryRequest ToQuery(const LoadInputs& inputs, const Request& req, double deadline_ms) {
  dd::QueryRequest query;
  query.kind = req.kind;
  query.relation = inputs.relations[req.relation];
  query.row = req.row;
  query.threshold = kFactThreshold;
  query.k = kTopK;
  query.deadline = dd::Deadline::AfterMillis(deadline_ms);
  return query;
}

/// One request as its sender saw it. Open-loop latency counts from the
/// due time, closed-loop latency from the send.
struct Sample {
  size_t step = 0;
  double late_ms = 0;
  double latency_ms = 0;
  bool ok = false;
};

/// p50/p99 of `latency_ms`, and whether the step meets the limit.
void Summarize(std::vector<double> latency_ms, StepResult* step) {
  step->p50_ms = Percentile(latency_ms, 0.50);
  step->p99_ms = Percentile(std::move(latency_ms), 0.99);
  step->meets_limit = step->sent > 0 && step->failed == 0 && step->p99_ms <= kP99LimitMs;
}

}  // namespace

void PinThisThread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

dd::Result<EpochAnswers> AnswersOf(const KbcRunner& runner, uint64_t epoch,
                                   const std::vector<std::string>& relations) {
  EpochAnswers answers;
  answers.epoch = epoch;
  const auto& vars = runner.grounder().var_info();
  for (const std::string& relation : relations) {
    DD_ASSIGN_OR_RETURN(auto marginals, runner.Marginals(relation));
    // Marginals() lists live tuples of the relation in variable order.
    std::unordered_map<int64_t, double> by_row;
    std::vector<dd::TopKEntry> entries;
    size_t next = 0;
    for (const dd::VarInfo& v : vars) {
      if (!v.live || v.relation != relation) continue;
      if (next >= marginals.size()) return dd::Status::Internal("marginal count");
      by_row[v.row_id] = marginals[next].second;
      entries.push_back(dd::TopKEntry{v.row_id, marginals[next].second});
      ++next;
    }
    std::sort(entries.begin(), entries.end(),
              [](const dd::TopKEntry& a, const dd::TopKEntry& b) {
                return a.probability > b.probability ||
                       (a.probability == b.probability && a.row < b.row);
              });
    if (entries.size() > kTopK) entries.resize(kTopK);
    answers.marginals.push_back(std::move(by_row));
    answers.top.push_back(std::move(entries));
  }
  return answers;
}

dd::Result<LoadResult> RunLoad(dd::KbcServer* server, const LoadInputs& inputs,
                               const std::vector<EpochAnswers>& answers) {
  const std::vector<Step> steps = MakeSteps();
  QueryMix mix(inputs);
  std::vector<std::vector<Request>> open(steps.size());  // with due times
  for (size_t s = 0; s < steps.size(); ++s) {
    const size_t n = static_cast<size_t>(steps[s].qps * steps[s].seconds);
    for (size_t i = 0; i < n; ++i) {
      open[s].push_back(mix.Next());
      open[s].back().due_s = steps[s].start_s + static_cast<double>(i) / steps[s].qps;
    }
  }
  std::vector<Request> closed(kClosedRequests);
  for (Request& req : closed) req = mix.Next();
  std::vector<std::atomic<size_t>> next(steps.size());  // per open step
  std::vector<std::vector<Sample>> samples(kLoadSenders);
  std::vector<uint64_t> mismatches(kLoadSenders, 0);
  // Each sender is one client: the epochs it sees must never go back.
  std::atomic<bool> epochs_monotone{true};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  auto seconds_since_start = [start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  auto at = [start](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };

  auto sender = [&](size_t index) {
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);  // 1 ns: precise wake-ups
    if (index < inputs.sender_cpus.size()) PinThisThread({inputs.sender_cpus[index]});
    uint64_t last_epoch = 0;
    // Sends `req` and checks the answer against the epoch it names.
    auto send = [&](const Request& req, size_t step, double from_s, double late_ms) {
      dd::Result<dd::QueryResponse> result =
          server->Query(ToQuery(inputs, req, kDeadlineMs - late_ms));
      Sample sample;
      sample.step = step;
      sample.late_ms = late_ms;
      sample.latency_ms = 1e3 * (seconds_since_start() - from_s);
      sample.ok = result.ok();
      samples[index].push_back(sample);
      if (!sample.ok) return;
      if (result->epoch < last_epoch) epochs_monotone = false;
      last_epoch = result->epoch;
      if (!Answered(req, *result, answers)) ++mismatches[index];
    };
    size_t k = index;  // this sender's next closed-loop request
    for (size_t s = 0; s < steps.size(); ++s) {
      if (steps[s].closed()) {  // back to back until the window ends
        WaitUntil(at(steps[s].start_s));
        const double end_s = steps[s].start_s + steps[s].seconds;
        for (double sent_s = seconds_since_start(); sent_s < end_s;
             sent_s = seconds_since_start()) {
          send(closed[k % closed.size()], s, sent_s, 0);
          k += kLoadSenders;
        }
        continue;
      }
      for (size_t i; (i = next[s].fetch_add(1)) < open[s].size();) {  // each at its due time
        const Request& req = open[s][i];
        WaitUntil(at(req.due_s));
        send(req, s, req.due_s, 1e3 * (seconds_since_start() - req.due_s));
      }
    }
  };

  LoadResult result;
  {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kLoadSenders; ++t) threads.emplace_back(sender, t);
    // This thread swaps the epochs in, one in the middle of each of the
    // first steps: a swap stalls requests for milliseconds, and the
    // nominal repeats and closed-loop windows come after the swaps.
    dd::Status swap_status;
    size_t swapped = 0;
    for (size_t s = 0; s < kSwapSteps && swapped < inputs.swap_paths.size(); ++s) {
      WaitUntil(at(steps[s].start_s + 0.5 * steps[s].seconds));
      const Clock::time_point t0 = Clock::now();
      swap_status = server->LoadAndSwap(inputs.swap_paths[swapped++]);
      result.load_seconds.push_back(
          std::chrono::duration<double>(Clock::now() - t0).count());
      if (!swap_status.ok()) break;
    }
    for (std::thread& t : threads) t.join();
    DD_RETURN_IF_ERROR(swap_status);
    if (swapped != inputs.swap_paths.size()) {
      return dd::Status::Internal("more epochs to swap in than swap steps");
    }
  }

  // Per step: latency, lateness and answered rate.
  result.epochs_monotone = epochs_monotone;
  std::vector<std::vector<double>> latency_ms(steps.size()), late_ms(steps.size());
  std::vector<uint64_t> answered(steps.size(), 0);
  result.steps.resize(steps.size());
  for (size_t t = 0; t < kLoadSenders; ++t) {
    result.mismatches += mismatches[t];
    for (const Sample& sample : samples[t]) {
      StepResult& step = result.steps[sample.step];
      ++step.sent;
      late_ms[sample.step].push_back(sample.late_ms);
      if (!sample.ok) {
        ++step.failed;
        latency_ms[sample.step].push_back(std::numeric_limits<double>::infinity());
        continue;
      }
      ++answered[sample.step];
      ++result.checked;
      latency_ms[sample.step].push_back(sample.latency_ms);
    }
  }
  std::vector<double> nominal_p50, nominal_p99, nominal_late, nominal_latency, window_qps;
  for (size_t s = 0; s < steps.size(); ++s) {
    StepResult& step = result.steps[s];
    step.offered_qps = steps[s].qps;
    step.achieved_qps = static_cast<double>(answered[s]) / steps[s].seconds;
    step.late_p99_ms = Percentile(late_ms[s], 0.99);
    if (steps[s].nominal()) {
      nominal_latency.insert(nominal_latency.end(), latency_ms[s].begin(), latency_ms[s].end());
    }
    Summarize(std::move(latency_ms[s]), &step);
    if (steps[s].nominal()) {
      nominal_p50.push_back(step.p50_ms);
      nominal_p99.push_back(step.p99_ms);
      nominal_late.push_back(step.late_p99_ms);
    }
    if (steps[s].closed()) window_qps.push_back(step.meets_limit ? step.achieved_qps : 0.0);
    result.attempted += step.sent;
    result.failed += step.failed;
  }
  result.nominal_p50_ms = Percentile(nominal_p50, 0.5);
  result.nominal_p99_ms = Percentile(nominal_p99, 0.5);
  result.nominal_late_p99_ms = Percentile(nominal_late, 0.5);
  result.nominal_pooled_p99_ms = Percentile(nominal_latency, 0.99);
  result.max_qps = Percentile(window_qps, 0.5);
  result.stats = server->stats();
  return result;
}

}  // namespace perfbench
