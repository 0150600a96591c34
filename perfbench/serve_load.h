#ifndef PERFBENCH_SERVE_LOAD_H_
#define PERFBENCH_SERVE_LOAD_H_

// Query load against a KbcServer, in steps of two kinds. Open-loop steps
// run at a fixed ladder of offered rates: requests are scheduled before
// the run starts (evenly spaced due times per step); sender threads issue
// each request at its due time whether or not earlier ones have
// answered, and latency is measured from the due time, so a stall also
// charges the wait it imposes on the requests behind it. Epochs are
// swapped in at fixed points of this schedule. Between the later open
// steps come closed-loop windows: each sender issues its next request as
// soon as its last one answers, which saturates the server. Every answer
// is checked bitwise against the epoch it names. The rates, lengths,
// query mix and limits are constants of serve_load.cc; README.md lists
// them.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "kbc_runner.h"
#include "serve/server.h"

namespace perfbench {

/// Sender threads. Each blocks until its answer arrives (KbcServer::Query
/// is synchronous), so at most this many requests are in flight: the
/// server's admission queue never fills and nothing is shed.
constexpr size_t kLoadSenders = 2;

/// The answers one published epoch must give.
struct EpochAnswers {
  uint64_t epoch = 0;
  /// Per relation of the plan: row -> marginal of every live row.
  std::vector<std::unordered_map<int64_t, double>> marginals;
  /// Per relation: top-k (descending probability, ties by ascending row).
  std::vector<std::vector<dd::TopKEntry>> top;
};

/// Expected answers of `runner`'s last Run(), published as `epoch`.
dd::Result<EpochAnswers> AnswersOf(const KbcRunner& runner, uint64_t epoch,
                                   const std::vector<std::string>& relations);

/// What one load run needs from its caller.
struct LoadInputs {
  std::vector<std::string> relations;
  /// Per relation: rows queried (live in every epoch), hottest first.
  std::vector<std::vector<int64_t>> rows;
  /// CPU each sender is pinned to (empty: unpinned).
  std::vector<int> sender_cpus;
  uint64_t seed = 0;
  /// Epoch files swapped in, in order, after the one already served.
  std::vector<std::string> swap_paths;
};

/// One open-loop step, or one closed-loop window.
struct StepResult {
  double offered_qps = 0;   ///< 0 in a closed-loop window
  double achieved_qps = 0;  ///< answered / step length
  uint64_t sent = 0;
  double p50_ms = 0;        ///< failures count as +inf
  double p99_ms = 0;
  double late_p99_ms = 0;   ///< open loop: how late the generator sent
  uint64_t failed = 0;
  bool meets_limit = false;  ///< p99 within the limit and nothing failed
};

struct LoadResult {
  std::vector<StepResult> steps;  ///< in the order they ran
  /// Latency at the nominal rate: the median over its repeats of each
  /// repeat's p50, p99 and generator lateness p99.
  double nominal_p50_ms = 0;
  double nominal_p99_ms = 0;
  double nominal_late_p99_ms = 0;
  /// p99 over all nominal requests pooled, host stalls included.
  double nominal_pooled_p99_ms = 0;
  /// The median over the closed-loop windows of their answered rate, a
  /// window that misses the p99 limit counting as 0.
  double max_qps = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;      ///< shed, past deadline, or any other error
  uint64_t mismatches = 0;  ///< answers that differ from their epoch's
  uint64_t checked = 0;
  bool epochs_monotone = true;  ///< no sender saw an older epoch after a newer
  std::vector<double> load_seconds;  ///< one per LoadAndSwap
  dd::ServerStats stats;
};

/// Restricts the calling thread to `cpus` (no-op when empty). Threads it
/// creates afterwards inherit the mask.
void PinThisThread(const std::vector<int>& cpus);

/// The CPUs this process may run on, in ascending order.
std::vector<int> AllowedCpus();

/// Runs every step against a started `server` that already serves the
/// first epoch. `answers` must cover every epoch the run can see.
dd::Result<LoadResult> RunLoad(dd::KbcServer* server, const LoadInputs& inputs,
                               const std::vector<EpochAnswers>& answers);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_LOAD_H_
