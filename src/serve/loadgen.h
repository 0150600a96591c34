#ifndef DEEPDIVE_SERVE_LOADGEN_H_
#define DEEPDIVE_SERVE_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serve/server.h"

namespace dd {

/// Closed-loop load generator for KbcServer: `num_clients` threads each
/// issue queries back-to-back (a new request as soon as the previous one
/// answers) for a fixed duration, drawing (kind, relation, row) from a
/// per-client deterministic Rng. serving_test uses it to saturate
/// admission; perfbench's serve_load drives its own serving load.
struct LoadgenOptions {
  size_t num_clients = 4;
  double duration_ms = 200.0;
  uint64_t seed = 0x10adULL;
  /// Weights of the query mix (marginal : fact : top-k).
  int marginal_weight = 8;
  int fact_weight = 3;
  int topk_weight = 1;
  size_t topk_k = 10;
  /// Deadline attached to every request; 0 = none.
  double deadline_ms = 0.0;
  /// Row ids are drawn from [0, row_space); misses are part of the mix
  /// when it exceeds the epoch's actual rows.
  int64_t row_space = 1024;
  std::vector<std::string> relations;
};

struct LoadgenReport {
  uint64_t issued = 0;
  uint64_t ok = 0;
  uint64_t not_found = 0;        ///< misses in the row space (expected)
  uint64_t shed = 0;             ///< Unavailable
  uint64_t deadline_exceeded = 0;
  uint64_t other_errors = 0;
  double wall_ms = 0.0;
  double qps = 0.0;              ///< ok / wall seconds
  double p50_ms = 0.0;           ///< latency percentiles over answered
  double p99_ms = 0.0;
  double max_ms = 0.0;
  uint64_t min_epoch = 0;        ///< epochs observed in responses
  uint64_t max_epoch = 0;
  /// Every client saw non-decreasing epoch ids across its own responses
  /// — the externally visible form of "no regression to an older epoch".
  bool epochs_monotone = true;

  /// issued == ok + not_found + shed + deadline_exceeded + other_errors.
  bool Accounted() const {
    return issued == ok + not_found + shed + deadline_exceeded + other_errors;
  }
};

/// Run the closed loop against `server` (which must be Start()ed).
LoadgenReport RunLoadgen(KbcServer* server, const LoadgenOptions& options);

}  // namespace dd

#endif  // DEEPDIVE_SERVE_LOADGEN_H_
