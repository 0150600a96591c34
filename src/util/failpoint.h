#ifndef DEEPDIVE_UTIL_FAILPOINT_H_
#define DEEPDIVE_UTIL_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/status.h"

namespace dd {

/// Canonical failpoint site names. Every DD_FAILPOINT site in the
/// library uses one of these constants, so the set of injectable faults
/// is enumerable. ci/check.sh greps the quoted names out of this block
/// to drive its fault-injection pass — keep one name per line.
namespace failpoints {
inline constexpr const char* kFactorIoWrite = "factor_io.write";
inline constexpr const char* kFactorIoRename = "factor_io.rename";
inline constexpr const char* kFactorIoRead = "factor_io.read";
inline constexpr const char* kLearnerEpoch = "learner.epoch";
inline constexpr const char* kInferenceSweep = "inference.sweep";
inline constexpr const char* kInferenceUpdate = "inference.update";
inline constexpr const char* kPipelineExtractor = "pipeline.extractor";
inline constexpr const char* kPipelinePhase = "pipeline.phase";
inline constexpr const char* kSnapshotMmap = "snapshot.mmap";
inline constexpr const char* kSnapshotValidate = "snapshot.validate";
inline constexpr const char* kServeEpochLoad = "serve.epoch_load";
inline constexpr const char* kServeEpochSwap = "serve.epoch_swap";
inline constexpr const char* kServePublish = "serve.publish";
inline constexpr const char* kStreamChunkRead = "stream.chunk_read";
inline constexpr const char* kStreamHandoff = "stream.handoff";
inline constexpr const char* kStreamParse = "stream.parse";
inline constexpr const char* kStreamMerge = "stream.merge";
inline constexpr const char* kDistConnect = "dist.connect";
inline constexpr const char* kDistSend = "dist.send";
inline constexpr const char* kDistRecv = "dist.recv";
inline constexpr const char* kDistPartition = "dist.partition";
inline constexpr const char* kDistBarrier = "dist.barrier";
}  // namespace failpoints

/// What a fired failpoint does to the site that evaluated it.
enum class FailpointAction {
  kError,      ///< inject a Status with a configurable code
  kShortWrite, ///< truncate the byte count at a DD_FAILPOINT_WRITE site
  kCrash,      ///< invoke the crash hook (default: _Exit(kFailpointCrashExitCode))
};

/// Exit code of the default crash hook — distinguishable from sanitizer
/// aborts and signal deaths in kill-and-resume tests.
inline constexpr int kFailpointCrashExitCode = 42;

struct FailpointConfig {
  FailpointAction action = FailpointAction::kError;
  StatusCode code = StatusCode::kInternal;  ///< injected code for kError
  double probability = 1.0;  ///< chance an eligible hit fires (deterministic RNG)
  int skip = 0;              ///< let this many hits pass before firing
  int max_hits = -1;         ///< fire at most this many times; -1 = unlimited
  double keep_fraction = 0.5;  ///< kShortWrite: fraction of bytes still written
};

/// Process-wide registry of failpoints. Sites are zero-overhead while no
/// failpoint is enabled: the DD_FAILPOINT macro evaluates a single
/// relaxed atomic load and branches past everything else. Probability
/// draws come from a registry-owned, explicitly seeded Rng so fault
/// schedules are reproducible.
class Failpoints {
 public:
  static Failpoints& Instance();

  /// True when at least one failpoint is enabled (the hot-path check).
  static bool armed() { return armed_.load(std::memory_order_relaxed); }

  void Enable(const std::string& name, FailpointConfig config);
  void Disable(const std::string& name);
  /// Disable everything and reseed — test teardown.
  void Reset();

  /// Seed the deterministic probability stream (also via $DD_FAILPOINT_SEED).
  void Seed(uint64_t seed);

  /// Parse and apply a spec of the form
  ///   name=action(k=v,...)[;name=action(...)]...
  /// Actions: error, corruption, ioerror, short_write, crash.
  /// Parameters: p=<float> probability, hits=<int> max fires,
  /// skip=<int> hits passed before firing, keep=<float> short-write
  /// keep fraction. Example:
  ///   "factor_io.write=short_write(keep=0.25);learner.epoch=crash(skip=3)"
  Status Configure(const std::string& spec);

  /// Apply $DD_FAILPOINTS / $DD_FAILPOINT_SEED. Runs automatically at
  /// static-init time so any test binary honors the env contract.
  void ConfigureFromEnv();

  /// Test-visible crash hook. The default reports the site to stderr and
  /// _Exit(kFailpointCrashExitCode)s; tests may substitute a non-fatal
  /// hook (if the hook returns, the site continues unharmed).
  void SetCrashHook(std::function<void(const std::string&)> hook);

  /// Site self-registration (via the macros); returns true so it can
  /// seed a function-local static. Enumerates every site the process has
  /// executed at least once.
  bool RegisterSite(const char* name);
  std::vector<std::string> registered_sites() const;

  /// Number of times `name` actually fired (for test assertions).
  uint64_t fired_count(const std::string& name) const;

  /// Evaluate an error/crash site. Fills *status on kError; never
  /// returns on kCrash (unless a test hook returns).
  void Eval(const char* name, Status* status);

  /// Evaluate a write site: like Eval, but a fired kShortWrite returns
  /// the truncated number of bytes to write (otherwise returns n).
  size_t EvalWrite(const char* name, size_t n, Status* status);

 private:
  Failpoints();

  struct Site {
    FailpointConfig config;
    bool enabled = false;
    int hits_seen = 0;   ///< eligible evaluations since Enable()
    uint64_t fired = 0;  ///< times the action actually triggered
  };

  /// Decides whether the site fires and returns the config if so.
  bool ShouldFire(const char* name, FailpointConfig* config);
  void DoCrash(const std::string& name);
  void RecomputeArmed();

  static std::atomic<bool> armed_;

  mutable std::mutex mu_;
  std::map<std::string, Site> sites_;
  std::map<std::string, bool> known_sites_;  // every site ever evaluated
  Rng rng_{0x600dfeedULL};
  std::function<void(const std::string&)> crash_hook_;
};

/// Evaluate failpoint `name`; may assign an injected error to
/// *status_ptr or crash the process. Expands to one relaxed atomic load
/// when fault injection is off. The site self-registers on first
/// execution so tooling can enumerate live sites.
#define DD_FAILPOINT(name, status_ptr)                                      \
  do {                                                                      \
    static const bool _dd_fp_registered =                                   \
        ::dd::Failpoints::Instance().RegisterSite(name);                    \
    (void)_dd_fp_registered;                                                \
    if (::dd::Failpoints::armed()) {                                        \
      ::dd::Failpoints::Instance().Eval((name), (status_ptr));              \
    }                                                                       \
  } while (0)

/// Write-site variant: additionally lets a short_write config shrink
/// `n_lvalue` (the byte count about to be written) to simulate a crash
/// that persisted a partial buffer.
#define DD_FAILPOINT_WRITE(name, n_lvalue, status_ptr)                      \
  do {                                                                      \
    static const bool _dd_fp_registered =                                   \
        ::dd::Failpoints::Instance().RegisterSite(name);                    \
    (void)_dd_fp_registered;                                                \
    if (::dd::Failpoints::armed()) {                                        \
      (n_lvalue) = ::dd::Failpoints::Instance().EvalWrite((name), (n_lvalue), \
                                                          (status_ptr));    \
    }                                                                       \
  } while (0)

}  // namespace dd

#endif  // DEEPDIVE_UTIL_FAILPOINT_H_
