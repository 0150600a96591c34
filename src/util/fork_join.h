#ifndef DEEPDIVE_UTIL_FORK_JOIN_H_
#define DEEPDIVE_UTIL_FORK_JOIN_H_

// A fork-join team resident on a ThreadPool for the length of one
// parallel call (a Learner::Learn(), an IncrementalInference
// Materialize() or warm start), running that call's many short phases
// (DESIGN.md §18). A ParallelMorsels dispatch costs tens of
// microseconds — a queue push per morsel and a WaitGroup — which is the
// whole budget of a Gibbs level; a team pays its pool submissions once
// and then hands each phase to helpers that are already running.
//
// The no-deadlock rule: the calling thread claims chunks like any
// helper and can finish every phase alone. A phase never waits for a
// helper that has not joined it, so a pool that is busy elsewhere (or
// has no thread to spare at all) changes only the speed. The caller
// waits only for helpers that are inside the phase, and they are
// running chunk code, not waiting on anything.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <type_traits>

#include "util/thread_pool.h"

namespace dd {

class ForkJoinTeam {
 public:
  /// A null pool makes every Run() execute inline on the caller. No
  /// helper is submitted until the first Run() that has two chunks.
  explicit ForkJoinTeam(ThreadPool* pool);
  /// Stops the helpers and waits for every helper task, started or still
  /// queued (TaskGroup + WaitGroup).
  ~ForkJoinTeam();

  ForkJoinTeam(const ForkJoinTeam&) = delete;
  ForkJoinTeam& operator=(const ForkJoinTeam&) = delete;

  /// Members that may run chunks: the caller (member 0) plus one helper
  /// per pool thread. Per-member buffers sized by this never race.
  size_t max_members() const { return 1 + num_helpers_; }

  /// Runs fn(begin, end, member) over [0, n) in chunks of `chunk_size`
  /// items and returns when every chunk has run, each exactly once.
  /// Chunks run concurrently and in no fixed order; `member` is the
  /// running thread's slot in [0, max_members()). Everything the caller
  /// wrote before Run() is visible to every chunk, and everything a
  /// chunk wrote is visible to the caller after Run() returns. Must not
  /// be called concurrently, nor from inside a chunk.
  template <typename Fn>
  void Run(size_t n, size_t chunk_size, Fn&& fn) {
    using F = std::remove_reference_t<Fn>;
    RunErased(n, chunk_size,
              [](void* ctx, size_t begin, size_t end, size_t member) {
                (*static_cast<F*>(ctx))(begin, end, member);
              },
              const_cast<void*>(static_cast<const void*>(&fn)));
  }

 private:
  using ChunkCall = void (*)(void* ctx, size_t begin, size_t end, size_t member);

  void RunErased(size_t n, size_t chunk_size, ChunkCall call, void* ctx);
  void HelperLoop(size_t member);
  /// Blocks (after a short poll) until a phase other than `last` opens or
  /// the team stops; returns the open state word, or 0 when stopping.
  uint64_t AwaitPhase(uint64_t last);
  /// Claims and runs chunks of the open phase until none is left.
  void ClaimChunks(size_t member);

  ThreadPool* const pool_;
  const size_t num_helpers_;
  bool started_ = false;
  TaskGroup helpers_;

  // The phase descriptor. The caller writes it only while the phase is
  // closed and no helper is inside; a helper reads it only after it
  // entered (inside_) and then saw the phase still open.
  ChunkCall call_ = nullptr;
  void* ctx_ = nullptr;
  size_t n_ = 0;
  size_t chunk_size_ = 1;
  size_t num_chunks_ = 0;
  uint64_t generation_ = 0;

  /// (generation << 1) | open.
  std::atomic<uint64_t> state_{0};
  std::atomic<size_t> next_chunk_{0};
  /// Helpers between entering and leaving a phase.
  std::atomic<size_t> inside_{0};
  /// Written under mu_ (so a sleeper cannot miss it), read while polling.
  std::atomic<bool> stop_{false};

  /// Orders opening a phase or stopping against a helper going to sleep;
  /// state_ is stored under it when a phase opens.
  std::mutex mu_;
  std::condition_variable wake_;
  size_t sleepers_ = 0;  ///< guarded by mu_
};

}  // namespace dd

#endif  // DEEPDIVE_UTIL_FORK_JOIN_H_
