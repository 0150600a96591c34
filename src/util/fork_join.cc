#include "util/fork_join.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace dd {

namespace {

/// How long an idle helper polls before it blocks. The serial stretches
/// between one call's phases — drawing a sweep's uniforms, tallying and
/// packing a world, the learner's weight update — take tens of
/// microseconds at spouse scale, so a helper still polling when the next
/// phase opens joins it at once, where a blocked one costs the caller a
/// futex wake. A longer gap is a long serial stretch (a checkpoint write,
/// a preempted caller), and polling through it would only take a core
/// from someone else.
constexpr auto kIdlePoll = std::chrono::microseconds(200);

/// Pause-spins after which the caller, waiting for the helpers still
/// inside a phase, yields its core instead: with more threads than cores
/// (an 8-thread test on 4 cores) the helper it waits for may need it.
constexpr unsigned kSpinsBeforeYield = 64;

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

}  // namespace

ForkJoinTeam::ForkJoinTeam(ThreadPool* pool)
    : pool_(pool), num_helpers_(pool == nullptr ? 0 : pool->num_threads()) {}

ForkJoinTeam::~ForkJoinTeam() {
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_.store(true);
  }
  wake_.notify_all();
  // A helper still queued runs here (or on any thread draining the
  // queue), sees stop_ and returns at once.
  pool_->WaitGroup(&helpers_);
}

void ForkJoinTeam::RunErased(size_t n, size_t chunk_size, ChunkCall call, void* ctx) {
  if (n == 0) return;
  chunk_size = std::max<size_t>(chunk_size, 1);
  const size_t num_chunks = (n - 1) / chunk_size + 1;
  if (num_helpers_ == 0 || num_chunks == 1) {
    for (size_t begin = 0; begin < n; begin += chunk_size) {
      call(ctx, begin, std::min(begin + chunk_size, n), 0);
    }
    return;
  }
  if (!started_) {
    started_ = true;
    for (size_t member = 1; member <= num_helpers_; ++member) {
      pool_->Submit(&helpers_, [this, member] { HelperLoop(member); });
    }
  }

  // No helper is inside (the previous Run() waited for that), and none
  // enters before the open store below, so the descriptor is ours.
  call_ = call;
  ctx_ = ctx;
  n_ = n;
  chunk_size_ = chunk_size;
  num_chunks_ = num_chunks;
  next_chunk_.store(0, std::memory_order_relaxed);
  const uint64_t open = (++generation_ << 1) | 1;
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    state_.store(open);
    wake = sleepers_ > 0;
  }
  if (wake) wake_.notify_all();

  ClaimChunks(0);

  // Close the phase, then wait for the helpers inside it. With both
  // sides sequentially consistent, a helper that enters after the close
  // sees it closed and leaves without claiming, and one that entered
  // before is counted in inside_: every claimed chunk has finished when
  // inside_ reads 0, and its writes are visible (fetch_sub releases).
  state_.store(open & ~uint64_t{1});
  for (unsigned spins = 0; inside_.load() != 0; ++spins) {
    if (spins < kSpinsBeforeYield) {
      CpuRelax();
    } else {
      std::this_thread::yield();
    }
  }
}

void ForkJoinTeam::ClaimChunks(size_t member) {
  for (size_t c = next_chunk_.fetch_add(1, std::memory_order_relaxed); c < num_chunks_;
       c = next_chunk_.fetch_add(1, std::memory_order_relaxed)) {
    const size_t begin = c * chunk_size_;
    call_(ctx_, begin, std::min(begin + chunk_size_, n_), member);
  }
}

uint64_t ForkJoinTeam::AwaitPhase(uint64_t last) {
  // An open state word names its generation, so "open and not `last`"
  // is a phase this helper has not seen.
  auto joinable = [last](uint64_t s) { return (s & 1) != 0 && s != last; };
  for (;;) {
    // Poll with yields, not pause-spins: a woken helper may be placed on
    // the caller's core, and a pause-spin there holds the caller off it
    // for the whole poll (measured: every phase after a wake took
    // kIdlePoll). A yield costs about a microsecond on an idle core.
    const auto poll_until = std::chrono::steady_clock::now() + kIdlePoll;
    for (;;) {
      if (stop_.load(std::memory_order_acquire)) return 0;
      const uint64_t s = state_.load(std::memory_order_acquire);
      if (joinable(s)) return s;
      if (std::chrono::steady_clock::now() >= poll_until) break;
      std::this_thread::yield();
    }
    // Sleep until the state moves. The phase that wakes us may be over
    // by the time we run, so spin again rather than sleep again: more
    // phases follow it closely.
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t seen = state_.load();
    if (stop_.load()) return 0;
    if (joinable(seen)) return seen;
    ++sleepers_;
    wake_.wait(lock, [&] { return stop_.load() || state_.load() != seen; });
    --sleepers_;
  }
}

void ForkJoinTeam::HelperLoop(size_t member) {
  uint64_t last = 0;
  for (;;) {
    const uint64_t s = AwaitPhase(last);
    if (s == 0) return;
    last = s;
    inside_.fetch_add(1);
    // Still the phase we saw: the descriptor is stable until we leave.
    if (state_.load() == s) ClaimChunks(member);
    inside_.fetch_sub(1);
  }
}

}  // namespace dd
