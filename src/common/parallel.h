// Shared-memory parallel execution primitives.
//
// ThreadPool is a fixed-size fork-join pool: one job runs at a time, the
// calling thread participates, and completion is a barrier. Two entry
// points cover the library's needs:
//
//   for_range(n, body)    — chunked parallel loop over [0, n); chunks are
//                           claimed dynamically, so the chunk→thread
//                           mapping is NOT deterministic. Only use it when
//                           chunk results are independent or reduced in a
//                           chunk-indexed (not thread-indexed) structure.
//   run_team(t, body)     — run body(rank, team_size) on t ranks
//                           concurrently. Ranks may synchronise with each
//                           other (e.g. via std::barrier); the pool
//                           guarantees all ranks execute simultaneously.
//
// Exceptions thrown by a body are captured and the first one is rethrown
// on the calling thread after the job drains. Nested use from inside a
// pool body degrades to serial inline execution instead of deadlocking.
//
// The process-wide pool (ThreadPool::global()) is created lazily, sized
// by set_global_threads() when requested before first use, else the
// EBV_THREADS environment variable, else the hardware thread count.
// Components that take an explicit thread knob (PartitionConfig::
// num_threads, bsp::RunOptions::num_threads) treat it as an exact bound
// on their fan-out; the pool only carries the ranks (run_team serves
// teams beyond the pool size with temporary threads), so the pool size
// never silently caps a knob.
#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>

namespace ebv {

/// max(1, std::thread::hardware_concurrency()).
unsigned hardware_threads();

/// ThreadPool::set_global_threads with a diagnostic instead of a silent
/// no-op: when the request cannot be honoured (the pool is already
/// running at a different size, or num_threads is 0) a warning naming
/// both sizes is written to `warn` (default std::cerr). Front ends that
/// surface a --threads knob must use this — set_global_threads's false
/// return being dropped is how the knob silently died once. Returns
/// whether the request is honoured.
bool request_global_threads(unsigned num_threads);
bool request_global_threads(unsigned num_threads, std::ostream& warn);

class ThreadPool {
 public:
  /// num_threads == 0 picks hardware_threads(). The pool spawns
  /// num_threads - 1 workers; the caller is always the extra thread.
  explicit ThreadPool(unsigned num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total executors (workers + calling thread). Lock-free by design:
  /// num_workers_ is written once in the constructor and const
  /// thereafter, so concurrent readers need no synchronisation.
  [[nodiscard]] unsigned num_threads() const {
    return static_cast<unsigned>(num_workers_) + 1;
  }

  /// Chunked parallel loop: body(begin, end) over disjoint chunks covering
  /// [0, n). grain == 0 picks ~4 chunks per executor. Blocks until every
  /// chunk completed; rethrows the first body exception.
  void for_range(std::size_t n,
                 const std::function<void(std::size_t, std::size_t)>& body,
                 std::size_t grain = 0);

  /// Run body(rank, team) for rank in [0, team_size) concurrently. All
  /// ranks are guaranteed to be live at once, so bodies may use a
  /// std::barrier(team) to synchronise. Ranks beyond the pool size are
  /// carried by temporary threads, so any team size works on any host.
  /// From inside a pool body the team degrades to 1 — check
  /// inside_pool_body() when sizing barriers.
  void run_team(unsigned team_size,
                const std::function<void(unsigned, unsigned)>& body);

  /// Process-wide pool (EBV_THREADS env or hardware_concurrency).
  static ThreadPool& global();

  /// Explicitly size the process-wide pool (overrides EBV_THREADS and the
  /// hardware default). The pool is created lazily, so this only takes
  /// effect when called before the first global() use — e.g. by a CLI
  /// front end right after parsing --threads. Returns true when the
  /// request will be (or already is) honoured; false when the pool is
  /// already running at a different size. num_threads == 0 is rejected.
  static bool set_global_threads(unsigned num_threads);

  /// True while the calling thread executes a pool body. run_team() from
  /// such a thread degrades to a team of one; callers that size external
  /// synchronisation (e.g. a std::barrier) to the team must check this.
  static bool inside_pool_body();

 private:
  struct Job;
  void worker_loop();
  void execute(Job& job);
  void run_job(Job& job);

  std::size_t num_workers_ = 0;
  struct Impl;
  Impl* impl_;
};

/// parallel_for(n, f): f(i) for every i in [0, n) on the global pool.
template <typename Body>
void parallel_for(std::size_t n, Body&& body, std::size_t grain = 0) {
  ThreadPool::global().for_range(
      n,
      [&body](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) body(i);
      },
      grain);
}

/// parallel_for_chunks(n, f): f(begin, end) over disjoint chunks of [0, n)
/// on the global pool — for bodies with per-chunk setup cost.
template <typename Body>
void parallel_for_chunks(std::size_t n, Body&& body, std::size_t grain = 0) {
  ThreadPool::global().for_range(n, body, grain);
}

}  // namespace ebv
