#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/assert.h"
#include "common/cli_args.h"
#include "common/sync.h"

namespace ebv {
namespace {

/// Set while a thread executes pool work; nested pool calls from such a
/// thread run inline to avoid deadlock (the pool has one job at a time).
thread_local bool t_inside_pool_body = false;

/// Guards the explicit size request for the lazily created global pool
/// and the created flag (after which requests can no longer apply).
/// Previously two independent atomics, which left set_global_threads
/// with a check-then-act race against a concurrent first global() use:
/// the request could be stored after the creating thread had already
/// sampled it yet before `created` was visible, reporting `true` for a
/// request that never applied.
Mutex g_pool_mutex;
unsigned g_requested_global_threads EBV_GUARDED_BY(g_pool_mutex) = 0;
bool g_global_pool_created EBV_GUARDED_BY(g_pool_mutex) = false;

}  // namespace

unsigned hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// One fork-join job. Chunks are claimed by fetch_add on `next`; the
/// executor that retires the last chunk signals completion. `live` counts
/// executors still touching the job so the owner's stack frame outlives
/// every reader.
struct ThreadPool::Job {
  std::function<void(std::size_t, std::size_t)> body;
  std::size_t n = 0;
  std::size_t grain = 1;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> chunks_left{0};
  std::atomic<bool> cancelled{false};
  /// for_range skips remaining chunks after a throw; run_team must not
  /// (unstarted ranks would strand barrier peers), so it clears this.
  bool skip_on_cancel = true;
  FirstError error;
};

struct ThreadPool::Impl {
  Mutex mutex;
  CondVar work_cv;
  CondVar done_cv;
  Job* job EBV_GUARDED_BY(mutex) = nullptr;  // owned by the caller's stack
  std::uint64_t generation EBV_GUARDED_BY(mutex) = 0;
  unsigned live EBV_GUARDED_BY(mutex) = 0;  // workers referencing `job`
  bool stop EBV_GUARDED_BY(mutex) = false;
  /// Serialises concurrent external submitters: the caller holds it for a
  /// whole job (publish, execute, drain), so at most one job is ever in
  /// flight and every pool worker is idle whenever it is free.
  Mutex submit_mutex EBV_ACQUIRED_BEFORE(mutex);
  std::vector<std::thread> workers;
};

ThreadPool::ThreadPool(unsigned num_threads) : impl_(new Impl) {
  if (num_threads == 0) num_threads = hardware_threads();
  num_workers_ = num_threads - 1;
  impl_->workers.reserve(num_workers_);
  for (std::size_t i = 0; i < num_workers_; ++i) {
    impl_->workers.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->work_cv.notify_all();
  for (std::thread& t : impl_->workers) t.join();
  delete impl_;
}

void ThreadPool::execute(Job& job) {
  t_inside_pool_body = true;
  for (;;) {
    const std::size_t begin = job.next.fetch_add(job.grain);
    if (begin >= job.n) break;
    const std::size_t end = std::min(begin + job.grain, job.n);
    if (!job.skip_on_cancel ||
        !job.cancelled.load(std::memory_order_relaxed)) {
      try {
        job.body(begin, end);
      } catch (...) {
        job.cancelled.store(true, std::memory_order_relaxed);
        job.error.capture();
      }
    }
    if (job.chunks_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      MutexLock lock(impl_->mutex);
      impl_->done_cv.notify_all();
    }
  }
  t_inside_pool_body = false;
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    Job* job = nullptr;
    {
      MutexLock lock(impl_->mutex);
      while (!impl_->stop && impl_->generation == seen_generation) {
        impl_->work_cv.wait(impl_->mutex);
      }
      if (impl_->stop) return;
      seen_generation = impl_->generation;
      job = impl_->job;
      if (job == nullptr) continue;
      ++impl_->live;
    }
    execute(*job);
    {
      MutexLock lock(impl_->mutex);
      --impl_->live;
    }
    impl_->done_cv.notify_all();
  }
}

/// Publish `job` to the workers, participate, and drain: returns once
/// every chunk retired and no worker still references the job's frame.
/// Shared tail of for_range and pool-carried run_team.
void ThreadPool::run_job(Job& job) {
  MutexLock submit_lock(impl_->submit_mutex);
  {
    MutexLock lock(impl_->mutex);
    impl_->job = &job;
    ++impl_->generation;
  }
  impl_->work_cv.notify_all();

  execute(job);

  MutexLock lock(impl_->mutex);
  while (job.chunks_left.load(std::memory_order_acquire) != 0 ||
         impl_->live != 0) {
    impl_->done_cv.wait(impl_->mutex);
  }
  impl_->job = nullptr;
}

void ThreadPool::for_range(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t grain) {
  if (n == 0) return;
  if (grain == 0) {
    // std::size_t{4} keeps the multiply in the wide type: 4 * unsigned
    // would compute in 32 bits and only then widen for the division
    // (bugprone-implicit-widening-of-multiplication-result).
    grain = std::max<std::size_t>(1, n / (std::size_t{4} * num_threads()));
  }
  if (num_workers_ == 0 || t_inside_pool_body || n <= grain) {
    body(0, n);
    return;
  }

  Job job;
  job.body = body;
  job.n = n;
  job.grain = grain;
  job.chunks_left.store((n + grain - 1) / grain, std::memory_order_relaxed);
  run_job(job);
  job.error.rethrow_if_set();
}

void ThreadPool::run_team(
    unsigned team_size, const std::function<void(unsigned, unsigned)>& body) {
  const unsigned team = std::max(team_size, 1u);
  if (team == 1 || t_inside_pool_body) {
    const bool was_inside = t_inside_pool_body;
    t_inside_pool_body = true;
    try {
      body(0, 1);
    } catch (...) {
      t_inside_pool_body = was_inside;
      throw;
    }
    t_inside_pool_body = was_inside;
    return;
  }
  // Teams larger than the pool cannot all be carried by pool workers (an
  // executor keeps its rank until the body returns), so oversubscribed
  // teams run every non-caller rank on a dedicated temporary thread (the
  // resident workers sit this one out — simpler than mixing executor
  // kinds, and run_team callers invoke it once per long-running
  // operation, not per item, so the spawn cost is noise).
  if (team > num_threads()) {
    FirstError error;
    std::vector<std::thread> extra;
    extra.reserve(team - 1);
    for (unsigned rank = 1; rank < team; ++rank) {
      extra.emplace_back([&, rank] {
        t_inside_pool_body = true;
        try {
          body(rank, team);
        } catch (...) {
          error.capture();
        }
        t_inside_pool_body = false;
      });
    }
    t_inside_pool_body = true;
    try {
      body(0, team);
    } catch (...) {
      error.capture();
    }
    t_inside_pool_body = false;
    for (std::thread& t : extra) t.join();
    error.rethrow_if_set();
    return;
  }

  // Each rank is one chunk; with the submit lock held every pool thread is
  // idle, so all `team` ranks run concurrently (an executor that claims a
  // rank keeps it until the body returns, and team <= num_threads()).
  Job job;
  job.body = [&body, team](std::size_t begin, std::size_t) {
    body(static_cast<unsigned>(begin), team);
  };
  job.n = team;
  job.grain = 1;
  job.skip_on_cancel = false;
  job.chunks_left.store(team, std::memory_order_relaxed);
  run_job(job);
  job.error.rethrow_if_set();
}

bool ThreadPool::inside_pool_body() { return t_inside_pool_body; }

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    MutexLock lock(g_pool_mutex);
    g_global_pool_created = true;
    if (g_requested_global_threads > 0) return g_requested_global_threads;
    if (const char* env = std::getenv("EBV_THREADS")) {
      // Full-string validation via the shared parser: "8x" used to
      // strtol-truncate to 8 threads; now malformed values are ignored
      // (fall through to the hardware default) instead of half-parsed.
      try {
        const auto parsed = cli::parse_uint(
            "EBV_THREADS", env, std::numeric_limits<unsigned>::max());
        if (parsed > 0) return static_cast<unsigned>(parsed);
      } catch (const std::invalid_argument&) {
      }
    }
    return hardware_threads();
  }());
  return pool;
}

bool ThreadPool::set_global_threads(unsigned num_threads) {
  if (num_threads == 0) return false;
  bool created;
  {
    MutexLock lock(g_pool_mutex);
    created = g_global_pool_created;
    if (!created) {
      g_requested_global_threads = num_threads;
      return true;
    }
  }
  // Created: the initializer already ran (it sets the flag under
  // g_pool_mutex), so global() here can only block briefly on the magic
  // static's guard, never on g_pool_mutex — no lock-order cycle.
  return global().num_threads() == num_threads;
}

bool request_global_threads(unsigned num_threads) {
  return request_global_threads(num_threads, std::cerr);
}

bool request_global_threads(unsigned num_threads, std::ostream& warn) {
  if (ThreadPool::set_global_threads(num_threads)) return true;
  if (num_threads == 0) {
    warn << "warning: --threads 0 is not a valid pool size; keeping "
         << ThreadPool::global().num_threads() << " thread(s)\n";
  } else {
    warn << "warning: thread pool already running with "
         << ThreadPool::global().num_threads() << " thread(s); --threads "
         << num_threads << " ignored\n";
  }
  return false;
}

}  // namespace ebv
