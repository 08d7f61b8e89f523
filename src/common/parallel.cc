#include "common/parallel.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <new>
#include <string>
#include <thread>

#include <pthread.h>

#include "common/check.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rlbench {

namespace {

// Set while the current thread is executing a chunk body; nested Parallel*
// calls observe it and run inline instead of re-entering the pool.
// NOLINTNEXTLINE(cppcoreguidelines-avoid-non-const-global-variables)
thread_local bool tls_in_parallel_region = false;

size_t EnvThreadCount() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once at gate resolution
  const char* env = std::getenv("RLBENCH_THREADS");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    long value = std::strtol(env, &end, 10);
    if (end != nullptr && *end == '\0' && value > 0) {
      return static_cast<size_t>(value);
    }
  }
  size_t hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? hardware : 1;
}

/// \brief The global worker pool behind ParallelFor / ParallelReduce.
///
/// One job runs at a time (callers serialise on jobs_mutex_); a job is a
/// shared chunk counter the workers and the calling thread drain together.
/// All ordering decisions (chunk boundaries, combine order) live in the
/// callers — the pool only schedules, so it cannot affect results.
class ThreadPool {
 public:
  static ThreadPool& Instance() {
    static ThreadPool* pool = new ThreadPool();  // leaked: outlives main
    return *pool;
  }

  size_t thread_count() RLBENCH_EXCLUDES(config_mutex_) {
    MutexLock lock(&config_mutex_);
    return configured_threads_;
  }

  void SetThreadCount(size_t threads)
      RLBENCH_EXCLUDES(jobs_mutex_, config_mutex_) {
    RLBENCH_CHECK_MSG(!tls_in_parallel_region,
                      "SetParallelThreads inside a parallel region");
    MutexLock jobs_lock(&jobs_mutex_);
    MutexLock lock(&config_mutex_);
    size_t target = threads > 0 ? threads : EnvThreadCount();
    if (target == configured_threads_) return;
    StopWorkersLocked();
    configured_threads_ = target;
    StartWorkersLocked();
  }

  void Run(size_t num_chunks, const std::function<void(size_t)>& body) {
    if (num_chunks == 0) return;
    // Counted before the inline/pooled dispatch so the exported totals are
    // identical at every thread count (a "job" is a parallel region
    // entered, whether it ran on workers or inline).
    RLBENCH_COUNTER_INC("parallel/jobs");
    RLBENCH_COUNTER_ADD("parallel/chunks", num_chunks);
    RLBENCH_HISTOGRAM_RECORD("parallel/chunks_per_job",
                             ::rlbench::obs::ExponentialBounds(1.0, 2.0, 13),
                             num_chunks);
    if (tls_in_parallel_region) {  // nested: rejected from the pool
      RunInline(num_chunks, body);
      return;
    }
    // One job at a time; concurrent top-level callers queue up here.
    MutexLock jobs_lock(&jobs_mutex_);
    bool have_workers;
    {
      MutexLock lock(&config_mutex_);
      if (configured_threads_ == 0) configured_threads_ = EnvThreadCount();
      // Workers start on first use, and start again in a forked child,
      // which inherits none of them.
      if (workers_.empty() && configured_threads_ > 1) StartWorkersLocked();
      have_workers = !workers_.empty();
    }
    if (!have_workers || num_chunks == 1) {
      RunInline(num_chunks, body);
      return;
    }

    Job job;
    job.num_chunks = num_chunks;
    job.body = &body;
    // Label the per-chunk worker spans after whatever span is open on the
    // calling thread, so pool work shows up nested under its logical
    // parent in the trace (see docs/observability.md).
    if (obs::TraceEnabled()) {
      const char* label = obs::CurrentSpanName();
      job.trace_label = label != nullptr ? label : "parallel";
    }
    {
      MutexLock lock(&job_mutex_);
      job_ = &job;
      ++job_generation_;
    }
    job_cv_.NotifyAll();

    // The calling thread works alongside the pool.
    tls_in_parallel_region = true;
    DrainChunks(&job);
    tls_in_parallel_region = false;

    // Wait for workers still inside their last chunk.
    {
      MutexLock lock(&job_mutex_);
      while (job.active_workers != 0) done_cv_.Wait(&job_mutex_);
      job_ = nullptr;
    }
    if (job.error) std::rethrow_exception(job.error);
  }

 private:
  struct Job {
    size_t num_chunks = 0;
    const std::function<void(size_t)>* body = nullptr;
    // Span name for per-chunk trace events; points at the calling
    // thread's open span, which outlives the job (Run() returns before
    // the span closes). Null when tracing is off.
    const char* trace_label = nullptr;
    std::atomic<size_t> next_chunk{0};
    // Workers currently executing chunks of this job (job_mutex_).
    // Guarded by the pool's job_mutex_ (annotation cannot name an
    // enclosing object's member from a nested struct).
    size_t active_workers = 0;
    std::exception_ptr error;  // first failure only (job_mutex_)
  };

  ThreadPool() {
    // fork() copies only the calling thread. The prepare handler holds
    // every pool lock across the fork, so no worker is mid-update of the
    // pool state the child inherits (a fork therefore waits for a running
    // parallel region to end, and must not be called from inside one).
    pthread_atfork(&ThreadPool::BeforeFork, &ThreadPool::AfterForkParent,
                   &ThreadPool::AfterForkChild);
  }

  static void BeforeFork() { Instance().LockAll(); }
  static void AfterForkParent() { Instance().UnlockAll(); }
  static void AfterForkChild() { Instance().ResetInChild(); }

  void LockAll() RLBENCH_ACQUIRE(jobs_mutex_, config_mutex_, job_mutex_) {
    jobs_mutex_.Lock();
    config_mutex_.Lock();
    job_mutex_.Lock();
  }

  void UnlockAll() RLBENCH_RELEASE(jobs_mutex_, config_mutex_, job_mutex_) {
    job_mutex_.Unlock();
    config_mutex_.Unlock();
    jobs_mutex_.Unlock();
  }

  // The child has one thread, so nothing can race with this. Its worker
  // handles name threads that do not exist there: they are dropped without
  // a join (a leaked copy, never destroyed), and Run() relaunches workers
  // lazily. The locks and condition variables are built afresh, not
  // unlocked: a condition variable may still count the parent's sleeping
  // workers as waiters, and a notify would then wait on them forever.
  void ResetInChild() RLBENCH_NO_THREAD_SAFETY_ANALYSIS {
    new std::vector<std::thread>(std::move(workers_));
    workers_.clear();
    new (&jobs_mutex_) Mutex();
    new (&config_mutex_) Mutex();
    new (&job_mutex_) Mutex();
    new (&job_cv_) CondVar();
    new (&done_cv_) CondVar();
    job_ = nullptr;
    stop_ = false;
  }

  void StartWorkersLocked() RLBENCH_REQUIRES(config_mutex_)
      RLBENCH_EXCLUDES(job_mutex_) {
    size_t workers = configured_threads_ > 0 ? configured_threads_ - 1 : 0;
    {
      MutexLock lock(&job_mutex_);
      stop_ = false;
    }
    workers_.reserve(workers);
    for (size_t i = 0; i < workers; ++i) {
      workers_.emplace_back([this, i] {
        obs::SetCurrentThreadName("pool-worker-" + std::to_string(i));
        WorkerLoop();
      });
    }
  }

  void StopWorkersLocked() RLBENCH_REQUIRES(config_mutex_)
      RLBENCH_EXCLUDES(job_mutex_) {
    if (workers_.empty()) return;
    {
      MutexLock lock(&job_mutex_);
      stop_ = true;
    }
    job_cv_.NotifyAll();
    for (auto& worker : workers_) worker.join();
    workers_.clear();
  }

  void WorkerLoop() RLBENCH_EXCLUDES(job_mutex_) {
    uint64_t seen_generation = 0;
    while (true) {
      Job* job = nullptr;
      {
        // Explicit wait loop (not a predicate lambda) so every guarded
        // read stays inside this annotated function.
        MutexLock lock(&job_mutex_);
        while (!stop_ &&
               (job_ == nullptr || job_generation_ == seen_generation)) {
          job_cv_.Wait(&job_mutex_);
        }
        if (stop_) return;
        seen_generation = job_generation_;
        job = job_;
        ++job->active_workers;
      }
      tls_in_parallel_region = true;
      DrainChunks(job);
      tls_in_parallel_region = false;
      {
        MutexLock lock(&job_mutex_);
        --job->active_workers;
      }
      done_cv_.NotifyAll();
    }
  }

  void DrainChunks(Job* job) {
    while (true) {
      size_t chunk = job->next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= job->num_chunks) return;
      try {
        // Pool-scheduled chunks only (inline/nested runs are not traced):
        // each chunk becomes a span on this thread's track. Recording is
        // observation-only, so results are unchanged by construction.
        obs::TraceSpan span(
            job->trace_label != nullptr ? job->trace_label : "parallel",
            chunk);
        (*job->body)(chunk);
      } catch (...) {
        MutexLock lock(&job_mutex_);
        if (!job->error) job->error = std::current_exception();
      }
    }
  }

  static void RunInline(size_t num_chunks,
                        const std::function<void(size_t)>& body) {
    bool was_in_region = tls_in_parallel_region;
    tls_in_parallel_region = true;
    try {
      for (size_t chunk = 0; chunk < num_chunks; ++chunk) body(chunk);
    } catch (...) {
      tls_in_parallel_region = was_in_region;
      throw;
    }
    tls_in_parallel_region = was_in_region;
  }

  // Serialises whole jobs: one Run() owns the pool at a time.
  Mutex jobs_mutex_ RLBENCH_ACQUIRED_BEFORE(config_mutex_);
  // Guards pool (re)configuration.
  Mutex config_mutex_ RLBENCH_ACQUIRED_BEFORE(job_mutex_);
  size_t configured_threads_ RLBENCH_GUARDED_BY(config_mutex_) = 0;
  std::vector<std::thread> workers_ RLBENCH_GUARDED_BY(config_mutex_);

  // Guards the current job pointer and worker bookkeeping.
  Mutex job_mutex_;
  CondVar job_cv_;
  CondVar done_cv_;
  Job* job_ RLBENCH_GUARDED_BY(job_mutex_) = nullptr;
  uint64_t job_generation_ RLBENCH_GUARDED_BY(job_mutex_) = 0;
  bool stop_ RLBENCH_GUARDED_BY(job_mutex_) = false;
};

}  // namespace

size_t ParallelThreadCount() {
  size_t configured = ThreadPool::Instance().thread_count();
  return configured > 0 ? configured : EnvThreadCount();
}

void SetParallelThreads(size_t threads) {
  ThreadPool::Instance().SetThreadCount(threads);
}

bool InParallelRegion() { return tls_in_parallel_region; }

size_t ParallelChunkCount(size_t begin, size_t end, size_t grain) {
  if (begin >= end) return 0;
  size_t n = end - begin;
  size_t g = grain > 0 ? grain : 1;
  return (n + g - 1) / g;
}

std::pair<size_t, size_t> ParallelChunkBounds(size_t begin, size_t end,
                                              size_t grain, size_t chunk) {
  size_t g = grain > 0 ? grain : 1;
  size_t first = begin + chunk * g;
  size_t last = first + g < end ? first + g : end;
  RLBENCH_DCHECK_LT(first, end);
  return {first, last};
}

namespace internal {

void RunChunks(size_t num_chunks, const std::function<void(size_t)>& body) {
  ThreadPool::Instance().Run(num_chunks, body);
}

}  // namespace internal

}  // namespace rlbench
