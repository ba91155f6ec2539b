/**
 * @file
 * Reusable thread-pool task fan-out shared by the characterization
 * runner and the Figure 10 mitigation-sweep driver.
 *
 * A pool runs index-addressed job batches: forEach(count, job) invokes
 * job(i) for every i in [0, count) across the workers and the calling
 * thread, blocking until the batch drains. Jobs must be safe to call
 * concurrently for distinct indices and must not depend on execution
 * order; under that contract results are independent of the thread
 * count, which is what makes the figure benches bit-identical between
 * serial and parallel runs.
 */

#ifndef ROWHAMMER_UTIL_TASKPOOL_HH
#define ROWHAMMER_UTIL_TASKPOOL_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/logging.hh"

namespace rowhammer::util
{

/**
 * Thrown by forEach() when the batch watchdog fires. A FatalError
 * subtype so existing catch sites keep working; the service layer
 * catches this type specifically to map a hung request to a
 * DeadlineExceeded reply instead of a generic internal error.
 */
class BatchDeadlineExceeded : public FatalError
{
  public:
    explicit BatchDeadlineExceeded(const std::string &msg)
        : FatalError(msg)
    {
    }
};

/**
 * Thrown by forEach() when requestCancel() aborted the batch (e.g. a
 * daemon draining on SIGTERM). Also a FatalError subtype; already-
 * completed shards were checkpointed by the caller's own put() calls,
 * so a cancelled batch resumes from where it stopped.
 */
class BatchCancelled : public FatalError
{
  public:
    explicit BatchCancelled(const std::string &msg) : FatalError(msg)
    {
    }
};

/**
 * Fixed-width worker pool with batch semantics. Workers are started
 * once and reused across batches; the calling thread drains alongside
 * them, so a 1-thread pool costs nothing over a serial loop.
 */
class TaskPool
{
  public:
    /** @param threads Worker count; 0 = one per hardware thread. */
    explicit TaskPool(int threads = 0);
    ~TaskPool();

    TaskPool(const TaskPool &) = delete;
    TaskPool &operator=(const TaskPool &) = delete;

    /** Pool width (workers; the caller additionally joins batches). */
    int threadCount() const { return threads_; }

    /**
     * Run job(i) for every i in [0, count); blocks until the batch is
     * done. The first exception any job throws is rethrown here (the
     * remaining indices still run), and the pool survives for the next
     * batch.
     */
    void forEach(std::size_t count,
                 const std::function<void(std::size_t)> &job);

    /**
     * Watchdog: a per-batch wall-clock deadline (zero disables, the
     * default). When a batch outlives it, the pool dumps the in-flight
     * shard indices to stderr — a hung shard becomes a diagnosable
     * error instead of a silent forever-stall — cancels the not-yet-
     * claimed remainder of the batch, and forEach() throws FatalError
     * through the existing exception path once the in-flight jobs
     * return. Long-running jobs may poll batchCancelled() to bail out
     * early; a job that never returns still gets its index dumped at
     * the deadline, but cannot be forcibly killed. With a deadline
     * armed the dispatching thread watches instead of draining, so
     * batches run on the worker threads alone.
     */
    void setBatchDeadline(std::chrono::milliseconds deadline);

    /** True once the current batch's watchdog has fired. */
    [[nodiscard]] bool batchCancelled() const
    {
        return cancel_.load(std::memory_order_relaxed);
    }

    /**
     * Sticky external cancellation, safe to call from any thread (a
     * signal-handling drain thread, a connection handler whose peer
     * vanished). The current batch stops claiming new indices —
     * in-flight jobs finish — and forEach() throws BatchCancelled;
     * every later forEach() throws immediately until resetCancel().
     */
    void requestCancel()
    {
        externalCancel_.store(true, std::memory_order_relaxed);
        cancel_.store(true, std::memory_order_relaxed);
    }

    /** Re-arm the pool after requestCancel(); the next batch runs. */
    void resetCancel()
    {
        externalCancel_.store(false, std::memory_order_relaxed);
    }

    /** True while requestCancel() is in effect. */
    [[nodiscard]] bool cancelRequested() const
    {
        return externalCancel_.load(std::memory_order_relaxed);
    }

    /**
     * results[i] = fn(i) for every i in [0, count). fn must be safe to
     * call concurrently for distinct i.
     */
    template <typename Fn>
    [[nodiscard]] auto map(std::size_t count, Fn &&fn)
        -> std::vector<decltype(fn(std::size_t{0}))>
    {
        using Result = decltype(fn(std::size_t{0}));
        static_assert(!std::is_same_v<Result, bool>,
                      "map() jobs must not return bool: concurrent "
                      "writes to std::vector<bool> elements race; "
                      "return int or a struct instead");
        std::vector<Result> results(count);
        forEach(count, [&](std::size_t i) { results[i] = fn(i); });
        return results;
    }

  private:
    /** Worker main loop: wait for a batch, drain it, repeat. */
    void workerLoop(int slot);

    /** Pull indices off the current batch until it is exhausted.
     *  `slot` identifies this thread's in-flight bookkeeping entry
     *  (workers use [0, threads_), the dispatching caller threads_). */
    void drain(const std::function<void(std::size_t)> &job, int slot);

    int threads_ = 1;

    std::vector<std::thread> workers_;
    std::mutex mu_;
    std::condition_variable wake_;
    std::condition_variable done_;
    const std::function<void(std::size_t)> *job_ = nullptr;
    std::size_t batchSize_ = 0;
    std::uint64_t batchGeneration_ = 0;
    int workersDraining_ = 0;
    bool stop_ = false;
    std::exception_ptr firstError_;
    std::atomic<std::size_t> next_{0};

    // Watchdog state: the per-batch deadline, the cooperative cancel
    // flag, and one in-flight index slot per drainer (-1 = idle).
    std::chrono::milliseconds deadline_{0};
    std::atomic<bool> cancel_{false};
    std::atomic<bool> externalCancel_{false};
    std::unique_ptr<std::atomic<std::int64_t>[]> inFlight_;
};

} // namespace rowhammer::util

#endif // ROWHAMMER_UTIL_TASKPOOL_HH
