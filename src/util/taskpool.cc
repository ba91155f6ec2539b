#include "taskpool.hh"

#include <string>

#include "util/logging.hh"

namespace rowhammer::util
{

TaskPool::TaskPool(int threads)
{
    threads_ = threads > 0
                   ? threads
                   : static_cast<int>(std::thread::hardware_concurrency());
    if (threads_ < 1)
        threads_ = 1;
    inFlight_ = std::make_unique<std::atomic<std::int64_t>[]>(
        static_cast<std::size_t>(threads_) + 1);
    for (int slot = 0; slot <= threads_; ++slot)
        inFlight_[slot].store(-1, std::memory_order_relaxed);
    workers_.reserve(static_cast<std::size_t>(threads_));
    for (int t = 0; t < threads_; ++t)
        workers_.emplace_back([this, t] { workerLoop(t); });
}

TaskPool::~TaskPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
TaskPool::setBatchDeadline(std::chrono::milliseconds deadline)
{
    std::lock_guard<std::mutex> lock(mu_);
    deadline_ = deadline;
}

void
TaskPool::drain(const std::function<void(std::size_t)> &job, int slot)
{
    while (!cancel_.load(std::memory_order_relaxed)) {
        const std::size_t i =
            next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= batchSize_)
            return;
        inFlight_[slot].store(static_cast<std::int64_t>(i),
                              std::memory_order_relaxed);
        try {
            job(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mu_);
            if (!firstError_)
                firstError_ = std::current_exception();
        }
        inFlight_[slot].store(-1, std::memory_order_relaxed);
    }
}

void
TaskPool::workerLoop(int slot)
{
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
        wake_.wait(lock,
                   [&] { return stop_ || batchGeneration_ != seen; });
        if (stop_)
            return;
        seen = batchGeneration_;
        const auto *job = job_;
        lock.unlock();
        drain(*job, slot);
        lock.lock();
        if (--workersDraining_ == 0)
            done_.notify_all();
    }
}

void
TaskPool::forEach(std::size_t count,
                  const std::function<void(std::size_t)> &job)
{
    if (count == 0)
        return;
    if (externalCancel_.load(std::memory_order_relaxed)) {
        throw BatchCancelled(
            "fatal: TaskPool: batch cancelled before it started "
            "(requestCancel() is in effect)");
    }
    const auto batch_start = std::chrono::steady_clock::now();
    std::chrono::milliseconds deadline{0};
    {
        std::lock_guard<std::mutex> lock(mu_);
        job_ = &job;
        batchSize_ = count;
        firstError_ = nullptr;
        next_.store(0, std::memory_order_relaxed);
        // A requestCancel() racing this batch start must still win.
        cancel_.store(externalCancel_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
        workersDraining_ = threads_;
        deadline = deadline_;
        ++batchGeneration_;
    }
    wake_.notify_all();

    // The dispatching thread drains alongside the workers, so even a
    // 1-thread pool overlaps dispatch with execution. With a deadline
    // armed it must stay out of the batch: a drainer stuck inside a
    // hung job can never fire the watchdog.
    if (deadline.count() <= 0)
        drain(job, threads_);

    std::unique_lock<std::mutex> lock(mu_);
    const auto drained = [&] { return workersDraining_ == 0; };
    if (deadline.count() <= 0) {
        done_.wait(lock, drained);
    } else if (!done_.wait_until(lock, batch_start + deadline,
                                 drained)) {
        // Watchdog: the batch outlived its deadline. Dump what every
        // drainer is stuck on, cancel the unclaimed remainder, and
        // surface a FatalError once the in-flight jobs return.
        std::string stuck;
        for (int slot = 0; slot <= threads_; ++slot) {
            const std::int64_t i =
                inFlight_[slot].load(std::memory_order_relaxed);
            if (i >= 0)
                stuck += (stuck.empty() ? "" : ", ") +
                    std::to_string(i);
        }
        warn("TaskPool: batch exceeded its " +
             std::to_string(deadline.count()) +
             " ms deadline; in-flight shard indices: " +
             (stuck.empty() ? "none" : stuck) +
             "; aborting the batch");
        cancel_.store(true, std::memory_order_relaxed);
        done_.wait(lock, drained);
        if (!firstError_) {
            firstError_ = std::make_exception_ptr(BatchDeadlineExceeded(
                "fatal: TaskPool: batch exceeded its " +
                std::to_string(deadline.count()) +
                " ms deadline (in-flight shards: " +
                (stuck.empty() ? "none" : stuck) + ")"));
        }
    }
    if (firstError_)
        std::rethrow_exception(firstError_);
    // After requestCancel() a batch never completes "normally", even
    // if every index happened to finish before the flag landed — the
    // caller asked for an abort and gets a consistent answer.
    if (externalCancel_.load(std::memory_order_relaxed)) {
        throw BatchCancelled(
            "fatal: TaskPool: batch cancelled mid-run "
            "(requestCancel()); completed shards are checkpointed");
    }
}

} // namespace rowhammer::util
