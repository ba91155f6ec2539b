/**
 * @file
 * How a sharded run executes, as opposed to what it computes: the
 * execution-only knobs every checkpointed driver shares
 * (core::ExperimentRunner, charlib::PopulationRunner, attack::runSweep,
 * attack::Fuzzer), and the three helpers that turn them into a task
 * pool, a checkpoint store, and a memoized shard.
 *
 * Each driver's config inherits Execution, and none of these fields is
 * on the config's wire schema (see util/serialize.hh), so none moves its
 * content hash: a run prints the same bytes for any thread count, with
 * or without a checkpoint, on any pool. A driver's lifecycle is
 *
 *   std::unique_ptr<TaskPool> owned;
 *   TaskPool &pool = poolFor(config, owned);
 *   const auto store = openCheckpoint(config, config.hash());
 *   pool.map(n, [&](std::size_t i) {
 *       return memoized<Shard>(store.get(), key(i), compute);
 *   });
 */

#ifndef ROWHAMMER_UTIL_EXECUTION_HH
#define ROWHAMMER_UTIL_EXECUTION_HH

#include <cstdint>
#include <memory>
#include <string>

#include "util/run_store.hh"
#include "util/serialize.hh"
#include "util/taskpool.hh"

namespace rowhammer::util
{

/** The execution-only knobs of a sharded run (see the file comment). */
struct Execution
{
    /** Worker threads (benches: RH_THREADS); 0 = one per hardware
     *  thread. Results do not depend on this. */
    int threads = 0;
    /**
     * Checkpoint directory (benches: RH_CHECKPOINT); empty disables.
     * When set, the driver persists every completed shard to the
     * RunStore file openCheckpoint() names after the run description's
     * hash, and a restarted run loads completed shards instead of
     * recomputing them. Resumed output is byte-identical to an
     * uninterrupted run: shard values are stored bit-exactly and
     * aggregation order is fixed.
     */
    std::string checkpointPath;
    /** Filesystem seam for the checkpoint store (tests inject faults
     *  here); null = the real filesystem. */
    Io *io = nullptr;
    /** Borrowed task pool to run on (the daemon owns ONE pool shared
     *  by every request); null = the driver creates its own with
     *  `threads` workers. */
    TaskPool *pool = nullptr;
    /**
     * Watchdog deadline per pool batch in milliseconds (benches:
     * RH_DEADLINE_MS); 0 disables. A batch that outlives it dumps its
     * in-flight shard indices to stderr and aborts (see
     * TaskPool::setBatchDeadline). Arms only a pool the driver creates;
     * a borrowed pool keeps its owner's deadline.
     */
    std::int64_t batchDeadlineMs = 0;
};

/**
 * The pool a run executes on: the borrowed `exec.pool`, else `owned`,
 * created on first use with `exec.threads` workers and the batch
 * deadline armed.
 */
TaskPool &poolFor(const Execution &exec, std::unique_ptr<TaskPool> &owned);

/**
 * The checkpoint store of one run description, or null when
 * `exec.checkpointPath` is empty: RunStore::pathInDir(checkpointPath,
 * config_hash), opened exclusive and loaded, with one inform() when it
 * resumes completed records.
 */
std::unique_ptr<RunStore> openCheckpoint(const Execution &exec,
                                         std::uint64_t config_hash);

/** warn() that a stored record was rejected and its shard recomputes. */
void warnRejectedRecord(const RunStore &store, std::uint64_t key);

/** memoized()'s default staleness check: accept every record. */
struct AcceptAll
{
    template <class T>
    bool operator()(const T &) const
    {
        return true;
    }
};

/**
 * One shard, memoized in `store` under `key`: the stored record when it
 * decodes under `wire` (consuming every byte) and `accept(const T &)`
 * passes it, else `compute()`, whose value is then stored under the
 * same `wire`. A rejected record (undecodable, or stale by the driver's
 * own check) warns once and recomputes, and the recomputed value
 * replaces it, so later calls and a resumed run are served without
 * recomputing. A null store just computes. Safe to call concurrently
 * for distinct keys.
 */
template <class T, class Compute, class Schema = Wire,
          class Accept = AcceptAll>
T
memoized(RunStore *store, std::uint64_t key, Compute &&compute,
         Schema wire = {}, Accept accept = {})
{
    if (store) {
        if (const std::string *rec = store->get(key)) {
            T out{};
            if (decode(*rec, out, wire) && accept(out))
                return out;
            warnRejectedRecord(*store, key);
        }
    }
    T out = compute();
    if (store)
        store->put(key, encode(out, wire));
    return out;
}

} // namespace rowhammer::util

#endif // ROWHAMMER_UTIL_EXECUTION_HH
