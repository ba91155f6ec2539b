#include "execution.hh"

#include <chrono>
#include <sstream>

#include "util/logging.hh"

namespace rowhammer::util
{

TaskPool &
poolFor(const Execution &exec, std::unique_ptr<TaskPool> &owned)
{
    if (exec.pool)
        return *exec.pool;
    if (!owned) {
        owned = std::make_unique<TaskPool>(exec.threads);
        if (exec.batchDeadlineMs > 0) {
            owned->setBatchDeadline(
                std::chrono::milliseconds(exec.batchDeadlineMs));
        }
    }
    return *owned;
}

std::unique_ptr<RunStore>
openCheckpoint(const Execution &exec, std::uint64_t config_hash)
{
    if (exec.checkpointPath.empty())
        return nullptr;
    auto store = std::make_unique<RunStore>(
        RunStore::pathInDir(exec.checkpointPath, config_hash),
        config_hash, exec.io, /*exclusive=*/true);
    const std::size_t loaded = store->load();
    if (loaded > 0) {
        inform("checkpoint: resuming from " + store->path() + " (" +
               std::to_string(loaded) + " shards already done)");
    }
    return store;
}

void
warnRejectedRecord(const RunStore &store, std::uint64_t key)
{
    std::ostringstream msg;
    msg << "checkpoint: rejected record 0x" << std::hex << key << " in "
        << store.path() << "; recomputing the shard";
    warn(msg.str());
}

} // namespace rowhammer::util
