/**
 * @file
 * Crash-safe shard-result store under the sweep grids: an append-only,
 * CRC32-framed, version-stamped binary record store, persisted via
 * write-temp-then-rename (atomic on POSIX) through the util::Io seam.
 *
 * One store file holds the completed shards of ONE run description: the
 * file is stamped with the content hash of the serialized config
 * (core::ExperimentConfig, attack::SweepConfig, ...) that produced it,
 * and each record maps a shard key (grid-cell index, baseline-run unit,
 * chip hash) to that shard's bit-exact serialized result. On restart,
 * completed shards load instead of recomputing — the deterministic
 * per-cell seeding makes a resumed sweep byte-identical to an
 * uninterrupted one.
 *
 * Failure contract (the reason this file exists): nothing here ever
 * crashes a run or silently corrupts a result. A missing, truncated,
 * bit-flipped, stale-version, or wrong-config file degrades to "those
 * shards recompute" with a warn(); a write failure (ENOSPC, fsync)
 * degrades to "this run stops checkpointing" with a warn(). Torn
 * updates cannot happen: the file is replaced atomically and every
 * record's payload is CRC-checked on load.
 */

#ifndef ROWHAMMER_UTIL_RUN_STORE_HH
#define ROWHAMMER_UTIL_RUN_STORE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/io.hh"

namespace rowhammer::util
{

/** CRC-32 (IEEE, as in zip/zlib) over a byte string. */
[[nodiscard]] std::uint32_t crc32(const std::string &bytes);

/**
 * The record store. Thread-safe: sweep workers put() concurrently as
 * shards complete. Lifecycle; the sweep drivers run it through
 * util/execution.hh, where openCheckpoint() constructs and load()s the
 * store and memoized() does the get-else-put once per shard:
 *
 *   RunStore store(RunStore::pathInDir(dir, config.hash()),
 *                  config.hash(), io, true);  // exclusive
 *   store.load();                        // warns + recovers on damage
 *   if (const std::string *v = store.get(key)) { ...decode...; }
 *   else { ...compute...; store.put(key, encoded); }
 */
class RunStore
{
  public:
    static constexpr std::uint32_t kFormatVersion = 1;

    /**
     * @param path Store file location (parent directories are created
     *     on first put()).
     * @param configHash Content hash of the run description; a file
     *     stamped with a different hash is quarantined (recompute).
     * @param io Filesystem seam; nullptr = Io::system().
     * @param exclusive Take an advisory flock on `<path>.lock` at
     *     load() (held until destruction) so two live processes — a
     *     daemon and a concurrently launched bench binary pointing
     *     RH_CHECKPOINT at the same store — cannot interleave writes.
     *     The second opener gets a FatalError naming the holder. The
     *     lock dies with the process, so a SIGKILLed run never wedges
     *     its successor. Off by default (single-owner test stores).
     */
    RunStore(std::string path, std::uint64_t configHash,
             Io *io = nullptr, bool exclusive = false);

    ~RunStore();

    /** `<dir>/<hex config hash>.rst`, the conventional store path. */
    static std::string pathInDir(const std::string &dir,
                                 std::uint64_t config_hash);

    /**
     * Load existing records from disk. Damage never propagates: a
     * corrupt header (bad magic, wrong version, wrong config hash)
     * quarantines the file — renamed aside to `<path>.corrupt` so the
     * bytes survive for post-mortem — and the store starts cold; a
     * corrupt record means keep the valid prefix and drop the rest.
     * Each path warn()s. An orphaned `<path>.tmp` left by a crash
     * mid-atomic-write is swept here too. With `exclusive`, this is
     * also where the advisory lock is taken (FatalError naming the
     * holder if another live process owns it).
     * Returns the number of records recovered.
     */
    [[nodiscard]] std::size_t load();

    /** True iff load() found a damaged header and renamed the file
     *  aside to `<path>.corrupt`. */
    [[nodiscard]] bool quarantinedOnLoad() const;

    /** The stored value for a key, or nullptr. */
    [[nodiscard]] const std::string *get(std::uint64_t key) const;

    [[nodiscard]] bool has(std::uint64_t key) const
    {
        return get(key) != nullptr;
    }

    /**
     * Record a completed shard and persist the store atomically. A key
     * already held with the same bytes is a no-op; with different bytes
     * (a record memoized() rejected and recomputed) the value is
     * replaced in place, keeping the key's insertion position. The
     * replaced string is the one get() pointed to, so do not put() a
     * key another thread is reading. On a write failure the record is
     * kept in memory (the sweep's own result is unaffected), a warning
     * is printed once, and further persistence is disabled for this
     * store.
     */
    void put(std::uint64_t key, std::string value);

    [[nodiscard]] std::size_t size() const;

    /** False once a write failure has disabled persistence. */
    [[nodiscard]] bool persistent() const;

    const std::string &path() const { return path_; }

  private:
    /** Serialize header + records in insertion order. */
    std::string encodeFile() const;

    /** Take the advisory lock (mu_ held); FatalError on conflict. */
    void acquireLockLocked();

    /** Rename the damaged file aside and latch quarantined_ (mu_
     *  held). */
    void quarantineLocked(const std::string &why);

    std::string path_;
    std::uint64_t configHash_;
    Io *io_;
    bool exclusive_ = false;

    mutable std::mutex mu_;
    std::map<std::uint64_t, std::string> records_;
    std::vector<std::uint64_t> order_; ///< Keys in insertion order.
    bool persistent_ = true;
    bool quarantined_ = false;
    int lockFd_ = -1;
};

} // namespace rowhammer::util

#endif // ROWHAMMER_UTIL_RUN_STORE_HH
