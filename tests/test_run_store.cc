/**
 * @file
 * Crash-safety substrate tests: the util::Io seam (atomic writes under
 * injected short writes, ENOSPC, fsync/rename failure), the RunStore
 * checkpoint format (round-trips, header validation), and the
 * corruption fuzz the ISSUE demands — truncation at every byte
 * boundary and single-bit flips over the whole file must degrade to
 * recompute-with-a-warning, never a crash or a silently wrong record.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/execution.hh"
#include "util/io.hh"
#include "util/logging.hh"
#include "util/run_store.hh"
#include "util/serialize.hh"

namespace
{

using namespace rowhammer::util;

/** Unique scratch directory per test, removed on destruction. */
class TempDir
{
  public:
    TempDir()
    {
        char templ[] = "/tmp/rh_run_store_XXXXXX";
        path_ = mkdtemp(templ);
        EXPECT_FALSE(path_.empty());
    }

    ~TempDir()
    {
        const std::string cmd = "rm -rf '" + path_ + "'";
        [[maybe_unused]] const int rc = std::system(cmd.c_str());
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

std::string
readAll(const std::string &path)
{
    std::string out;
    EXPECT_TRUE(Io::system().readFile(path, out));
    return out;
}

void
writeAll(const std::string &path, const std::string &bytes)
{
    EXPECT_TRUE(atomicWriteFile(Io::system(), path, bytes));
}

TEST(Crc32, KnownVectors)
{
    // The standard IEEE CRC-32 check value.
    EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
    EXPECT_EQ(crc32(""), 0x00000000u);
    EXPECT_NE(crc32("a"), crc32("b"));
}

TEST(Serialize, RoundTripAndBitExactDoubles)
{
    ByteWriter w;
    w.u8(0xAB);
    w.u32(0xDEADBEEFu);
    w.u64(0x0123456789ABCDEFull);
    w.i64(-42);
    const double tricky = 0.1 + 0.2; // Not representable exactly.
    w.f64(tricky);
    w.str("hello");
    w.f64Vec({1.0, -0.0, 1e-300});

    ByteReader r(w.bytes());
    EXPECT_EQ(r.u8(), 0xAB);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.i64(), -42);
    // Bit-exact: the resumed value must equal the interrupted run's.
    EXPECT_EQ(r.f64(), tricky);
    EXPECT_EQ(r.str(), "hello");
    std::vector<double> vec;
    r.f64Vec(vec);
    ASSERT_EQ(vec.size(), 3u);
    EXPECT_EQ(vec[0], 1.0);
    EXPECT_TRUE(std::signbit(vec[1]));
    EXPECT_EQ(vec[2], 1e-300);
    EXPECT_TRUE(r.done());
}

TEST(Serialize, ReaderUnderrunLatchesNotOk)
{
    const std::string bytes("\x01\x02", 2);
    ByteReader r(bytes);
    EXPECT_EQ(r.u8(), 1);
    // Underrun: whatever value comes back, ok() latches false so the
    // caller discards the whole record.
    (void)r.u32();
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.done());
}

TEST(Serialize, ListAndOptI64RoundTripAndRejectDamage)
{
    const std::vector<std::optional<std::int64_t>> values{
        std::nullopt, 4800, -3, std::nullopt};
    ByteWriter w;
    w.list(values, [](ByteWriter &out,
                      const std::optional<std::int64_t> &v) {
        out.optI64(v);
    });
    const std::string bytes = w.bytes();
    ASSERT_EQ(bytes.size(), 4u + 9u * values.size());
    const auto item = [](ByteReader &in, std::optional<std::int64_t> &v) {
        in.optI64(v);
    };
    std::vector<std::optional<std::int64_t>> out;
    {
        ByteReader r(bytes);
        r.list(out, item);
        EXPECT_EQ(out, values);
        EXPECT_TRUE(r.done());
    }

    // Every truncation underruns, and a trailing byte is left over.
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        const std::string torn = bytes.substr(0, cut);
        ByteReader r(torn);
        r.list(out, item);
        EXPECT_FALSE(r.done()) << "accepted truncation at " << cut;
    }
    const std::string padded = bytes + "x";
    ByteReader trailing(padded);
    trailing.list(out, item);
    EXPECT_EQ(out, values);
    EXPECT_FALSE(trailing.done());

    // The count guard: a corrupt count never drives an allocation, even
    // when enough bytes follow to satisfy it.
    ByteWriter at_limit;
    at_limit.u32(ByteReader::kMaxListEntries);
    ByteWriter over_limit;
    over_limit.u32(ByteReader::kMaxListEntries + 1);
    const std::string zeros(ByteReader::kMaxListEntries + 1, '\0');
    const std::string at_bytes = at_limit.bytes() + zeros;
    const std::string over_bytes = over_limit.bytes() + zeros;
    const auto byte_item = [](ByteReader &in, std::uint8_t &b) {
        b = in.u8();
    };
    std::vector<std::uint8_t> entries;
    ByteReader at(at_bytes);
    at.list(entries, byte_item);
    EXPECT_EQ(entries.size(), ByteReader::kMaxListEntries);
    EXPECT_TRUE(at.ok());
    ByteReader over(over_bytes);
    over.list(entries, byte_item);
    EXPECT_TRUE(entries.empty());
    EXPECT_FALSE(over.ok());
}

TEST(AtomicWrite, SurvivesShortWrites)
{
    TempDir dir;
    FaultInjectingIo io(Io::system());
    io.shortWriteLimit = 3; // Force the caller to loop.
    const std::string path = dir.path() + "/short.bin";
    const std::string data(1000, 'x');
    EXPECT_TRUE(atomicWriteFile(io, path, data));
    EXPECT_GT(io.writeCalls(), 300);
    EXPECT_EQ(readAll(path), data);
}

TEST(AtomicWrite, DiskFullLeavesTargetUntouched)
{
    TempDir dir;
    const std::string path = dir.path() + "/store.bin";
    writeAll(path, "old complete contents");

    FaultInjectingIo io(Io::system());
    io.failAfterBytes = 10; // ENOSPC partway through the temp file.
    EXPECT_FALSE(atomicWriteFile(io, path, std::string(100, 'y')));

    // The real file still holds the old complete contents, and the
    // temp file was cleaned up.
    EXPECT_EQ(readAll(path), "old complete contents");
    std::string tmp;
    EXPECT_FALSE(Io::system().readFile(path + ".tmp", tmp));
}

TEST(AtomicWrite, FsyncAndRenameFailuresReported)
{
    TempDir dir;
    const std::string path = dir.path() + "/f.bin";
    {
        FaultInjectingIo io(Io::system());
        io.failFsync = true;
        EXPECT_FALSE(atomicWriteFile(io, path, "data"));
    }
    {
        FaultInjectingIo io(Io::system());
        io.failRename = true;
        EXPECT_FALSE(atomicWriteFile(io, path, "data"));
    }
    {
        FaultInjectingIo io(Io::system());
        io.failOpen = true;
        EXPECT_FALSE(atomicWriteFile(io, path, "data"));
    }
    std::string out;
    EXPECT_FALSE(Io::system().readFile(path, out));
}

TEST(RunStore, RoundTripAcrossInstances)
{
    TempDir dir;
    const std::uint64_t hash = 0x1122334455667788ull;
    const std::string path = RunStore::pathInDir(dir.path(), hash);

    FaultInjectingIo io(Io::system());
    RunStore writer(path, hash, &io);
    EXPECT_EQ(writer.load(), 0u); // First run: no file yet.
    writer.put(1, "stale");
    writer.put(2, std::string("\x00\xFF\n", 3)); // Binary-safe.
    const int writes = io.writeCalls();
    writer.put(2, std::string("\x00\xFF\n", 3)); // Same bytes: no-op.
    EXPECT_EQ(io.writeCalls(), writes);
    writer.put(1, "alpha"); // New bytes: replaced and persisted.
    EXPECT_GT(io.writeCalls(), writes);
    EXPECT_EQ(writer.size(), 2u);
    EXPECT_TRUE(writer.persistent());

    RunStore reader(path, hash);
    EXPECT_EQ(reader.load(), 2u);
    ASSERT_NE(reader.get(1), nullptr);
    EXPECT_EQ(*reader.get(1), "alpha");
    ASSERT_NE(reader.get(2), nullptr);
    EXPECT_EQ(*reader.get(2), std::string("\x00\xFF\n", 3));
    EXPECT_EQ(reader.get(3), nullptr);

    // The replaced record kept its insertion position: the first frame
    // (after the 16-byte header and its own 8-byte frame) is key 1's.
    std::string bytes;
    ASSERT_TRUE(Io::system().readFile(path, bytes));
    ByteWriter first_key;
    first_key.u64(1);
    EXPECT_EQ(bytes.substr(16 + 8, 8), first_key.bytes());
}

TEST(RunStore, PathInDirIsHexHash)
{
    EXPECT_EQ(RunStore::pathInDir("/x", 0xABCDull),
              "/x/000000000000abcd.rst");
}

TEST(RunStore, ConfigHashMismatchRecomputesAll)
{
    TempDir dir;
    const std::string path = dir.path() + "/store.rst";
    RunStore writer(path, 111);
    writer.put(7, "value");

    RunStore stale(path, 222); // Different run description.
    EXPECT_EQ(stale.load(), 0u);
    EXPECT_EQ(stale.get(7), nullptr);
}

TEST(RunStore, NotACheckpointFileRecomputesAll)
{
    TempDir dir;
    const std::string path = dir.path() + "/store.rst";
    writeAll(path, "this is not a checkpoint");
    RunStore store(path, 1);
    EXPECT_EQ(store.load(), 0u);
}

TEST(RunStore, TruncationFuzzKeepsValidPrefix)
{
    TempDir dir;
    const std::string path = dir.path() + "/store.rst";
    const std::uint64_t hash = 42;

    std::vector<std::string> values;
    {
        RunStore writer(path, hash);
        for (std::uint64_t k = 0; k < 6; ++k) {
            values.push_back("value-" + std::to_string(k) +
                             std::string(k, '#'));
            writer.put(k, values.back());
        }
    }
    const std::string full = readAll(path);

    // Truncate at every byte boundary: load() must never crash, and
    // every record it does return must be exactly what was stored —
    // a valid prefix, never a torn or invented record.
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
        writeAll(path, full.substr(0, cut));
        RunStore store(path, hash);
        const std::size_t n = store.load();
        EXPECT_LE(n, values.size());
        std::size_t found = 0;
        for (std::uint64_t k = 0; k < values.size(); ++k) {
            if (const std::string *v = store.get(k)) {
                EXPECT_EQ(*v, values[k])
                    << "torn record at cut " << cut;
                ++found;
            }
        }
        EXPECT_EQ(found, n);
    }

    // The untruncated file recovers everything.
    writeAll(path, full);
    RunStore store(path, hash);
    EXPECT_EQ(store.load(), values.size());
}

TEST(RunStore, BitFlipFuzzNeverReturnsCorruptRecords)
{
    TempDir dir;
    const std::string path = dir.path() + "/store.rst";
    const std::uint64_t hash = 77;

    std::vector<std::string> values;
    {
        RunStore writer(path, hash);
        for (std::uint64_t k = 0; k < 4; ++k) {
            values.push_back("payload-" + std::to_string(k));
            writer.put(k, values.back());
        }
    }
    const std::string full = readAll(path);

    // Flip one bit at every position in the file. Whatever load()
    // recovers must match the original values byte for byte: CRC
    // framing turns silent corruption into recompute.
    for (std::size_t byte = 0; byte < full.size(); ++byte) {
        for (int bit = 0; bit < 8; bit += 3) {
            std::string damaged = full;
            damaged[byte] =
                static_cast<char>(damaged[byte] ^ (1 << bit));
            writeAll(path, damaged);
            RunStore store(path, hash);
            // Recovered-record count varies with the corruption point;
            // the loop below asserts on content instead.
            (void)store.load();
            for (std::uint64_t k = 0; k < values.size(); ++k) {
                if (const std::string *v = store.get(k)) {
                    EXPECT_EQ(*v, values[k])
                        << "corrupt record surfaced at byte " << byte
                        << " bit " << bit;
                }
            }
        }
    }
}

TEST(RunStore, WriteFailureDisablesPersistenceKeepsResults)
{
    TempDir dir;
    FaultInjectingIo io(Io::system());
    const std::string path = dir.path() + "/store.rst";
    RunStore store(path, 5, &io);

    store.put(1, "first"); // Lands on disk.
    io.failAfterBytes = 0; // Disk is now full.
    store.put(2, "second");
    EXPECT_FALSE(store.persistent());

    // Both records remain usable in memory: the run's own results are
    // unaffected by losing the checkpoint.
    ASSERT_NE(store.get(1), nullptr);
    ASSERT_NE(store.get(2), nullptr);
    EXPECT_EQ(store.size(), 2u);

    // Later puts stay in-memory-only without re-warning or crashing.
    store.put(3, "third");
    EXPECT_EQ(store.size(), 3u);

    // On disk: the last successful atomic write (record 1 alone).
    RunStore reloaded(path, 5);
    EXPECT_EQ(reloaded.load(), 1u);
    EXPECT_EQ(*reloaded.get(1), "first");
}

TEST(RunStore, OrphanedTempFileIsSweptOnLoad)
{
    TempDir dir;
    const std::string path = dir.path() + "/store.rst";
    {
        RunStore writer(path, 3);
        writer.put(1, "kept");
    }
    // Simulate a crash between atomicWriteFile's write and rename: an
    // orphaned temp file next to a complete store.
    writeAll(path + ".tmp", "torn write from a dead process");

    RunStore store(path, 3);
    EXPECT_EQ(store.load(), 1u);
    EXPECT_FALSE(Io::system().fileExists(path + ".tmp"));
    ASSERT_NE(store.get(1), nullptr);
    EXPECT_EQ(*store.get(1), "kept");
}

TEST(RunStore, HeaderDamageQuarantinesTheFileAside)
{
    TempDir dir;
    const std::string path = dir.path() + "/store.rst";
    writeAll(path, "this is not a checkpoint");

    RunStore store(path, 1);
    EXPECT_EQ(store.load(), 0u);
    EXPECT_TRUE(store.quarantinedOnLoad());
    // The damaged bytes were moved aside for post-mortem, not deleted
    // and not left to confuse the next load.
    EXPECT_FALSE(Io::system().fileExists(path));
    EXPECT_TRUE(Io::system().fileExists(path + ".corrupt"));
    EXPECT_EQ(readAll(path + ".corrupt"), "this is not a checkpoint");

    // The store is writable again after quarantine.
    store.put(1, "fresh");
    RunStore reloaded(path, 1);
    EXPECT_EQ(reloaded.load(), 1u);
    EXPECT_FALSE(reloaded.quarantinedOnLoad());
}

TEST(RunStore, RecordDamageKeepsPrefixWithoutQuarantine)
{
    TempDir dir;
    const std::string path = dir.path() + "/store.rst";
    {
        RunStore writer(path, 8);
        writer.put(1, "one");
        writer.put(2, "two");
    }
    std::string full = readAll(path);
    full.back() = static_cast<char>(full.back() ^ 0x01);
    writeAll(path, full);

    RunStore store(path, 8);
    EXPECT_EQ(store.load(), 1u); // Valid prefix survives.
    EXPECT_FALSE(store.quarantinedOnLoad());
    EXPECT_TRUE(Io::system().fileExists(path));
}

TEST(RunStore, SecondExclusiveOpenDiesNamingTheHolder)
{
    TempDir dir;
    const std::string path = dir.path() + "/store.rst";

    RunStore first(path, 4, nullptr, /*exclusive=*/true);
    first.put(1, "mine");

    // A second live opener of the same checkpoint store (a daemon and
    // a concurrent bench pointed at one RH_CHECKPOINT dir) must die
    // loudly, naming the holder, instead of interleaving writes.
    RunStore second(path, 4, nullptr, /*exclusive=*/true);
    try {
        (void)second.load(); // Must throw; value unreachable.
        FAIL() << "second exclusive open did not throw";
    } catch (const FatalError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("already open by"), std::string::npos);
        EXPECT_NE(what.find("pid " + std::to_string(getpid())),
                  std::string::npos);
        EXPECT_NE(what.find(path + ".lock"), std::string::npos);
    }

    // The first holder keeps working, and once it is gone the store
    // opens cleanly again (flock dies with the fd — SIGKILL-safe).
    first.put(2, "still mine");
    EXPECT_TRUE(first.persistent());
}

TEST(RunStore, LockReleasedWhenHolderCloses)
{
    TempDir dir;
    const std::string path = dir.path() + "/store.rst";
    {
        RunStore first(path, 4, nullptr, /*exclusive=*/true);
        first.put(1, "v");
    }
    RunStore second(path, 4, nullptr, /*exclusive=*/true);
    EXPECT_EQ(second.load(), 1u); // No throw: the lock died with fd.
    second.put(2, "w");
    EXPECT_EQ(second.size(), 2u);
}

TEST(RunStore, NonExclusiveOpenersStillCoexist)
{
    // Analysis tooling may read a store while a run writes it; only
    // exclusive openers conflict.
    TempDir dir;
    const std::string path = dir.path() + "/store.rst";
    RunStore writer(path, 4, nullptr, /*exclusive=*/true);
    writer.put(1, "v");

    RunStore reader(path, 4);
    EXPECT_EQ(reader.load(), 1u);
}

TEST(RunStore, UnlockableStoreDegradesToUnguarded)
{
    // When the lock file itself cannot be created (read-only dir,
    // weird filesystem), the store must keep checkpointing with a
    // warning, not die: the guard is advisory.
    TempDir dir;
    FaultInjectingIo io(Io::system());
    io.failLockOpen = true;
    const std::string path = dir.path() + "/store.rst";
    RunStore store(path, 4, &io, /*exclusive=*/true);
    EXPECT_EQ(store.load(), 0u);
    store.put(1, "v");
    EXPECT_TRUE(store.persistent());
    RunStore reloaded(path, 4);
    EXPECT_EQ(reloaded.load(), 1u);
}

TEST(RunStore, InjectedLockConflictDies)
{
    // The fault-injection knob pretending every lock is already held,
    // for driving the conflict path without a second opener.
    TempDir dir;
    FaultInjectingIo io(Io::system());
    io.failLock = true;
    RunStore store(dir.path() + "/store.rst", 4, &io,
                   /*exclusive=*/true);
    EXPECT_THROW((void)store.load(), FatalError);
}

TEST(RunStore, ConcurrentPutsAllLand)
{
    TempDir dir;
    const std::uint64_t hash = 9;
    const std::string path = dir.path() + "/store.rst";
    {
        RunStore store(path, hash);
        std::vector<std::thread> threads;
        for (int t = 0; t < 4; ++t) {
            threads.emplace_back([&store, t] {
                for (int i = 0; i < 16; ++i) {
                    const std::uint64_t key =
                        static_cast<std::uint64_t>(t * 16 + i);
                    store.put(key, "v" + std::to_string(key));
                }
            });
        }
        for (auto &thread : threads)
            thread.join();
        EXPECT_EQ(store.size(), 64u);
    }
    RunStore reloaded(path, hash);
    EXPECT_EQ(reloaded.load(), 64u);
    for (std::uint64_t k = 0; k < 64; ++k) {
        ASSERT_NE(reloaded.get(k), nullptr);
        EXPECT_EQ(*reloaded.get(k), "v" + std::to_string(k));
    }
}

/** A memoized i64 shard that accepts only a positive record
 *  (standing in for a driver's own staleness check). */
std::int64_t
memoI64(RunStore *store, std::uint64_t key, std::int64_t value,
        int &computed)
{
    return memoized<std::int64_t>(
        store, key,
        [&] {
            ++computed;
            return value;
        },
        [](auto &a, auto &v) { a.i64(v); },
        [](const std::int64_t &v) { return v > 0; });
}

TEST(Execution, MemoizedComputesOnceThenServesTheRecord)
{
    int computed = 0;
    EXPECT_EQ(memoI64(nullptr, 1, 42, computed), 42);
    EXPECT_EQ(memoI64(nullptr, 1, 42, computed), 42);
    EXPECT_EQ(computed, 2); // No store: always computes.

    TempDir dir;
    RunStore store(dir.path() + "/memo.rst", 5);
    computed = 0;
    EXPECT_EQ(memoI64(&store, 1, 42, computed), 42);
    EXPECT_EQ(memoI64(&store, 1, 99, computed), 42); // Served.
    EXPECT_EQ(computed, 1);
    ByteWriter w;
    w.i64(42);
    ASSERT_NE(store.get(1), nullptr);
    EXPECT_EQ(*store.get(1), w.bytes());
}

TEST(Execution, MemoizedRejectsStaleAndLongRecordsWithOneWarning)
{
    TempDir dir;
    RunStore store(dir.path() + "/memo.rst", 5);
    ByteWriter stale;
    stale.i64(-7); // Decodes, but the accept check rejects it.
    store.put(0xAB, stale.bytes());
    store.put(0xCD, stale.bytes() + "x"); // A trailing byte.
    ByteWriter good;
    good.i64(7);
    store.put(0xEF, good.bytes() + "x");

    const std::uint64_t keys[] = {0xAB, 0xCD, 0xEF};
    for (const std::uint64_t key : keys) {
        int computed = 0;
        testing::internal::CaptureStderr();
        EXPECT_EQ(memoI64(&store, key, 3, computed), 3);
        const std::string err = testing::internal::GetCapturedStderr();
        EXPECT_EQ(computed, 1);
        // One warning, naming the store and the key.
        EXPECT_EQ(err.find("warn:"), err.rfind("warn:")) << err;
        EXPECT_NE(err.find(store.path()), std::string::npos) << err;
        std::ostringstream hex;
        hex << std::hex << key;
        EXPECT_NE(err.find(hex.str()), std::string::npos) << err;

        // The recomputed value replaced the rejected record: a second
        // call is served from it, silently.
        testing::internal::CaptureStderr();
        EXPECT_EQ(memoI64(&store, key, 4, computed), 3);
        EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
        EXPECT_EQ(computed, 1);
    }

    // So does a resumed run.
    RunStore reloaded(store.path(), 5);
    EXPECT_EQ(reloaded.load(), 3u);
    for (const std::uint64_t key : keys) {
        int computed = 0;
        EXPECT_EQ(memoI64(&reloaded, key, 4, computed), 3);
        EXPECT_EQ(computed, 0);
    }
}

TEST(Execution, PoolAndCheckpointFollowTheKnobs)
{
    Execution exec;
    exec.threads = 2;
    std::unique_ptr<TaskPool> owned;
    TaskPool &created = poolFor(exec, owned);
    ASSERT_NE(owned, nullptr);
    EXPECT_EQ(&created, owned.get());
    EXPECT_EQ(created.threadCount(), 2);
    EXPECT_EQ(&poolFor(exec, owned), &created); // Created once.

    TaskPool borrowed(1);
    exec.pool = &borrowed;
    std::unique_ptr<TaskPool> unused;
    EXPECT_EQ(&poolFor(exec, unused), &borrowed);
    EXPECT_EQ(unused, nullptr);

    EXPECT_EQ(openCheckpoint(exec, 77), nullptr); // No directory.
    TempDir dir;
    exec.checkpointPath = dir.path();
    {
        const auto store = openCheckpoint(exec, 77);
        ASSERT_NE(store, nullptr);
        EXPECT_EQ(store->path(), RunStore::pathInDir(dir.path(), 77));
        store->put(1, "done");
    }
    const auto resumed = openCheckpoint(exec, 77);
    ASSERT_NE(resumed, nullptr);
    EXPECT_EQ(resumed->size(), 1u); // Loaded on open.
    // Opened exclusive: a second live opener dies naming the holder.
    EXPECT_THROW(openCheckpoint(exec, 77), FatalError);
}

} // namespace
