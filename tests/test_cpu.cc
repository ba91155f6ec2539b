/**
 * @file
 * Tests for the CPU substrate: LLC cache behaviour and the trace-driven
 * core model.
 */

#include <gtest/gtest.h>

#include "util/logging.hh"

#include <queue>
#include <vector>

#include "cpu/cache.hh"
#include "cpu/core.hh"

namespace
{

using namespace rowhammer::cpu;

TEST(Cache, HitAfterFill)
{
    Cache cache(64 * 1024, 8, 64);
    EXPECT_FALSE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x1020, false).hit); // Same line.
    EXPECT_EQ(cache.stats().misses, 1);
    EXPECT_EQ(cache.stats().hits, 2);
}

TEST(Cache, LruEviction)
{
    // 2-way, 2-set tiny cache: lines mapping to set 0 are multiples of
    // 128 bytes.
    Cache cache(256, 2, 64);
    ASSERT_EQ(cache.sets(), 2);
    // Warm-up fills: no dirty victims possible, results audited away.
    (void)cache.access(0, false);   // Set 0, way A.
    (void)cache.access(128, false); // Set 0, way B.
    (void)cache.access(0, false);   // Touch A (B becomes LRU).
    (void)cache.access(256, false); // Evicts B (128, clean).
    EXPECT_TRUE(cache.access(0, false).hit);
    EXPECT_FALSE(cache.access(128, false).hit);
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    Cache cache(256, 2, 64);
    (void)cache.access(0, true);   // Dirty fill; nothing evicted yet.
    (void)cache.access(128, false);
    const auto result = cache.access(256, false); // Evicts line 0.
    // LRU victim is line 0 (dirty): writeback reported with its address.
    ASSERT_TRUE(result.writeback.has_value());
    EXPECT_EQ(*result.writeback, 0u);
    EXPECT_EQ(cache.stats().writebacks, 1);
}

TEST(Cache, CleanEvictionSilent)
{
    Cache cache(256, 2, 64);
    (void)cache.access(0, false);   // Clean fills; no victims.
    (void)cache.access(128, false);
    const auto result = cache.access(256, false);
    EXPECT_FALSE(result.writeback.has_value());
}

TEST(Cache, InvalidConfigRejected)
{
    EXPECT_THROW(Cache(0, 8, 64), rowhammer::util::FatalError);
    EXPECT_THROW(Cache(100, 3, 64), rowhammer::util::FatalError);
}

/** Trace source yielding a fixed pattern. */
class ScriptedTrace : public TraceSource
{
  public:
    explicit ScriptedTrace(TraceEntry entry) : entry_(entry) {}

    TraceEntry next() override { return entry_; }

  private:
    TraceEntry entry_;
};

TEST(Core, PureComputeRunsAtFullWidth)
{
    // Huge bubble counts: the core never touches memory.
    ScriptedTrace trace(TraceEntry{1000000, 0, false});
    Core core(trace, [](std::uint64_t, bool, std::uint32_t) {
        ADD_FAILURE() << "memory should not be touched";
        return true;
    });
    for (int i = 0; i < 1000; ++i)
        core.tick();
    EXPECT_NEAR(core.stats().ipc(), 4.0, 0.1);
}

TEST(Core, ImmediateMemoryKeepsIssuing)
{
    ScriptedTrace trace(TraceEntry{9, 64, false});
    // Memory completes instantly.
    Core core(trace, [&](std::uint64_t, bool write, std::uint32_t slot) {
        if (!write)
            core.complete(slot);
        return true;
    });
    for (int i = 0; i < 1000; ++i)
        core.tick();
    EXPECT_GT(core.stats().ipc(), 3.0);
    EXPECT_GT(core.stats().memReads, 0);
    EXPECT_NEAR(core.stats().apki(), 100.0, 10.0);
}

TEST(Core, StallsWhenMemoryNeverReturns)
{
    ScriptedTrace trace(TraceEntry{0, 64, false});
    int sent = 0;
    Core core(trace, [&](std::uint64_t, bool, std::uint32_t) {
        ++sent;
        return true; // Accepted but never completed.
    });
    for (int i = 0; i < 1000; ++i)
        core.tick();
    // Window fills with pending reads and the core stops retiring.
    EXPECT_EQ(core.windowOccupancy(), 128u);
    EXPECT_EQ(sent, 128);
    EXPECT_EQ(core.stats().retired, 0);
}

TEST(Core, BackpressureRetriesSend)
{
    ScriptedTrace trace(TraceEntry{0, 64, false});
    int attempts = 0;
    Core core(trace, [&](std::uint64_t, bool write, std::uint32_t slot) {
        ++attempts;
        if (attempts <= 3)
            return false; // Reject the first three tries.
        if (!write)
            core.complete(slot);
        return true;
    });
    for (int i = 0; i < 10; ++i)
        core.tick();
    // Rejected sends do not count as issued memory reads.
    EXPECT_GT(core.stats().memReads, 0);
    EXPECT_GE(attempts, 4);
}

TEST(Core, TickReportsProgress)
{
    // Back-pressure harness: sends are rejected until `accept` is set,
    // and accepted reads complete only when the test fires them.
    ScriptedTrace trace(TraceEntry{2, 64, false});
    bool accept = false;
    std::vector<std::uint32_t> pending;
    Core core(trace, [&](std::uint64_t, bool, std::uint32_t slot) {
        if (!accept)
            return false;
        pending.push_back(slot);
        return true;
    });
    EXPECT_TRUE(core.tick());  // Fetches an entry, issues its bubbles.
    EXPECT_TRUE(core.tick());  // Retires them; the read is rejected.
    EXPECT_FALSE(core.tick()); // Blocked: only the cycle count moves.
    EXPECT_FALSE(core.tick());
    EXPECT_EQ(core.stats().retired, 2);
    EXPECT_EQ(core.stats().memReads, 0);

    accept = true;
    EXPECT_TRUE(core.tick()); // Read, two bubbles, the next read.
    EXPECT_EQ(core.stats().memReads, 2);
    // No read returns, so the window fills behind the first one.
    for (int i = 0; i < 1000 && core.tick(); ++i) {
    }
    EXPECT_EQ(core.windowOccupancy(), 128u);
    EXPECT_FALSE(core.tick());
    core.complete(pending.front());
    EXPECT_TRUE(core.tick()); // The oldest read retires.
}

TEST(Core, OutOfOrderCompletionRetiresInOrder)
{
    // The memory system takes two reads, then refuses; the younger
    // read's data returns first.
    ScriptedTrace trace(TraceEntry{0, 64, false});
    std::vector<std::uint32_t> pending;
    Core core(trace, [&](std::uint64_t, bool, std::uint32_t slot) {
        if (pending.size() == 2)
            return false;
        pending.push_back(slot);
        return true;
    });
    core.tick();
    ASSERT_EQ(core.stats().memReads, 2);

    core.complete(pending[1]);
    core.tick();
    EXPECT_EQ(core.stats().retired, 0); // The older read still blocks.
    core.complete(pending[0]);
    core.tick();
    EXPECT_EQ(core.stats().retired, 2);
    EXPECT_EQ(core.windowOccupancy(), 0u);
}

TEST(Core, IdleCyclesMatchBlockedTicks)
{
    // Two identical cores behind a memory system that rejects every
    // write: once blocked, n false ticks and idleCycles(n) must leave
    // the same state.
    const auto reject = [](std::uint64_t, bool, std::uint32_t) {
        return false;
    };
    ScriptedTrace trace_ticked(TraceEntry{3, 64, true});
    ScriptedTrace trace_idled(TraceEntry{3, 64, true});
    Core ticked(trace_ticked, reject);
    Core idled(trace_idled, reject);
    for (Core *core : {&ticked, &idled}) {
        for (int i = 0; i < 100 && core->tick(); ++i) {
        }
    }
    for (int i = 0; i < 37; ++i)
        EXPECT_FALSE(ticked.tick());
    idled.idleCycles(37);

    EXPECT_EQ(ticked.stats().cycles, idled.stats().cycles);
    EXPECT_EQ(ticked.stats().retired, idled.stats().retired);
    EXPECT_EQ(ticked.stats().memReads, idled.stats().memReads);
    EXPECT_EQ(ticked.stats().memWrites, idled.stats().memWrites);
    EXPECT_EQ(ticked.windowOccupancy(), idled.windowOccupancy());
    EXPECT_EQ(ticked.stats().retired, 3);
}

TEST(Core, WritesDoNotBlockRetirement)
{
    ScriptedTrace trace(TraceEntry{3, 64, true});
    Core core(trace, [](std::uint64_t, bool write, std::uint32_t) {
        EXPECT_TRUE(write);
        return true;
    });
    for (int i = 0; i < 500; ++i)
        core.tick();
    EXPECT_GT(core.stats().ipc(), 3.0);
    EXPECT_GT(core.stats().memWrites, 0);
    EXPECT_EQ(core.stats().memReads, 0);
}

TEST(Core, DelayedCompletionBoundsIpc)
{
    // One read per instruction; each read takes 100 cycles via a manual
    // completion queue. IPC is bounded by window / latency.
    ScriptedTrace trace(TraceEntry{0, 64, false});
    std::queue<std::pair<int, std::uint32_t>> pending;
    int now = 0;
    Core core(trace, [&](std::uint64_t, bool, std::uint32_t slot) {
        pending.emplace(now + 100, slot);
        return true;
    });
    for (now = 0; now < 5000; ++now) {
        while (!pending.empty() && pending.front().first <= now) {
            core.complete(pending.front().second);
            pending.pop();
        }
        core.tick();
    }
    // Steady state: 128-entry window / 100-cycle latency ~ 1.28 IPC.
    EXPECT_NEAR(core.stats().ipc(), 1.28, 0.2);
}

TEST(Core, InvalidConfigRejected)
{
    ScriptedTrace trace(TraceEntry{1, 0, false});
    auto send = [](std::uint64_t, bool, std::uint32_t) { return true; };
    EXPECT_THROW(Core(trace, send, 0, 128), rowhammer::util::FatalError);
    EXPECT_THROW(Core(trace, send, 4, 0), rowhammer::util::FatalError);
}

} // namespace
