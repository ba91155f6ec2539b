/**
 * @file
 * Unit tests for rowhammer::util: RNG streams and distributions,
 * statistics accumulators, histograms, bit vectors, tables, logging.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "util/bitvec.hh"
#include "util/env.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/taskpool.hh"

namespace
{

using namespace rowhammer::util;

TEST(Rng, DeterministicStream)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += a() == b() ? 1 : 0;
    EXPECT_LT(equal, 4);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformIntBoundsInclusive)
{
    Rng rng(9);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.uniformInt(3, 10);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 10u);
        saw_lo = saw_lo || v == 3;
        saw_hi = saw_hi || v == 10;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSingleValue)
{
    Rng rng(11);
    EXPECT_EQ(rng.uniformInt(5, 5), 5u);
}

TEST(Rng, BernoulliEdgeCases)
{
    Rng rng(13);
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    int heads = 0;
    for (int i = 0; i < 10000; ++i)
        heads += rng.bernoulli(0.25);
    EXPECT_NEAR(heads / 10000.0, 0.25, 0.02);
}

TEST(Rng, NormalMoments)
{
    Rng rng(17);
    RunningStat stat;
    for (int i = 0; i < 20000; ++i)
        stat.add(rng.normal(5.0, 2.0));
    EXPECT_NEAR(stat.mean(), 5.0, 0.1);
    EXPECT_NEAR(stat.stddev(), 2.0, 0.1);
}

TEST(Rng, PoissonMeanSmallAndLarge)
{
    Rng rng(29);
    RunningStat small;
    RunningStat large;
    for (int i = 0; i < 20000; ++i) {
        small.add(static_cast<double>(rng.poisson(2.5)));
        large.add(static_cast<double>(rng.poisson(80.0)));
    }
    EXPECT_NEAR(small.mean(), 2.5, 0.1);
    EXPECT_NEAR(large.mean(), 80.0, 1.0);
    EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, SplitStreamsIndependent)
{
    Rng parent(31);
    Rng child1 = parent.split(1);
    Rng child2 = parent.split(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += child1() == child2() ? 1 : 0;
    EXPECT_LT(equal, 4);
}

TEST(Rng, InvalidArgumentsPanic)
{
    Rng rng(37);
    EXPECT_THROW(rng.uniformInt(10, 3), PanicError);
    EXPECT_THROW(rng.poisson(-1.0), PanicError);
}

TEST(RunningStat, BasicMoments)
{
    RunningStat stat;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        stat.add(x);
    EXPECT_EQ(stat.count(), 8u);
    EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
    EXPECT_NEAR(stat.stddev(), 2.138, 0.001);
    EXPECT_DOUBLE_EQ(stat.min(), 2.0);
    EXPECT_DOUBLE_EQ(stat.max(), 9.0);
    EXPECT_DOUBLE_EQ(stat.sum(), 40.0);
}

TEST(RunningStat, MergeMatchesCombined)
{
    Rng rng(41);
    RunningStat all;
    RunningStat part1;
    RunningStat part2;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.normal(3.0, 1.5);
        all.add(x);
        (i % 2 ? part1 : part2).add(x);
    }
    part1.merge(part2);
    EXPECT_EQ(part1.count(), all.count());
    EXPECT_NEAR(part1.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(part1.variance(), all.variance(), 1e-9);
}

TEST(RunningStat, EmptyIsZero)
{
    RunningStat stat;
    EXPECT_EQ(stat.count(), 0u);
    EXPECT_EQ(stat.mean(), 0.0);
    EXPECT_EQ(stat.variance(), 0.0);
}

TEST(Boxplot, QuartilesAndWhiskers)
{
    std::vector<double> data;
    for (int i = 1; i <= 100; ++i)
        data.push_back(static_cast<double>(i));
    data.push_back(1000.0); // Outlier.
    const BoxplotSummary s = summarize(data);
    EXPECT_EQ(s.count, 101u);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 1000.0);
    EXPECT_NEAR(s.median, 51.0, 1.0);
    EXPECT_EQ(s.outliers.size(), 1u);
    EXPECT_DOUBLE_EQ(s.outliers[0], 1000.0);
    EXPECT_LE(s.whiskerHigh, s.q3 + 1.5 * s.iqr());
}

TEST(Boxplot, EmptySample)
{
    const BoxplotSummary s = summarize({});
    EXPECT_EQ(s.count, 0u);
}

TEST(Quantile, Interpolation)
{
    const std::vector<double> sorted{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(quantileSorted(sorted, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantileSorted(sorted, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(quantileSorted(sorted, 0.5), 2.5);
    EXPECT_THROW(quantileSorted({}, 0.5), PanicError);
}

TEST(Histogram, BinningAndOverflow)
{
    Histogram h(0.0, 10.0, 5);
    h.add(-1.0); // Underflow -> bin 0.
    h.add(0.0);
    h.add(3.9);
    h.add(9.99);
    h.add(12.0); // Overflow -> last bin.
    EXPECT_EQ(h.total(), 5u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(1), 1u);
    EXPECT_EQ(h.binCount(4), 2u);
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.4);
    EXPECT_DOUBLE_EQ(h.binLow(1), 2.0);
    EXPECT_DOUBLE_EQ(h.binHigh(1), 4.0);
}

TEST(Histogram, InvalidConstruction)
{
    EXPECT_THROW(Histogram(1.0, 1.0, 4), PanicError);
    EXPECT_THROW(Histogram(0.0, 1.0, 0), PanicError);
}

TEST(BitVec, SetGetFlip)
{
    BitVec v(130);
    EXPECT_EQ(v.size(), 130u);
    EXPECT_FALSE(v.get(129));
    v.set(129, true);
    EXPECT_TRUE(v.get(129));
    v.flip(129);
    EXPECT_FALSE(v.get(129));
    EXPECT_THROW(v.get(130), PanicError);
}

TEST(BitVec, FillByte)
{
    BitVec v(16, 0x55);
    EXPECT_TRUE(v.get(0));
    EXPECT_FALSE(v.get(1));
    EXPECT_TRUE(v.get(14));
    EXPECT_FALSE(v.get(15));
    EXPECT_EQ(v.popcount(), 8u);
}

TEST(BitVec, FillByteTailClamped)
{
    // Non-multiple-of-64 sizes must not count phantom bits.
    BitVec v(70, 0xFF);
    EXPECT_EQ(v.popcount(), 70u);
}

TEST(BitVec, XorAndSetBits)
{
    BitVec a(100, 0x0F);
    BitVec b(100, 0xFF);
    const BitVec d = a ^ b;
    // 0x0F ^ 0xFF = 0xF0: high nibbles set.
    for (std::size_t bit : d.setBits())
        EXPECT_GE(bit % 8, 4u);
    EXPECT_THROW(a ^ BitVec(99), PanicError);
}

TEST(Table, RenderAndMismatch)
{
    TextTable t;
    t.setHeader({"a", "b"});
    t.addRow({"1", "2"});
    EXPECT_EQ(t.rows(), 1u);
    std::ostringstream oss;
    t.render(oss);
    EXPECT_NE(oss.str().find("a"), std::string::npos);
    EXPECT_THROW(t.addRow({"only-one"}), PanicError);
}

TEST(Table, Formatting)
{
    EXPECT_EQ(fmt(1.23456, 2), "1.23");
    EXPECT_EQ(fmtKilo(4800), "4.8k");
    EXPECT_EQ(fmtKilo(157000), "157k");
    // HCfirst sweep values below 1k print exactly; a tenth-of-a-kilo
    // rounding would print 64 and 128 alike.
    EXPECT_EQ(fmtKilo(64), "64");
    EXPECT_EQ(fmtKilo(128), "128");
    EXPECT_EQ(fmtKilo(256), "256");
    EXPECT_EQ(fmtKilo(512), "512");
    EXPECT_EQ(fmtKilo(1024), "1.0k");
    EXPECT_EQ(fmtPercent(0.923), "92.3%");
}

TEST(Logging, FatalAndPanicThrow)
{
    EXPECT_THROW(fatal("user error"), FatalError);
    EXPECT_THROW(panic("bug"), PanicError);
}

TEST(BitVec, GetWordAcrossBoundaries)
{
    Rng rng(41);
    BitVec v(200);
    for (std::size_t i = 0; i < v.size(); ++i)
        v.set(i, rng.bernoulli(0.5));
    for (std::size_t off : {0u, 1u, 13u, 63u, 64u, 65u, 130u}) {
        for (std::size_t count : {1u, 7u, 33u, 64u}) {
            if (off + count > v.size())
                continue;
            const std::uint64_t word = v.getWord(off, count);
            for (std::size_t b = 0; b < count; ++b)
                EXPECT_EQ((word >> b) & 1, v.get(off + b) ? 1u : 0u);
            if (count < 64) {
                EXPECT_EQ(word >> count, 0u);
            }
        }
    }
    EXPECT_THROW(v.getWord(200, 1), PanicError);
}

TEST(BitVec, SetRangeMatchesBitwiseCopy)
{
    Rng rng(42);
    for (int trial = 0; trial < 50; ++trial) {
        BitVec src(150);
        for (std::size_t i = 0; i < src.size(); ++i)
            src.set(i, rng.bernoulli(0.5));
        BitVec dst(170);
        for (std::size_t i = 0; i < dst.size(); ++i)
            dst.set(i, rng.bernoulli(0.5));
        BitVec expected = dst;

        const auto len = rng.uniformInt(0, 100);
        const auto src_off = rng.uniformInt(0, 150 - len);
        const auto dst_off = rng.uniformInt(0, 170 - len);
        for (std::uint64_t b = 0; b < len; ++b)
            expected.set(dst_off + b, src.get(src_off + b));

        dst.setRange(dst_off, src, src_off, len);
        EXPECT_TRUE(dst == expected);
    }
    BitVec small(8);
    EXPECT_THROW(small.setRange(0, BitVec(64), 0, 9), PanicError);
}

TEST(TaskPool, MapDeliversInInputOrder)
{
    TaskPool pool(4);
    const auto results =
        pool.map(100, [](std::size_t i) { return i * i; });
    ASSERT_EQ(results.size(), 100u);
    for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(results[i], i * i);
}

TEST(TaskPool, ForEachRunsEveryIndexOnce)
{
    TaskPool pool(3);
    std::vector<std::atomic<int>> hits(257);
    pool.forEach(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(TaskPool, SurvivesThrowingBatch)
{
    TaskPool pool(2);
    EXPECT_THROW(pool.forEach(8,
                              [](std::size_t i) {
                                  if (i == 3)
                                      throw std::runtime_error("boom");
                              }),
                 std::runtime_error);
    const auto ok = pool.map(4, [](std::size_t i) { return i; });
    EXPECT_EQ(ok.size(), 4u);
}

TEST(TaskPool, ReusableAcrossBatchesAndEmptyBatch)
{
    TaskPool pool(2);
    pool.forEach(0, [](std::size_t) { FAIL(); });
    for (int round = 0; round < 3; ++round) {
        const auto results = pool.map(
            17, [&](std::size_t i) { return i + static_cast<std::size_t>(round); });
        ASSERT_EQ(results.size(), 17u);
    }
}

TEST(TaskPoolWatchdog, FastBatchUnaffectedByDeadline)
{
    TaskPool pool(2);
    pool.setBatchDeadline(std::chrono::milliseconds(60000));
    const auto results = pool.map(32, [](std::size_t i) { return i; });
    ASSERT_EQ(results.size(), 32u);
    EXPECT_FALSE(pool.batchCancelled());
}

TEST(TaskPoolWatchdog, HungBatchAbortsWithShardIndices)
{
    TaskPool pool(2);
    pool.setBatchDeadline(std::chrono::milliseconds(100));
    try {
        pool.forEach(64, [&](std::size_t) {
            // A cooperative long-running shard: sleeps until the
            // watchdog fires, then bails out via batchCancelled().
            for (int tick = 0; tick < 400; ++tick) {
                if (pool.batchCancelled())
                    return;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
            }
        });
        FAIL() << "watchdog did not abort the batch";
    } catch (const FatalError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("deadline"), std::string::npos);
        EXPECT_NE(what.find("in-flight shards"), std::string::npos);
    }

    // The pool survives for the next batch, and the cancel flag
    // resets: exactly the existing throwing-batch contract.
    const auto ok = pool.map(8, [](std::size_t i) { return i * 2; });
    ASSERT_EQ(ok.size(), 8u);
    EXPECT_FALSE(pool.batchCancelled());
}

TEST(TaskPoolWatchdog, ZeroDeadlineDisables)
{
    TaskPool pool(1);
    pool.setBatchDeadline(std::chrono::milliseconds(50));
    pool.setBatchDeadline(std::chrono::milliseconds(0));
    pool.forEach(2, [](std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(60));
    });
    EXPECT_FALSE(pool.batchCancelled());
}

TEST(TaskPoolCancel, RequestCancelAbortsBeforeTheBatchStarts)
{
    TaskPool pool(2);
    pool.requestCancel();
    EXPECT_TRUE(pool.cancelRequested());
    EXPECT_THROW(pool.forEach(8, [](std::size_t) { FAIL(); }),
                 BatchCancelled);
    // Sticky until re-armed.
    EXPECT_THROW(pool.forEach(1, [](std::size_t) { FAIL(); }),
                 BatchCancelled);
    pool.resetCancel();
    const auto ok = pool.map(4, [](std::size_t i) { return i; });
    EXPECT_EQ(ok.size(), 4u);
}

TEST(TaskPoolCancel, MidRunCancelStopsClaimingAndThrows)
{
    TaskPool pool(2);
    std::atomic<int> completed{0};
    std::atomic<bool> cancelled{false};
    try {
        pool.forEach(1000, [&](std::size_t i) {
            if (i == 0) {
                // One shard cancels from inside the batch, standing in
                // for a drain thread reacting to SIGTERM.
                pool.requestCancel();
                cancelled.store(true);
            }
            ++completed;
        });
        FAIL() << "cancelled batch returned normally";
    } catch (const BatchCancelled &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("cancel"), std::string::npos);
    }
    EXPECT_TRUE(cancelled.load());
    // Claimed shards ran to completion (their checkpoints are valid);
    // the rest were never started.
    EXPECT_GE(completed.load(), 1);
    EXPECT_LT(completed.load(), 1000);
    pool.resetCancel();
}

TEST(TaskPoolCancel, CancelWithQueuedShardsThenDestructionIsClean)
{
    // The drain-ordering regression this guards: requestCancel() with
    // most of a large batch still queued, forEach() unwinds via
    // BatchCancelled, and the pool destructor must join every worker
    // without deadlocking or leaking (TSan/ASan runs of this test are
    // the real assertion).
    for (int round = 0; round < 8; ++round) {
        TaskPool pool(4);
        try {
            pool.forEach(10000, [&](std::size_t) {
                pool.requestCancel();
                std::this_thread::sleep_for(
                    std::chrono::microseconds(100));
            });
            FAIL() << "cancelled batch returned normally";
        } catch (const BatchCancelled &) {
        }
        // Destructor runs here with cancel still in effect.
    }
}

TEST(TaskPoolCancel, DeadlineAndCancelAreDistinctTypes)
{
    // The service layer maps BatchDeadlineExceeded to DeadlineExceeded
    // and BatchCancelled to ShuttingDown; both stay FatalError for
    // legacy catch sites.
    TaskPool pool(2);
    pool.setBatchDeadline(std::chrono::milliseconds(50));
    try {
        pool.forEach(4, [&](std::size_t) {
            while (!pool.batchCancelled()) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(5));
            }
        });
        FAIL() << "watchdog did not fire";
    } catch (const BatchCancelled &) {
        FAIL() << "deadline must not surface as BatchCancelled";
    } catch (const BatchDeadlineExceeded &err) {
        EXPECT_NE(std::string(err.what()).find("deadline"),
                  std::string::npos);
    }
    pool.setBatchDeadline(std::chrono::milliseconds(0));

    pool.requestCancel();
    EXPECT_THROW(pool.forEach(1, [](std::size_t) {}), BatchCancelled);
    pool.resetCancel();
}

TEST(ParseLong, AcceptsStrictIntegers)
{
    EXPECT_EQ(parseLong("42", "knob"), 42);
    EXPECT_EQ(parseLong("-7", "knob"), -7);
    EXPECT_EQ(parseLong("  13  ", "knob"), 13);
    EXPECT_EQ(parseLong("0", "knob"), 0);
}

TEST(ParseLong, RejectsGarbageLoudly)
{
    // The predecessor (std::atol) silently parsed all of these as 0.
    EXPECT_THROW((void)parseLong("four", "RH_THREADS"), FatalError);
    EXPECT_THROW((void)parseLong("", "RH_THREADS"), FatalError);
    EXPECT_THROW((void)parseLong("12abc", "RH_THREADS"), FatalError);
    EXPECT_THROW((void)parseLong("1.5", "RH_THREADS"), FatalError);
    EXPECT_THROW((void)parseLong("999999999999999999999999",
                                 "RH_THREADS"),
                 FatalError);
    try {
        (void)parseLong("four", "RH_THREADS"); // Must throw.
        FAIL();
    } catch (const FatalError &err) {
        // The message names the knob so the typo is findable.
        EXPECT_NE(std::string(err.what()).find("RH_THREADS"),
                  std::string::npos);
        EXPECT_NE(std::string(err.what()).find("four"),
                  std::string::npos);
    }
}

TEST(EnvLong, FallbackStrictParseAndFatal)
{
    unsetenv("RH_TEST_KNOB");
    EXPECT_EQ(envLong("RH_TEST_KNOB", 5), 5);
    setenv("RH_TEST_KNOB", "", 1); // Empty = conventional unset.
    EXPECT_EQ(envLong("RH_TEST_KNOB", 5), 5);
    setenv("RH_TEST_KNOB", "9", 1);
    EXPECT_EQ(envLong("RH_TEST_KNOB", 5), 9);
    setenv("RH_TEST_KNOB", "nine", 1);
    EXPECT_THROW((void)envLong("RH_TEST_KNOB", 5), FatalError);
    unsetenv("RH_TEST_KNOB");
}

} // namespace
