/**
 * @file
 * Tests of the parallel population runner: thread-count invariance
 * (1 thread == N threads, bit-for-bit), input-order result delivery,
 * chip-keyed stream stability under population subsetting, error
 * propagation, and the probe-order independence of findHcFirst the
 * runner relies on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

#include "charlib/runner.hh"
#include "fault/chipspec.hh"
#include "fault/population.hh"
#include "util/logging.hh"

namespace
{

using namespace rowhammer;
using namespace rowhammer::charlib;

fault::ChipGeometry
smallGeometry()
{
    fault::ChipGeometry g;
    g.banks = 2;
    g.rows = 1024;
    g.rowDataBits = 16384;
    return g;
}

RunnerOptions
withThreads(int threads, std::uint64_t seed = 2020)
{
    RunnerOptions options;
    options.threads = threads;
    options.seed = seed;
    return options;
}

TEST(PopulationStreamSeed, DistinctAndDeterministic)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t salt = 0; salt < 1000; ++salt)
        seen.insert(populationStreamSeed(42, salt));
    EXPECT_EQ(seen.size(), 1000u);
    EXPECT_EQ(populationStreamSeed(42, 7), populationStreamSeed(42, 7));
    EXPECT_NE(populationStreamSeed(42, 7), populationStreamSeed(43, 7));
}

TEST(PopulationRunner, MapDeliversInInputOrder)
{
    PopulationRunner runner(withThreads(4));
    const auto results = runner.map(
        100, [](std::size_t i, util::Rng &) { return i * i; });
    ASSERT_EQ(results.size(), 100u);
    for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(results[i], i * i);
}

TEST(PopulationRunner, SerialAndParallelBitIdentical)
{
    const auto chips = fault::sampleConfigChips(
        fault::TypeNode::DDR4New, fault::Manufacturer::A, 2020, 6);
    ASSERT_GE(chips.size(), 6u);

    HcFirstOptions options;
    options.sampleRows = 6;

    PopulationRunner serial(withThreads(1));
    PopulationRunner parallel(withThreads(8));
    const auto a = serial.measureHcFirst(chips, options, smallGeometry());
    const auto b =
        parallel.measureHcFirst(chips, options, smallGeometry());

    ASSERT_EQ(a.size(), chips.size());
    EXPECT_EQ(a, b);
    EXPECT_TRUE(std::any_of(a.begin(), a.end(),
                            [](const auto &hc) { return hc.has_value(); }));
}

TEST(PopulationRunner, ChipSaltsSurviveSubsetting)
{
    const auto chips = fault::sampleConfigChips(
        fault::TypeNode::DDR4New, fault::Manufacturer::A, 2020, 6);
    ASSERT_GE(chips.size(), 4u);

    HcFirstOptions options;
    options.sampleRows = 6;

    PopulationRunner runner(withThreads(4));
    const auto full =
        runner.measureHcFirst(chips, options, smallGeometry());

    // Re-measure a reversed subset: per-chip results must be unchanged
    // because streams are salted by chip identity, not position.
    std::vector<fault::ChipInstance> subset{chips[3], chips[1]};
    const auto partial =
        runner.measureHcFirst(subset, options, smallGeometry());
    ASSERT_EQ(partial.size(), 2u);
    EXPECT_EQ(partial[0], full[3]);
    EXPECT_EQ(partial[1], full[1]);
}

TEST(PopulationRunner, ReusableAcrossBatches)
{
    PopulationRunner runner(withThreads(3));
    for (int round = 0; round < 3; ++round) {
        const auto results = runner.map(
            17, [&](std::size_t i, util::Rng &rng) {
                return rng() + i + static_cast<std::uint64_t>(round);
            });
        ASSERT_EQ(results.size(), 17u);
    }
}

TEST(PopulationRunner, PropagatesJobErrors)
{
    PopulationRunner runner(withThreads(2));
    EXPECT_THROW(runner.map(8,
                            [](std::size_t i, util::Rng &) -> int {
                                if (i == 5)
                                    throw std::runtime_error("boom");
                                return 0;
                            }),
                 std::runtime_error);
    // The pool must survive a failed batch.
    const auto ok =
        runner.map(4, [](std::size_t i, util::Rng &) { return i; });
    EXPECT_EQ(ok.size(), 4u);
}

TEST(HcFirst, ResultIndependentOfPriorChipState)
{
    // findHcFirst derives every probe's stream from (entry rng, row), so
    // unrelated hammering beforehand must not change the measurement.
    const fault::ChipSpec spec =
        fault::configFor(fault::TypeNode::DDR4New, fault::Manufacturer::A);
    fault::ChipModel fresh(spec, 12000, 77, smallGeometry());
    fault::ChipModel perturbed(spec, 12000, 77, smallGeometry());

    util::Rng scratch(99);
    perturbed.hammerDoubleSided(0, 500, 150000,
                                fault::DataPattern::Checkered0, scratch);
    perturbed.hammerDoubleSided(1, 200, 80000,
                                fault::DataPattern::Solid1, scratch);

    HcFirstOptions options;
    options.sampleRows = 8;
    util::Rng rng_a(5);
    util::Rng rng_b(5);
    EXPECT_EQ(findHcFirst(fresh, options, rng_a),
              findHcFirst(perturbed, options, rng_b));
}

} // namespace
