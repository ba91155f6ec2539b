/**
 * @file
 * Tests for the characterization library: HCfirst search and the
 * Section 5 analyses (pattern coverage, rate sweeps, spatial, word
 * density, monotonicity).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/logging.hh"

#include "charlib/analyses.hh"
#include "charlib/hcfirst.hh"
#include "fault/chipspec.hh"

namespace
{

using namespace rowhammer;
using namespace rowhammer::charlib;
using fault::ChipGeometry;
using fault::ChipModel;
using fault::ChipSpec;

ChipGeometry
smallGeometry()
{
    ChipGeometry g;
    g.banks = 2;
    g.rows = 1024;
    g.rowDataBits = 16384;
    return g;
}

ChipSpec
denseSpec()
{
    ChipSpec s =
        fault::configFor(fault::TypeNode::DDR4New, fault::Manufacturer::A);
    s.weakDensityAt150k = 5e-4;
    return s;
}

TEST(HcFirst, SampleRowsIncludeWeakest)
{
    ChipModel chip(denseSpec(), 10000, 1, smallGeometry());
    const auto rows = sampleVictimRows(chip, 16);
    EXPECT_TRUE(std::count(rows.begin(), rows.end(), chip.weakestRow()));
    EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
    for (int row : rows) {
        EXPECT_GE(row, 8);
        EXPECT_LT(row, chip.geometry().rows - 8);
    }
}

TEST(HcFirst, NegativeVictimRowCountRejected)
{
    // A negative count used to reach vector::reserve and die with a
    // message that named nothing.
    ChipModel chip(denseSpec(), 10000, 1, smallGeometry());
    try {
        (void)sampleVictimRows(chip, -5);
        FAIL() << "negative victim-row count accepted";
    } catch (const util::FatalError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("victim-row count -5"), std::string::npos)
            << what;
    }
    EXPECT_EQ(sampleVictimRows(chip, 0),
              std::vector<int>{chip.weakestRow()});
}

class HcFirstAccuracy : public ::testing::TestWithParam<double>
{
};

TEST_P(HcFirstAccuracy, MeasuresTrueThreshold)
{
    const double truth = GetParam();
    util::Rng rng(2);
    ChipModel chip(denseSpec(), truth, 17, smallGeometry());
    HcFirstOptions options;
    options.sampleRows = 16;
    const auto hc = findHcFirst(chip, options, rng);
    ASSERT_TRUE(hc.has_value());
    EXPECT_NEAR(static_cast<double>(*hc), truth, 0.08 * truth);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, HcFirstAccuracy,
                         ::testing::Values(5000.0, 20000.0, 60000.0,
                                           120000.0));

TEST(HcFirst, NotRowHammerableChipReturnsNothing)
{
    util::Rng rng(3);
    ChipModel chip(denseSpec(), 200000, 18, smallGeometry());
    HcFirstOptions options;
    options.sampleRows = 8;
    EXPECT_FALSE(findHcFirst(chip, options, rng).has_value());
}

TEST(HcFirst, OnDieEccChipMeasured)
{
    util::Rng rng(4);
    ChipSpec spec =
        fault::configFor(fault::TypeNode::LPDDR4_1y,
                         fault::Manufacturer::A);
    spec.weakDensityAt150k = 5e-4;
    ChipModel chip(spec, 4800, 19, smallGeometry());
    HcFirstOptions options;
    options.sampleRows = 8;
    const auto hc = findHcFirst(chip, options, rng);
    ASSERT_TRUE(hc.has_value());
    EXPECT_NEAR(static_cast<double>(*hc), 4800.0, 600.0);
}

TEST(HcFirst, SecondFlipNeedsMoreHammers)
{
    util::Rng rng(5);
    ChipModel chip(denseSpec(), 15000, 20, smallGeometry());
    HcFirstOptions first;
    first.sampleRows = 16;
    HcFirstOptions second = first;
    second.flipsPerWord = 2;
    const auto hc1 = findHcFirst(chip, first, rng);
    const auto hc2 = findHcFirst(chip, second, rng);
    ASSERT_TRUE(hc1.has_value());
    if (hc2) {
        // HCsecond >= HCfirst by definition.
        EXPECT_GE(*hc2, *hc1);
    }
}

TEST(HcFirst, InvalidOptionsRejected)
{
    util::Rng rng(6);
    ChipModel chip(denseSpec(), 10000, 21, smallGeometry());
    HcFirstOptions options;
    options.hcMin = 0;
    EXPECT_THROW(findHcFirst(chip, options, rng), util::FatalError);
}

TEST(Analyses, RateSweepIsMonotoneAndLogLogLinearish)
{
    util::Rng rng(7);
    ChipModel chip(denseSpec(), 8000, 22, smallGeometry());
    const std::vector<std::int64_t> hcs{20000, 40000, 80000, 150000};
    const auto curve = sweepHammerCount(chip, hcs, 48, rng);
    ASSERT_EQ(curve.size(), hcs.size());
    for (std::size_t i = 1; i < curve.size(); ++i)
        EXPECT_GE(curve[i].flipRate, curve[i - 1].flipRate);
    EXPECT_GT(curve.back().flipRate, 0.0);

    // Log-log linearity (Observation 4): the slope between consecutive
    // decades should be roughly stable. Only check when all points have
    // flips.
    if (curve[1].flipRate > 0.0 && curve[2].flipRate > 0.0) {
        const double s1 = std::log(curve[2].flipRate /
                                   curve[1].flipRate) /
            std::log(2.0);
        const double s2 = std::log(curve[3].flipRate /
                                   curve[2].flipRate) /
            std::log(150.0 / 80.0);
        EXPECT_NEAR(s1, s2, 2.5);
    }
}

TEST(Analyses, HammerCountForRateHitsTarget)
{
    util::Rng rng(8);
    ChipModel chip(denseSpec(), 8000, 23, smallGeometry());
    const auto hc = hammerCountForRate(chip, 1e-5, 48, 150000, rng);
    ASSERT_TRUE(hc.has_value());
    const auto curve = sweepHammerCount(chip, {*hc}, 48, rng);
    EXPECT_NEAR(std::log10(curve[0].flipRate), -5.0, 0.7);
}

TEST(Analyses, HammerCountForRateUnreachable)
{
    util::Rng rng(9);
    ChipModel chip(denseSpec(), 200000, 24, smallGeometry());
    EXPECT_FALSE(hammerCountForRate(chip, 1e-5, 16, 150000, rng)
                     .has_value());
}

TEST(Analyses, SpatialDistributionShape)
{
    util::Rng rng(10);
    ChipModel chip(denseSpec(), 8000, 25, smallGeometry());
    const auto dist = spatialDistribution(chip, 60000, 200, rng);
    ASSERT_GT(dist.totalFlips, 0u);
    // Victim row dominates; aggressor rows have exactly zero.
    EXPECT_GT(dist.at(0), 0.5);
    EXPECT_EQ(dist.at(1), 0.0);
    EXPECT_EQ(dist.at(-1), 0.0);
    // DDR4 blast radius is one wordline: nothing beyond +/-2.
    EXPECT_EQ(dist.at(4), 0.0);
    EXPECT_EQ(dist.at(-4), 0.0);
    // Fractions sum to one.
    double sum = 0.0;
    for (int off = -6; off <= 6; ++off)
        sum += dist.at(off);
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Analyses, WordDensityFractionsSumToOne)
{
    util::Rng rng(11);
    ChipModel chip(denseSpec(), 8000, 26, smallGeometry());
    const auto density = wordDensity(chip, 120000, 128, rng);
    ASSERT_GT(density.wordsWithFlips, 0u);
    double sum = 0.0;
    for (double f : density.fraction)
        sum += f;
    EXPECT_NEAR(sum, 1.0, 1e-9);
    // Non-ECC DDR4: single-flip words dominate (Figure 7).
    EXPECT_GT(density.fraction[0], 0.8);
}

TEST(Analyses, DataPatternStudyCoversUnion)
{
    util::Rng rng(12);
    ChipModel chip(denseSpec(), 8000, 27, smallGeometry());
    const auto study = runDataPatternStudy(chip, 150000, 2, 24, rng);
    ASSERT_GT(study.unionSize, 0u);
    ASSERT_TRUE(study.worstPattern.has_value());
    // The chip's configured worst pattern should win (Observation 3).
    EXPECT_EQ(*study.worstPattern, chip.spec().worstPattern);
    for (const auto &cov : study.perPattern) {
        EXPECT_LE(cov.coverage, 1.0);
        EXPECT_GE(cov.coverage, 0.0);
    }
    // No single pattern covers everything (Observation 2).
    double best = 0.0;
    for (const auto &cov : study.perPattern)
        best = std::max(best, cov.coverage);
    EXPECT_LT(best, 1.0);
}

TEST(Analyses, MonotonicityHighForNonEccChips)
{
    util::Rng rng(13);
    ChipModel chip(denseSpec(), 8000, 28, smallGeometry());
    const auto result =
        monotonicityStudy(chip, 25000, 150000, 25000, 10, 24, rng);
    ASSERT_GT(result.cellsObserved, 0u);
    EXPECT_GT(result.fractionMonotonic, 0.9);
}

TEST(Analyses, MonotonicityDegradedByOnDieEcc)
{
    util::Rng rng(14);
    ChipSpec spec =
        fault::configFor(fault::TypeNode::LPDDR4_1y,
                         fault::Manufacturer::A);
    spec.weakDensityAt150k = 5e-4;
    ChipModel chip(spec, 4800, 29, smallGeometry());
    const auto result =
        monotonicityStudy(chip, 25000, 150000, 5000, 20, 24, rng);
    ASSERT_GT(result.cellsObserved, 0u);
    // Observation 14: only about half the cells remain monotonic.
    EXPECT_LT(result.fractionMonotonic, 0.8);
    EXPECT_GT(result.fractionMonotonic, 0.25);
}

TEST(Analyses, MonotonicityRejectsNonPositiveStep)
{
    // A zero step never left [hc_min, hc_max] (unbounded allocation),
    // and a negative one overflowed the signed hammer count.
    util::Rng rng(15);
    ChipModel chip(denseSpec(), 8000, 28, smallGeometry());
    EXPECT_THROW(monotonicityStudy(chip, 25000, 150000, 0, 1, 4, rng),
                 util::FatalError);
    EXPECT_THROW(monotonicityStudy(chip, 25000, 150000, -5, 1, 4, rng),
                 util::FatalError);
}

} // namespace
