/**
 * @file
 * Unit tests for the RowHammer fault model: chip specs, data patterns,
 * the per-chip cell model, and the Tables 7/8 population catalogue.
 */

#include <gtest/gtest.h>

#include "util/logging.hh"

#include <set>
#include <string>

#include "fault/chip_model.hh"
#include "fault/chipspec.hh"
#include "fault/datapattern.hh"
#include "fault/population.hh"
#include "util/rng.hh"

namespace
{

using namespace rowhammer::fault;
using rowhammer::util::Rng;

ChipGeometry
smallGeometry()
{
    ChipGeometry g;
    g.banks = 2;
    g.rows = 512;
    g.rowDataBits = 8192;
    return g;
}

/** A dense, very vulnerable spec for deterministic unit tests. */
ChipSpec
denseSpec()
{
    ChipSpec s = configFor(TypeNode::DDR4New, Manufacturer::A);
    s.weakDensityAt150k = 2e-3;
    return s;
}

TEST(DataPattern, ByteTable)
{
    EXPECT_EQ(victimByte(DataPattern::Solid0), 0x00);
    EXPECT_EQ(aggressorByte(DataPattern::Solid0), 0x00);
    EXPECT_EQ(victimByte(DataPattern::RowStripe0), 0x00);
    EXPECT_EQ(aggressorByte(DataPattern::RowStripe0), 0xFF);
    EXPECT_EQ(victimByte(DataPattern::Checkered1), 0xAA);
    EXPECT_EQ(aggressorByte(DataPattern::Checkered1), 0x55);
    EXPECT_EQ(victimByte(DataPattern::ColStripe0), 0x55);
    EXPECT_EQ(aggressorByte(DataPattern::ColStripe0), 0x55);
}

TEST(DataPattern, PatternBit)
{
    EXPECT_TRUE(patternBit(0x55, 0));
    EXPECT_FALSE(patternBit(0x55, 1));
    EXPECT_TRUE(patternBit(0x55, 8)); // Repeats per byte.
}

TEST(ChipSpec, Table4MinimaEncoded)
{
    EXPECT_DOUBLE_EQ(
        configFor(TypeNode::DDR4New, Manufacturer::A).minHcFirst, 10000);
    EXPECT_DOUBLE_EQ(
        configFor(TypeNode::LPDDR4_1y, Manufacturer::A).minHcFirst, 4800);
    EXPECT_DOUBLE_EQ(
        configFor(TypeNode::LPDDR4_1y, Manufacturer::C).minHcFirst, 9600);
    EXPECT_DOUBLE_EQ(
        configFor(TypeNode::DDR3New, Manufacturer::B).minHcFirst, 22400);
    EXPECT_DOUBLE_EQ(
        configFor(TypeNode::DDR3Old, Manufacturer::A).minHcFirst, 69200);
}

TEST(ChipSpec, MissingCombinations)
{
    EXPECT_FALSE(combinationExists(TypeNode::LPDDR4_1x, Manufacturer::C));
    EXPECT_FALSE(combinationExists(TypeNode::LPDDR4_1y, Manufacturer::B));
    EXPECT_TRUE(combinationExists(TypeNode::DDR4New, Manufacturer::B));
}

TEST(ChipSpec, LpddrHasOnDieEccAndWiderBlast)
{
    const ChipSpec lp1y = configFor(TypeNode::LPDDR4_1y, Manufacturer::A);
    EXPECT_TRUE(lp1y.onDieEcc);
    EXPECT_EQ(lp1y.maxCouplingDistance, 5);
    const ChipSpec ddr4 = configFor(TypeNode::DDR4New, Manufacturer::A);
    EXPECT_FALSE(ddr4.onDieEcc);
    EXPECT_EQ(ddr4.maxCouplingDistance, 1);
}

TEST(ChipSpec, PairedRemapOnlyMfrBLpddr4_1x)
{
    EXPECT_EQ(configFor(TypeNode::LPDDR4_1x, Manufacturer::B).rowRemap,
              RowRemap::PairedWordline);
    EXPECT_EQ(configFor(TypeNode::LPDDR4_1x, Manufacturer::A).rowRemap,
              RowRemap::None);
}

TEST(ChipModel, DeterministicAcrossInstances)
{
    Rng rng1(5);
    Rng rng2(5);
    ChipModel a(denseSpec(), 10000, 42, smallGeometry());
    ChipModel b(denseSpec(), 10000, 42, smallGeometry());
    const auto fa = a.hammerDoubleSided(0, 100, 150000,
                                        DataPattern::RowStripe0, rng1);
    const auto fb = b.hammerDoubleSided(0, 100, 150000,
                                        DataPattern::RowStripe0, rng2);
    EXPECT_EQ(fa, fb);
    EXPECT_FALSE(fa.empty());
}

TEST(ChipModel, NoFlipsWithoutHammering)
{
    Rng rng(6);
    ChipModel chip(denseSpec(), 10000, 43, smallGeometry());
    chip.writePattern(DataPattern::RowStripe0, 0);
    EXPECT_TRUE(chip.readRow(0, 100, rng).empty());
}

TEST(ChipModel, WeakestRowFlipsNearTrueHcFirst)
{
    Rng rng(7);
    ChipModel chip(denseSpec(), 20000, 44, smallGeometry());
    const int bank = chip.weakestBank();
    const int row = chip.weakestRow();
    // Well below threshold: silent.
    auto below = chip.hammerDoubleSided(bank, row, 15000,
                                        chip.spec().worstPattern, rng);
    EXPECT_TRUE(below.empty());
    // Well above: flips.
    auto above = chip.hammerDoubleSided(bank, row, 26000,
                                        chip.spec().worstPattern, rng);
    EXPECT_FALSE(above.empty());
}

TEST(ChipModel, AggressorRowsNeverFlip)
{
    Rng rng(8);
    ChipModel chip(denseSpec(), 5000, 45, smallGeometry());
    const auto flips = chip.hammerDoubleSided(
        0, 100, 150000, chip.spec().worstPattern, rng);
    for (const auto &f : flips) {
        EXPECT_NE(f.row, 99);
        EXPECT_NE(f.row, 101);
    }
}

TEST(ChipModel, OnlyEvenOffsetsFlip)
{
    Rng rng(9);
    ChipSpec spec = configFor(TypeNode::LPDDR4_1y, Manufacturer::A);
    spec.weakDensityAt150k = 2e-3;
    ChipModel chip(spec, 5000, 46, smallGeometry());
    const auto flips = chip.hammerDoubleSided(
        0, 100, 150000, spec.worstPattern, rng);
    ASSERT_FALSE(flips.empty());
    for (const auto &f : flips)
        EXPECT_EQ((f.row - 100) % 2, 0) << "row " << f.row;
}

TEST(ChipModel, ExposureAccounting)
{
    ChipModel chip(denseSpec(), 10000, 47, smallGeometry());
    chip.writePattern(DataPattern::RowStripe0, 0);
    chip.addActivations(0, 99, 1000);
    chip.addActivations(0, 101, 1000);
    EXPECT_DOUBLE_EQ(chip.exposure(0, 100), 1000.0);
    // Single-sided exposure is half as strong.
    EXPECT_DOUBLE_EQ(chip.exposure(0, 98), 500.0);
    // Refresh zeroes accumulated exposure.
    chip.refreshRow(0, 100);
    EXPECT_DOUBLE_EQ(chip.exposure(0, 100), 0.0);
    chip.addActivations(0, 99, 500);
    EXPECT_DOUBLE_EQ(chip.exposure(0, 100), 250.0);
}

TEST(ChipModel, PairedRemapAggressors)
{
    ChipSpec spec = configFor(TypeNode::LPDDR4_1x, Manufacturer::B);
    ChipModel chip(spec, 16800, 48, smallGeometry());
    const auto aggr = chip.aggressorRows(100);
    ASSERT_EQ(aggr.size(), 2u);
    EXPECT_EQ(aggr[0], 98);
    EXPECT_EQ(aggr[1], 102);

    ChipModel direct(denseSpec(), 16800, 48, smallGeometry());
    const auto aggr2 = direct.aggressorRows(100);
    EXPECT_EQ(aggr2[0], 99);
    EXPECT_EQ(aggr2[1], 101);
}

TEST(ChipModel, PairedRemapSharesWordlineExposure)
{
    ChipSpec spec = configFor(TypeNode::LPDDR4_1x, Manufacturer::B);
    spec.weakDensityAt150k = 2e-3;
    ChipModel chip(spec, 5000, 49, smallGeometry());
    chip.writePattern(spec.worstPattern, 0);
    chip.addActivations(0, 98, 10000); // Wordline 49.
    chip.addActivations(0, 102, 10000); // Wordline 51.
    // Both logical rows of wordline 50 (rows 100 and 101) see the same
    // double-sided exposure.
    EXPECT_DOUBLE_EQ(chip.exposure(0, 100), 10000.0);
    EXPECT_DOUBLE_EQ(chip.exposure(0, 101), 10000.0);
}

TEST(ChipModel, HigherHammerCountMoreFlips)
{
    Rng rng(10);
    ChipModel chip(denseSpec(), 5000, 50, smallGeometry());
    std::size_t prev = 0;
    for (std::int64_t hc : {20000, 60000, 150000}) {
        const auto flips = chip.hammerDoubleSided(
            0, 64, hc, chip.spec().worstPattern, rng);
        EXPECT_GE(flips.size() + 1, prev); // Allow small noise.
        prev = flips.size();
    }
    EXPECT_GT(prev, 0u);
}

TEST(ChipModel, OnDieEccChipsReportPostCorrectionFlips)
{
    Rng rng(11);
    ChipSpec spec = configFor(TypeNode::LPDDR4_1y, Manufacturer::A);
    spec.weakDensityAt150k = 1e-3;
    ChipModel chip(spec, 4800, 51, smallGeometry());
    const auto flips = chip.hammerDoubleSided(
        0, 100, 150000, spec.worstPattern, rng);
    ASSERT_FALSE(flips.empty());
    // Count flips per 64-bit word; on-die-ECC chips must show multi-flip
    // words (single raw flips are corrected away).
    std::map<long, int> per_word;
    for (const auto &f : flips)
        if (f.row == 100)
            ++per_word[f.bitIndex / 64];
    int multi = 0;
    for (const auto &[w, n] : per_word)
        multi += n >= 2 ? 1 : 0;
    EXPECT_GT(multi, 0);
}

TEST(ChipModel, InvalidConstruction)
{
    EXPECT_THROW(ChipModel(denseSpec(), 0.0, 1, smallGeometry()),
                 rowhammer::util::FatalError);
    ChipGeometry bad = smallGeometry();
    bad.rows = 4;
    EXPECT_THROW(ChipModel(denseSpec(), 1000, 1, bad),
                 rowhammer::util::FatalError);
}

TEST(Population, ModuleCountsMatchPaper)
{
    int ddr3 = 0;
    for (const auto &g : table8Ddr3Modules())
        ddr3 += g.moduleCount;
    EXPECT_EQ(ddr3, 60);

    int ddr4 = 0;
    for (const auto &g : table7Ddr4Modules())
        ddr4 += g.moduleCount;
    EXPECT_EQ(ddr4, 110);

    int lp = 0;
    for (const auto &g : lpddr4Modules())
        lp += g.moduleCount;
    EXPECT_EQ(lp, 130);

    int total = 0;
    for (const auto &g : allModules())
        total += g.moduleCount;
    EXPECT_EQ(total, 300);
}

TEST(Population, Table8MinimaMatchTable4)
{
    // The weakest module group of each config carries the Table 4 value.
    double best = 1e18;
    for (const auto &g : table8Ddr3Modules()) {
        if (g.typeNode == TypeNode::DDR3New &&
            g.manufacturer == Manufacturer::B && g.minHcFirst) {
            best = std::min(best, *g.minHcFirst);
        }
    }
    EXPECT_DOUBLE_EQ(best, 22400);
}

TEST(Population, SampleChipsPinsGroupMinimum)
{
    const auto groups = table7Ddr4Modules();
    const auto &group = groups.front(); // A0-15, min 17.5k.
    const auto chips = sampleChips(group, 77, 8);
    ASSERT_FALSE(chips.empty());
    EXPECT_DOUBLE_EQ(chips[0].hcFirst, 17500.0);
    EXPECT_TRUE(chips[0].rowHammerable);
    for (const auto &chip : chips) {
        if (chip.rowHammerable) {
            EXPECT_GE(chip.hcFirst, 17500.0);
        }
    }
}

TEST(Population, NegativeChipCountRejected)
{
    // A negative count used to reach vector::reserve and die with a
    // message that named nothing.
    const auto groups = table7Ddr4Modules();
    try {
        (void)sampleChips(groups.front(), 77, -1);
        FAIL() << "negative chips-per-group count accepted";
    } catch (const rowhammer::util::FatalError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("chips-per-group count -1"), std::string::npos)
            << what;
    }
    EXPECT_TRUE(sampleChips(groups.front(), 77, 0).empty());
}

TEST(Population, NotRowHammerableGroupsProduceNoVulnerableChips)
{
    for (const auto &g : table8Ddr3Modules()) {
        if (g.typeNode == TypeNode::DDR3Old &&
            g.manufacturer == Manufacturer::B) {
            for (const auto &chip : sampleChips(g, 5, 4))
                EXPECT_FALSE(chip.rowHammerable);
        }
    }
}

TEST(Population, ConfigFilterAndDeterminism)
{
    const auto a = sampleConfigChips(TypeNode::DDR4New,
                                     Manufacturer::A, 9, 2);
    const auto b = sampleConfigChips(TypeNode::DDR4New,
                                     Manufacturer::A, 9, 2);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_FALSE(a.empty());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].seed, b[i].seed);
        EXPECT_DOUBLE_EQ(a[i].hcFirst, b[i].hcFirst);
        EXPECT_EQ(a[i].spec.manufacturer, Manufacturer::A);
        EXPECT_EQ(a[i].spec.typeNode, TypeNode::DDR4New);
    }
}

} // namespace
