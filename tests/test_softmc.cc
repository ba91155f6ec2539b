/**
 * @file
 * Tests for the SoftMC-substitute command-level chip tester: timing of
 * the hammer loop, methodological guard rails, and remap
 * reverse-engineering.
 */

#include <gtest/gtest.h>

#include "fault/chipspec.hh"
#include "softmc/chip_tester.hh"
#include "util/logging.hh"

namespace
{

using namespace rowhammer;
using fault::ChipGeometry;
using fault::ChipModel;
using fault::ChipSpec;
using fault::DataPattern;

ChipGeometry
smallGeometry()
{
    ChipGeometry g;
    g.banks = 2;
    g.rows = 512;
    g.rowDataBits = 8192;
    return g;
}

ChipSpec
denseSpec(fault::TypeNode tn = fault::TypeNode::DDR4New,
          fault::Manufacturer mfr = fault::Manufacturer::A)
{
    ChipSpec s = fault::configFor(tn, mfr);
    s.weakDensityAt150k = 2e-3;
    return s;
}

TEST(ChipTester, HammerRequiresRefreshDisabled)
{
    ChipModel chip(denseSpec(), 10000, 2, smallGeometry());
    softmc::ChipTester tester(chip);
    EXPECT_TRUE(tester.refreshEnabled());
    const fault::AggressorDose doses[] = {{99, 10}, {101, 10}};
    EXPECT_THROW(tester.hammerRows(0, doses), util::FatalError);
}

TEST(ChipTester, CoreLoopTimingMatchesTrc)
{
    ChipModel chip(denseSpec(), 10000, 3, smallGeometry());
    softmc::ChipTester tester(chip);
    tester.disableRefresh();
    const fault::AggressorDose doses[] = {{99, 1000}, {101, 1000}};
    const dram::Cycle cycles = tester.hammerRows(0, doses);
    // Each hammer is two full row cycles (ACT+PRE on each aggressor).
    const double per_hammer = static_cast<double>(cycles) / 1000.0;
    EXPECT_NEAR(per_hammer, 2.0 * tester.timing().tRC,
                0.1 * tester.timing().tRC);
}

TEST(ChipTester, RunHammerTestFindsModelFlips)
{
    util::Rng rng(4);
    ChipModel chip(denseSpec(), 5000, 4, smallGeometry());
    softmc::ChipTester tester(chip);
    const auto result = tester.runHammerTest(
        0, 100, 100000, chip.spec().worstPattern, rng);
    EXPECT_FALSE(result.flips.empty());
    EXPECT_EQ(result.activations, 200000);
    EXPECT_LT(result.coreLoopMs, 32.0);
    EXPECT_GT(result.coreLoopMs, 1.0);
    EXPECT_TRUE(tester.refreshEnabled());
    for (const auto &f : result.flips) {
        EXPECT_NE(f.row, 99);
        EXPECT_NE(f.row, 101);
    }
}

TEST(ChipTester, OversizedHammerCountRejected)
{
    util::Rng rng(5);
    ChipModel chip(denseSpec(), 5000, 5, smallGeometry());
    softmc::ChipTester tester(chip);
    // 450k hammers = 900k activations ~ 41 ms on DDR4: exceeds the
    // 32 ms refresh window bound of Section 4.3.
    EXPECT_THROW(tester.runHammerTest(0, 100, 450000,
                                      chip.spec().worstPattern, rng),
                 util::FatalError);
}

TEST(ChipTester, EdgeVictimRejected)
{
    util::Rng rng(6);
    ChipModel chip(denseSpec(), 5000, 6, smallGeometry());
    softmc::ChipTester tester(chip);
    EXPECT_THROW(tester.runHammerTest(0, 0, 1000,
                                      chip.spec().worstPattern, rng),
                 util::FatalError);
}

TEST(ChipTester, ReverseEngineerDirectMapping)
{
    util::Rng rng(7);
    ChipModel chip(denseSpec(), 5000, 7, smallGeometry());
    softmc::ChipTester tester(chip);
    EXPECT_EQ(tester.reverseEngineerAggressorStep(0, 64, rng), 1);
}

TEST(ChipTester, ReverseEngineerPairedWordline)
{
    util::Rng rng(8);
    ChipSpec spec = denseSpec(fault::TypeNode::LPDDR4_1x,
                              fault::Manufacturer::B);
    ASSERT_EQ(spec.rowRemap, fault::RowRemap::PairedWordline);
    ChipModel chip(spec, 5000, 8, smallGeometry());
    softmc::ChipTester tester(chip);
    EXPECT_EQ(tester.reverseEngineerAggressorStep(0, 64, rng), 2);
}

TEST(ChipTester, DeviceCommandsAccounted)
{
    util::Rng rng(9);
    ChipModel chip(denseSpec(), 5000, 9, smallGeometry());
    softmc::ChipTester tester(chip);
    int acts = 0;
    int pres = 0;
    tester.device().setObserver(
        [&](dram::Command cmd, const dram::Address &, dram::Cycle) {
            if (cmd == dram::Command::ACT)
                ++acts;
            else if (cmd == dram::Command::PRE)
                ++pres;
        });
    tester.disableRefresh();
    const fault::AggressorDose doses[] = {{99, 100}, {101, 100}};
    tester.hammerRows(0, doses);
    EXPECT_EQ(acts, 200);
    EXPECT_EQ(pres, 200);
}

} // namespace
