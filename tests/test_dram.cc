/**
 * @file
 * Unit tests for the DRAM device model: timing presets, organization
 * arithmetic, and the bank/rank/channel timing state machine.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "dram/address_functions.hh"
#include "dram/device.hh"
#include "dram/organization.hh"
#include "dram/timing.hh"
#include "util/logging.hh"

namespace
{

using namespace rowhammer::dram;
using rowhammer::util::FatalError;
using rowhammer::util::PanicError;

class TimingPresets : public ::testing::TestWithParam<Standard>
{
};

TEST_P(TimingPresets, InternallyConsistent)
{
    const TimingSpec t = defaultTiming(GetParam());
    EXPECT_NO_THROW(t.check());
    EXPECT_EQ(t.standard, GetParam());
    EXPECT_GE(t.tRC, t.tRAS + t.tRP);
    EXPECT_GT(t.refreshesPerWindow(), 1000);
}

TEST_P(TimingPresets, ActivationIntervalMatchesPaper)
{
    // Section 4.3 quotes tRC of 52.5 / 50 / 60 ns for DDR3 / DDR4 /
    // LPDDR4; the speed bins modeled are within ~10%.
    const TimingSpec t = defaultTiming(GetParam());
    const double trc_ns = t.toNs(t.tRC);
    switch (GetParam()) {
      case Standard::DDR3:
        EXPECT_NEAR(trc_ns, 52.5, 5.0);
        break;
      case Standard::DDR4:
        EXPECT_NEAR(trc_ns, 50.0, 5.0);
        break;
      case Standard::LPDDR4:
        EXPECT_NEAR(trc_ns, 60.0, 2.0);
        break;
    }
}

TEST_P(TimingPresets, HammerFitsRefreshWindow)
{
    // The paper's maximum test of 150k hammers (300k activations) must
    // complete within 32 ms on every standard (Section 4.3).
    const TimingSpec t = defaultTiming(GetParam());
    const double loop_ms = 300000.0 * t.toNs(t.tRC) * 1e-6;
    EXPECT_LT(loop_ms, 32.0);
}

INSTANTIATE_TEST_SUITE_P(AllStandards, TimingPresets,
                         ::testing::Values(Standard::DDR3, Standard::DDR4,
                                           Standard::LPDDR4));

TEST(Timing, ToCyclesRoundsUp)
{
    const TimingSpec t = ddr4_2400();
    EXPECT_EQ(t.toCycles(0.833), 1);
    EXPECT_EQ(t.toCycles(0.9), 2);
    EXPECT_EQ(t.toCycles(8.33), 10);
}

TEST(Timing, BadSpecRejected)
{
    TimingSpec t = ddr4_2400();
    t.tRC = 1; // < tRAS + tRP.
    EXPECT_THROW(t.check(), FatalError);
}

TEST(Organization, Table6Geometry)
{
    const Organization org = table6Organization();
    EXPECT_EQ(org.totalBanks(), 16);
    EXPECT_EQ(org.rows, 16384);
    EXPECT_EQ(org.rowBytes(), 8192);
    EXPECT_EQ(org.totalBytes(), 2LL * 1024 * 1024 * 1024);
}

TEST(Organization, FlatIndexing)
{
    const Organization org = table6Organization();
    Address a{.rank = 0, .bankGroup = 2, .bank = 3, .row = 5,
              .column = 0};
    EXPECT_EQ(org.flatBank(a), 2 * 4 + 3);
    EXPECT_EQ(org.flatRow(a), static_cast<std::int64_t>(11) * 16384 + 5);
    EXPECT_TRUE(org.contains(a));
    a.row = 16384;
    EXPECT_FALSE(org.contains(a));
}

class DeviceTest : public ::testing::Test
{
  protected:
    DeviceTest() : dev_(table6Organization(), ddr4_2400()) {}

    Address
    addr(int bg, int bank, int row, int col = 0)
    {
        return Address{.rank = 0, .bankGroup = bg, .bank = bank,
                       .row = row, .column = col};
    }

    Device dev_;
};

TEST_F(DeviceTest, ActThenReadRespectsTrcd)
{
    const Address a = addr(0, 0, 100);
    dev_.issue(Command::ACT, a, 0);
    EXPECT_TRUE(dev_.isOpen(a));
    const TimingSpec &t = dev_.timing();
    EXPECT_EQ(dev_.earliest(Command::RD, a, 0), t.tRCD);
    EXPECT_FALSE(dev_.canIssue(Command::RD, a, t.tRCD - 1));
    EXPECT_TRUE(dev_.canIssue(Command::RD, a, t.tRCD));
}

TEST_F(DeviceTest, SameBankActToActIsTrc)
{
    const Address a = addr(0, 0, 1);
    dev_.issue(Command::ACT, a, 0);
    dev_.issue(Command::PRE, a, dev_.earliest(Command::PRE, a, 0));
    Address b = a;
    b.row = 2;
    EXPECT_GE(dev_.earliest(Command::ACT, b, 0), dev_.timing().tRC);
}

TEST_F(DeviceTest, PreRespectsTras)
{
    const Address a = addr(1, 1, 7);
    dev_.issue(Command::ACT, a, 0);
    EXPECT_EQ(dev_.earliest(Command::PRE, a, 0), dev_.timing().tRAS);
}

TEST_F(DeviceTest, SameGroupActToActUsesLongRrd)
{
    const TimingSpec &t = dev_.timing();
    dev_.issue(Command::ACT, addr(0, 0, 1), 0);
    EXPECT_EQ(dev_.earliest(Command::ACT, addr(0, 1, 1), 0), t.tRRDL);
    EXPECT_EQ(dev_.earliest(Command::ACT, addr(1, 0, 1), 0), t.tRRDS);
}

TEST_F(DeviceTest, FawLimitsFourActivations)
{
    const TimingSpec &t = dev_.timing();
    Cycle at = 0;
    for (int i = 0; i < 4; ++i) {
        const Address a = addr(i, 0, 1);
        at = dev_.earliest(Command::ACT, a, at);
        dev_.issue(Command::ACT, a, at);
    }
    // The fifth activation in the rank must wait for the tFAW window.
    const Address fifth = addr(0, 1, 1);
    EXPECT_GE(dev_.earliest(Command::ACT, fifth, at), t.tFAW);
}

TEST_F(DeviceTest, WriteToReadTurnaround)
{
    const TimingSpec &t = dev_.timing();
    const Address a = addr(0, 0, 3);
    dev_.issue(Command::ACT, a, 0);
    const Cycle wr_at = dev_.earliest(Command::WR, a, 0);
    dev_.issue(Command::WR, a, wr_at);
    EXPECT_GE(dev_.earliest(Command::RD, a, wr_at),
              wr_at + t.writeToReadL());
}

TEST_F(DeviceTest, RefRequiresAllBanksClosed)
{
    const Address a = addr(0, 0, 9);
    dev_.issue(Command::ACT, a, 0);
    EXPECT_FALSE(dev_.canIssue(Command::REF, Address{}, 1000));
    const Cycle pre_at = dev_.earliest(Command::PRE, a, 0);
    dev_.issue(Command::PRE, a, pre_at);
    const Cycle ref_at = dev_.earliest(Command::REF, Address{}, pre_at);
    dev_.issue(Command::REF, Address{}, ref_at);
    // tRFC blocks the whole rank.
    EXPECT_GE(dev_.earliest(Command::ACT, a, ref_at),
              ref_at + dev_.timing().tRFC);
}

TEST_F(DeviceTest, PreaClosesEverything)
{
    dev_.issue(Command::ACT, addr(0, 0, 1), 0);
    const Cycle at = dev_.earliest(Command::ACT, addr(1, 1, 2), 0);
    dev_.issue(Command::ACT, addr(1, 1, 2), at);
    const Cycle prea_at = dev_.earliest(Command::PREA, Address{}, at);
    dev_.issue(Command::PREA, Address{}, prea_at);
    EXPECT_FALSE(dev_.isOpen(addr(0, 0, 1)));
    EXPECT_FALSE(dev_.isOpen(addr(1, 1, 2)));
}

TEST_F(DeviceTest, IllegalCommandsPanic)
{
    const Address a = addr(0, 0, 1);
    // RD with bank closed.
    EXPECT_THROW(dev_.issue(Command::RD, a, 0), PanicError);
    dev_.issue(Command::ACT, a, 0);
    // Double activation.
    EXPECT_THROW(dev_.issue(Command::ACT, a, 1000), PanicError);
    // Premature RD.
    EXPECT_THROW(dev_.issue(Command::RD, a, 1), PanicError);
}

TEST_F(DeviceTest, TimeMustNotGoBackwards)
{
    dev_.issue(Command::ACT, addr(0, 0, 1), 100);
    EXPECT_THROW(dev_.issue(Command::ACT, addr(1, 0, 1), 50),
                 PanicError);
}

TEST_F(DeviceTest, ObserverSeesCommands)
{
    int acts = 0;
    Cycle last_at = -1;
    dev_.setObserver([&](Command cmd, const Address &, Cycle at) {
        if (cmd == Command::ACT) {
            ++acts;
            last_at = at;
        }
    });
    dev_.issue(Command::ACT, addr(0, 0, 5), 10);
    EXPECT_EQ(acts, 1);
    EXPECT_EQ(last_at, 10);
}

TEST(Organization, BankAddressInvertsFlatBank)
{
    Organization org = table6Organization();
    org.ranks = 2;
    for (int flat = 0; flat < org.totalBanks(); ++flat) {
        const Address addr = org.bankAddress(flat);
        EXPECT_TRUE(org.contains(addr));
        EXPECT_EQ(org.flatBank(addr), flat);
    }
    EXPECT_EQ(org.bankAddress(org.totalBanks() - 1).rank, 1);
}

TEST(Organization, MultiChannelSizesAndGlobalBanks)
{
    Organization org = table6Organization();
    org.channels = 2;
    // Per-channel helpers are unchanged by the channel count; system
    // helpers span every channel.
    EXPECT_EQ(org.totalBanks(), 16);
    EXPECT_EQ(org.systemBanks(), 32);
    EXPECT_EQ(org.systemRows(), 2 * org.totalRows());
    EXPECT_EQ(org.systemBytes(), 4LL * 1024 * 1024 * 1024);

    // globalBankAddress inverts globalFlatBank, channel-major: channel
    // 0's banks keep their single-channel flat indices.
    for (int global = 0; global < org.systemBanks(); ++global) {
        const Address addr = org.globalBankAddress(global);
        EXPECT_TRUE(org.contains(addr));
        EXPECT_EQ(org.globalFlatBank(addr), global);
        EXPECT_EQ(addr.channel, global / org.totalBanks());
    }

    Address out_of_range = org.globalBankAddress(0);
    out_of_range.channel = 2;
    EXPECT_FALSE(org.contains(out_of_range));
}

TEST(AddressFunctions, PresetsValidForTable6)
{
    Organization org = table6Organization();
    EXPECT_TRUE(AddressFunctions::preset("linear", org).valid(org));
    EXPECT_TRUE(AddressFunctions::preset("bank-xor", org).valid(org));
    org.ranks = 2;
    EXPECT_TRUE(AddressFunctions::preset("rank-xor", org).valid(org));
    org.channels = 2;
    EXPECT_TRUE(
        AddressFunctions::preset("channel-xor", org).valid(org));
}

TEST(AddressFunctions, ChannelXorNeedsMultiChannel)
{
    EXPECT_THROW(
        AddressFunctions::preset("channel-xor", table6Organization()),
        FatalError);
}

TEST(AddressFunctions, ChannelXorFoldsRowBitsIntoChannelSelects)
{
    Organization org = table6Organization();
    org.channels = 4;
    const AddressFunctions fns =
        AddressFunctions::preset("channel-xor", org);
    const AddressBitLayout layout = AddressBitLayout::of(org);
    ASSERT_EQ(fns.channelMasks.size(), 2u);
    for (std::size_t i = 0; i < fns.channelMasks.size(); ++i) {
        EXPECT_EQ(__builtin_popcountll(fns.channelMasks[i]), 2);
        EXPECT_TRUE(fns.channelMasks[i] &
                    (std::uint64_t{1}
                     << (layout.channelBase() + static_cast<int>(i))));
        EXPECT_TRUE(fns.channelMasks[i] >>
                    layout.rowBase()); // The folded row bit.
    }
    // Bank selects fold too (channel-xor extends bank-xor); the rank
    // select stays identity so single-rank geometries qualify.
    for (std::size_t i = 0; i < fns.bankGroupMasks.size(); ++i)
        EXPECT_EQ(__builtin_popcountll(fns.bankGroupMasks[i]), 2);
    for (std::size_t i = 0; i < fns.rankMasks.size(); ++i)
        EXPECT_EQ(__builtin_popcountll(fns.rankMasks[i]), 1);
}

TEST(AddressFunctions, UnknownPresetRejected)
{
    EXPECT_THROW(
        AddressFunctions::preset("zen4", table6Organization()),
        FatalError);
}

TEST(AddressFunctions, RankXorNeedsMultiRank)
{
    EXPECT_THROW(
        AddressFunctions::preset("rank-xor", table6Organization()),
        FatalError);
}

TEST(AddressFunctions, NonPow2GeometryRejected)
{
    Organization org = table6Organization();
    org.rows = 10000;
    EXPECT_THROW(AddressFunctions::preset("bank-xor", org), FatalError);
    AddressFunctions linear = AddressFunctions::linear();
    EXPECT_TRUE(linear.valid(org)); // Linear works for any radix.
}

TEST(AddressFunctions, BankXorFoldsRowBitsIntoBankSelects)
{
    const Organization org = table6Organization();
    const AddressFunctions fns =
        AddressFunctions::preset("bank-xor", org);
    const AddressBitLayout layout = AddressBitLayout::of(org);
    for (std::size_t i = 0; i < fns.bankGroupMasks.size(); ++i) {
        EXPECT_EQ(__builtin_popcountll(fns.bankGroupMasks[i]), 2);
        EXPECT_TRUE(fns.bankGroupMasks[i] &
                    (std::uint64_t{1}
                     << (layout.bankGroupBase() + static_cast<int>(i))));
        EXPECT_TRUE(fns.bankGroupMasks[i] >>
                    layout.rowBase()); // The folded row bit.
    }
    // Column and row functions stay identity: the mapping permutes
    // banks only.
    for (std::size_t i = 0; i < fns.rowMasks.size(); ++i)
        EXPECT_EQ(__builtin_popcountll(fns.rowMasks[i]), 1);
}

TEST(AddressFunctions, ParseRoundTrip)
{
    // Serialize a preset to mask-file syntax and parse it back; with a
    // multi-channel geometry the `channel` level exercises too.
    Organization org = table6Organization();
    org.channels = 2;
    for (const char *preset : {"bank-xor", "channel-xor"}) {
        const AddressFunctions built =
            AddressFunctions::preset(preset, org);

        std::ostringstream text;
        text << "# " << preset << " serialized\n";
        auto dump = [&](const char *level,
                        const std::vector<std::uint64_t> &masks) {
            for (std::uint64_t mask : masks)
                text << level << " 0x" << std::hex << mask << std::dec
                     << "\n";
        };
        dump("channel", built.channelMasks);
        dump("column", built.columnMasks);
        dump("bankgroup", built.bankGroupMasks);
        dump("bank", built.bankMasks);
        dump("rank", built.rankMasks);
        dump("row", built.rowMasks);

        std::istringstream in(text.str());
        const AddressFunctions parsed =
            AddressFunctions::parse(in, org, "round-trip");
        EXPECT_EQ(parsed.channelMasks, built.channelMasks);
        EXPECT_EQ(parsed.columnMasks, built.columnMasks);
        EXPECT_EQ(parsed.bankGroupMasks, built.bankGroupMasks);
        EXPECT_EQ(parsed.bankMasks, built.bankMasks);
        EXPECT_EQ(parsed.rankMasks, built.rankMasks);
        EXPECT_EQ(parsed.rowMasks, built.rowMasks);
    }
}

TEST(AddressFunctions, ParseRejectsGarbage)
{
    const Organization org = table6Organization();
    {
        std::istringstream in("bank nonsense");
        EXPECT_THROW(AddressFunctions::parse(in, org), FatalError);
    }
    {
        std::istringstream in("chipselect 0x40");
        EXPECT_THROW(AddressFunctions::parse(in, org), FatalError);
    }
    {
        std::istringstream in("bank 0x100 extra");
        EXPECT_THROW(AddressFunctions::parse(in, org), FatalError);
    }
    {
        // Well-formed lines but wrong mask counts for the geometry.
        std::istringstream in("bank 0x100\nbank 0x200");
        EXPECT_THROW(AddressFunctions::parse(in, org), FatalError);
    }
}

TEST(AddressFunctions, ParseErrorsNameTheProblem)
{
    const Organization org = table6Organization();
    const auto message_of = [&](const std::string &text) {
        std::istringstream in(text);
        try {
            AddressFunctions::parse(in, org, "spec.txt");
        } catch (const FatalError &err) {
            return std::string(err.what());
        }
        return std::string("(no error)");
    };

    // Malformed line: missing mask operand, with the line number.
    {
        const std::string what = message_of("bank");
        EXPECT_NE(what.find("expected '<level> <mask>'"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("line 1"), std::string::npos) << what;
    }
    // Unparsable mask value, echoed back.
    {
        const std::string what = message_of("bank 0xZZ");
        EXPECT_NE(what.find("bad mask '0xZZ'"), std::string::npos)
            << what;
    }
    // Unknown level, with the accepted level names listed.
    {
        const std::string what = message_of("chipselect 0x40");
        EXPECT_NE(what.find("unknown level 'chipselect'"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("bankgroup"), std::string::npos) << what;
    }
    // Wrong mask count for the geometry: names the level and both the
    // found and required counts (column is validated first).
    {
        const std::string what = message_of("bank 0x100");
        EXPECT_NE(what.find("column has 0 masks"), std::string::npos)
            << what;
        EXPECT_NE(what.find("geometry needs 7"), std::string::npos)
            << what;
    }
}

TEST(AddressFunctions, ValidationErrorsNameTheProblem)
{
    const Organization org = table6Organization();

    // A mask reaching into the in-column byte-offset bits.
    {
        AddressFunctions fns = AddressFunctions::preset("bank-xor", org);
        fns.rowMasks[0] |= 0x2;
        std::string why;
        EXPECT_FALSE(fns.valid(org, &why));
        EXPECT_NE(why.find("byte-offset bits"), std::string::npos)
            << why;
    }
    // A mask beyond the channel's address bits.
    {
        AddressFunctions fns = AddressFunctions::preset("bank-xor", org);
        fns.rowMasks[0] |= 1ull << 62;
        std::string why;
        EXPECT_FALSE(fns.valid(org, &why));
        EXPECT_NE(why.find("exceeds the geometry's address bits"),
                  std::string::npos)
            << why;
    }
    // An all-zero (empty) mask.
    {
        AddressFunctions fns = AddressFunctions::preset("bank-xor", org);
        fns.columnMasks[3] = 0;
        std::string why;
        EXPECT_FALSE(fns.valid(org, &why));
        EXPECT_NE(why.find("empty mask"), std::string::npos) << why;
    }
    // A singular stacked matrix, surfaced through parse() as a
    // FatalError naming the spec.
    {
        AddressFunctions fns = AddressFunctions::preset("bank-xor", org);
        fns.bankMasks[1] = fns.bankMasks[0];
        std::string why;
        EXPECT_FALSE(fns.valid(org, &why));
        EXPECT_NE(why.find("singular"), std::string::npos) << why;
    }
}

TEST(AddressFunctions, SingularSpecRejected)
{
    const Organization org = table6Organization();
    AddressFunctions fns = AddressFunctions::preset("bank-xor", org);
    // Two output bits computing the same parity: not invertible.
    fns.bankMasks[1] = fns.bankMasks[0];
    std::string why;
    EXPECT_FALSE(fns.valid(org, &why));
    EXPECT_NE(why.find("singular"), std::string::npos);
}

TEST(AddressFunctions, OffsetBitsOffLimits)
{
    const Organization org = table6Organization();
    AddressFunctions fns = AddressFunctions::preset("bank-xor", org);
    fns.bankMasks[0] |= 0x1; // Byte-offset bit.
    EXPECT_FALSE(fns.valid(org));
}

TEST(DeviceMultiRank, RefConstrainsOnlyItsRank)
{
    Organization org = tinyOrganization();
    org.ranks = 2;
    Device dev(org, ddr4_2400());
    const TimingSpec &t = dev.timing();

    Address rank0{};
    dev.issue(Command::REF, rank0, 0);
    Address rank1_act{.rank = 1, .bankGroup = 0, .bank = 0, .row = 3,
                      .column = 0};
    // Rank 1 is free during rank 0's tRFC; rank 0 is not.
    EXPECT_EQ(dev.earliest(Command::ACT, rank1_act, 0), 0);
    Address rank0_act = rank1_act;
    rank0_act.rank = 0;
    EXPECT_EQ(dev.earliest(Command::ACT, rank0_act, 0), t.tRFC);

    // A REF to rank 1 is legal even while rank 1 has... no open banks;
    // opening one blocks it.
    Address rank1_ref{};
    rank1_ref.rank = 1;
    EXPECT_TRUE(dev.canIssue(Command::REF, rank1_ref, 1));
    dev.issue(Command::ACT, rank1_act, 1);
    EXPECT_FALSE(dev.canIssue(Command::REF, rank1_ref, 2));
}

TEST(DeviceDdr3, NoBankGroupDistinction)
{
    Device dev(tinyOrganization(), ddr3_1600());
    const TimingSpec &t = dev.timing();
    EXPECT_EQ(t.tRRDS, t.tRRDL);
    dev.issue(Command::ACT,
              Address{.rank = 0, .bankGroup = 0, .bank = 0, .row = 1,
                      .column = 0},
              0);
    EXPECT_EQ(dev.earliest(Command::ACT,
                           Address{.rank = 0, .bankGroup = 1, .bank = 0,
                                   .row = 1, .column = 0},
                           0),
              t.tRRDS);
}

} // namespace
