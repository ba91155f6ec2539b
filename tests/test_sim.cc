/**
 * @file
 * Tests for the memory controller: address mapping, request service,
 * FR-FCFS behaviour, refresh, write draining, and the mitigation hook.
 */

#include <gtest/gtest.h>

#include <string>

#include "dram/address_functions.hh"
#include "mitigation/mitigation.hh"
#include "sim/controller.hh"
#include "sim/request.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace
{

using namespace rowhammer;
using sim::AddressMapper;
using sim::Controller;
using sim::Request;

TEST(AddressMapper, RoundTrip)
{
    AddressMapper mapper(dram::table6Organization());
    for (std::uint64_t addr :
         {0ULL, 64ULL, 8192ULL, 123456768ULL, 2047ULL * 1024 * 1024}) {
        const dram::Address d = mapper.decode(addr);
        EXPECT_TRUE(mapper.organization().contains(d));
        EXPECT_EQ(mapper.encode(d), addr - addr % 64);
    }
}

TEST(AddressMapper, ConsecutiveLinesShareRow)
{
    AddressMapper mapper(dram::table6Organization());
    const dram::Address a = mapper.decode(0);
    const dram::Address b = mapper.decode(64);
    EXPECT_EQ(a.row, b.row);
    EXPECT_EQ(a.bank, b.bank);
    EXPECT_EQ(a.column + 1, b.column);
}

namespace roundtrip
{

/** encode/decode must be exact inverses in both directions. */
void
checkRoundTrip(const AddressMapper &mapper, util::Rng &rng)
{
    const dram::Organization &org = mapper.organization();
    const auto capacity = static_cast<std::uint64_t>(org.systemBytes());
    for (int i = 0; i < 64; ++i) {
        // Physical -> device -> physical (line-aligned).
        const std::uint64_t addr = rng.uniformInt(0, capacity - 1);
        const dram::Address decoded = mapper.decode(addr);
        ASSERT_TRUE(org.contains(decoded));
        // The routing fast path agrees with the full decode.
        ASSERT_EQ(mapper.decodeChannel(addr), decoded.channel);
        ASSERT_EQ(mapper.encode(decoded),
                  addr - addr % static_cast<std::uint64_t>(
                                    org.bytesPerColumn));

        // Device -> physical -> device.
        dram::Address device;
        device.channel = static_cast<int>(rng.uniformInt(
            0, static_cast<std::uint64_t>(org.channels - 1)));
        device.rank = static_cast<int>(
            rng.uniformInt(0, static_cast<std::uint64_t>(org.ranks - 1)));
        device.bankGroup = static_cast<int>(rng.uniformInt(
            0, static_cast<std::uint64_t>(org.bankGroups - 1)));
        device.bank = static_cast<int>(rng.uniformInt(
            0, static_cast<std::uint64_t>(org.banksPerGroup - 1)));
        device.row = static_cast<int>(
            rng.uniformInt(0, static_cast<std::uint64_t>(org.rows - 1)));
        device.column = static_cast<int>(rng.uniformInt(
            0, static_cast<std::uint64_t>(org.columns - 1)));
        const std::uint64_t encoded = mapper.encode(device);
        ASSERT_LT(encoded, capacity);
        ASSERT_EQ(mapper.decode(encoded), device);
    }
}

} // namespace roundtrip

TEST(AddressMapper, LinearRoundTripsOverRandomGeometries)
{
    // The linear layout supports any radix, including non-powers of
    // two, multi-rank, and multi-channel.
    util::Rng rng(0xA55E7);
    for (int iter = 0; iter < 100; ++iter) {
        dram::Organization org;
        org.channels = static_cast<int>(rng.uniformInt(1, 3));
        org.ranks = static_cast<int>(rng.uniformInt(1, 4));
        org.bankGroups = static_cast<int>(rng.uniformInt(1, 5));
        org.banksPerGroup = static_cast<int>(rng.uniformInt(1, 5));
        org.rows = static_cast<int>(rng.uniformInt(16, 300));
        org.columns = static_cast<int>(rng.uniformInt(4, 40));
        org.bytesPerColumn = 64;
        AddressMapper mapper(org);
        roundtrip::checkRoundTrip(mapper, rng);
    }
}

TEST(AddressMapper, XorPresetsRoundTripOverRandomPow2Geometries)
{
    util::Rng rng(0xB16B00);
    for (int iter = 0; iter < 100; ++iter) {
        dram::Organization org;
        org.channels = 1 << rng.uniformInt(0, 2);
        org.ranks = 1 << rng.uniformInt(0, 2);
        org.bankGroups = 1 << rng.uniformInt(0, 2);
        org.banksPerGroup = 1 << rng.uniformInt(0, 2);
        org.rows = 1 << rng.uniformInt(6, 12);
        org.columns = 1 << rng.uniformInt(2, 7);
        org.bytesPerColumn = 64;
        std::string preset = "bank-xor";
        if (org.channels > 1 && rng.bernoulli(0.5))
            preset = "channel-xor";
        else if (org.ranks > 1 && rng.bernoulli(0.5))
            preset = "rank-xor";
        AddressMapper mapper(
            org, dram::AddressFunctions::preset(preset, org));
        roundtrip::checkRoundTrip(mapper, rng);
    }
}

TEST(AddressMapper, ConsecutiveLinesInterleaveAcrossChannels)
{
    // Channel bits sit right above the byte offset: consecutive cache
    // lines alternate controllers (fine-grained channel interleaving),
    // and the per-channel view of each line is otherwise unchanged.
    dram::Organization org = dram::table6Organization();
    org.channels = 2;
    AddressMapper mapper(org);
    const dram::Address a = mapper.decode(0);
    const dram::Address b = mapper.decode(64);
    const dram::Address c = mapper.decode(128);
    EXPECT_EQ(a.channel, 0);
    EXPECT_EQ(b.channel, 1);
    EXPECT_EQ(c.channel, 0);
    EXPECT_EQ(a.column, 0);
    EXPECT_EQ(b.column, 0);
    EXPECT_EQ(c.column, 1);
    EXPECT_EQ(a.row, b.row);
    EXPECT_EQ(a.bank, b.bank);
}

TEST(AddressMapper, ChannelXorSpreadsRowConflictsAcrossChannels)
{
    // Under channel-xor, the physical stride of one linear row lands
    // consecutive rows on different controllers: naive row arithmetic
    // cannot keep a hammer pair on one channel.
    dram::Organization org = dram::table6Organization();
    org.channels = 2;
    AddressMapper linear(org);
    AddressMapper xorred(
        org, dram::AddressFunctions::preset("channel-xor", org));

    dram::Address a{.channel = 0, .rank = 0, .bankGroup = 0, .bank = 0,
                    .row = 100, .column = 0};
    dram::Address b = a;
    b.row = 100 + 16; // Flip the row bit the channel select folds in.
    const std::uint64_t stride = linear.encode(b) - linear.encode(a);
    const dram::Address xa = xorred.decode(xorred.encode(a));
    const dram::Address xb = xorred.decode(xorred.encode(a) + stride);
    EXPECT_EQ(xa, a);
    EXPECT_NE(xb.channel, xa.channel);
}

TEST(AddressMapper, CustomSpecRoundTrips)
{
    // Any valid (invertible) spec must round-trip, not just the
    // presets: scramble a preset by folding extra row bits in.
    dram::Organization org = dram::table6Organization();
    org.ranks = 2;
    dram::AddressFunctions fns =
        dram::AddressFunctions::preset("rank-xor", org);
    const dram::AddressBitLayout layout =
        dram::AddressBitLayout::of(org);
    fns.columnMasks[0] |= std::uint64_t{1} << (layout.rowBase() + 7);
    fns.bankMasks[1] |= std::uint64_t{1} << (layout.rowBase() + 9);
    fns.name = "scrambled";
    ASSERT_TRUE(fns.valid(org));
    AddressMapper mapper(org, fns);
    util::Rng rng(77);
    roundtrip::checkRoundTrip(mapper, rng);
}

TEST(AddressMapper, BankXorSpreadsRowConflictsAcrossBanks)
{
    // Consecutive rows of the same linear bank land in different banks
    // under bank-xor: the double-sided aggressor pair (victim +/- 1)
    // cannot be reached by naive row arithmetic on physical addresses.
    const dram::Organization org = dram::table6Organization();
    AddressMapper linear(org);
    AddressMapper xorred(org,
                         dram::AddressFunctions::preset("bank-xor", org));

    dram::Address a{.rank = 0, .bankGroup = 0, .bank = 0, .row = 100,
                    .column = 0};
    dram::Address b = a;
    b.row = 101;
    // Linear: the physical addresses one linear-row-stride apart stay
    // in one bank. Bank-xor: the same physical stride flips the
    // bank-group select.
    const std::uint64_t stride =
        linear.encode(b) - linear.encode(a);
    const dram::Address xa = xorred.decode(xorred.encode(a));
    const dram::Address xb =
        xorred.decode(xorred.encode(a) + stride);
    EXPECT_EQ(xa, a);
    EXPECT_NE(org.flatBank(xb), org.flatBank(xa));
}

TEST(AddressMapper, DefaultFunctionsAreLinear)
{
    AddressMapper mapper(dram::table6Organization());
    EXPECT_EQ(mapper.functions().scheme,
              dram::AddressFunctions::Scheme::Linear);
    EXPECT_EQ(mapper.functions().name, "linear");
}

class ControllerTest : public ::testing::Test
{
  protected:
    ControllerTest()
        : ctrl_(dram::table6Organization(), dram::ddr4_2400())
    {
    }

    /** Run until the predicate or a cycle cap, counting the reads
     *  drained after each cycle in completed_. */
    template <typename F>
    bool
    runUntil(F &&done, int max_cycles = 200000)
    {
        for (int i = 0; i < max_cycles; ++i) {
            if (done())
                return true;
            ctrl_.tick();
            ctrl_.drainCompleted([this](int, std::uint32_t) {
                ++completed_;
            });
        }
        return done();
    }

    Controller ctrl_;
    int completed_ = 0;
};

TEST_F(ControllerTest, ServesSingleRead)
{
    Request r;
    r.addr = 4096;
    r.type = Request::Type::Read;
    ASSERT_TRUE(ctrl_.enqueue(r));
    EXPECT_TRUE(runUntil([&] { return completed_ == 1; }));
    EXPECT_EQ(ctrl_.stats().readsServed, 1);
    EXPECT_EQ(ctrl_.stats().demandActs, 1);
}

TEST_F(ControllerTest, RowHitsAvoidExtraActivations)
{
    for (int i = 0; i < 8; ++i) {
        Request r;
        r.addr = static_cast<std::uint64_t>(i) * 64; // Same row.
        r.type = Request::Type::Read;
        ASSERT_TRUE(ctrl_.enqueue(r));
    }
    EXPECT_TRUE(runUntil([&] { return completed_ == 8; }));
    EXPECT_EQ(ctrl_.stats().demandActs, 1); // One ACT serves all hits.
}

TEST_F(ControllerTest, RowConflictPrechargesAndReactivates)
{
    AddressMapper mapper(dram::table6Organization());
    dram::Address a{.rank = 0, .bankGroup = 0, .bank = 0, .row = 10,
                    .column = 0};
    dram::Address b = a;
    b.row = 20;
    for (const auto &addr : {a, b}) {
        Request r;
        r.addr = mapper.encode(addr);
        r.type = Request::Type::Read;
        ASSERT_TRUE(ctrl_.enqueue(r));
    }
    EXPECT_TRUE(runUntil([&] { return completed_ == 2; }));
    EXPECT_EQ(ctrl_.stats().demandActs, 2);
}

TEST_F(ControllerTest, WritesAreServedEventually)
{
    Request w;
    w.addr = 64 * 1000;
    w.type = Request::Type::Write;
    ASSERT_TRUE(ctrl_.enqueue(std::move(w)));
    EXPECT_TRUE(
        runUntil([&] { return ctrl_.stats().writesServed == 1; }));
}

TEST_F(ControllerTest, ReadForwardsFromWriteQueue)
{
    Request w;
    w.addr = 64 * 77;
    w.type = Request::Type::Write;
    ASSERT_TRUE(ctrl_.enqueue(std::move(w)));
    Request r;
    r.addr = 64 * 77;
    r.type = Request::Type::Read;
    ASSERT_TRUE(ctrl_.enqueue(r));
    // The forwarded read is counted served immediately and never enters
    // the read queue; it drains within a couple of cycles.
    EXPECT_EQ(ctrl_.stats().readsServed, 1);
    EXPECT_EQ(ctrl_.readQueueSpace(), 64);
    EXPECT_TRUE(runUntil([&] { return completed_ == 1; }, 10));
    // Only the queued write may have activated a row; no read ACT.
    EXPECT_LE(ctrl_.stats().demandActs, 1);
}

TEST_F(ControllerTest, CompletionsReturnTokensInDataOrder)
{
    // A read forwarded from the write queue returns ahead of an older
    // read that must open its row. Each comes back as the token it was
    // enqueued with.
    Request w;
    w.addr = 64 * 77;
    w.type = Request::Type::Write;
    ASSERT_TRUE(ctrl_.enqueue(w));
    Request a;
    a.addr = 8192 * 16; // Another row.
    a.coreId = 1;
    a.slot = 7;
    ASSERT_TRUE(ctrl_.enqueue(a));
    Request b;
    b.addr = 64 * 77;
    b.coreId = 2;
    b.slot = 9;
    ASSERT_TRUE(ctrl_.enqueue(b));

    struct Drained
    {
        dram::Cycle now;
        int coreId;
        std::uint32_t slot;
    };
    std::vector<Drained> drained;
    while (drained.size() < 2 && ctrl_.now() < 1000) {
        ctrl_.tick();
        ctrl_.drainCompleted([&](int core, std::uint32_t slot) {
            drained.push_back(Drained{ctrl_.now(), core, slot});
        });
    }
    ASSERT_EQ(drained.size(), 2u);
    EXPECT_EQ(drained[0].coreId, 2);
    EXPECT_EQ(drained[0].slot, 9u);
    EXPECT_EQ(drained[0].now, 2); // Forwarded: due the next cycle.
    EXPECT_EQ(drained[1].coreId, 1);
    EXPECT_EQ(drained[1].slot, 7u);
    EXPECT_GT(drained[1].now, drained[0].now);

    int again = 0;
    ctrl_.drainCompleted([&](int, std::uint32_t) { ++again; });
    EXPECT_EQ(again, 0);
}

TEST_F(ControllerTest, ReadQueueBackpressure)
{
    for (int i = 0; i < 64; ++i) {
        Request r;
        r.addr = static_cast<std::uint64_t>(i) * 8192 * 16;
        r.type = Request::Type::Read;
        ASSERT_TRUE(ctrl_.enqueue(std::move(r)));
    }
    EXPECT_EQ(ctrl_.readQueueSpace(), 0);
    Request extra;
    extra.addr = 1;
    extra.type = Request::Type::Read;
    EXPECT_FALSE(ctrl_.enqueue(std::move(extra)));
    EXPECT_GT(ctrl_.stats().readQueueFullEvents, 0);
}

TEST_F(ControllerTest, PeriodicRefreshHappens)
{
    const auto trefi = ctrl_.device().timing().tREFI;
    for (dram::Cycle c = 0; c < 5 * trefi; ++c)
        ctrl_.tick();
    EXPECT_GE(ctrl_.stats().autoRefreshes, 4);
    EXPECT_LE(ctrl_.stats().autoRefreshes, 6);
}

/** Mitigation stub: refreshes a fixed victim on every Nth activation. */
class CountingMitigation : public mitigation::Mitigation
{
  public:
    std::string name() const override { return "stub"; }

    void
    onActivate(int flat_bank, int row, dram::Cycle,
               std::vector<mitigation::VictimRef> &out) override
    {
        ++activations;
        if (activations % 2 == 0)
            out.push_back(mitigation::VictimRef{flat_bank, row + 1});
    }

    void
    onRefresh(std::uint64_t, int,
              std::vector<mitigation::VictimRef> &) override
    {
        ++refreshes;
    }

    int activations = 0;
    int refreshes = 0;
};

TEST_F(ControllerTest, MitigationObservesActsAndInjectsRefreshes)
{
    CountingMitigation stub;
    ctrl_.setMitigation(&stub);
    for (int i = 0; i < 8; ++i) {
        Request r;
        // Different rows in the same bank: eight ACTs.
        r.addr = static_cast<std::uint64_t>(i) * 8192 * 16;
        r.type = Request::Type::Read;
        ASSERT_TRUE(ctrl_.enqueue(r));
    }
    EXPECT_TRUE(runUntil([&] {
        return completed_ == 8 && ctrl_.idle();
    }));
    EXPECT_EQ(stub.activations, 8);
    EXPECT_EQ(ctrl_.stats().mitigationRefreshes, 4);
    EXPECT_GT(ctrl_.stats().mitigationBusyCycles, 0.0);
    EXPECT_GT(ctrl_.stats().bandwidthOverheadPercent(), 0.0);
}

TEST_F(ControllerTest, MitigationRefreshNotObservedRecursively)
{
    CountingMitigation stub;
    ctrl_.setMitigation(&stub);
    Request r;
    r.addr = 0;
    r.type = Request::Type::Read;
    ASSERT_TRUE(ctrl_.enqueue(r));
    EXPECT_TRUE(runUntil([&] { return completed_ == 1 && ctrl_.idle(); }));
    // One demand ACT observed; the injected victim refresh (if any) must
    // not re-enter the observer.
    EXPECT_EQ(stub.activations, 1);
}

TEST_F(ControllerTest, RefreshNotifiesMitigation)
{
    CountingMitigation stub;
    ctrl_.setMitigation(&stub);
    const auto trefi = ctrl_.device().timing().tREFI;
    for (dram::Cycle c = 0; c < 3 * trefi; ++c)
        ctrl_.tick();
    EXPECT_GE(stub.refreshes, 2);
}

TEST_F(ControllerTest, IdleInitially)
{
    EXPECT_TRUE(ctrl_.idle());
}

TEST_F(ControllerTest, RejectsConfigsThatCannotServeReads)
{
    // A config with no read slot, or with a write drain that never
    // reaches its low watermark, would never serve a read: each must
    // fail at construction with a message naming the field.
    const auto build = [](auto &&edit) {
        Controller::Config config;
        edit(config);
        return Controller(dram::table6Organization(), dram::ddr4_2400(),
                          config);
    };
    const auto rejects = [&](auto &&edit, const std::string &field) {
        try {
            build(edit);
            ADD_FAILURE() << "accepted bad " << field;
        } catch (const util::FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
                << e.what();
        }
    };
    using C = Controller::Config;
    rejects([](C &c) { c.readQueueSize = 0; }, "readQueueSize");
    rejects([](C &c) { c.writeLowWatermark = -1; }, "writeLowWatermark");
    rejects([](C &c) { c.writeLowWatermark = 48; }, "writeLowWatermark");
    rejects([](C &c) { c.writeHighWatermark = 65; },
            "writeHighWatermark");

    // The boundaries construct.
    EXPECT_NO_THROW(build([](C &c) { c.readQueueSize = 1; }));
    EXPECT_NO_THROW(build([](C &c) { c.writeLowWatermark = 0; }));
    EXPECT_NO_THROW(build([](C &c) { c.writeHighWatermark = 64; }));
}

} // namespace
