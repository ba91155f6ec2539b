/**
 * @file
 * Golden regression tests pinning the event-driven controller engine
 * cycle-for-cycle to the reference per-tick engine: the same request
 * trace must produce identical statistics, an identical DRAM command
 * stream (command, address, cycle), and an identical mitigation victim
 * refresh sequence — with no mitigation, with PARA, and with TWiCe.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "dram/address_functions.hh"
#include "mitigation/factory.hh"
#include "sim/controller.hh"
#include "sim/request.hh"
#include "util/rng.hh"

namespace
{

using namespace rowhammer;
using sim::Controller;
using sim::Request;

/** One controller plus full command-stream instrumentation. */
struct Harness
{
    Harness(bool event_driven, mitigation::Kind kind, double hc_first)
        : Harness(event_driven, kind, hc_first,
                  dram::table6Organization(),
                  dram::AddressFunctions::linear())
    {
    }

    Harness(bool event_driven, mitigation::Kind kind, double hc_first,
            const dram::Organization &org,
            dram::AddressFunctions functions)
    {
        Controller::Config config;
        config.eventDriven = event_driven;
        ctrl = std::make_unique<Controller>(org, dram::ddr4_2400(),
                                            config,
                                            std::move(functions));
        if (kind != mitigation::Kind::None) {
            // Fixed seed: both engines must see identical mechanism
            // decisions given identical ACT streams.
            mechanism = mitigation::makeMitigation(
                kind, hc_first, dram::ddr4_2400(), org.rows, 99);
            ctrl->setMitigation(mechanism.get());
        }
        ctrl->device().setObserver(
            [this](dram::Command cmd, const dram::Address &addr,
                   dram::Cycle at) {
                std::ostringstream line;
                line << toString(cmd) << " r" << addr.rank << " g"
                     << addr.bankGroup << " b" << addr.bank << " row"
                     << addr.row << " c" << addr.column << " @" << at;
                commands.push_back(line.str());
            });
    }

    std::unique_ptr<Controller> ctrl;
    std::unique_ptr<mitigation::Mitigation> mechanism;
    std::vector<std::string> commands;
    std::int64_t completed = 0;
};

/**
 * Deterministic request trace replayed into both engines in lockstep.
 * With span_rows == 0 the trace ping-pongs between two aggressor rows
 * (double-sided hammer: every request is a row conflict, so
 * counter-based mechanisms accumulate ACTs fast); otherwise rows are
 * uniform over the span.
 */
void
driveTrace(Harness &h, std::uint64_t seed, int requests, int span_rows)
{
    util::Rng rng(seed);
    int sent = 0;
    // Enqueue with random gaps so the trace exercises bursts, idle
    // stretches (auto-refresh, idle-row close), and back-pressure.
    while (sent < requests || !h.ctrl->idle()) {
        if (sent < requests && rng.bernoulli(0.4)) {
            Request r;
            const std::uint64_t row = span_rows == 0
                ? static_cast<std::uint64_t>(sent % 2) * 2
                : rng.uniformInt(
                      0, static_cast<std::uint64_t>(span_rows - 1));
            const auto col = rng.uniformInt(0, 127);
            r.addr = row * 8192 * 16 + col * 64;
            r.type = rng.bernoulli(0.3) ? Request::Type::Write
                                        : Request::Type::Read;
            if (h.ctrl->enqueue(r))
                ++sent;
        }
        const auto gap = rng.uniformInt(1, 8);
        for (std::uint64_t c = 0; c < gap; ++c) {
            h.ctrl->tick();
            h.ctrl->drainCompleted(
                [&h](int, std::uint32_t) { ++h.completed; });
        }
    }
    // Drain trailing victim refreshes and let a few refresh periods
    // pass so TWiCe's onRefresh pruning runs in both engines.
    const auto trefi = h.ctrl->device().timing().tREFI;
    const dram::Cycle target = h.ctrl->now() + 4 * trefi;
    h.ctrl->advanceTo(target);
}

class GoldenEngine
    : public ::testing::TestWithParam<std::pair<mitigation::Kind,
                                                std::uint64_t>>
{
};

TEST_P(GoldenEngine, EventEngineMatchesPerTickCycleForCycle)
{
    const auto [kind, seed] = GetParam();
    // Counter-based mechanisms (TWiCe, Ideal) trip only when single
    // rows accumulate hundreds of ACTs: hammer a few rows at a low
    // HCfirst for them, spread accesses wide for the rest.
    const bool counter_based = kind == mitigation::Kind::TWiCe ||
        kind == mitigation::Kind::Ideal;
    const double hc_first = counter_based ? 40.0 : 2000.0;
    const int span_rows = counter_based ? 0 : 64;
    const int requests = counter_based ? 800 : 400;

    Harness event(true, kind, hc_first);
    Harness reference(false, kind, hc_first);

    driveTrace(event, seed, requests, span_rows);
    driveTrace(reference, seed, requests, span_rows);

    // Same simulated time elapsed.
    EXPECT_EQ(event.ctrl->now(), reference.ctrl->now());

    // Identical statistics.
    const auto &a = event.ctrl->stats();
    const auto &b = reference.ctrl->stats();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.readsServed, b.readsServed);
    EXPECT_EQ(a.writesServed, b.writesServed);
    EXPECT_EQ(a.demandActs, b.demandActs);
    EXPECT_EQ(a.autoRefreshes, b.autoRefreshes);
    EXPECT_EQ(a.mitigationRefreshes, b.mitigationRefreshes);
    EXPECT_DOUBLE_EQ(a.mitigationBusyCycles, b.mitigationBusyCycles);
    EXPECT_EQ(event.completed, reference.completed);

    // Identical command stream: every command, address, and cycle. The
    // mitigation victim refresh sequence is a subsequence of this, so
    // it is pinned too.
    ASSERT_EQ(event.commands.size(), reference.commands.size());
    for (std::size_t i = 0; i < event.commands.size(); ++i) {
        ASSERT_EQ(event.commands[i], reference.commands[i])
            << "first divergence at command " << i;
    }

    // The traces must actually exercise the machinery.
    EXPECT_GT(a.readsServed, 0);
    EXPECT_GT(a.autoRefreshes, 0);
    if (kind != mitigation::Kind::None) {
        EXPECT_GT(a.mitigationRefreshes, 0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Mechanisms, GoldenEngine,
    ::testing::Values(
        std::make_pair(mitigation::Kind::None, std::uint64_t{11}),
        std::make_pair(mitigation::Kind::PARA, std::uint64_t{12}),
        std::make_pair(mitigation::Kind::PARA, std::uint64_t{13}),
        std::make_pair(mitigation::Kind::TWiCe, std::uint64_t{14}),
        std::make_pair(mitigation::Kind::TWiCe, std::uint64_t{15}),
        std::make_pair(mitigation::Kind::Ideal, std::uint64_t{16})));

std::uint64_t
streamHash(const std::vector<std::string> &commands)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (const std::string &line : commands) {
        for (unsigned char c : line) {
            h ^= c;
            h *= 1099511628211ULL;
        }
        h ^= '\n';
        h *= 1099511628211ULL;
    }
    return h;
}

TEST(GoldenMapping, DefaultPresetCommandStreamMatchesPrePr)
{
    // Hard-coded hashes captured from the pre-AddressFunctions build
    // (the fixed linear AddressMapper): the default mapping must stay
    // byte-for-byte what it was before the subsystem existed. This is
    // also the channels=1 pin for the multi-channel generalization:
    // the default organization has one channel, so any change to the
    // single-channel decode or command stream trips these hashes.
    Harness none(true, mitigation::Kind::None, 0.0);
    driveTrace(none, 11, 400, 64);
    EXPECT_EQ(none.commands.size(), 875u);
    EXPECT_EQ(none.ctrl->stats().cycles, 53422);
    EXPECT_EQ(none.ctrl->stats().readsServed, 109);
    EXPECT_EQ(none.completed, 109);
    EXPECT_EQ(streamHash(none.commands), 0x68cf1fb188412eeaULL);

    Harness para(true, mitigation::Kind::PARA, 2000.0);
    driveTrace(para, 12, 400, 64);
    EXPECT_EQ(para.commands.size(), 881u);
    EXPECT_EQ(para.ctrl->stats().mitigationRefreshes, 10);
    EXPECT_EQ(streamHash(para.commands), 0xd2fe96643f9a9d4fULL);
}

TEST(GoldenMapping, ExplicitLinearPresetMatchesDefault)
{
    const dram::Organization org = dram::table6Organization();
    Harness implicit(true, mitigation::Kind::PARA, 2000.0);
    Harness explicit_linear(
        true, mitigation::Kind::PARA, 2000.0, org,
        dram::AddressFunctions::preset("linear", org));
    driveTrace(implicit, 12, 400, 64);
    driveTrace(explicit_linear, 12, 400, 64);
    EXPECT_EQ(implicit.commands, explicit_linear.commands);
}

TEST(GoldenMapping, BankXorPresetChangesTheCommandStream)
{
    // Same physical request trace, different address functions: the
    // mapping axis must actually move traffic (different bank spread,
    // hence a different command stream), not just relabel it.
    const dram::Organization org = dram::table6Organization();
    Harness linear(true, mitigation::Kind::None, 0.0);
    Harness xorred(true, mitigation::Kind::None, 0.0, org,
                   dram::AddressFunctions::preset("bank-xor", org));
    driveTrace(linear, 11, 400, 64);
    driveTrace(xorred, 11, 400, 64);
    EXPECT_NE(linear.commands, xorred.commands);
    // Not a relabeling: the bank spread changes how many activations
    // the same trace costs (row hits and idle-row closes both move).
    EXPECT_NE(xorred.ctrl->stats().demandActs,
              linear.ctrl->stats().demandActs);
}

TEST(GoldenMultiRank, EventEngineMatchesPerTickWithRankXor)
{
    // The event engine's wake computation must stay exact when REF
    // fans out per rank and the mapping spreads rows across ranks.
    dram::Organization org = dram::table6Organization();
    org.ranks = 2;
    for (auto kind : {mitigation::Kind::None, mitigation::Kind::PARA,
                      mitigation::Kind::TWiCe}) {
        const bool counter_based = kind == mitigation::Kind::TWiCe;
        const double hc_first = counter_based ? 40.0 : 2000.0;
        Harness event(true, kind, hc_first, org,
                      dram::AddressFunctions::preset("rank-xor", org));
        Harness reference(false, kind, hc_first, org,
                          dram::AddressFunctions::preset("rank-xor",
                                                         org));
        driveTrace(event, 21, counter_based ? 800 : 400,
                   counter_based ? 0 : 64);
        driveTrace(reference, 21, counter_based ? 800 : 400,
                   counter_based ? 0 : 64);
        EXPECT_EQ(event.ctrl->now(), reference.ctrl->now());
        EXPECT_EQ(event.ctrl->stats().cycles,
                  reference.ctrl->stats().cycles);
        ASSERT_EQ(event.commands, reference.commands)
            << "divergence under " << toString(kind);
        EXPECT_GT(event.ctrl->stats().readsServed, 0);
    }
}

TEST(GoldenMultiRank, RefreshReachesEveryRank)
{
    dram::Organization org = dram::table6Organization();
    org.ranks = 2;
    Harness h(true, mitigation::Kind::None, 0.0, org,
              dram::AddressFunctions::linear());
    const auto trefi = h.ctrl->device().timing().tREFI;
    h.ctrl->advanceTo(4 * trefi);

    int ref_per_rank[2] = {0, 0};
    for (const std::string &line : h.commands) {
        if (line.rfind("REF", 0) == 0)
            ++ref_per_rank[line.find(" r1 ") != std::string::npos];
    }
    // One REF per rank per boundary, counted in autoRefreshes.
    EXPECT_GE(ref_per_rank[0], 3);
    EXPECT_EQ(ref_per_rank[0], ref_per_rank[1]);
    EXPECT_EQ(h.ctrl->stats().autoRefreshes,
              ref_per_rank[0] + ref_per_rank[1]);
}

TEST(GoldenEngineAdvance, AdvanceToMatchesTickLoop)
{
    // advanceTo(target) must be exactly tick() called target-now times.
    Harness jumped(true, mitigation::Kind::PARA, 2000.0);
    Harness ticked(true, mitigation::Kind::PARA, 2000.0);

    for (int i = 0; i < 32; ++i) {
        Request r;
        r.addr = static_cast<std::uint64_t>(i) * 8192 * 16;
        r.type = Request::Type::Read;
        ASSERT_TRUE(jumped.ctrl->enqueue(Request{r}));
        ASSERT_TRUE(ticked.ctrl->enqueue(std::move(r)));
    }
    const dram::Cycle target = 200000;
    jumped.ctrl->advanceTo(target);
    while (ticked.ctrl->now() < target)
        ticked.ctrl->tick();

    EXPECT_EQ(jumped.ctrl->stats().cycles, ticked.ctrl->stats().cycles);
    EXPECT_EQ(jumped.commands, ticked.commands);
}

} // namespace
