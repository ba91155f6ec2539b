/**
 * @file
 * Tests for the full-system model (cores + LLC + controller) and the
 * weighted-speedup experiment runner.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "util/logging.hh"

#include "core/experiment.hh"
#include "core/system.hh"
#include "mitigation/factory.hh"

namespace
{

using namespace rowhammer;
using core::ExperimentConfig;
using core::ExperimentRunner;
using core::System;
using core::SystemConfig;

SystemConfig
tinyConfig(int cores)
{
    SystemConfig config;
    config.cores = cores;
    config.llcBytes = 1 * 1024 * 1024;
    return config;
}

workload::AppProfile
tinyApp(int core, double apki = 60.0, double cold = 0.5)
{
    workload::AppProfile app;
    app.accessesPerKiloInst = apki;
    app.coldFraction = cold;
    app.coldBytes = 64LL * 1024 * 1024;
    app.hotBytes = 64 * 1024;
    app.baseAddr = static_cast<std::uint64_t>(core) * 64LL * 1024 * 1024;
    return app;
}

TEST(System, SingleCoreRuns)
{
    System system(tinyConfig(1), {tinyApp(0)}, 1);
    const auto result = system.run(20000, 2000);
    ASSERT_EQ(result.coreStats.size(), 1u);
    EXPECT_GE(result.coreStats[0].retired, 20000);
    EXPECT_GT(result.coreStats[0].ipc(), 0.05);
    EXPECT_LE(result.coreStats[0].ipc(), 4.0);
    EXPECT_GT(result.memStats.readsServed, 0);
    EXPECT_GT(result.llcStats.misses, 0);
}

TEST(System, MemoryBoundSlowerThanComputeBound)
{
    System heavy(tinyConfig(1), {tinyApp(0, 150.0, 0.9)}, 2);
    System light(tinyConfig(1), {tinyApp(0, 5.0, 0.1)}, 2);
    const double ipc_heavy = heavy.run(20000).coreStats[0].ipc();
    const double ipc_light = light.run(20000).coreStats[0].ipc();
    EXPECT_GT(ipc_light, 2.0 * ipc_heavy);
}

TEST(System, EightCoreContentionReducesPerCoreIpc)
{
    System solo(tinyConfig(1), {tinyApp(0, 100.0, 0.7)}, 3);
    const double alone = solo.run(15000).coreStats[0].ipc();

    std::vector<workload::AppProfile> apps;
    for (int c = 0; c < 8; ++c)
        apps.push_back(tinyApp(c, 100.0, 0.7));
    System shared(tinyConfig(8), apps, 3);
    const auto result = shared.run(15000);
    EXPECT_LT(result.coreStats[0].ipc(), alone);
}

TEST(System, MitigationOverheadSlowsSystem)
{
    std::vector<workload::AppProfile> apps;
    for (int c = 0; c < 4; ++c)
        apps.push_back(tinyApp(c, 120.0, 0.8));

    SystemConfig config = tinyConfig(4);
    mitigation::NoMitigation none;
    System baseline(config, apps, 4);
    baseline.setMitigations({&none});
    const auto base = baseline.run(15000, 1000);

    // PARA at an extremely vulnerable HCfirst refreshes neighbours on a
    // third of activations: visible slowdown.
    auto para = mitigation::makeMitigation(
        mitigation::Kind::PARA, 128.0, config.timing,
        config.organization.rows, 5);
    System mitigated(config, apps, 4);
    mitigated.setMitigations({para.get()});
    const auto with = mitigated.run(15000, 1000);

    EXPECT_GT(with.memStats.mitigationRefreshes, 0);
    EXPECT_GT(with.memStats.bandwidthOverheadPercent(), 1.0);
    const auto ipc_sum = [](const core::SystemResult &result) {
        double sum = 0.0;
        for (const auto &c : result.coreStats)
            sum += c.ipc();
        return sum;
    };
    EXPECT_LT(ipc_sum(with), ipc_sum(base));
}

TEST(System, MpkiTracksProfiles)
{
    std::vector<workload::AppProfile> apps{tinyApp(0, 80.0, 0.5)};
    System system(tinyConfig(1), apps, 6);
    const auto result = system.run(30000, 5000);
    // Expected LLC MPKI ~ apki * coldFraction = 40 (hot-set accesses
    // mostly hit; streaming conflict misses add some on top).
    EXPECT_GT(result.mpki(), 30.0);
    EXPECT_LT(result.mpki(), 70.0);
}

TEST(System, MultiRankXorMappingServesTraffic)
{
    // End-to-end: cores -> LLC -> controller with a 2-rank rank-xor
    // mapping. Traffic must reach both ranks and complete.
    core::SystemConfig config = tinyConfig(2);
    config.organization.ranks = 2;
    config.organization.rows = 1024;
    config.addressFunctions = rowhammer::dram::AddressFunctions::preset(
        "rank-xor", config.organization);
    core::System system(config, {tinyApp(0), tinyApp(1)}, 5);
    const core::SystemResult result = system.run(60000);
    EXPECT_GT(result.memStats.readsServed, 0);
    EXPECT_GT(result.memStats.autoRefreshes, 0);
    // Every refresh boundary issues one REF per rank.
    EXPECT_EQ(result.memStats.autoRefreshes % 2, 0);
    EXPECT_EQ(result.memStats.ranks, 2);
}

TEST(System, AppCountMustMatchCores)
{
    EXPECT_THROW(System(tinyConfig(2), {tinyApp(0)}, 1),
                 util::FatalError);
}

TEST(System, RejectsConfigsThatCannotProgress)
{
    // No MSHR means no miss is ever accepted; a CPU clock that is not
    // a positive finite rate yields no CPU cycle (or never stops).
    const auto rejects = [](SystemConfig config, const std::string &field) {
        try {
            System system(config, {tinyApp(0)}, 1);
            ADD_FAILURE() << "accepted bad " << field;
        } catch (const util::FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
                << e.what();
        }
    };
    SystemConfig config = tinyConfig(1);
    config.mshrPerCore = 0;
    rejects(config, "mshrPerCore");
    for (const double ghz :
         {0.0, -4.0, std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::quiet_NaN()}) {
        config = tinyConfig(1);
        config.cpuGhz = ghz;
        rejects(config, "cpuGhz");
    }
    config = tinyConfig(1);
    config.mshrPerCore = 1;
    EXPECT_NO_THROW(System(config, {tinyApp(0)}, 1));
}

TEST(System, TwoChannelSystemSplitsTrafficAcrossControllers)
{
    // Fine-grained channel interleave: consecutive cache lines
    // alternate controllers, so any streaming app loads both channels.
    core::SystemConfig config = tinyConfig(2);
    config.organization.channels = 2;
    config.organization.rows = 1024;
    core::System system(config, {tinyApp(0), tinyApp(1)}, 5);
    const core::SystemResult result = system.run(30000);

    const auto &ch0 = system.channelController(0).stats();
    const auto &ch1 = system.channelController(1).stats();
    EXPECT_GT(ch0.readsServed, 0);
    EXPECT_GT(ch1.readsServed, 0);
    EXPECT_GT(ch0.autoRefreshes, 0);
    EXPECT_GT(ch1.autoRefreshes, 0);

    // The aggregate sums counters across channels but keeps cycles
    // wall-clock (controllers advance in lockstep).
    EXPECT_EQ(result.memStats.channels, 2);
    EXPECT_EQ(result.memStats.readsServed,
              ch0.readsServed + ch1.readsServed);
    EXPECT_EQ(result.memStats.autoRefreshes,
              ch0.autoRefreshes + ch1.autoRefreshes);
    EXPECT_EQ(system.channelController(0).now(),
              system.channelController(1).now());
    EXPECT_EQ(result.memStats.cycles, ch0.cycles);
}

TEST(System, ChannelXorMappingMovesTrafficAcrossChannels)
{
    // Acceptance pin: a channel-xor 2-channel configuration produces
    // provably different per-controller command streams than the
    // linear 2-channel one for the same workload — the channel axis
    // moves traffic, it does not relabel it.
    auto run_with = [](const std::string &preset) {
        core::SystemConfig config;
        config.cores = 1;
        config.llcBytes = 256 * 1024;
        config.organization.channels = 2;
        config.organization.rows = 1024;
        if (preset != "linear") {
            config.addressFunctions =
                rowhammer::dram::AddressFunctions::preset(
                    preset, config.organization);
        }
        core::System system(config, {tinyApp(0, 120.0, 0.9)}, 7);
        std::vector<std::string> streams(2);
        for (int ch = 0; ch < 2; ++ch) {
            system.channelController(ch).device().setObserver(
                [&streams, ch](rowhammer::dram::Command cmd,
                               const rowhammer::dram::Address &addr,
                               rowhammer::dram::Cycle at) {
                    streams[static_cast<std::size_t>(ch)] +=
                        toString(cmd) + " g" +
                        std::to_string(addr.bankGroup) + " b" +
                        std::to_string(addr.bank) + " row" +
                        std::to_string(addr.row) + " @" +
                        std::to_string(at) + "\n";
                });
        }
        system.run(15000);
        return streams;
    };

    const auto linear = run_with("linear");
    const auto xorred = run_with("channel-xor");
    EXPECT_FALSE(linear[0].empty());
    EXPECT_FALSE(linear[1].empty());
    EXPECT_NE(linear[0], xorred[0]);
    EXPECT_NE(linear[1], xorred[1]);
}

TEST(System, MultiChannelRequiresPerChannelMitigations)
{
    core::SystemConfig config = tinyConfig(2);
    config.organization.channels = 2;
    config.organization.rows = 1024;

    mitigation::NoMitigation none;
    {
        core::System system(config, {tinyApp(0), tinyApp(1)}, 5);
        EXPECT_THROW(system.setMitigations({&none}), util::FatalError);
    }

    // One mechanism per channel works, and both controllers' refresh
    // work lands in the aggregate.
    auto para0 = mitigation::makeMitigation(
        mitigation::Kind::PARA, 128.0, config.timing,
        config.organization.rows, 5);
    auto para1 = mitigation::makeMitigation(
        mitigation::Kind::PARA, 128.0, config.timing,
        config.organization.rows, 6);
    core::System system(config, {tinyApp(0, 120.0, 0.9),
                                 tinyApp(1, 120.0, 0.9)}, 5);
    system.setMitigations({para0.get(), para1.get()});
    // No warmup: the per-channel counters below are absolute, so the
    // aggregate delta must cover the whole run.
    const auto result = system.run(15000);
    EXPECT_GT(system.channelController(0).stats().mitigationRefreshes,
              0);
    EXPECT_GT(system.channelController(1).stats().mitigationRefreshes,
              0);
    EXPECT_EQ(
        result.memStats.mitigationRefreshes,
        system.channelController(0).stats().mitigationRefreshes +
            system.channelController(1).stats().mitigationRefreshes);
    EXPECT_GT(result.memStats.bandwidthOverheadPercent(), 0.0);
}

TEST(System, TinyWriteQueueNeverDropsDemandWrites)
{
    // Conservation pin for the sendFromCore back-pressure fix: the
    // seed gated writes on the READ queue's space and ignored the
    // write-enqueue result, so a full write queue silently dropped
    // demand writes the core had already counted as retired. Post-fix
    // every LLC write miss enqueues exactly once (back-pressure stalls
    // the core instead) and every dirty writeback either enqueues or
    // is counted dropped, so after draining the queues:
    //   sum(writesServed) == writeMisses + writebacks - sum(dropped).
    core::SystemConfig config = tinyConfig(2);
    config.organization.channels = 2;
    config.organization.rows = 1024;
    config.controller.writeQueueSize = 4;
    config.controller.writeHighWatermark = 3;
    config.controller.writeLowWatermark = 1;

    std::vector<workload::AppProfile> apps;
    for (int c = 0; c < 2; ++c) {
        auto app = tinyApp(c, 150.0, 0.9);
        app.writeFraction = 0.6;
        apps.push_back(app);
    }
    core::System system(config, apps, 11);
    // No warmup: the LLC and controller counters below are absolute.
    const auto result = system.run(20000);

    // Drain the queued writes without CPU steps (cores would generate
    // new traffic); channels may desynchronize freely here.
    for (int ch = 0; ch < system.channels(); ++ch) {
        auto &controller = system.channelController(ch);
        while (!controller.idle())
            controller.advanceTo(controller.now() + 1024);
    }

    std::int64_t served = 0;
    std::int64_t dropped = 0;
    for (int ch = 0; ch < system.channels(); ++ch) {
        served += system.channelController(ch).stats().writesServed;
        dropped +=
            system.channelController(ch).stats().droppedWritebacks;
    }
    // The run must actually exercise both flavors of memory write.
    EXPECT_GT(result.llcStats.writeMisses, 0);
    EXPECT_GT(result.llcStats.writebacks, 0);
    EXPECT_EQ(served + dropped,
              result.llcStats.writeMisses + result.llcStats.writebacks);
    // Drops can't occur during the drain (no new enqueues), so the
    // aggregated run delta matches the per-channel counters.
    EXPECT_EQ(dropped, result.memStats.droppedWritebacks);
}

namespace engines
{

struct EngineRun
{
    std::vector<std::string> streams;
    std::vector<rowhammer::dram::Cycle> nows;
    core::SystemResult result;
};

/** Run `system` with every channel's command stream recorded. */
EngineRun
record(core::System &system, std::int64_t instructions,
       std::int64_t warmup)
{
    EngineRun out;
    out.streams.resize(static_cast<std::size_t>(system.channels()));
    for (int ch = 0; ch < system.channels(); ++ch) {
        system.channelController(ch).device().setObserver(
            [&out, ch](rowhammer::dram::Command cmd,
                       const rowhammer::dram::Address &addr,
                       rowhammer::dram::Cycle at) {
                out.streams[static_cast<std::size_t>(ch)] +=
                    toString(cmd) + " g" +
                    std::to_string(addr.bankGroup) + " b" +
                    std::to_string(addr.bank) + " row" +
                    std::to_string(addr.row) + " @" +
                    std::to_string(at) + "\n";
            });
    }
    out.result = system.run(instructions, warmup);
    for (int ch = 0; ch < system.channels(); ++ch)
        out.nows.push_back(system.channelController(ch).now());
    return out;
}

/** One fixed workload, with step()'s idle fast-forward or, under
 *  `lockstep`, without it (the reference). */
EngineRun
runEngine(int channels, bool lockstep, bool with_para)
{
    core::SystemConfig config = tinyConfig(2);
    config.organization.channels = channels;
    config.organization.rows = 1024;
    config.lockstep = lockstep;

    std::vector<workload::AppProfile> apps{tinyApp(0, 120.0, 0.8),
                                           tinyApp(1, 140.0, 0.7)};
    apps[0].writeFraction = 0.4;
    core::System system(config, apps, 9);

    std::vector<std::unique_ptr<mitigation::Mitigation>> owned;
    if (with_para) {
        std::vector<mitigation::Mitigation *> per_channel;
        for (int ch = 0; ch < channels; ++ch) {
            owned.push_back(mitigation::makeMitigation(
                mitigation::Kind::PARA, 2048.0, config.timing,
                config.organization.rows,
                static_cast<std::uint64_t>(5 + ch)));
            per_channel.push_back(owned.back().get());
        }
        system.setMitigations(per_channel);
    }
    return record(system, 12000, 1000);
}

/**
 * Eight cores on the benchmark's saturating mix 47 over one channel:
 * the read queue stays full, so most steps take the idle fast-forward.
 * The reference (`lockstep`) also runs the per-tick controller
 * (Controller::Config::eventDriven = false), so a comparison pins both
 * production engines, step()'s fast-forward and the controller's
 * event-driven jumps, against plain stepping under System load.
 */
EngineRun
runSaturated(core::SystemConfig config, bool lockstep,
             mitigation::Kind kind, double hc_first,
             std::int64_t instructions)
{
    config.lockstep = lockstep;
    config.controller.eventDriven = !lockstep;
    const auto mixes =
        workload::mixCatalogue(config.cores, 2 * 1024 * 1024);
    core::System system(config, mixes[47].apps, 3);
    const auto mechanism = mitigation::makeMitigation(
        kind, hc_first, config.timing, config.organization.rows, 5);
    system.setMitigations({mechanism.get()});
    return record(system, instructions, instructions / 4);
}

/** Fail at the first command where two recorded streams differ: a
 *  full diff of long streams can take gigabytes. */
void
expectSameStream(const std::string &a, const std::string &b,
                 std::size_t channel)
{
    if (a == b)
        return;
    const auto at = static_cast<std::size_t>(
        std::mismatch(a.begin(), a.end(), b.begin(), b.end()).first -
        a.begin());
    // rfind's npos + 1 wraps to 0: the first line.
    const std::size_t start = at == 0 ? 0 : a.rfind('\n', at - 1) + 1;
    const auto line = [start](const std::string &s) {
        return s.substr(start, s.find('\n', start) - start);
    };
    ADD_FAILURE() << "channel " << channel << " diverges at command "
                  << std::count(a.begin(),
                                a.begin() +
                                    static_cast<std::ptrdiff_t>(start),
                                '\n')
                  << ": \"" << line(a) << "\" vs \"" << line(b) << "\"";
}

/** Bit-exact comparison: command streams, end cycles, and every
 *  result statistic (EXPECT_EQ on doubles is deliberate). */
void
expectIdentical(const EngineRun &a, const EngineRun &b,
                const std::string &label)
{
    SCOPED_TRACE(label);
    ASSERT_EQ(a.streams.size(), b.streams.size());
    for (std::size_t ch = 0; ch < a.streams.size(); ++ch)
        expectSameStream(a.streams[ch], b.streams[ch], ch);
    EXPECT_EQ(a.nows, b.nows);
    ASSERT_EQ(a.result.coreStats.size(), b.result.coreStats.size());
    for (std::size_t i = 0; i < a.result.coreStats.size(); ++i) {
        EXPECT_EQ(a.result.coreStats[i].cycles,
                  b.result.coreStats[i].cycles);
        EXPECT_EQ(a.result.coreStats[i].retired,
                  b.result.coreStats[i].retired);
        EXPECT_EQ(a.result.coreStats[i].memReads,
                  b.result.coreStats[i].memReads);
        EXPECT_EQ(a.result.coreStats[i].memWrites,
                  b.result.coreStats[i].memWrites);
    }
    EXPECT_EQ(a.result.llcStats.accesses, b.result.llcStats.accesses);
    EXPECT_EQ(a.result.llcStats.hits, b.result.llcStats.hits);
    EXPECT_EQ(a.result.llcStats.misses, b.result.llcStats.misses);
    EXPECT_EQ(a.result.llcStats.writebacks,
              b.result.llcStats.writebacks);
    EXPECT_EQ(a.result.llcStats.writeMisses,
              b.result.llcStats.writeMisses);
    EXPECT_EQ(a.result.memStats.cycles, b.result.memStats.cycles);
    EXPECT_EQ(a.result.memStats.readsServed,
              b.result.memStats.readsServed);
    EXPECT_EQ(a.result.memStats.writesServed,
              b.result.memStats.writesServed);
    EXPECT_EQ(a.result.memStats.demandActs,
              b.result.memStats.demandActs);
    EXPECT_EQ(a.result.memStats.autoRefreshes,
              b.result.memStats.autoRefreshes);
    EXPECT_EQ(a.result.memStats.mitigationRefreshes,
              b.result.memStats.mitigationRefreshes);
    EXPECT_EQ(a.result.memStats.mitigationBusyCycles,
              b.result.memStats.mitigationBusyCycles);
    EXPECT_EQ(a.result.memStats.droppedWritebacks,
              b.result.memStats.droppedWritebacks);
    EXPECT_EQ(a.result.cpuCycles, b.result.cpuCycles);
}

} // namespace engines

TEST(System, FastForwardMatchesLockstepTwoChannels)
{
    for (const bool with_para : {false, true}) {
        const auto reference =
            engines::runEngine(2, /*lockstep=*/true, with_para);
        ASSERT_FALSE(reference.streams[0].empty());
        ASSERT_FALSE(reference.streams[1].empty());
        engines::expectIdentical(
            reference, engines::runEngine(2, /*lockstep=*/false, with_para),
            "para=" + std::to_string(with_para));
    }
}

TEST(System, FastForwardMatchesLockstepFourChannels)
{
    for (const bool with_para : {false, true}) {
        const auto reference =
            engines::runEngine(4, /*lockstep=*/true, with_para);
        engines::expectIdentical(
            reference, engines::runEngine(4, /*lockstep=*/false, with_para),
            "para=" + std::to_string(with_para));
    }
}

TEST(System, FastForwardMatchesLockstepSaturated)
{
    using mitigation::Kind;
    // Table 6 system with fig10's 512 rows and 1 MB LLC.
    core::SystemConfig config;
    config.organization.rows = 512;
    config.llcBytes = 1024 * 1024;
    const auto expect_agree = [](const core::SystemConfig &c, Kind kind,
                                 double hc, std::int64_t instructions,
                                 const std::string &label) {
        engines::EngineRun production = engines::runSaturated(
            c, /*lockstep=*/false, kind, hc, instructions);
        engines::expectIdentical(
            engines::runSaturated(c, /*lockstep=*/true, kind, hc,
                                  instructions),
            production, label);
        return production.result;
    };
    // At these HCfirst values refresh work nearly fills the channel, so
    // a few hundred instructions already take millions of cycles.
    const core::SystemResult para =
        expect_agree(config, Kind::PARA, 64.0, 200, "PARA");
    // Absolute pins: both arms share the victim-refresh branch, so a
    // slip there (say, re-activating a victim whose row is already
    // open) would pass the comparison above.
    EXPECT_EQ(para.memStats.cycles, 1187383);
    EXPECT_EQ(para.memStats.readsServed, 12008);
    EXPECT_EQ(para.memStats.writesServed, 4901);
    EXPECT_EQ(para.memStats.demandActs, 14991);
    EXPECT_EQ(para.memStats.autoRefreshes, 126);
    EXPECT_EQ(para.memStats.mitigationRefreshes, 16767);
    // Exact: the bits, not a tolerance.
    EXPECT_EQ(para.memStats.mitigationBusyCycles, 922185.0);
    EXPECT_EQ(para.cpuCycles, 3956360);
    expect_agree(config, Kind::IncreasedRefresh, 69200.0, 200,
                 "IncRefresh");
    expect_agree(config, Kind::None, 0.0, 1000, "None");

    // Cores also block on writes.
    core::SystemConfig small_writes = config;
    small_writes.controller.writeQueueSize = 4;
    small_writes.controller.writeHighWatermark = 3;
    small_writes.controller.writeLowWatermark = 1;
    expect_agree(small_writes, Kind::None, 0.0, 1000,
                 "4-entry write queue");

    // A full window can sit behind a fresh LLC hit, so the hit's
    // completion is what unblocks the stalled core.
    core::SystemConfig small_window = config;
    small_window.windowSize = 8;
    expect_agree(small_window, Kind::None, 0.0, 1000, "8-entry window");
}

TEST(System, PinnedCountersTwoChannelPara)
{
    // Absolute pins with and without the idle fast-forward. The
    // FastForwardMatchesLockstep tests compare the two only to each
    // other, so a slip in how reads complete that both share would
    // still pass them.
    for (const bool lockstep : {false, true}) {
        SCOPED_TRACE("lockstep=" + std::to_string(lockstep));
        core::SystemConfig config;
        config.cores = 4;
        config.organization.rows = 512;
        config.organization.channels = 2;
        config.llcBytes = 256 * 1024;
        config.lockstep = lockstep;
        const auto mixes = workload::mixCatalogue(4, 1024 * 1024);
        core::System system(config, mixes[47].apps, 3);
        const auto para0 = mitigation::makeMitigation(
            mitigation::Kind::PARA, 2000.0, config.timing,
            config.organization.rows, 5);
        const auto para1 = mitigation::makeMitigation(
            mitigation::Kind::PARA, 2000.0, config.timing,
            config.organization.rows, 6);
        system.setMitigations({para0.get(), para1.get()});
        const core::SystemResult result = system.run(6000, 750);

        const std::int64_t retired[] = {6015, 6272, 6589, 6838};
        const std::int64_t reads[] = {1308, 1257, 1244, 837};
        const std::int64_t writes[] = {183, 323, 400, 522};
        ASSERT_EQ(result.coreStats.size(), 4u);
        for (std::size_t i = 0; i < 4; ++i) {
            EXPECT_EQ(result.coreStats[i].cycles, 91663);
            EXPECT_EQ(result.coreStats[i].retired, retired[i]);
            EXPECT_EQ(result.coreStats[i].memReads, reads[i]);
            EXPECT_EQ(result.coreStats[i].memWrites, writes[i]);
        }
        EXPECT_EQ(result.llcStats.accesses, 6074);
        EXPECT_EQ(result.llcStats.hits, 669);
        EXPECT_EQ(result.llcStats.misses, 5405);
        EXPECT_EQ(result.llcStats.writebacks, 513);
        EXPECT_EQ(result.llcStats.writeMisses, 1246);
        EXPECT_EQ(result.memStats.cycles, 27510);
        EXPECT_EQ(result.memStats.readsServed, 4155);
        EXPECT_EQ(result.memStats.writesServed, 1766);
        EXPECT_EQ(result.memStats.demandActs, 4827);
        EXPECT_EQ(result.memStats.autoRefreshes, 6);
        EXPECT_EQ(result.memStats.mitigationRefreshes, 218);
        // Exact: the bits, not a tolerance.
        EXPECT_EQ(result.memStats.mitigationBusyCycles, 11990.0);
        EXPECT_EQ(result.memStats.readQueueFullEvents, 0);
        EXPECT_EQ(result.memStats.droppedWritebacks, 0);
        EXPECT_EQ(result.memStats.ranks, 1);
        EXPECT_EQ(result.memStats.channels, 2);
        EXPECT_EQ(result.cpuCycles, 91663);
    }
}

TEST(Experiment, BaselineNormalizedToOne)
{
    ExperimentConfig config;
    config.system = tinyConfig(2);
    config.system.cores = 2;
    config.instructionsPerCore = 8000;
    config.warmupInstructions = 1000;
    config.mixCount = 1;
    ExperimentRunner runner(config);

    // A mechanism with no effect: normalized performance ~ 1.
    const auto outcome =
        runner.runMix(0, mitigation::Kind::Ideal, 200000.0);
    ASSERT_TRUE(outcome.has_value());
    EXPECT_NEAR(outcome->normalizedPerformance, 1.0, 0.05);
    EXPECT_LT(outcome->bandwidthOverheadPercent, 0.5);
}

TEST(Experiment, ParaDegradesWithVulnerability)
{
    ExperimentConfig config;
    config.system = tinyConfig(2);
    config.system.cores = 2;
    config.instructionsPerCore = 8000;
    config.warmupInstructions = 1000;
    config.mixCount = 1;
    ExperimentRunner runner(config);

    const auto strong = runner.runMix(0, mitigation::Kind::PARA,
                                      100000.0);
    const auto weak = runner.runMix(0, mitigation::Kind::PARA, 256.0);
    ASSERT_TRUE(strong.has_value());
    ASSERT_TRUE(weak.has_value());
    EXPECT_GT(strong->normalizedPerformance,
              weak->normalizedPerformance);
    EXPECT_GT(weak->bandwidthOverheadPercent,
              strong->bandwidthOverheadPercent);
}

TEST(Experiment, UnevaluableCombinationsReturnNull)
{
    ExperimentConfig config;
    config.system = tinyConfig(2);
    config.system.cores = 2;
    config.instructionsPerCore = 2000;
    config.mixCount = 1;
    config.warmupInstructions = 0;
    ExperimentRunner runner(config);
    EXPECT_FALSE(
        runner.runMix(0, mitigation::Kind::ProHIT, 4800.0).has_value());
    EXPECT_FALSE(
        runner.runMix(0, mitigation::Kind::TWiCe, 4800.0).has_value());
}

} // namespace
