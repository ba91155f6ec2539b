/**
 * @file
 * Google-benchmark microbenchmarks of the simulation substrates: DRAM
 * command issue, controller ticks, fault-model hammering, ECC decode
 * throughput, and attack sessions. These bound the wall-clock cost of
 * the experiment harness itself.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "attack/builder.hh"
#include "attack/fuzzer.hh"
#include "attack/session.hh"
#include "charlib/hcfirst.hh"
#include "core/system.hh"
#include "dram/address_functions.hh"
#include "dram/device.hh"
#include "ecc/ondie.hh"
#include "fault/chip_model.hh"
#include "mitigation/factory.hh"
#include "mitigation/trr.hh"
#include "sim/controller.hh"
#include "util/logging.hh"
#include "workload/synthetic.hh"

using namespace rowhammer;

namespace
{

void
BM_DeviceHammerPair(benchmark::State &state)
{
    dram::Device dev(dram::table6Organization(), dram::ddr4_2400());
    dram::Address a{.rank = 0, .bankGroup = 0, .bank = 0, .row = 100,
                    .column = 0};
    dram::Address b = a;
    b.row = 102;
    dram::Cycle now = 0;
    for (auto _ : state) {
        for (const auto &addr : {a, b}) {
            now = dev.earliest(dram::Command::ACT, addr, now);
            dev.issue(dram::Command::ACT, addr, now);
            now = dev.earliest(dram::Command::PRE, addr, now);
            dev.issue(dram::Command::PRE, addr, now);
        }
    }
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_DeviceHammerPair);

void
BM_ControllerTick(benchmark::State &state)
{
    sim::Controller ctrl(dram::table6Organization(), dram::ddr4_2400());
    std::uint64_t addr = 0;
    for (auto _ : state) {
        if (ctrl.readQueueSpace() > 0) {
            sim::Request r;
            r.addr = addr;
            addr += 8192 * 16; // New row each time.
            r.type = sim::Request::Type::Read;
            // Guarded by readQueueSpace() above; cannot be refused.
            (void)ctrl.enqueue(std::move(r));
        }
        ctrl.tick();
        ctrl.drainCompleted([](int, std::uint32_t) {});
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ControllerTick);

void
BM_ControllerRowHit(benchmark::State &state)
{
    // Row-buffer-hit stream: consecutive cache lines of one row, the
    // path the FR-FCFS first pass serves without any precharge work.
    sim::Controller ctrl(dram::table6Organization(), dram::ddr4_2400());
    std::uint64_t line = 0;
    for (auto _ : state) {
        if (ctrl.readQueueSpace() > 0) {
            sim::Request r;
            r.addr = (line++ % 128) * 64; // Stay inside one row.
            r.type = sim::Request::Type::Read;
            // Guarded by readQueueSpace() above; cannot be refused.
            (void)ctrl.enqueue(std::move(r));
        }
        ctrl.tick();
        ctrl.drainCompleted([](int, std::uint32_t) {});
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ControllerRowHit);

void
BM_ExperimentStep(benchmark::State &state)
{
    // One multicore experiment step (device cycle + CPU cycles) with
    // PARA attached: the unit of work behind every Figure 10 cell.
    core::SystemConfig config;
    config.cores = 4;
    config.organization.rows = 512;
    config.llcBytes = 1024 * 1024;
    const auto mixes =
        workload::mixCatalogue(config.cores, 2 * 1024 * 1024);
    core::System system(config, mixes[0].apps, 1);
    auto para = mitigation::makeMitigation(
        mitigation::Kind::PARA, 4800.0, config.timing,
        config.organization.rows, 7);
    system.setMitigations({para.get()});
    for (auto _ : state)
        system.step();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExperimentStep);

void
BM_SystemRun(benchmark::State &state)
{
    // A whole multi-channel system run per execution engine: arg 0 =
    // the reference lockstep engine, 1 = serial epochs. Results are
    // bit-identical across args; only wall-clock should move.
    core::SystemConfig config;
    config.cores = 4;
    config.organization.rows = 512;
    config.organization.channels = 4;
    config.llcBytes = 1024 * 1024;
    config.addressFunctions = dram::AddressFunctions::resolve(
        "channel-xor", config.organization);
    config.lockstep = state.range(0) == 0;
    const auto mixes =
        workload::mixCatalogue(config.cores, 2 * 1024 * 1024);
    for (auto _ : state) {
        // Fresh System per iteration: run() is run-to-completion.
        core::System system(config, mixes[0].apps, 1);
        std::vector<std::unique_ptr<mitigation::Mitigation>> paras;
        std::vector<mitigation::Mitigation *> attached;
        for (int ch = 0; ch < config.organization.channels; ++ch) {
            paras.push_back(mitigation::makeMitigation(
                mitigation::Kind::PARA, 4800.0, config.timing,
                config.organization.rows,
                7 + static_cast<std::uint64_t>(ch)));
            attached.push_back(paras.back().get());
        }
        system.setMitigations(attached);
        benchmark::DoNotOptimize(system.run(20000));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SystemRun)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void
BM_SystemRunSaturated(benchmark::State &state)
{
    // The saturated end of Figure 10: eight cores on mix 47 over one
    // channel with increased refresh at HCfirst 69.2k keep the read
    // queue full, so most CPU cycles are back-pressured retries
    // (BM_SystemRun's mix 0 never fills a queue). Serial epochs.
    core::SystemConfig config;
    config.organization.rows = 512;
    config.llcBytes = 1024 * 1024;
    const auto mixes =
        workload::mixCatalogue(config.cores, 2 * 1024 * 1024);
    for (auto _ : state) {
        core::System system(config, mixes[47].apps, 1);
        const auto mechanism = mitigation::makeMitigation(
            mitigation::Kind::IncreasedRefresh, 69200.0, config.timing,
            config.organization.rows, 7);
        system.setMitigations({mechanism.get()});
        benchmark::DoNotOptimize(system.run(300));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SystemRunSaturated)->Unit(benchmark::kMillisecond);

void
BM_ChipModelHammer(benchmark::State &state)
{
    fault::ChipSpec spec = fault::configFor(fault::TypeNode::DDR4New,
                                            fault::Manufacturer::A);
    fault::ChipModel chip(spec, 10000, 1);
    util::Rng rng(1);
    int row = 64;
    for (auto _ : state) {
        benchmark::DoNotOptimize(chip.hammerDoubleSided(
            0, row, 100000, spec.worstPattern, rng));
        row = 64 + (row + 7) % 8192;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChipModelHammer);

void
BM_OnDieEccDecode(benchmark::State &state)
{
    ecc::OnDieEcc ecc(128);
    const util::BitVec data(128, 0x5A);
    const std::vector<std::size_t> flips{17, 63};
    for (auto _ : state)
        benchmark::DoNotOptimize(ecc.readWithFlips(data, flips));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OnDieEccDecode);

void
BM_HcFirstSearch(benchmark::State &state)
{
    fault::ChipSpec spec = fault::configFor(fault::TypeNode::DDR4New,
                                            fault::Manufacturer::A);
    fault::ChipModel chip(spec, 10000, 2);
    util::Rng rng(2);
    charlib::HcFirstOptions options;
    options.sampleRows = 8;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            charlib::findHcFirst(chip, options, rng));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HcFirstSearch);

void
BM_HammerSession(benchmark::State &state)
{
    // One attack::runPattern session on the fuzzing campaign's chip
    // (FuzzerConfig defaults): arg 0 = a FuzzingParameterSet draw at
    // the campaign's budget against the campaign's TRR sampler (size
    // 4), the fuzzer's inner loop; arg 1 = PARA on an 8-sided
    // pattern, the per-ACT default path of Mitigation::onActivateRun.
    const attack::FuzzerConfig config;
    fault::ChipModel chip(config.spec, config.hcFirst, config.seed,
                          config.geometry);
    const int step = chip.aggressorStep();
    const int rows = config.geometry.rows;
    const int bank = chip.weakestBank();
    const int victim =
        std::clamp(chip.weakestRow(), 1 + step, rows - 2 - step);
    const bool fuzzed = state.range(0) == 0;
    attack::AccessPattern pattern;
    if (fuzzed) {
        pattern = attack::FuzzingParameterSet(config, step, config.budget())
                      .sample(bank, victim, 1);
    } else {
        pattern = attack::PatternBuilder(
                      attack::BuilderConfig{.rows = rows,
                                            .step = step,
                                            .activationBudget = 200000},
                      1)
                      .nSided(bank, victim, 8);
    }
    attack::SessionConfig session;
    session.actsPerRefInterval = config.actsPerRefInterval;
    for (auto _ : state) {
        std::unique_ptr<mitigation::Mitigation> mechanism;
        if (fuzzed) {
            mechanism =
                std::make_unique<mitigation::TrrSampler>(config.samplerSize);
        } else {
            mechanism = mitigation::makeMitigation(
                mitigation::Kind::PARA, config.hcFirst,
                dram::ddr4_2400(), rows, 7);
        }
        util::Rng rng(3);
        benchmark::DoNotOptimize(
            attack::runPattern(chip, pattern, mechanism.get(), session,
                               rng));
    }
    state.SetItemsProcessed(state.iterations() *
                            pattern.activationBudget());
}
BENCHMARK(BM_HammerSession)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    rowhammer::util::setVerbose(false);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
