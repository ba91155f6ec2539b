/**
 * @file
 * TRR bypass through the cycle-accurate path: an attack pattern is
 * replayed by attack::TraceAdapter (a cpu::TraceSource), driven through
 * a trace-driven core into the FR-FCFS memory controller with an
 * in-DRAM TRR sampler attached, and the controller's ACT command stream
 * is mirrored into the circuit-level fault model to observe bit flips.
 *
 * The paper's worst-case double-sided hammer is caught cold: the
 * sampler latches both aggressors every refresh interval and the RFM
 * slots keep the victim refreshed. The TRRespass-style 8-sided pattern
 * overwhelms the 2-slot sampler with decoys, and the true pair slips
 * through often enough to flip the profiled victim of a
 * projected-future chip (HCfirst = 128, the tail of the paper's
 * Figure 10 sweep).
 *
 * Build & run:  ./build/examples/trr_bypass
 */

#include <algorithm>
#include <iostream>

#include "attack/builder.hh"
#include "attack/trace_adapter.hh"
#include "cpu/core.hh"
#include "fault/chip_model.hh"
#include "mitigation/trr.hh"
#include "sim/controller.hh"
#include "util/logging.hh"

using namespace rowhammer;

namespace
{

constexpr double kHcFirst = 128; // Projected-future chip (Section 6.2).
constexpr std::int64_t kTargetActs = 60000;

/**
 * Drive `pattern` through core + controller until the aggressor rows
 * have absorbed kTargetActs activations, mirroring ACTs into the fault
 * model (aggressor ACT = hammer; any other ACT, e.g. a TRR victim
 * refresh, = restorative row cycle). Returns the victim's flip count.
 */
std::size_t
runAttack(fault::ChipModel &chip, const attack::AccessPattern &pattern,
          mitigation::Mitigation *mechanism)
{
    dram::Organization org;
    org.ranks = 1;
    org.bankGroups = 1;
    org.banksPerGroup = chip.geometry().banks;
    org.rows = chip.geometry().rows;
    org.columns = static_cast<int>(chip.geometry().rowDataBits / 8 / 64);
    org.bytesPerColumn = 64;
    org.check();

    sim::Controller ctrl(org, dram::ddr4_2400());
    ctrl.setMitigation(mechanism);

    chip.writePattern(chip.spec().worstPattern, pattern.victimRow & 1);
    chip.refreshRow(pattern.bank, pattern.victimRow);

    // 200 non-memory bubbles between accesses model a flush-serialized
    // attacker (one access per ~tRC): without them the FR-FCFS
    // scheduler batches row hits and the hammer intensity collapses.
    attack::TraceAdapter trace(pattern, sim::AddressMapper(org), 200);

    std::int64_t aggressor_acts = 0;
    std::vector<fault::FlipObservation> latched;
    util::Rng rng(99);
    ctrl.device().setObserver([&](dram::Command cmd,
                                  const dram::Address &addr,
                                  dram::Cycle) {
        if (cmd == dram::Command::REF) {
            // Blacksmith-style REF synchronization: re-phase the
            // pattern so its decoy slots always fire first within a
            // refresh interval (what keeps an in-order sampler blind).
            trace.resync();
            return;
        }
        if (cmd != dram::Command::ACT)
            return;
        if (pattern.hasAggressor(addr.row)) {
            chip.addActivations(pattern.bank, addr.row, 1);
            ++aggressor_acts;
        } else {
            // Victim refreshes (TRR service) and any other row cycle
            // restore the row's charge - but a flip that already
            // happened persists: harvest before restoring.
            chip.readRowInto(pattern.bank, addr.row, rng, latched);
            chip.refreshRow(pattern.bank, addr.row);
        }
    });
    cpu::Core core(
        trace, [&](std::uint64_t addr, bool write, std::uint32_t slot) {
            sim::Request request;
            request.addr = addr;
            request.type = write ? sim::Request::Type::Write
                                 : sim::Request::Type::Read;
            request.slot = slot;
            return ctrl.enqueue(request);
        });

    const dram::Cycle cycle_cap = 20'000'000;
    while (aggressor_acts < kTargetActs && ctrl.now() < cycle_cap) {
        core.tick();
        ctrl.tick();
        ctrl.drainCompleted(
            [&](int, std::uint32_t slot) { core.complete(slot); });
    }

    std::cout << "  pattern " << pattern.label << ": "
              << aggressor_acts << " aggressor ACTs, "
              << ctrl.stats().autoRefreshes << " REFs, "
              << ctrl.stats().mitigationRefreshes
              << " TRR victim refreshes\n";

    chip.readRowInto(pattern.bank, pattern.victimRow, rng, latched);
    std::sort(latched.begin(), latched.end());
    latched.erase(std::unique(latched.begin(), latched.end()),
                  latched.end());
    std::size_t victim_flips = 0;
    for (const auto &flip : latched)
        victim_flips += flip.row == pattern.victimRow ? 1 : 0;
    std::cout << "  observed bit flips in the profiled victim: "
              << victim_flips << "\n";
    return victim_flips;
}

} // namespace

int
main()
{
    util::setVerbose(false);

    fault::ChipSpec spec = fault::configFor(fault::TypeNode::DDR4New,
                                            fault::Manufacturer::A);
    fault::ChipGeometry geometry;
    geometry.banks = 1;
    geometry.rows = 1024;
    geometry.rowDataBits = 16384;

    attack::BuilderConfig builder_config;
    builder_config.rows = geometry.rows;
    builder_config.activationBudget = kTargetActs;

    std::cout << "in-DRAM TRR sampler (2 slots, in-order) vs. a "
              << "projected-future chip (HCfirst " << kHcFirst << ")\n";

    {
        std::cout << "\ndouble-sided hammer (the paper's worst case):\n";
        fault::ChipModel chip(spec, kHcFirst, 7, geometry);
        attack::PatternBuilder builder(builder_config, 1);
        mitigation::TrrSampler trr(2);
        runAttack(chip,
                  builder.doubleSided(chip.weakestBank(),
                                      chip.weakestRow()),
                  &trr);
        std::cout << "  -> both aggressors fit the sampler; the victim "
                     "is refreshed every tREFI.\n";
    }

    {
        std::cout << "\n8-sided pattern (TRRespass-style decoys):\n";
        fault::ChipModel chip(spec, kHcFirst, 7, geometry);
        attack::PatternBuilder builder(builder_config, 1);
        mitigation::TrrSampler trr(2);
        const std::size_t flips = runAttack(
            chip,
            builder.nSided(chip.weakestBank(), chip.weakestRow(), 8),
            &trr);
        std::cout << "  -> " << (flips ? "sampler saturated: the true "
                                         "pair escaped sampling long "
                                         "enough to cross HCfirst."
                                       : "no flips this run; raise "
                                         "kTargetActs for longer "
                                         "exposure.")
                  << "\n";
    }
    return 0;
}
