/**
 * @file
 * End-to-end RowHammer attack simulation: an attacker issues a
 * double-sided hammer through the full cycle-accurate memory
 * controller, targeting the chip's weakest (profiled) row. Accesses are
 * serialized (each read waits for the previous one, as a CLFLUSH-based
 * attack does) so the FR-FCFS scheduler cannot batch row hits and every
 * access costs an activation. Run once unprotected and once with PARA
 * attached, and compare the victim's accumulated exposure and observed
 * bit flips.
 *
 * Build & run:  ./build/examples/attack_sim
 */

#include <iostream>

#include "fault/chip_model.hh"
#include "mitigation/para.hh"
#include "sim/controller.hh"
#include "util/logging.hh"

using namespace rowhammer;

namespace
{

/**
 * Drive a serialized double-sided hammer through the controller and
 * mirror the resulting ACT stream into the fault model. Returns the
 * victim row's worst un-refreshed exposure, in hammers.
 */
double
runAttack(mitigation::Mitigation *mechanism, fault::ChipModel &chip,
          int bank, int victim_row, std::int64_t hammers)
{
    sim::Controller ctrl(dram::table6Organization(), dram::ddr4_2400());
    ctrl.setMitigation(mechanism);
    const sim::AddressMapper &mapper = ctrl.mapper();

    chip.writePattern(chip.spec().worstPattern, victim_row & 1);
    chip.refreshRow(bank, victim_row);

    dram::Address a1{.rank = 0, .bankGroup = 0, .bank = 0,
                     .row = victim_row - 1, .column = 0};
    dram::Address a2 = a1;
    a2.row = victim_row + 1;

    // Track the victim's exposure *between mitigation refreshes*: each
    // victim refresh restores the row, so only the longest refresh-free
    // stretch matters for whether the attack succeeds.
    std::int64_t acts_since_refresh = 0;
    std::int64_t worst_stretch = 0;
    std::int64_t prev_refreshes = 0;

    bool toggle = false;
    for (std::int64_t i = 0; i < 2 * hammers; ++i) {
        // Serialized access: wait for the read to complete before
        // issuing the next one, so every access misses the row buffer.
        sim::Request r;
        r.addr = mapper.encode(toggle ? a1 : a2);
        toggle = !toggle;
        r.type = sim::Request::Type::Read;
        while (!ctrl.enqueue(r))
            ctrl.tick();
        bool done = false;
        while (!done) {
            ctrl.tick();
            ctrl.drainCompleted([&](int, std::uint32_t) { done = true; });
        }

        ++acts_since_refresh;
        const std::int64_t refreshes =
            ctrl.stats().mitigationRefreshes;
        if (refreshes != prev_refreshes) {
            worst_stretch =
                std::max(worst_stretch, acts_since_refresh);
            acts_since_refresh = 0;
            prev_refreshes = refreshes;
        }
    }
    worst_stretch = std::max(worst_stretch, acts_since_refresh);

    // Mirror the worst refresh-free stretch into the fault model (half
    // the activations land on each aggressor).
    chip.addActivations(bank, victim_row - 1, worst_stretch / 2);
    chip.addActivations(bank, victim_row + 1, worst_stretch / 2);

    const auto &stats = ctrl.stats();
    std::cout << "  demand ACTs: " << stats.demandActs
              << ", mitigation refreshes: "
              << stats.mitigationRefreshes
              << ", worst refresh-free exposure: "
              << chip.exposure(bank, victim_row) << " hammers\n";
    return chip.exposure(bank, victim_row);
}

} // namespace

int
main()
{
    util::setVerbose(false);

    // A DDR4-new chip with HCfirst = 10k; the attacker has profiled the
    // chip (Section 6.3.1 discusses such profiling) and targets the
    // weakest row.
    fault::ChipSpec spec = fault::configFor(fault::TypeNode::DDR4New,
                                            fault::Manufacturer::A);
    fault::ChipGeometry geometry;
    geometry.banks = 2;
    geometry.rows = 1024;
    geometry.rowDataBits = 16384;

    const std::int64_t hammers = 15000;

    std::cout << "attack: serialized double-sided hammer, " << hammers
              << " hammer pairs against a chip with HCfirst 10k\n";

    std::cout << "\nwithout mitigation:\n";
    fault::ChipModel bare(spec, 10000, 7, geometry);
    runAttack(nullptr, bare, bare.weakestBank(), bare.weakestRow(),
              hammers);
    util::Rng rng(4);
    const auto flips =
        bare.readRow(bare.weakestBank(), bare.weakestRow(), rng);
    std::cout << "  observed bit flips in victim: " << flips.size()
              << (flips.empty() ? "" : "  (attack succeeded)") << "\n";

    std::cout << "\nwith PARA (p solved for HCfirst 10k):\n";
    fault::ChipModel guarded(spec, 10000, 7, geometry);
    mitigation::Para para(10000.0, dram::ddr4_2400(), 42);
    runAttack(&para, guarded, guarded.weakestBank(),
              guarded.weakestRow(), hammers);
    const auto guarded_flips = guarded.readRow(
        guarded.weakestBank(), guarded.weakestRow(), rng);
    std::cout << "  observed bit flips in victim: "
              << guarded_flips.size() << "  (victim refreshed before "
              << "its threshold; attack defeated)\n";
    return 0;
}
