#include "chip_tester.hh"

#include <algorithm>

#include "util/logging.hh"

namespace rowhammer::softmc
{

namespace
{

/**
 * Build a single-rank device organization matching the fault model's
 * geometry. The tester drives one bank at a time, so bank groups are
 * flattened.
 */
dram::Organization
testerOrganization(const fault::ChipGeometry &geom)
{
    dram::Organization org;
    org.ranks = 1;
    org.bankGroups = 1;
    org.banksPerGroup = geom.banks;
    org.rows = geom.rows;
    org.columns = static_cast<int>(geom.rowDataBits / 8 / 64);
    org.bytesPerColumn = 64;
    org.check();
    return org;
}

} // namespace

ChipTester::ChipTester(fault::ChipModel &model)
    : model_(model),
      device_(testerOrganization(model.geometry()),
              dram::defaultTiming(model.spec().standard()))
{
}

dram::Cycle
ChipTester::issueAsap(dram::Command cmd, const dram::Address &addr)
{
    const dram::Cycle at = device_.earliest(cmd, addr, now_);
    device_.issue(cmd, addr, at);
    now_ = at + 1; // One command per bus cycle.
    return at;
}

void
ChipTester::writePattern(fault::DataPattern dp, int victim_parity)
{
    // Bulk pattern write (the FPGA platform also uses a bulk write
    // path); the device-level WR stream is elided for speed.
    model_.writePattern(dp, victim_parity);
}

void
ChipTester::refreshRow(int bank, int row)
{
    // A targeted row refresh is an ACT + PRE of that row. This is a
    // restorative activation, not a hammer: it resets the row's
    // accumulated exposure.
    dram::Address addr{.rank = 0, .bankGroup = 0, .bank = bank,
                       .row = row, .column = 0};
    if (device_.isOpen(addr))
        issueAsap(dram::Command::PRE, addr);
    issueAsap(dram::Command::ACT, addr);
    issueAsap(dram::Command::PRE, addr);
    model_.refreshRow(bank, row);
}

dram::Cycle
ChipTester::hammerRows(int bank,
                       std::span<const fault::AggressorDose> doses)
{
    if (refreshEnabled_) {
        util::fatal("ChipTester::hammerRows: refresh must be disabled "
                    "during the core hammer loop");
    }
    if (doses.empty())
        util::fatal("ChipTester::hammerRows: empty aggressor set");

    std::vector<std::int64_t> remaining;
    remaining.reserve(doses.size());
    for (const fault::AggressorDose &dose : doses) {
        if (dose.count < 0)
            util::fatal("ChipTester::hammerRows: negative dose");
        remaining.push_back(dose.count);
    }

    dram::Address addr{.rank = 0, .bankGroup = 0, .bank = bank,
                       .row = 0, .column = 0};
    const dram::Cycle start = now_;
    bool live = true;
    while (live) {
        live = false;
        for (std::size_t i = 0; i < remaining.size(); ++i) {
            if (remaining[i] <= 0)
                continue;
            live = true;
            --remaining[i];
            addr.row = doses[i].row;
            issueAsap(dram::Command::ACT, addr);
            issueAsap(dram::Command::PRE, addr);
        }
    }
    for (const fault::AggressorDose &dose : doses)
        model_.addActivations(bank, dose.row, dose.count);
    return now_ - start;
}

std::vector<fault::FlipObservation>
ChipTester::readRow(int bank, int row, util::Rng &rng)
{
    // Harvest flips before the read's own activation restores the row.
    auto flips = model_.readRow(bank, row, rng);
    dram::Address addr{.rank = 0, .bankGroup = 0, .bank = bank,
                       .row = row, .column = 0};
    issueAsap(dram::Command::ACT, addr);
    for (int col = 0; col < device_.organization().columns; ++col) {
        addr.column = col;
        issueAsap(dram::Command::RD, addr);
    }
    issueAsap(dram::Command::PRE, addr);
    return flips;
}

HammerResult
ChipTester::runHammerTest(int bank, int victim_row, std::int64_t hc,
                          fault::DataPattern dp, util::Rng &rng)
{
    const auto aggressors = model_.aggressorRows(victim_row);
    if (aggressors.size() != 2) {
        util::fatal("ChipTester::runHammerTest: victim row too close to "
                    "the array edge for a double-sided hammer");
    }
    const fault::AggressorDose doses[] = {{aggressors[0], hc},
                                          {aggressors[1], hc}};
    return runPatternTest(bank, victim_row, doses, dp, rng);
}

HammerResult
ChipTester::runPatternTest(int bank, int victim_row,
                           std::span<const fault::AggressorDose> doses,
                           fault::DataPattern dp, util::Rng &rng)
{
    if (doses.empty())
        util::fatal("ChipTester::runPatternTest: empty aggressor set");

    writePattern(dp, victim_row & 1);
    refreshRow(bank, victim_row);
    disableRefresh();

    HammerResult result;
    result.coreLoopCycles = hammerRows(bank, doses);
    for (const fault::AggressorDose &dose : doses)
        result.activations += dose.count;
    result.coreLoopMs = timing().toNs(result.coreLoopCycles) * 1e-6;

    // Section 4.3: the core loop must fit within the minimum refresh
    // window so RowHammer flips are not conflated with retention loss.
    if (result.coreLoopMs >= 32.0) {
        util::fatal("ChipTester::runPatternTest: core loop exceeds the "
                    "32 ms refresh window; lower the pattern's doses");
    }

    enableRefresh();

    int span_lo = victim_row;
    int span_hi = victim_row;
    for (const fault::AggressorDose &dose : doses) {
        span_lo = std::min(span_lo, dose.row);
        span_hi = std::max(span_hi, dose.row);
    }
    const auto [lo, hi] = model_.blastReadRange(span_lo, span_hi);
    for (int row = lo; row <= hi; ++row) {
        bool is_aggressor = false;
        for (const fault::AggressorDose &dose : doses)
            is_aggressor = is_aggressor || dose.row == row;
        if (is_aggressor)
            continue; // Continuously refreshed; cannot flip (Section 5.4).
        auto flips = readRow(bank, row, rng);
        result.flips.insert(result.flips.end(), flips.begin(),
                            flips.end());
    }
    return result;
}

int
ChipTester::reverseEngineerAggressorStep(int bank, int probe_row,
                                         util::Rng &rng)
{
    // Single-sided-hammer an even probe row hard and inspect the rows
    // just above it (Section 4.3). A directly-mapped chip flips cells in
    // row probe+1; a paired-wordline chip cannot (probe+1 shares the
    // hammered wordline and is continuously refreshed) and flips cells
    // in probe+2 instead. Multiple probe rows are tried because weak
    // cells are sparse.
    for (int probe = probe_row + (probe_row & 1);
         probe + 4 < model_.geometry().rows && probe < probe_row + 64;
         probe += 4) {
        writePattern(fault::DataPattern::Checkered0, probe & 1);
        disableRefresh();
        dram::Address addr{.rank = 0, .bankGroup = 0, .bank = bank,
                           .row = probe, .column = 0};
        // The command stream is representative (the full 300k-ACT burst
        // is elided for speed); the fault model receives the real count.
        for (int i = 0; i < 4; ++i) {
            issueAsap(dram::Command::ACT, addr);
            issueAsap(dram::Command::PRE, addr);
        }
        model_.addActivations(bank, probe, 300000);
        enableRefresh();

        const bool flips_at_1 = !readRow(bank, probe + 1, rng).empty();
        const bool flips_at_2 = !readRow(bank, probe + 2, rng).empty();
        if (flips_at_1)
            return 1;
        if (flips_at_2)
            return 2;
    }
    util::warn("reverseEngineerAggressorStep: no flips found; chip may "
               "not be RowHammerable in the probed region");
    return 0;
}

} // namespace rowhammer::softmc
