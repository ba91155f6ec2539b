#include "session.hh"

#include <algorithm>

#include "util/logging.hh"

namespace rowhammer::attack
{

namespace
{

void
validate(const fault::ChipModel &chip, const AccessPattern &pattern)
{
    std::string why;
    if (!pattern.wellFormed(&why))
        util::fatal("attack session: malformed pattern: " + why);
    if (pattern.bank < 0 || pattern.bank >= chip.geometry().banks)
        util::fatal("attack session: pattern bank out of range");
    for (const AggressorSlot &slot : pattern.slots) {
        if (slot.row >= chip.geometry().rows)
            util::fatal("attack session: aggressor row beyond the array");
    }
}

} // namespace

SessionResult
runPattern(fault::ChipModel &chip, const AccessPattern &pattern,
           mitigation::Mitigation *mechanism, const SessionConfig &config,
           util::Rng &rng)
{
    validate(chip, pattern);
    if (config.actsPerRefInterval < 1)
        util::fatal("attack session: actsPerRefInterval must be positive");

    const int bank = pattern.bank;
    const int rows = chip.geometry().rows;

    chip.writePattern(chip.spec().worstPattern, pattern.victimRow & 1);
    chip.refreshRow(bank, pattern.victimRow);

    SessionResult result;
    std::vector<mitigation::VictimRef> scratch;
    // A refresh restores charge but does not undo a flip that already
    // happened: harvest a row's observable flips immediately before
    // every restorative row cycle (rows below their flip region read
    // back clean at zero cost, so latching is cheap).
    const auto apply_victims = [&] {
        for (const mitigation::VictimRef &ref : scratch) {
            if (ref.flatBank != bank || ref.row < 0 || ref.row >= rows)
                continue; // Neighbor of an edge row, or another bank.
            chip.readRowInto(bank, ref.row, rng, result.flips);
            chip.refreshRow(bank, ref.row);
            ++result.mitigationRefreshes;
        }
        scratch.clear();
    };

    // Replay burst by burst, cutting a burst only at a REF boundary.
    // The chip's activation state is a count per wordline and the
    // mechanism never reads the chip, so handing a run of ACTs to both
    // at once is exact as long as the chip has every ACT before it is
    // next read: when victims are applied, and at the end.
    const std::vector<fault::AggressorDose> bursts = pattern.bursts();
    std::int64_t until_ref = config.actsPerRefInterval;
    for (int period = 0; period < pattern.periods; ++period) {
        for (const fault::AggressorDose &burst : bursts) {
            for (std::int64_t left = burst.count; left > 0;) {
                std::int64_t n = std::min(left, until_ref);
                if (mechanism) {
                    n = mechanism->onActivateRun(bank, burst.row, n,
                                                 result.activations,
                                                 scratch);
                }
                chip.addActivations(bank, burst.row, n);
                result.activations += n;
                left -= n;
                until_ref -= n;
                apply_victims();
                if (until_ref > 0)
                    continue;
                until_ref = config.actsPerRefInterval;
                if (mechanism) {
                    mechanism->onRefresh(
                        static_cast<std::uint64_t>(result.refIntervals), 0,
                        scratch);
                    apply_victims();
                }
                ++result.refIntervals;
            }
        }
    }

    // Read back every row the pattern can have disturbed, in ascending
    // order (aggressor rows self-report no flips and draw no
    // randomness).
    int span_lo = pattern.victimRow;
    int span_hi = pattern.victimRow;
    for (const AggressorSlot &slot : pattern.slots) {
        span_lo = std::min(span_lo, slot.row);
        span_hi = std::max(span_hi, slot.row);
    }
    const auto [lo, hi] = chip.blastReadRange(span_lo, span_hi);
    for (int row = lo; row <= hi; ++row)
        chip.readRowInto(bank, row, rng, result.flips);

    // A cell refreshed past its threshold more than once can latch the
    // same flip repeatedly; report each observed flip once.
    std::sort(result.flips.begin(), result.flips.end());
    result.flips.erase(
        std::unique(result.flips.begin(), result.flips.end()),
        result.flips.end());
    return result;
}

softmc::HammerResult
runOnTester(softmc::ChipTester &tester, const AccessPattern &pattern,
            fault::DataPattern dp, util::Rng &rng)
{
    std::string why;
    if (!pattern.wellFormed(&why))
        util::fatal("attack::runOnTester: malformed pattern: " + why);
    const std::vector<fault::AggressorDose> doses = pattern.doses();
    return tester.runPatternTest(pattern.bank, pattern.victimRow, doses,
                                 dp, rng);
}

} // namespace rowhammer::attack
