/**
 * @file
 * Fast-path hammer session: drive an AccessPattern against a
 * fault::ChipModel with an optional mitigation mechanism observing the
 * activation stream — the arena where attack patterns and defenses
 * meet without the cycle-accurate controller's cost.
 *
 * The session replays the pattern one burst at a time: a burst is a
 * run of consecutive activations of one row (AccessPattern::bursts()),
 * cut only where it crosses a REF boundary. Each burst is reported to
 * the mechanism in one Mitigation::onActivateRun call (as the memory
 * controller or the in-DRAM TRR logic would see its ACTs) and added to
 * the chip in one step; every `actsPerRefInterval` ACTs a REF boundary
 * fires, giving the mechanism its onRefresh hook. Victim-row refreshes
 * the mechanism requests are applied to the chip as restorative row
 * cycles. Flips, counts and RNG draws are those of an ACT-by-ACT
 * replay.
 *
 * Refresh-window modeling: the attack is assumed to be synchronized
 * with REF and to fit before the victim's own auto-refresh slot comes
 * around (Blacksmith synchronizes exactly this way; the paper's
 * Algorithm 1 likewise bounds the core loop to one refresh window), so
 * no auto-refresh rotation touches the array, mechanisms see
 * rows_per_ref = 0, and the array holds the chip's worst-case data
 * pattern.
 */

#ifndef ROWHAMMER_ATTACK_SESSION_HH
#define ROWHAMMER_ATTACK_SESSION_HH

#include <cstdint>
#include <vector>

#include "attack/pattern.hh"
#include "fault/chip_model.hh"
#include "mitigation/mitigation.hh"
#include "softmc/chip_tester.hh"
#include "util/rng.hh"

namespace rowhammer::attack
{

/** Session knobs; defaults model DDR4 tREFI at attack-loop ACT rates. */
struct SessionConfig
{
    /**
     * ACT slots between REF boundaries (~tREFI / tRC for DDR4-2400 is
     * ~170; the default is a multiple of every N-sided round length so
     * in-order samplers see round-aligned intervals).
     */
    std::int64_t actsPerRefInterval = 240;
};

/** Outcome of one pattern-vs-mechanism session. */
struct SessionResult
{
    /**
     * Distinct flips observed over the whole session: a refresh
     * restores charge but does not undo a flip that already happened,
     * so rows are harvested immediately before every restorative row
     * cycle and once more at the end (sorted, deduplicated).
     */
    std::vector<fault::FlipObservation> flips;
    std::int64_t activations = 0;
    std::int64_t refIntervals = 0;
    /** Victim-row refreshes the mechanism issued. */
    std::int64_t mitigationRefreshes = 0;
};

/**
 * Run `pattern` against `chip` with `mechanism` watching (nullptr =
 * unprotected). Reads back every row within the coupling radius of the
 * pattern's span at the end and reports the observed flips.
 * Deterministic given (chip, pattern, mechanism seed, rng state).
 */
SessionResult runPattern(fault::ChipModel &chip,
                         const AccessPattern &pattern,
                         mitigation::Mitigation *mechanism,
                         const SessionConfig &config, util::Rng &rng);

/**
 * Replay a pattern through the command-level softmc::ChipTester
 * instead: the pattern's weighted aggressor set runs under full DRAM
 * timing enforcement (Algorithm 1 generalized; no mitigation — the
 * tester is the characterization platform, which disables refresh).
 */
softmc::HammerResult runOnTester(softmc::ChipTester &tester,
                                 const AccessPattern &pattern,
                                 fault::DataPattern dp, util::Rng &rng);

} // namespace rowhammer::attack

#endif // ROWHAMMER_ATTACK_SESSION_HH
