/**
 * @file
 * SoftMC-substitute: a command-level DRAM chip tester.
 *
 * The paper drives its DDR3/DDR4 chips through SoftMC, an FPGA memory
 * controller giving fine-grained control over individual DRAM commands
 * and the ability to disable refresh during the hammer loop. This class
 * is the same control surface over our simulated chip: it owns a
 * dram::Device (so all command timings are enforced cycle-accurately)
 * and a fault::ChipModel (which converts activation streams into bit
 * flips). Characterization code written against ChipTester is therefore
 * structured exactly like code written against the FPGA platform.
 */

#ifndef ROWHAMMER_SOFTMC_CHIP_TESTER_HH
#define ROWHAMMER_SOFTMC_CHIP_TESTER_HH

#include <cstdint>
#include <span>
#include <vector>

#include "dram/device.hh"
#include "fault/chip_model.hh"
#include "util/rng.hh"

namespace rowhammer::softmc
{

/** Result of one Algorithm 1 hammer test on a victim row. */
struct HammerResult
{
    std::vector<fault::FlipObservation> flips;
    dram::Cycle coreLoopCycles = 0; ///< Duration of the hammer loop.
    double coreLoopMs = 0.0;        ///< Same, in milliseconds.
    std::int64_t activations = 0;   ///< ACTs issued in the loop.
};

/**
 * Command-level tester for one simulated DRAM chip.
 *
 * The tester enforces the paper's methodological constraints:
 * - refresh is disabled during the core hammer loop (no interference);
 * - the victim row is refreshed before hammering starts (no conflated
 *   retention failures);
 * - the core loop must complete within the standard's refresh window
 *   (32/64 ms), or runHammerTest reports failure via fatal().
 */
class ChipTester
{
  public:
    /**
     * @param model Fault model of the chip under test (not owned). The
     *     model is calibrated at the paper's 50 C ambient temperature.
     */
    explicit ChipTester(fault::ChipModel &model);

    dram::Device &device() { return device_; }
    const dram::TimingSpec &timing() const { return device_.timing(); }

    /** Disable auto-refresh (core-loop precondition). */
    void disableRefresh() { refreshEnabled_ = false; }

    /** Re-enable auto-refresh after the core loop. */
    void enableRefresh() { refreshEnabled_ = true; }

    bool refreshEnabled() const { return refreshEnabled_; }

    /** Write a data pattern into the full array around a victim row. */
    void writePattern(fault::DataPattern dp, int victim_parity);

    /** Refresh a single row (ACT + PRE restores its charge). */
    void refreshRow(int bank, int row);

    /**
     * The core RowHammer loop of Algorithm 1 over a weighted aggressor
     * set: activate every dosed row as fast as timing allows,
     * interleaving rows round-robin until each row's dose is exhausted
     * (the interleave maximizes row-buffer conflicts; two equal doses
     * alternate the pair). Refresh must be disabled. Returns the cycles
     * consumed.
     */
    dram::Cycle hammerRows(int bank,
                           std::span<const fault::AggressorDose> doses);

    /** Read back a row's observed bit flips. */
    std::vector<fault::FlipObservation> readRow(int bank, int row,
                                                util::Rng &rng);

    /**
     * Algorithm 1 for a single victim row and hammer count: the
     * two-dose runPatternTest, hammering each of the victim's two
     * aggressor rows `hc` times. fatal()s when the victim is too close
     * to the array edge to have two aggressors.
     */
    HammerResult runHammerTest(int bank, int victim_row, std::int64_t hc,
                               fault::DataPattern dp, util::Rng &rng);

    /**
     * Algorithm 1 generalized to a weighted aggressor set: write /
     * refresh-victim / disable-refresh / hammerRows / re-enable / read
     * every non-aggressor row within the coupling radius of the dosed
     * span. Checks the 32 ms core-loop bound. Flips are byte-identical
     * to ChipModel::hammerRows with the same rng state (aggressor rows
     * report no flips and consume no randomness either way).
     */
    HammerResult runPatternTest(int bank, int victim_row,
                                std::span<const fault::AggressorDose> doses,
                                fault::DataPattern dp, util::Rng &rng);

    /**
     * Reverse-engineer the logical-to-physical remap step by hammering a
     * single row and locating the flips (Section 4.3): returns the
     * logical distance between a victim and its nearest aggressor
     * (1 for direct mapping, 2 for paired-wordline chips).
     */
    int reverseEngineerAggressorStep(int bank, int probe_row,
                                     util::Rng &rng);

  private:
    fault::ChipModel &model_;
    dram::Device device_;
    dram::Cycle now_ = 0;
    bool refreshEnabled_ = true;

    /** Issue a command as early as timing allows; advances `now_`. */
    dram::Cycle issueAsap(dram::Command cmd, const dram::Address &addr);
};

} // namespace rowhammer::softmc

#endif // ROWHAMMER_SOFTMC_CHIP_TESTER_HH
