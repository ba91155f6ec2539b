/**
 * @file
 * Deterministic generator of attack patterns over a victim's blast
 * radius: single-sided, double-sided, TRRespass-style N-sided
 * (N in [4, 20]), and Blacksmith-style seeded frequency fuzzing.
 *
 * Every product is a pure function of (builder config, builder seed,
 * call arguments): identical seeds reproduce identical patterns, which
 * is what lets the adversarial test harness golden-pin fuzzed patterns
 * and lets sweeps fan cells across threads without losing determinism.
 */

#ifndef ROWHAMMER_ATTACK_BUILDER_HH
#define ROWHAMMER_ATTACK_BUILDER_HH

#include <cstdint>
#include <vector>

#include "attack/pattern.hh"

namespace rowhammer::attack
{

/** Array- and budget-level knobs shared by every generated pattern. */
struct BuilderConfig
{
    /** Array height; aggressors stay within [1, rows - 2] so every
     *  aggressor's own neighbors exist (mechanisms track row +/- 1). */
    int rows = 16384;
    /** Victim-to-aggressor distance (2 on paired-wordline chips). */
    int step = 1;
    /**
     * Target total activations per pattern (an attack-time budget).
     * Rounded down to whole periods; every generated pattern's
     * activationBudget() is within one period of this.
     */
    std::int64_t activationBudget = 160000;
    /** Largest aggressor count for N-sided / fuzzed patterns. */
    int maxOrder = 20;
    /** Base period of fuzzed patterns (power of two). */
    int fuzzBasePeriod = 16;
};

/** See the file comment. */
class PatternBuilder
{
  public:
    PatternBuilder(BuilderConfig config, std::uint64_t seed);

    const BuilderConfig &config() const { return config_; }

    /** One aggressor at victim - step (classic single-sided hammer). */
    AccessPattern singleSided(int bank, int victim) const;

    /** The paper's worst-case kernel: victim +/- step, alternating. */
    AccessPattern doubleSided(int bank, int victim) const;

    /**
     * TRRespass-style N-sided pattern, n in [2, maxOrder]: the true
     * pair at victim +/- step plus n - 2 decoy aggressors at growing
     * odd multiples of step (so decoys are aggressors of their own
     * intermediate victims, as in the published attacks). Decoys are
     * scheduled *before* the true pair within each round: an in-order
     * TRR sampler with fewer slots than n fills up on decoys and never
     * samples the rows that matter.
     */
    AccessPattern nSided(int bank, int victim, int n) const;

    /**
     * Blacksmith-style fuzzed pattern: seeded random aggressor count,
     * decoy placement, and per-slot frequency / phase / amplitude.
     * The true pair is always present (highest frequency), mirroring
     * how Blacksmith's fuzzer anchors patterns on a double-sided core.
     */
    AccessPattern fuzzed(int bank, int victim, std::uint64_t fuzz_seed) const;

  private:
    /** Victim-relative aggressor offsets of nSided(victim, n), true
     *  pair last. */
    std::vector<int> nSidedOffsets(int victim, int n) const;

    /** Fatal unless victim +/- step aggressors fit the array. */
    void checkVictim(int victim) const;

    /**
     * The next unused decoy offset at or beyond |magnitude| 3 * step:
     * odd multiples of step, preferring the side where the offset fits
     * the array. Appends to `used`; fatal when the array is exhausted.
     */
    int nextDecoyOffset(int victim, std::vector<int> &used,
                        int &magnitude, bool &minus_next) const;

    BuilderConfig config_;
    std::uint64_t seed_;
};

} // namespace rowhammer::attack

#endif // ROWHAMMER_ATTACK_BUILDER_HH
