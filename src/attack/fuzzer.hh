/**
 * @file
 * Closed-loop fuzzing campaign engine: the search loop that turns the
 * one-shot attack substrate (PatternBuilder, HammerSession, the sweep
 * grid) into a Blacksmith/TRRespass-style system. Each generation
 * samples a population of AccessPatterns from a seeded
 * FuzzingParameterSet (aggressor order, per-slot frequency / phase /
 * amplitude ranges), scores every pattern against a population of
 * simulated chips behind a TRR sampler, selects survivors by
 * flips-per-tREFI, and mutates the winners into the next generation.
 *
 * Determinism contract (the RH_THREADS pin): every random draw derives
 * from (campaign seed, structural index) — patterns from
 * slotSeed(seed, generation, slot), chip identities and session streams
 * from (seed, pattern seed, chip index) — never from scoring completion
 * order, so one thread and N threads produce byte-identical campaign
 * logs. Selection is a pure function of (scores, seed) with
 * deterministic tie-breaks.
 *
 * Crash safety: with FuzzerConfig::checkpointPath set, every completed
 * (pattern, chip) session persists to a util::RunStore keyed by the
 * config hash. The workload is *iterative* — generation g's population
 * depends on generation g-1's survivors — so resume replays the whole
 * campaign from generation 0 with memoized session results: completed
 * sessions load instead of recomputing, every derived decision
 * (selection, mutation) recomputes identically, and the resumed log is
 * byte-identical to an uninterrupted run even after SIGKILL
 * mid-generation.
 */

#ifndef ROWHAMMER_ATTACK_FUZZER_HH
#define ROWHAMMER_ATTACK_FUZZER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "attack/pattern.hh"
#include "fault/chipspec.hh"
#include "util/execution.hh"

namespace rowhammer::attack
{

/** Campaign configuration; defaults target a TRR-era DDR4 chip. */
struct FuzzerConfig : util::Execution
{
    fault::ChipSpec spec;
    fault::ChipGeometry geometry;
    /** Chip vulnerability (the TRR era ships HCfirst ~ a few thousand). */
    double hcFirst = 2000.0;
    std::uint64_t seed = 2024;
    /** Generations after the initial sampled one are bred by mutation. */
    int generations = 6;
    /** Patterns per generation. */
    int population = 16;
    /** Winners carried (elitism) and mutated into the next generation. */
    int survivors = 4;
    /** Simulated chips each pattern is scored against; chip 0 is the
     *  profiling probe that anchors the victim row. */
    int chips = 2;
    /** Aggressor-order range sampled per pattern ([1, ...]; an order-1
     *  draw is a degenerate single-aggressor "N-sided"). */
    int minOrder = 6;
    int maxOrder = 12;
    /** Ticks per pattern period (power of two, >= 4). */
    int basePeriod = 16;
    /** Core-pair frequencies are 2^k, k in [0, maxFrequencyLog2]. */
    int maxFrequencyLog2 = 3;
    /** Core-pair amplitude cap (the REF-synchronized fit never goes
     *  above it; see FuzzingParameterSet). */
    int maxAmplitude = 120;
    /** Total activations per pattern; 0 = budget()'s default. */
    std::int64_t activationBudget = 0;
    /** Session REF cadence (see SessionConfig). */
    std::int64_t actsPerRefInterval = 240;
    /** Capacity of the TRR sampler the campaign attacks (the
     *  deterministic in-order sampler the published fuzzers bypass). */
    int samplerSize = 4;
    /** Hand-built N-sided baselines scored against the same chips and
     *  budget; the campaign headline compares the best fuzzed pattern
     *  against the best of these. */
    std::vector<int> baselineNSides{4, 8, 12, 16, 20};
    /** Controller address-mapping spec (see SweepConfig::mapping);
     *  "linear" replays patterns in DRAM space directly. */
    std::string mapping = "linear";
    /** Mapping the attacker believes (see SweepConfig); empty = the
     *  true mapping. */
    std::string attackerMapping;
    /** Ranks / channels the mapping splits geometry.banks across. */
    int mappingRanks = 1;
    int mappingChannels = 1;

    FuzzerConfig();

    /** Activations per pattern: activationBudget, or
     *  20 * hcFirst * maxOrder when it is 0. */
    std::int64_t budget() const;

    /**
     * Append the bit-stable encoding of the campaign description
     * (every field that affects the log; execution-only knobs
     * excluded). See util/serialize.hh for the stability contract.
     */
    void serialize(util::ByteWriter &w) const;

    /** FNV-1a content hash of serialize()'s bytes: the checkpoint
     *  store identity of this campaign. */
    std::uint64_t hash() const;

    /**
     * Rebuild from serialize()'s bytes; check r.ok() afterwards. The
     * util::Execution knobs are not on the wire and come back
     * default-initialized.
     */
    static FuzzerConfig deserialize(util::ByteReader &r);
};

/**
 * The sampled parameter space: Blacksmith's FuzzingParameterSet
 * specialized to this IR. sample() draws a fresh pattern, mutate()
 * perturbs a winner; both are pure functions of (ranges, pattern seed)
 * and always return a wellFormed() pattern — degenerate draws
 * (order 1, periods longer than the tREFI window, maximum-amplitude
 * bursts) are clamped into validity, never emitted as UB.
 *
 * Patterns are REF-synchronized the way Blacksmith's are: every
 * period is normalized to exactly actsPerRefInterval activations (the
 * core pair's amplitude absorbs whatever the decoys leave of the
 * interval, rounding slack tops up the first decoy), so each REF
 * boundary lands on a period boundary and a pattern's sampler-escape
 * behavior repeats identically in every interval. The searchable
 * features are the decoy count, rows, frequencies and phases, and the
 * pair's frequency — the space where both "saturate the sampler
 * before the pair fires" and "park dose next to incidentally weak
 * rows" live.
 */
class FuzzingParameterSet
{
  public:
    /**
     * @param config Range knobs (orders, basePeriod, frequency,
     *     amplitude) and geometry; validated fatally.
     * @param step Victim-to-aggressor distance (chip's aggressorStep).
     * @param activation_budget Total activations per pattern; each
     *     pattern's periods are fitted to approach this budget.
     */
    FuzzingParameterSet(const FuzzerConfig &config, int step,
                        std::int64_t activation_budget);

    /** Draw a fresh pattern around `victim`; pure in `pattern_seed`. */
    AccessPattern sample(int bank, int victim,
                         std::uint64_t pattern_seed) const;

    /**
     * Mutate one structural feature of `parent` (reschedule a slot,
     * move / add / drop a decoy): the child keeps the parent's core
     * pair and victim, stores `pattern_seed` as its own seed, and is
     * always wellFormed().
     */
    AccessPattern mutate(const AccessPattern &parent,
                         std::uint64_t pattern_seed) const;

  private:
    /** Random firing schedule for one slot. */
    AggressorSlot sampleSchedule(util::Rng &rng, int row) const;

    /**
     * A decoy row not yet in `used_rows`, at an odd offset multiple of
     * step_ from the victim (decoys are aggressors of their own
     * intermediate victims, as in the published attacks): random draws
     * first, deterministic outward walk as fallback; fatal when the
     * array is exhausted.
     */
    int drawDecoyRow(util::Rng &rng, int victim,
                     const std::vector<int> &used_rows) const;

    /** REF-synchronize the pattern (see the class comment). */
    void normalize(AccessPattern &pattern) const;

    /** Recompute blastRadius and fit periods to the budget. */
    void finalize(AccessPattern &pattern) const;

    int rows_;
    int step_;
    int minOrder_;
    int maxOrder_;
    int basePeriod_;
    int maxFrequencyLog2_;
    int maxAmplitude_;
    std::int64_t refActs_;
    std::int64_t budget_;
};

/**
 * Score of one pattern summed over the chip population. flips and
 * refIntervals carry the selection metric (flips per tREFI); the
 * pattern seed ties the score back to the exact pattern for
 * checkpoint-record validation.
 */
struct PatternScore
{
    std::string label;
    std::uint64_t patternSeed = 0;
    std::int64_t activations = 0;
    std::int64_t flips = 0;
    std::int64_t refIntervals = 0;

    /** Selection metric scaled to an integer for byte-stable logs:
     *  flips * 1e6 / max(1, refIntervals). */
    std::int64_t scoreMicro() const;
};

/**
 * Exact flips-per-tREFI comparison (cross-multiplied, no floats):
 * negative when a scores below b, 0 when exactly equal, positive when
 * a scores above b.
 */
int compareScores(const PatternScore &a, const PatternScore &b);

/** One generation's scored population and the selected survivors. */
struct GenerationLog
{
    int generation = 0;
    /** One entry per population slot, slot order. */
    std::vector<PatternScore> scores;
    /** Slot indices selected as survivors, best first. */
    std::vector<int> survivors;
};

/** Full campaign outcome. */
struct CampaignResult
{
    /** Scores of the hand-built N-sided baselines, baselineNSides
     *  order. */
    std::vector<PatternScore> baselines;
    std::vector<GenerationLog> generations;
    /** Best fuzzed pattern (earliest generation/slot on exact ties). */
    int bestGeneration = 0;
    int bestSlot = 0;
    AccessPattern bestPattern;
    /** Index into baselines of the best hand-built pattern. */
    int bestBaseline = 0;
    /** Sampler capacity the campaign ran against (for rendering). */
    int samplerSize = 0;
};

/** See the file comment. */
class Fuzzer
{
  public:
    /** Validates the config fatally (user error). */
    explicit Fuzzer(FuzzerConfig config);

    const FuzzerConfig &config() const { return config_; }

    /** Run the campaign; see the file comment for the determinism and
     *  crash-safety contracts. */
    CampaignResult run() const;

    /**
     * The per-(generation, slot) pattern-seed derivation: a pure
     * function of its arguments, independent of scoring completion
     * order and thread count.
     */
    static std::uint64_t slotSeed(std::uint64_t campaign_seed,
                                  int generation, int slot);

    /**
     * Select up to `count` survivor slot indices, best first: a pure
     * function of (scores, seed). Ties on the exact flips-per-tREFI
     * metric break by a seeded per-slot draw, then by slot index, so
     * equal-scoring populations still select deterministically.
     */
    static std::vector<int>
    selectSurvivors(const std::vector<PatternScore> &scores,
                    std::uint64_t seed, int count);

  private:
    FuzzerConfig config_;
};

/**
 * Exact-digit text rendering of the campaign log (baselines, every
 * generation's scored population and survivors, and the headline
 * comparison line), used by the thread-count determinism pin, the
 * SIGKILL+resume pin, and the bench output. Integer-only: byte-stable
 * across platforms.
 */
std::string renderCampaign(const CampaignResult &result);

} // namespace rowhammer::attack

#endif // ROWHAMMER_ATTACK_FUZZER_HH
