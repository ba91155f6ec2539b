/**
 * @file
 * Access-pattern intermediate representation for RowHammer attacks.
 *
 * The paper's Section 6 comparison hammers every mechanism with the
 * worst-case double-sided pattern; the modern attack literature instead
 * shapes *which* aggressors fire and *when*: TRRespass-style N-sided
 * patterns saturate in-DRAM TRR samplers, and Blacksmith-style
 * frequency fuzzing varies per-aggressor frequency, phase, and
 * amplitude within a refresh interval. This IR captures that space the
 * way Blacksmith's fuzzer does: an ordered list of aggressor slots,
 * each firing `frequency` times per base period at a phase offset, with
 * `amplitude` consecutive activations per firing.
 *
 * A pattern is pure data: bursts() deterministically lowers one period
 * to its runs of same-row activations, which drive the fast path
 * (attack::runPattern) directly; expand() repeats them into the
 * ordered activation stream of the cycle-accurate path
 * (attack::TraceAdapter -> sim::Controller).
 */

#ifndef ROWHAMMER_ATTACK_PATTERN_HH
#define ROWHAMMER_ATTACK_PATTERN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fault/chip_model.hh"

namespace rowhammer::attack
{

/**
 * One aggressor slot: a row and its firing schedule within the base
 * period (zenhammer/Blacksmith AggressorAccessPattern, specialized to
 * one row per slot).
 */
struct AggressorSlot
{
    int row = 0;
    /** Firings per base period; must divide basePeriod. */
    int frequency = 1;
    /** Tick offset of the first firing, in [0, basePeriod/frequency). */
    int phase = 0;
    /** Consecutive activations per firing. */
    int amplitude = 1;

    auto operator<=>(const AggressorSlot &) const = default;
};

/** A complete hammering pattern against one victim. */
struct AccessPattern
{
    /** Human-readable pattern name, e.g. "8-sided" or "fuzz#3". */
    std::string label;
    int bank = 0;
    /** The profiled target row the pattern is built around. */
    int victimRow = 0;
    /** Maximum |slot.row - victimRow| the pattern promises. */
    int blastRadius = 1;
    /** Ticks per period (>= max slot frequency). */
    int basePeriod = 1;
    /** Period repetitions. */
    int periods = 1;
    /** Seed the pattern was generated from (fuzzed kinds). */
    std::uint64_t seed = 0;
    std::vector<AggressorSlot> slots;

    /** Activations one period issues (sum of frequency * amplitude). */
    std::int64_t activationsPerPeriod() const;

    /** Total activations: periods * activationsPerPeriod(). */
    std::int64_t activationBudget() const;

    /**
     * Lower one period to its ordered bursts: runs of consecutive
     * activations of one row (`count` ACTs of `row`), adjacent
     * same-row activations merged. Slots firing on the same tick are
     * emitted in slot order. The counts sum to activationsPerPeriod().
     */
    std::vector<fault::AggressorDose> bursts() const;

    /**
     * Lower the pattern to its ordered activation stream: `periods`
     * repetitions of bursts(), one row per activation, exactly
     * activationBudget() entries.
     */
    void expand(std::vector<int> &out) const;

    /**
     * Per-row activation totals (ascending row order): the weighted
     * aggressor set for ChipModel::hammerRows / ChipTester.
     */
    std::vector<fault::AggressorDose> doses() const;

    /** Distinct aggressor rows, ascending. */
    std::vector<int> rows() const;

    /** True iff `row` is one of the pattern's aggressors. */
    bool hasAggressor(int row) const;

    /**
     * Structural validity: non-empty, every slot's frequency divides
     * the base period, phases fit their firing interval, aggressors
     * are distinct, off-victim, and within the blast radius. Appends
     * the first violation to `why` when given.
     */
    bool wellFormed(std::string *why = nullptr) const;
};

} // namespace rowhammer::attack

#endif // ROWHAMMER_ATTACK_PATTERN_HH
