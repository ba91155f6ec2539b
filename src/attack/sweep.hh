/**
 * @file
 * Attack-pattern x mitigation-mechanism sweep: the modern-attack
 * counterpart of the paper's Figure 10 grid. Every cell runs one
 * generated pattern (single-sided, double-sided, N-sided, fuzzed)
 * against one mechanism (baseline, TRR samplers of several sizes, and
 * the paper's Section 6 mechanisms) on a fresh chip instance, and
 * reports the observed bit flips and the mechanism's refresh work.
 *
 * The headline the grid reproduces: a TRR sampler with >= 2 slots fully
 * stops the paper's worst-case double-sided hammer, an N-sided pattern
 * with N greater than the sampler size bypasses it (nonzero flips), and
 * the ideal refresh oracle stops every generated pattern.
 *
 * Cells fan across a util::TaskPool; per-cell chips, mechanism seeds,
 * and read streams derive only from (config seed, cell index), so the
 * table is byte-identical for any thread count (RH_THREADS contract).
 */

#ifndef ROWHAMMER_ATTACK_SWEEP_HH
#define ROWHAMMER_ATTACK_SWEEP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "attack/session.hh"
#include "fault/chipspec.hh"
#include "util/execution.hh"

namespace rowhammer::attack
{

/**
 * Sweep configuration; defaults target a TRR-era DDR4 chip. With
 * checkpointPath set, runSweep() persists every completed cell (see
 * util::Execution).
 */
struct SweepConfig : util::Execution
{
    fault::ChipSpec spec;
    fault::ChipGeometry geometry;
    /** Chip vulnerability (the TRR era ships HCfirst ~ a few thousand). */
    double hcFirst = 2000.0;
    std::uint64_t seed = 2020;
    /** N-sided orders to sweep; keep divisors of actsPerRefInterval so
     *  in-order samplers see round-aligned intervals. */
    std::vector<int> nSides{4, 8, 12, 16, 20};
    /** Fuzzed patterns generated (seeds 0 .. fuzzCount-1). */
    int fuzzCount = 3;
    /** TRR sampler sizes compared. */
    std::vector<int> samplerSizes{2, 4, 8};
    /** Total activations per pattern; 0 = budget()'s default. */
    std::int64_t activationBudget = 0;
    /** Session REF cadence (see SessionConfig). */
    std::int64_t actsPerRefInterval = 240;
    /**
     * Controller address-mapping spec (preset name or mask-file path;
     * see dram::AddressFunctions). "linear" replays patterns in DRAM
     * space directly — the historical behavior.
     */
    std::string mapping = "linear";
    /**
     * Mapping the attacker *believes* when turning its pattern into
     * physical addresses; empty = the true mapping (a zenhammer-style
     * attacker that recovered the masks and inverts them exactly). Set
     * to "linear" with a non-linear `mapping` to model a naive
     * attacker whose aggressors scatter across banks.
     */
    std::string attackerMapping;
    /** Ranks the mapping splits geometry.banks across (>= 1). */
    int mappingRanks = 1;
    /** Channels the mapping splits geometry.banks across (>= 1). The
     *  chip's flat banks are treated channel-major (see
     *  dram::Organization::globalFlatBank); a channel-naive attacker's
     *  aggressors scatter across controllers exactly as a bank-naive
     *  one's scatter across banks. */
    int mappingChannels = 1;

    SweepConfig();

    /** Activations per pattern: activationBudget, or
     *  8 * hcFirst * max(nSides) when it is 0. fatal() if nSides is
     *  empty. */
    std::int64_t budget() const;

    /**
     * Append the bit-stable encoding of the run description (every
     * field that affects the table; execution-only knobs excluded).
     * See util/serialize.hh for the stability contract.
     */
    void serialize(util::ByteWriter &w) const;

    /** FNV-1a content hash of serialize()'s bytes: the checkpoint
     *  store identity of this run description. */
    std::uint64_t hash() const;

    /**
     * Rebuild from serialize()'s bytes; check r.ok() afterwards. The
     * util::Execution knobs are not on the wire and come back
     * default-initialized.
     */
    static SweepConfig deserialize(util::ByteReader &r);
};

/** One (pattern, mechanism) grid cell. */
struct SweepCell
{
    std::string pattern;
    std::string mechanism;
    std::int64_t activations = 0;
    std::int64_t flips = 0;
    std::int64_t mitigationRefreshes = 0;

    /** The one bit-stable encoding of a cell, shared by the
     *  checkpoint records and the daemon's replies. */
    void serialize(util::ByteWriter &w) const;

    /** Rebuild from serialize()'s bytes; check r.ok() afterwards. */
    static SweepCell deserialize(util::ByteReader &r);
};

/** Run the grid; cells ordered pattern-major, mechanism-minor. */
std::vector<SweepCell> runSweep(const SweepConfig &config);

/**
 * Exact-digit text rendering of the grid (one line per cell), used by
 * the thread-count determinism pin and the bench output.
 */
std::string renderSweepCells(const std::vector<SweepCell> &cells);

} // namespace rowhammer::attack

#endif // ROWHAMMER_ATTACK_SWEEP_HH
