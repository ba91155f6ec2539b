/**
 * @file
 * Circuit-level RowHammer fault model of one DRAM chip.
 *
 * The model is the repository's substitute for the paper's real silicon:
 * each chip instance deterministically samples a sparse population of
 * "weak" cells (cells whose RowHammer threshold falls below the tested
 * hammer-count range), each with a threshold, a charge orientation
 * (true-/anti-cell), and per-data-pattern coupling strengths. Hammering
 * accumulates exposure on physical wordlines; reading a row evaluates
 * which weak cells have leaked past their threshold, with a narrow
 * logistic probabilistic region around the threshold (Section 5.6).
 *
 * LPDDR4 chips route every read through an always-on on-die (136,128) SEC
 * ECC, so the observed flips differ from the raw circuit-level flips
 * exactly as the paper describes (Observations 9 and 14).
 *
 * Determinism contract: weak-cell populations depend only on (seed, bank,
 * row), so re-testing a row reproduces the same cells; per-read flip
 * randomness comes from the caller-supplied Rng.
 */

#ifndef ROWHAMMER_FAULT_CHIP_MODEL_HH
#define ROWHAMMER_FAULT_CHIP_MODEL_HH

#include <array>
#include <cstdint>
#include <deque>
#include <span>
#include <utility>
#include <vector>

#include "ecc/ondie.hh"
#include "fault/chipspec.hh"
#include "fault/datapattern.hh"
#include "util/rng.hh"

namespace rowhammer::fault
{

/** One observed RowHammer bit flip. */
struct FlipObservation
{
    int bank = 0;
    int row = 0;          ///< Logical row containing the flip.
    long bitIndex = 0;    ///< Data-bit index within the row.
    bool oneToZero = false; ///< Direction: true if a stored 1 became 0.

    auto operator<=>(const FlipObservation &) const = default;
};

/**
 * One weighted aggressor of a multi-aggressor hammer: a row and how many
 * activations it receives. N-sided and frequency-fuzzed attack patterns
 * (attack::PatternBuilder) reduce to a set of these per hammer session.
 */
struct AggressorDose
{
    int row = 0;
    std::int64_t count = 0;
};

/** Fixed-capacity aggressor-row list (at most two rows, no allocation). */
struct AggressorList
{
    std::array<int, 2> rows{};
    int count = 0;

    const int *begin() const { return rows.data(); }
    const int *end() const { return rows.data() + count; }
    std::size_t size() const { return static_cast<std::size_t>(count); }
    int operator[](std::size_t i) const { return rows[i]; }
    void push(int row) { rows[static_cast<std::size_t>(count++)] = row; }
};

/** Geometry of the simulated chip's cell array. */
struct ChipGeometry
{
    int banks = 8;
    int rows = 16384;
    long rowDataBits = 65536; ///< 8 KB row.

    /** Append the bit-stable encoding of every field (run-description
     *  schema; see util/serialize.hh). */
    void serialize(util::ByteWriter &w) const;

    /** FNV-1a content hash of serialize()'s bytes. */
    std::uint64_t hash() const;

    /** Rebuild from serialize()'s bytes; check r.ok() afterwards. */
    static ChipGeometry deserialize(util::ByteReader &r);
};

/**
 * One simulated DRAM chip. See the file comment for the model; the
 * public interface mirrors what the paper's FPGA platform offers the
 * characterization code: fill with a pattern, hammer, read back flips.
 *
 * Instances are not thread-safe (even const reads mutate internal
 * caches): parallel population runs must give each thread its own
 * ChipModel (see charlib::PopulationRunner).
 */
class ChipModel
{
  public:
    /**
     * @param spec Configuration-level behaviour parameters.
     * @param chip_hc_first This chip's true minimum RowHammer threshold
     *     in hammers (the quantity HCfirst estimates).
     * @param seed Chip identity; determines all cell sampling.
     * @param geometry Cell-array dimensions.
     */
    ChipModel(ChipSpec spec, double chip_hc_first, std::uint64_t seed,
              ChipGeometry geometry = ChipGeometry{});

    const ChipSpec &spec() const { return spec_; }
    const ChipGeometry &geometry() const { return geometry_; }

    /** The chip's ground-truth minimum threshold (test oracle). */
    double trueHcFirst() const { return hcFirst_; }

    /**
     * Bank/row containing the chip's weakest cell. The paper scans every
     * row of every chip; our benches scan a sample of rows plus this row
     * so chip-level HCfirst is measured rather than sampled away.
     */
    int weakestRow() const { return weakestRow_; }
    int weakestBank() const { return weakestBank_; }

    /**
     * Aggressor rows for a double-sided hammer of `victim_row`, honoring
     * the chip's logical-to-physical remapping (Mfr B LPDDR4-1x chips
     * require hammering victim +/- 2; all others victim +/- 1).
     */
    AggressorList aggressorRows(int victim_row) const;

    /**
     * Fill the whole array with a data pattern. Rows whose parity equals
     * `victim_parity` receive the pattern's victim byte; other rows its
     * aggressor byte. Clears all accumulated exposure.
     */
    void writePattern(DataPattern dp, int victim_parity);

    /** Currently written pattern. */
    DataPattern pattern() const { return pattern_; }

    /** Record `count` activations of a logical row (accumulates). */
    void addActivations(int bank, int row, std::int64_t count);

    /** Refresh one row: restores charge, zeroing its exposure so far. */
    void refreshRow(int bank, int row);

    /** Accumulated double-sided-equivalent exposure of a row, in hammers. */
    double exposure(int bank, int row) const;

    /**
     * Read a row and report observed RowHammer bit flips given current
     * exposure. For on-die-ECC chips this is the post-correction view.
     * Rows that were themselves activated since the last pattern write
     * report no flips (activation refreshes the row).
     */
    std::vector<FlipObservation> readRow(int bank, int row,
                                         util::Rng &rng) const;

    /** readRow appending into a caller-owned vector (hot-path variant). */
    void readRowInto(int bank, int row, util::Rng &rng,
                     std::vector<FlipObservation> &out) const;

    /**
     * Convenience for the common kernel: write pattern, refresh victim,
     * hammer both aggressors `hc` times each, and read the victim row
     * plus all rows within the coupling blast radius.
     */
    std::vector<FlipObservation> hammerDoubleSided(int bank, int victim_row,
                                                   std::int64_t hc,
                                                   DataPattern dp,
                                                   util::Rng &rng);

    /**
     * Generalized hammer kernel for weighted aggressor sets: write the
     * pattern, refresh the victim, apply every dose, and read back every
     * row within the coupling radius of the dosed span. The double-sided
     * kernel is the two-dose special case; N-sided and fuzzed patterns
     * pass larger sets. Rows are read in ascending order; rows with zero
     * exposure consume no randomness, so adding far-away decoy doses
     * does not perturb the flips of unrelated rows.
     */
    std::vector<FlipObservation> hammerRows(
        int bank, int victim_row, std::span<const AggressorDose> doses,
        DataPattern dp, util::Rng &rng);

    /**
     * Inclusive row range to read back after hammering rows in
     * [lo_row, hi_row]: the hammered span plus the coupling blast
     * radius (plus the paired-wordline margin), clamped to the array.
     * Every multi-aggressor read-back loop (hammerRows, the softmc
     * tester, the attack session) derives its span from this one
     * helper so their byte-identical flip contracts stay in lockstep.
     */
    std::pair<int, int> blastReadRange(int lo_row, int hi_row) const;

    /**
     * Logical distance between a victim and its nearest aggressor under
     * this chip's row remapping (1, or 2 for paired-wordline chips).
     */
    int aggressorStep() const
    {
        return spec_.rowRemap == RowRemap::PairedWordline ? 2 : 1;
    }

  private:
    /** One weak cell of the simulated array (sampling scratch; cached
     *  rows store the same data in RowCells' SoA layout). */
    struct WeakCell
    {
        long storedBit; ///< Bit index in stored space (incl. ECC parity).
        float threshold; ///< Double-sided hammers to flip, worst pattern.
        bool trueCell;   ///< Charged state encodes logical 1.
        std::array<float, numDataPatterns> coupling; ///< Per-DP factor.
    };

    /**
     * Weak cells of one row, structure-of-arrays: the readRow hot loop
     * scans parallel lanes instead of striding over 40-byte cell
     * records, and the per-pattern coupling lanes are pattern-major so
     * a fixed-pattern read touches one contiguous run per row. Rows
     * hold only a handful of weak cells, so the lanes share two
     * backing allocations (an integer one and a float one) rather
     * than one vector each — fewer pointer loads and touched cache
     * lines per read; the accessors hide the packing.
     */
    struct RowCells
    {
        /** Per cell: storedBit << 1 | (trueCell ? 1 : 0). */
        std::vector<long> bits;
        /** [threshold: n][coupling DP 0: n]...[coupling DP P-1: n]. */
        std::vector<float> lanes;

        std::size_t size() const { return bits.size(); }
        bool empty() const { return bits.empty(); }

        long storedBit(std::size_t i) const { return bits[i] >> 1; }
        bool trueCell(std::size_t i) const { return (bits[i] & 1) != 0; }
        const float *thresholds() const { return lanes.data(); }
        const float *coupling(int dp) const
        {
            return lanes.data() +
                static_cast<std::size_t>(dp + 1) * size();
        }
    };

    /** Physical wordline of a logical row under the chip's remap. */
    int physRow(int row) const;

    /** Stored bits per row (data + on-die ECC parity if present). */
    long rowStoredBits() const;

    /** Lazily sample (and cache) the weak cells of one row. */
    const RowCells &weakCells(int bank, int row) const;

    /** Sample one weak cell at the given stored-bit anchor. */
    WeakCell sampleCell(util::Rng &rng, long stored_bit,
                        double threshold) const;

    /** Sample a threshold from the chip's power-law CDF. */
    double sampleThreshold(util::Rng &rng) const;

    /** Stored bit value at stored index under the current fill byte. */
    bool storedBitValue(std::uint8_t fill, long stored_bit) const;

    /** Cached plain data word (eccDataBits wide) filled with `fill`. */
    const util::BitVec &dataWord(std::uint8_t fill) const;

    /** Cached on-die-ECC codeword of a `fill`-filled data word. */
    const util::BitVec &codeword(std::uint8_t fill) const;

    /** Flat index of a (bank, row) pair. */
    std::size_t flatIndex(int bank, int row) const
    {
        return static_cast<std::size_t>(bank) *
            static_cast<std::size_t>(geometry_.rows) +
            static_cast<std::size_t>(row);
    }

    ChipSpec spec_;
    ChipGeometry geometry_;
    double hcFirst_;
    std::uint64_t seed_;
    int weakestBank_ = 0;
    int weakestRow_ = 0;
    double powerLawK_ = 4.0; ///< Threshold-CDF exponent (calibrated).

    ecc::OnDieEcc onDie_;
    DataPattern pattern_ = DataPattern::RowStripe0;
    int victimParity_ = 0;

    /**
     * Flat per-(bank, row) accumulation state. Entries are valid only
     * when their epoch matches epoch_; writePattern() invalidates the
     * whole array in O(1) by bumping the epoch instead of clearing.
     */
    std::vector<std::int64_t> actCount_;    ///< Per (bank, wordline).
    std::vector<std::uint32_t> actEpoch_;
    std::vector<double> refreshBase_;       ///< Per (bank, logical row).
    std::vector<std::uint32_t> refreshEpoch_;
    std::uint32_t epoch_ = 1;

    /**
     * Open-addressed cache of sampled weak-cell rows: cellKeys_ holds
     * flatIndex+1 (0 = empty slot), cellSlots_ the index of the row's
     * cells in cellStore_ (a deque so returned references stay stable
     * across later insertions). Power-of-two capacity, linear probing.
     */
    mutable std::vector<std::uint64_t> cellKeys_;
    mutable std::vector<std::uint32_t> cellSlots_;
    mutable std::size_t cellCount_ = 0;
    mutable std::deque<RowCells> cellStore_;

    /** Per-fill-byte caches of the data word and encoded codeword. */
    mutable std::array<util::BitVec, 256> dataWordCache_;
    mutable std::array<util::BitVec, 256> codewordCache_;

    /** Reused readRow scratch; makes the hot path allocation-free. */
    mutable std::vector<long> rawScratch_;
    mutable std::vector<std::size_t> wordScratch_;

    /** Grow-and-rehash of the weak-cell cache table. */
    void growCellTable() const;

    /** Raw (pre-baseline) exposure of a row's wordline, in hammers. */
    double rawExposure(int bank, int row) const;
};

} // namespace rowhammer::fault

#endif // ROWHAMMER_FAULT_CHIP_MODEL_HH
