/**
 * @file
 * HCfirst measurement: the minimum hammer count that induces the first
 * RowHammer bit flip in a chip (Section 5.5), plus the generalized
 * HC-to-first-word-with-k-flips used by the paper's ECC study (Figure 9).
 */

#ifndef ROWHAMMER_CHARLIB_HCFIRST_HH
#define ROWHAMMER_CHARLIB_HCFIRST_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "fault/chip_model.hh"
#include "util/rng.hh"

namespace rowhammer::util
{
class ByteWriter;
class ByteReader;
} // namespace rowhammer::util

namespace rowhammer::charlib
{

/** Options controlling the HCfirst search. */
struct HcFirstOptions
{
    /** Victim rows to test per chip (the weakest row is always added). */
    int sampleRows = 48;
    /** Hammer-count sweep bounds (the paper sweeps 2k-150k). */
    std::int64_t hcMin = 1000;
    std::int64_t hcMax = 150000;
    /** Binary-search resolution in hammers. */
    std::int64_t resolution = 100;
    /** Bank to test (weak cells are statistically identical per bank). */
    int bank = 0;
    /** Flips-per-64-bit-word threshold (1 = plain HCfirst). */
    int flipsPerWord = 1;

    /** Append the bit-stable encoding of every field (run-description
     *  schema; see util/serialize.hh). */
    void serialize(util::ByteWriter &w) const;

    /** FNV-1a content hash of serialize()'s bytes (every field here is
     *  result-affecting; there are no execution-only knobs). */
    std::uint64_t hash() const;

    /** Rebuild from serialize()'s bytes; check r.ok() afterwards. */
    static HcFirstOptions deserialize(util::ByteReader &r);
};

/**
 * Measure HCfirst (or HC-kth for flipsPerWord == k) for one chip using
 * its worst-case data pattern. Returns nullopt if no hammer count up to
 * hcMax produces a qualifying flip (the chip is not RowHammerable in the
 * tested range).
 *
 * Implementation: per victim row, binary-search the smallest HC whose
 * double-sided hammer yields a qualifying observation; the chip-level
 * result is the minimum across tested victims. The tested set always
 * includes the chip's weakest row, standing in for the paper's full-chip
 * scan (see ChipModel::weakestRow).
 *
 * Determinism: the search draws one value from `rng` and derives an
 * independent probe stream per victim row from it, so every probe is a
 * pure function of (entry rng state, row, hammer count) — unaffected
 * by probe order or by unrelated hammers run on the chip beforehand,
 * and the full search is reproducible from the entry rng state alone.
 * The per-row binary searches are pruned against the best result found
 * so far; under the (near-)monotone probe outcomes the shared per-row
 * stream produces, this pruning does not change the returned minimum
 * for any row processing order.
 */
std::optional<std::int64_t> findHcFirst(fault::ChipModel &chip,
                                        const HcFirstOptions &options,
                                        util::Rng &rng);

/**
 * Victim rows an experiment should test for this chip: an even spread
 * of `count` rows across the array plus the chip's weakest row, all away
 * from edges. fatal() if count is negative.
 */
std::vector<int> sampleVictimRows(const fault::ChipModel &chip,
                                  int count);

} // namespace rowhammer::charlib

#endif // ROWHAMMER_CHARLIB_HCFIRST_HH
