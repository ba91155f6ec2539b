/**
 * @file
 * The paper's Section 5 characterization analyses, each producing the
 * data behind one figure or table: data-pattern coverage (Figure 4 /
 * Tables 2-3), hammer-count sweeps (Figure 5), spatial distributions
 * (Figure 6), per-word flip densities (Figure 7), and per-cell flip
 * probability monotonicity (Table 5).
 */

#ifndef ROWHAMMER_CHARLIB_ANALYSES_HH
#define ROWHAMMER_CHARLIB_ANALYSES_HH

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "fault/chip_model.hh"
#include "fault/datapattern.hh"
#include "util/rng.hh"

namespace rowhammer::charlib
{

/** A flip's identity for set arithmetic (bank, row, bit). */
using FlipKey = std::tuple<int, int, long>;

/** Coverage of one data pattern (Section 5.2 / Figure 4). */
struct PatternCoverage
{
    fault::DataPattern pattern;
    std::size_t uniqueFlips = 0; ///< Unique flips this pattern found.
    double coverage = 0.0;       ///< Fraction of the all-pattern union.
};

/** Result of the data-pattern dependence study for one chip. */
struct DataPatternStudy
{
    std::vector<PatternCoverage> perPattern;
    std::size_t unionSize = 0; ///< All unique flips across patterns.
    /** The pattern with the most unique flips, if any flips were seen. */
    std::optional<fault::DataPattern> worstPattern;
};

/**
 * Run the Figure 4 study: hammer the sampled victim rows `iterations`
 * times per data pattern at the given hammer count, and aggregate unique
 * flips per pattern (the paper uses HC = 150k and 10 iterations).
 */
DataPatternStudy
runDataPatternStudy(fault::ChipModel &chip, std::int64_t hc,
                    int iterations, int sample_rows, util::Rng &rng);

/** One point of a hammer-count sweep (Figure 5). */
struct RatePoint
{
    std::int64_t hc = 0;
    double flipRate = 0.0; ///< Flips per data bit of the tested rows.
};

/**
 * Sweep the hammer count and measure the RowHammer bit flip rate using
 * the chip's worst-case pattern (Figure 5).
 */
std::vector<RatePoint> sweepHammerCount(fault::ChipModel &chip,
                                        const std::vector<std::int64_t> &hcs,
                                        int sample_rows, util::Rng &rng);

/**
 * Find a hammer count producing approximately the target flip rate
 * (Section 5.4 normalizes chips to a rate of 1e-6 before spatial
 * analysis). Returns nullopt if even hcMax cannot reach the target.
 */
std::optional<std::int64_t>
hammerCountForRate(fault::ChipModel &chip, double target_rate,
                   int sample_rows, std::int64_t hc_max, util::Rng &rng);

/** Spatial distribution of flips by row offset (Figure 6). */
struct SpatialDistribution
{
    /** fraction[offset + radius] = share of flips at that offset. */
    std::vector<double> fraction;
    int radius = 6;
    std::size_t totalFlips = 0;

    double at(int offset) const
    {
        return fraction.at(static_cast<std::size_t>(offset + radius));
    }
};

/** Measure the Figure 6 spatial distribution at the given hammer count. */
SpatialDistribution spatialDistribution(fault::ChipModel &chip,
                                        std::int64_t hc, int sample_rows,
                                        util::Rng &rng);

/** Per-64-bit-word flip-count distribution (Figure 7). */
struct WordDensity
{
    /** fraction[k-1] = share of flip-containing words with k flips. */
    std::vector<double> fraction = std::vector<double>(5, 0.0);
    std::size_t wordsWithFlips = 0;
};

/** Measure the Figure 7 word-density distribution at a hammer count. */
WordDensity wordDensity(fault::ChipModel &chip, std::int64_t hc,
                        int sample_rows, util::Rng &rng);

/** Result of the Table 5 monotonicity study. */
struct MonotonicityResult
{
    std::size_t cellsObserved = 0; ///< Cells with at least one flip.
    std::size_t cellsMonotonic = 0;
    double fractionMonotonic = 0.0;
};

/**
 * Table 5: sweep HC over [hc_min, hc_max] with the given step, hammering
 * each sampled victim `iterations` times per step, and compute the
 * fraction of flip-observed cells whose empirical flip probability is
 * monotonically non-decreasing in HC. fatal() unless hc_step > 0.
 */
MonotonicityResult
monotonicityStudy(fault::ChipModel &chip, std::int64_t hc_min,
                  std::int64_t hc_max, std::int64_t hc_step,
                  int iterations, int sample_rows, util::Rng &rng);

} // namespace rowhammer::charlib

#endif // ROWHAMMER_CHARLIB_ANALYSES_HH
