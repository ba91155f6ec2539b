#include "analyses.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "charlib/hcfirst.hh"
#include "util/logging.hh"

namespace rowhammer::charlib
{

namespace
{

FlipKey
keyOf(const fault::FlipObservation &f)
{
    return {f.bank, f.row, f.bitIndex};
}

} // namespace

DataPatternStudy
runDataPatternStudy(fault::ChipModel &chip, std::int64_t hc,
                    int iterations, int sample_rows, util::Rng &rng)
{
    const auto victims = sampleVictimRows(chip, sample_rows);
    const auto patterns = fault::figure4Patterns();

    std::map<fault::DataPattern, std::set<FlipKey>> found;
    std::set<FlipKey> all;

    for (fault::DataPattern dp : patterns) {
        auto &set = found[dp];
        for (int iter = 0; iter < iterations; ++iter) {
            for (int victim : victims) {
                for (const auto &f :
                     chip.hammerDoubleSided(0, victim, hc, dp, rng)) {
                    set.insert(keyOf(f));
                    all.insert(keyOf(f));
                }
            }
        }
    }

    DataPatternStudy study;
    study.unionSize = all.size();
    std::size_t best = 0;
    for (fault::DataPattern dp : patterns) {
        PatternCoverage cov;
        cov.pattern = dp;
        cov.uniqueFlips = found[dp].size();
        cov.coverage = all.empty()
                           ? 0.0
                           : static_cast<double>(cov.uniqueFlips) /
                                 static_cast<double>(all.size());
        if (cov.uniqueFlips > best) {
            best = cov.uniqueFlips;
            study.worstPattern = dp;
        }
        study.perPattern.push_back(cov);
    }
    return study;
}

std::vector<RatePoint>
sweepHammerCount(fault::ChipModel &chip,
                 const std::vector<std::int64_t> &hcs, int sample_rows,
                 util::Rng &rng)
{
    const auto victims = sampleVictimRows(chip, sample_rows);
    const double bits_tested = static_cast<double>(victims.size()) *
        static_cast<double>(chip.geometry().rowDataBits);
    const fault::DataPattern dp = chip.spec().worstPattern;

    std::vector<RatePoint> out;
    for (std::int64_t hc : hcs) {
        std::size_t flips = 0;
        for (int victim : victims)
            flips += chip.hammerDoubleSided(0, victim, hc, dp, rng).size();
        out.push_back(RatePoint{
            hc, static_cast<double>(flips) / bits_tested});
    }
    return out;
}

std::optional<std::int64_t>
hammerCountForRate(fault::ChipModel &chip, double target_rate,
                   int sample_rows, std::int64_t hc_max, util::Rng &rng)
{
    const auto victims = sampleVictimRows(chip, sample_rows);
    const double bits_tested = static_cast<double>(victims.size()) *
        static_cast<double>(chip.geometry().rowDataBits);
    const fault::DataPattern dp = chip.spec().worstPattern;

    auto rate_at = [&](std::int64_t hc) {
        std::size_t flips = 0;
        for (int victim : victims)
            flips += chip.hammerDoubleSided(0, victim, hc, dp, rng).size();
        return static_cast<double>(flips) / bits_tested;
    };

    if (rate_at(hc_max) < target_rate)
        return std::nullopt;

    std::int64_t lo = 1000;
    std::int64_t hi = hc_max;
    while (hi - lo > std::max<std::int64_t>(500, hi / 64)) {
        const std::int64_t mid = lo + (hi - lo) / 2;
        if (rate_at(mid) >= target_rate)
            hi = mid;
        else
            lo = mid;
    }
    return hi;
}

SpatialDistribution
spatialDistribution(fault::ChipModel &chip, std::int64_t hc,
                    int sample_rows, util::Rng &rng)
{
    SpatialDistribution dist;
    dist.fraction.assign(2 * dist.radius + 1, 0.0);

    const auto victims = sampleVictimRows(chip, sample_rows);
    const fault::DataPattern dp = chip.spec().worstPattern;
    std::vector<std::size_t> counts(2 * dist.radius + 1, 0);

    for (int victim : victims) {
        for (const auto &f :
             chip.hammerDoubleSided(0, victim, hc, dp, rng)) {
            const int offset = f.row - victim;
            if (std::abs(offset) <= dist.radius) {
                ++counts[static_cast<std::size_t>(offset + dist.radius)];
                ++dist.totalFlips;
            }
        }
    }
    if (dist.totalFlips > 0) {
        for (std::size_t i = 0; i < counts.size(); ++i) {
            dist.fraction[i] = static_cast<double>(counts[i]) /
                static_cast<double>(dist.totalFlips);
        }
    }
    return dist;
}

WordDensity
wordDensity(fault::ChipModel &chip, std::int64_t hc, int sample_rows,
            util::Rng &rng)
{
    WordDensity density;
    const auto victims = sampleVictimRows(chip, sample_rows);
    const fault::DataPattern dp = chip.spec().worstPattern;

    std::map<FlipKey, int> per_word;
    for (int victim : victims) {
        for (const auto &f :
             chip.hammerDoubleSided(0, victim, hc, dp, rng)) {
            ++per_word[{f.bank, f.row, f.bitIndex / 64}];
        }
    }
    density.wordsWithFlips = per_word.size();
    if (per_word.empty())
        return density;

    for (const auto &[word, count] : per_word) {
        const int clamped = std::min<int>(count, 5);
        density.fraction[static_cast<std::size_t>(clamped - 1)] += 1.0;
    }
    for (double &f : density.fraction)
        f /= static_cast<double>(per_word.size());
    return density;
}

MonotonicityResult
monotonicityStudy(fault::ChipModel &chip, std::int64_t hc_min,
                  std::int64_t hc_max, std::int64_t hc_step,
                  int iterations, int sample_rows, util::Rng &rng)
{
    if (hc_step <= 0) {
        util::fatal("monotonicityStudy: hammer-count step must be "
                    "positive (got " + std::to_string(hc_step) + ")");
    }
    const auto victims = sampleVictimRows(chip, sample_rows);
    const fault::DataPattern dp = chip.spec().worstPattern;

    // Flip counts per cell per HC step.
    std::map<FlipKey, std::vector<int>> counts;
    std::vector<std::int64_t> steps;
    for (std::int64_t hc = hc_min; hc <= hc_max; hc += hc_step)
        steps.push_back(hc);

    for (std::size_t si = 0; si < steps.size(); ++si) {
        for (int iter = 0; iter < iterations; ++iter) {
            for (int victim : victims) {
                for (const auto &f : chip.hammerDoubleSided(
                         0, victim, steps[si], dp, rng)) {
                    auto &vec = counts[keyOf(f)];
                    vec.resize(steps.size(), 0);
                    ++vec[si];
                }
            }
        }
    }

    MonotonicityResult result;
    result.cellsObserved = counts.size();
    for (auto &[cell, vec] : counts) {
        vec.resize(steps.size(), 0);
        bool monotonic = true;
        for (std::size_t i = 1; i < vec.size(); ++i) {
            if (vec[i] < vec[i - 1]) {
                monotonic = false;
                break;
            }
        }
        if (monotonic)
            ++result.cellsMonotonic;
    }
    if (result.cellsObserved > 0) {
        result.fractionMonotonic =
            static_cast<double>(result.cellsMonotonic) /
            static_cast<double>(result.cellsObserved);
    }
    return result;
}

} // namespace rowhammer::charlib
