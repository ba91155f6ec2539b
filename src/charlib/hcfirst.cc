#include "hcfirst.hh"

#include <algorithm>
#include <string>

#include "util/logging.hh"
#include "util/serialize.hh"

namespace rowhammer::charlib
{

void
HcFirstOptions::serialize(util::ByteWriter &w) const
{
    w.i64(sampleRows);
    w.i64(hcMin);
    w.i64(hcMax);
    w.i64(resolution);
    w.i64(bank);
    w.i64(flipsPerWord);
}

std::uint64_t
HcFirstOptions::hash() const
{
    util::ByteWriter w;
    serialize(w);
    return util::fnv1a64(w.bytes());
}

HcFirstOptions
HcFirstOptions::deserialize(util::ByteReader &r)
{
    HcFirstOptions o;
    o.sampleRows = static_cast<int>(r.i64());
    o.hcMin = r.i64();
    o.hcMax = r.i64();
    o.resolution = r.i64();
    o.bank = static_cast<int>(r.i64());
    o.flipsPerWord = static_cast<int>(r.i64());
    return o;
}

namespace
{

/**
 * True iff the flip set contains a 64-bit word with >= k flips.
 * Allocation-free after warm-up: flips are packed into 64-bit word keys
 * in a reused buffer, sorted, and run-length counted.
 */
bool
hasWordWithKFlips(const std::vector<fault::FlipObservation> &flips, int k)
{
    if (k <= 1)
        return !flips.empty();
    if (flips.size() < static_cast<std::size_t>(k))
        return false;

    // (bank, row, word) packed into one key: banks < 2^8, rows < 2^32,
    // words-per-row < 2^24 for any realistic geometry.
    static thread_local std::vector<std::uint64_t> keys;
    keys.clear();
    keys.reserve(flips.size());
    for (const auto &f : flips) {
        keys.push_back(
            (static_cast<std::uint64_t>(f.bank) << 56) |
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                 f.row))
             << 24) |
            (static_cast<std::uint64_t>(f.bitIndex / 64) & 0xffffffULL));
    }
    std::sort(keys.begin(), keys.end());
    int run = 1;
    for (std::size_t i = 1; i < keys.size(); ++i) {
        run = keys[i] == keys[i - 1] ? run + 1 : 1;
        if (run >= k)
            return true;
    }
    return false;
}

/**
 * Seed of the probe stream for one victim row. Every probe of a row
 * re-seeds from this value, independent of probe order and of any other
 * hammering done on the chip. Sharing one stream across the row's
 * hammer counts also keeps each weak cell's uniform draw largely
 * aligned across the binary search (draws can still shift when a cell
 * enters or leaves the saturated flip-probability region), so near the
 * threshold the probe outcome is strongly correlated in HC and the
 * search converges close to the cell's actual crossing point instead
 * of being dragged down by lucky sub-threshold flips.
 */
std::uint64_t
probeSeed(std::uint64_t base, int bank, int victim)
{
    return util::mix64(
        base ^
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(bank))
         << 40) ^
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(victim)));
}

} // namespace

std::vector<int>
sampleVictimRows(const fault::ChipModel &chip, int count)
{
    if (count < 0) {
        util::fatal("sampleVictimRows: negative victim-row count " +
                    std::to_string(count));
    }
    const int rows = chip.geometry().rows;
    const int margin = 8;
    std::vector<int> out;
    out.reserve(static_cast<std::size_t>(count) + 1);
    for (int i = 0; i < count; ++i) {
        const int row = margin +
            static_cast<int>((static_cast<long>(i) * (rows - 2 * margin)) /
                             std::max(1, count));
        out.push_back(row);
    }
    out.push_back(chip.weakestRow());
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

std::optional<std::int64_t>
findHcFirst(fault::ChipModel &chip, const HcFirstOptions &options,
            util::Rng &rng)
{
    if (options.hcMin <= 0 || options.hcMax < options.hcMin)
        util::fatal("findHcFirst: invalid hammer-count sweep bounds");

    const fault::DataPattern dp = chip.spec().worstPattern;
    auto victims = sampleVictimRows(chip, options.sampleRows);
    const int bank_count = chip.geometry().banks;
    std::optional<std::int64_t> best;

    // Every probe draws from a stream derived from (base, bank, row)
    // rather than the shared caller stream, so re-probing a (row, hc)
    // pair reproduces the same flips and the search result is
    // independent of probe order (rows could be tested in any order or
    // in parallel without changing the answer).
    const std::uint64_t base = rng();

    // Test the weakest row first: it usually carries the chip minimum,
    // and an early tight `best` lets every other row be dismissed with a
    // single probe. Order-independent probes keep the result identical.
    const auto weakest =
        std::find(victims.begin(), victims.end(), chip.weakestRow());
    if (weakest != victims.end())
        std::rotate(victims.begin(), weakest, weakest + 1);

    for (int victim : victims) {
        // The weakest row lives in a specific bank; test that bank for
        // the weakest row and the configured bank otherwise.
        const int bank = victim == chip.weakestRow()
                             ? chip.weakestBank()
                             : options.bank % bank_count;

        auto probe = [&](std::int64_t hc) {
            util::Rng probe_rng(probeSeed(base, bank, victim));
            return hasWordWithKFlips(
                chip.hammerDoubleSided(bank, victim, hc, dp, probe_rng),
                options.flipsPerWord);
        };

        // Skip rows that show nothing even at the current upper bound
        // (hcMax, or a previously-found better result — a row that is
        // silent there cannot improve the minimum).
        const std::int64_t hi_bound =
            best ? std::min<std::int64_t>(options.hcMax, *best)
                 : options.hcMax;
        if (!probe(hi_bound))
            continue;

        // Binary search the smallest qualifying hammer count.
        std::int64_t lo = options.hcMin;
        std::int64_t hi = hi_bound;
        while (hi - lo > options.resolution) {
            const std::int64_t mid = lo + (hi - lo) / 2;
            if (probe(mid))
                hi = mid;
            else
                lo = mid;
        }
        if (!best || hi < *best)
            best = hi;
    }
    return best;
}

} // namespace rowhammer::charlib
