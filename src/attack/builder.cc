#include "builder.hh"

#include <algorithm>
#include <cstdlib>

#include "util/logging.hh"
#include "util/rng.hh"

namespace rowhammer::attack
{

PatternBuilder::PatternBuilder(BuilderConfig config, std::uint64_t seed)
    : config_(config), seed_(seed)
{
    if (config_.rows < 16)
        util::fatal("PatternBuilder: array too small");
    if (config_.step < 1 || config_.step > 2)
        util::fatal("PatternBuilder: aggressor step must be 1 or 2");
    if (config_.activationBudget < 1)
        util::fatal("PatternBuilder: activation budget must be positive");
    // AccessPattern::periods is an int; a larger budget would silently
    // truncate (a 2^31 hammer budget is ~3 years of ACTs anyway).
    if (config_.activationBudget > 1'000'000'000LL)
        util::fatal("PatternBuilder: activation budget above 1e9");
    if (config_.maxOrder < 4 || config_.maxOrder > 64)
        util::fatal("PatternBuilder: maxOrder out of range");
    if (config_.fuzzBasePeriod < 4 ||
        (config_.fuzzBasePeriod & (config_.fuzzBasePeriod - 1)) != 0) {
        util::fatal("PatternBuilder: fuzz base period must be a power "
                    "of two >= 4");
    }
}

void
PatternBuilder::checkVictim(int victim) const
{
    if (victim - config_.step < 1 ||
        victim + config_.step > config_.rows - 2) {
        util::fatal("PatternBuilder: victim too close to the array edge "
                    "for a double-sided core");
    }
}

int
PatternBuilder::nextDecoyOffset(int victim, std::vector<int> &used,
                                int &magnitude, bool &minus_next) const
{
    // Odd multiples of step so each decoy is itself a legal aggressor
    // of the intermediate victims between pattern rows; alternate sides
    // (+3, -3, +5, -5, ...) and skip offsets that leave the array.
    while (magnitude * config_.step < 2 * config_.rows) {
        const int sign = minus_next ? -1 : 1;
        const int off = sign * magnitude * config_.step;
        if (minus_next) {
            minus_next = false;
            magnitude += 2;
        } else {
            minus_next = true;
        }
        const int row = victim + off;
        if (row < 1 || row > config_.rows - 2)
            continue;
        if (std::find(used.begin(), used.end(), off) != used.end())
            continue;
        used.push_back(off);
        return off;
    }
    util::fatal("PatternBuilder: array too small for the requested "
                "aggressor count");
}

std::vector<int>
PatternBuilder::nSidedOffsets(int victim, int n) const
{
    checkVictim(victim);
    if (n < 2 || n > config_.maxOrder)
        util::fatal("PatternBuilder: aggressor count out of range");

    std::vector<int> used{-config_.step, config_.step};
    std::vector<int> decoys;
    int magnitude = 3;
    bool minus_next = false;
    for (int i = 0; i < n - 2; ++i)
        decoys.push_back(nextDecoyOffset(victim, used, magnitude,
                                         minus_next));

    // Decoys fire first; the true pair rides last in every round so a
    // saturated in-order sampler never latches it.
    decoys.push_back(-config_.step);
    decoys.push_back(config_.step);
    return decoys;
}

AccessPattern
PatternBuilder::singleSided(int bank, int victim) const
{
    checkVictim(victim);
    AccessPattern p;
    p.label = "single-sided";
    p.bank = bank;
    p.victimRow = victim;
    p.blastRadius = config_.step;
    p.basePeriod = 1;
    p.periods = static_cast<int>(config_.activationBudget);
    p.slots.push_back(AggressorSlot{victim - config_.step, 1, 0, 1});
    return p;
}

AccessPattern
PatternBuilder::doubleSided(int bank, int victim) const
{
    checkVictim(victim);
    AccessPattern p;
    p.label = "double-sided";
    p.bank = bank;
    p.victimRow = victim;
    p.blastRadius = config_.step;
    p.basePeriod = 2;
    p.periods = static_cast<int>(config_.activationBudget / 2);
    p.slots.push_back(AggressorSlot{victim - config_.step, 1, 0, 1});
    p.slots.push_back(AggressorSlot{victim + config_.step, 1, 1, 1});
    return p;
}

AccessPattern
PatternBuilder::nSided(int bank, int victim, int n) const
{
    const std::vector<int> offsets = nSidedOffsets(victim, n);

    AccessPattern p;
    p.label = std::to_string(n) + "-sided";
    p.bank = bank;
    p.victimRow = victim;
    p.basePeriod = n;
    p.periods = static_cast<int>(config_.activationBudget / n);
    for (std::size_t i = 0; i < offsets.size(); ++i) {
        p.slots.push_back(AggressorSlot{victim + offsets[i], 1,
                                        static_cast<int>(i), 1});
        p.blastRadius = std::max(p.blastRadius, std::abs(offsets[i]));
    }
    return p;
}

AccessPattern
PatternBuilder::fuzzed(int bank, int victim, std::uint64_t fuzz_seed) const
{
    checkVictim(victim);
    util::Rng rng(util::mix64(
        seed_ ^ util::mix64(fuzz_seed + 0x9e3779b97f4a7c15ULL)));

    const int n = 4 + static_cast<int>(rng.uniformInt(
        0, static_cast<std::uint64_t>(config_.maxOrder - 4)));

    // Decoy placement: random odd multiples of step on random sides,
    // falling back to the deterministic outward walk when a draw
    // collides or leaves the array too often.
    std::vector<int> used{-config_.step, config_.step};
    std::vector<int> decoys;
    int magnitude = 3;
    bool minus_next = false;
    for (int i = 0; i < n - 2; ++i) {
        bool placed = false;
        for (int attempt = 0; attempt < 16 && !placed; ++attempt) {
            const int mag = 3 + 2 * static_cast<int>(rng.uniformInt(
                0, static_cast<std::uint64_t>(config_.maxOrder)));
            const int off = (rng.bernoulli(0.5) ? -1 : 1) * mag *
                config_.step;
            const int row = victim + off;
            if (row < 1 || row > config_.rows - 2)
                continue;
            if (std::find(used.begin(), used.end(), off) != used.end())
                continue;
            used.push_back(off);
            decoys.push_back(off);
            placed = true;
        }
        if (!placed) {
            decoys.push_back(nextDecoyOffset(victim, used, magnitude,
                                             minus_next));
        }
    }

    // Shuffle the decoy firing order (Fisher-Yates on the builder's
    // seeded stream); the double-sided core anchors the pattern last.
    for (std::size_t i = decoys.size(); i > 1; --i) {
        const std::size_t j = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::uint64_t>(i - 1)));
        std::swap(decoys[i - 1], decoys[j]);
    }

    AccessPattern p;
    p.label = "fuzz#" + std::to_string(fuzz_seed);
    p.bank = bank;
    p.victimRow = victim;
    p.basePeriod = config_.fuzzBasePeriod;
    p.seed = fuzz_seed;

    for (int off : decoys) {
        AggressorSlot slot;
        slot.row = victim + off;
        slot.frequency =
            1 << static_cast<int>(rng.uniformInt(0, 2)); // 1, 2 or 4.
        slot.amplitude = 1 + static_cast<int>(rng.uniformInt(0, 1));
        const int interval = p.basePeriod / slot.frequency;
        slot.phase = static_cast<int>(rng.uniformInt(
            0, static_cast<std::uint64_t>(interval - 1)));
        p.slots.push_back(slot);
        p.blastRadius = std::max(p.blastRadius, std::abs(off));
    }
    for (int off : {-config_.step, config_.step}) {
        AggressorSlot slot;
        slot.row = victim + off;
        slot.frequency = 4; // The core pair hammers hardest.
        slot.amplitude = 1;
        const int interval = p.basePeriod / slot.frequency;
        slot.phase = static_cast<int>(rng.uniformInt(
            0, static_cast<std::uint64_t>(interval - 1)));
        p.slots.push_back(slot);
        p.blastRadius = std::max(p.blastRadius, std::abs(off));
    }

    p.periods = static_cast<int>(std::max<std::int64_t>(
        1, config_.activationBudget / p.activationsPerPeriod()));
    return p;
}

} // namespace rowhammer::attack
