#include "fuzzer.hh"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <sstream>
#include <utility>

#include "attack/builder.hh"
#include "attack/session.hh"
#include "attack/trace_adapter.hh"
#include "mitigation/trr.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace rowhammer::attack
{

namespace
{

// Structural salts: every random stream in the campaign derives from
// (campaign seed, one of these, structural indices) — never from
// thread scheduling or scoring completion order.
constexpr std::uint64_t kChipSalt = 0xC41BF00DULL;
constexpr std::uint64_t kStreamSalt = 0x5EEDB0B0ULL;
constexpr std::uint64_t kBaselineSalt = 0xBA5E11ULL;
constexpr std::uint64_t kSelectSalt = 0x5E1EC700ULL;
constexpr std::uint64_t kTieSalt = 0x71EB4EA1ULL;
constexpr std::uint64_t kSampleSalt = 0xF5A11CEULL;
constexpr std::uint64_t kMutateSalt = 0xA17E12ULL;

/** Checkpoint keys for the baseline sessions live far above any
 *  (generation, slot, chip) key the campaign grid can produce. */
constexpr std::uint64_t kBaselineKeyBase = 1ULL << 62;

/** A session's checkpoint record (the label is not stored). */
void
encodeScore(util::ByteWriter &w, const PatternScore &score)
{
    w.u64(score.patternSeed);
    w.i64(score.activations);
    w.i64(score.flips);
    w.i64(score.refIntervals);
}

void
decodeScore(util::ByteReader &r, PatternScore &score)
{
    score.patternSeed = r.u64();
    score.activations = r.i64();
    score.flips = r.i64();
    score.refIntervals = r.i64();
}

} // namespace

FuzzerConfig::FuzzerConfig()
    : spec(fault::configFor(fault::TypeNode::DDR4New,
                            fault::Manufacturer::A))
{
    geometry.banks = 1;
    geometry.rows = 4096;
    geometry.rowDataBits = 16384;
}

void
FuzzerConfig::serialize(util::ByteWriter &w) const
{
    spec.serialize(w);
    geometry.serialize(w);
    w.f64(hcFirst);
    w.u64(seed);
    w.i64(generations);
    w.i64(population);
    w.i64(survivors);
    w.i64(chips);
    w.i64(minOrder);
    w.i64(maxOrder);
    w.i64(basePeriod);
    w.i64(maxFrequencyLog2);
    w.i64(maxAmplitude);
    w.i64(activationBudget);
    w.i64(actsPerRefInterval);
    w.i64(samplerSize);
    w.intVec(baselineNSides);
    w.str(mapping);
    w.str(attackerMapping);
    w.i64(mappingRanks);
    w.i64(mappingChannels);
}

std::int64_t
FuzzerConfig::budget() const
{
    if (activationBudget > 0)
        return activationBudget;
    return static_cast<std::int64_t>(20.0 * hcFirst * maxOrder);
}

std::uint64_t
FuzzerConfig::hash() const
{
    util::ByteWriter w;
    serialize(w);
    return util::fnv1a64(w.bytes());
}

FuzzerConfig
FuzzerConfig::deserialize(util::ByteReader &r)
{
    FuzzerConfig c;
    c.spec = fault::ChipSpec::deserialize(r);
    c.geometry = fault::ChipGeometry::deserialize(r);
    c.hcFirst = r.f64();
    c.seed = r.u64();
    c.generations = static_cast<int>(r.i64());
    c.population = static_cast<int>(r.i64());
    c.survivors = static_cast<int>(r.i64());
    c.chips = static_cast<int>(r.i64());
    c.minOrder = static_cast<int>(r.i64());
    c.maxOrder = static_cast<int>(r.i64());
    c.basePeriod = static_cast<int>(r.i64());
    c.maxFrequencyLog2 = static_cast<int>(r.i64());
    c.maxAmplitude = static_cast<int>(r.i64());
    c.activationBudget = r.i64();
    c.actsPerRefInterval = r.i64();
    c.samplerSize = static_cast<int>(r.i64());
    c.baselineNSides = r.intVec();
    c.mapping = r.str();
    c.attackerMapping = r.str();
    c.mappingRanks = static_cast<int>(r.i64());
    c.mappingChannels = static_cast<int>(r.i64());
    return c;
}

// --------------------------------------------------- FuzzingParameterSet

FuzzingParameterSet::FuzzingParameterSet(const FuzzerConfig &config,
                                         int step,
                                         std::int64_t activation_budget)
    : rows_(config.geometry.rows), step_(step),
      minOrder_(config.minOrder), maxOrder_(config.maxOrder),
      basePeriod_(config.basePeriod),
      maxFrequencyLog2_(config.maxFrequencyLog2),
      maxAmplitude_(config.maxAmplitude),
      refActs_(config.actsPerRefInterval), budget_(activation_budget)
{
    if (rows_ < 16)
        util::fatal("fuzzer: geometry must have at least 16 rows");
    if (step_ < 1)
        util::fatal("fuzzer: aggressor step must be >= 1");
    if (minOrder_ < 1 || maxOrder_ < minOrder_ || maxOrder_ > 64)
        util::fatal("fuzzer: aggressor orders must satisfy "
                    "1 <= minOrder <= maxOrder <= 64");
    if (basePeriod_ < 4 || (basePeriod_ & (basePeriod_ - 1)) != 0)
        util::fatal("fuzzer: basePeriod must be a power of two >= 4");
    if (maxFrequencyLog2_ < 0 ||
        (1 << maxFrequencyLog2_) > basePeriod_) {
        util::fatal("fuzzer: maxFrequencyLog2 must be in "
                    "[0, log2(basePeriod)]");
    }
    if (maxAmplitude_ < 1 || maxAmplitude_ > 1024)
        util::fatal("fuzzer: maxAmplitude must be in [1, 1024]");
    // The REF fit needs room for maxOrder decoys plus the pair at the
    // lowest frequency within one interval.
    if (refActs_ < maxOrder_ + 2 || refActs_ > (1 << 20))
        util::fatal("fuzzer: actsPerRefInterval must be in "
                    "[maxOrder + 2, 2^20]");
    if (budget_ < 1 || budget_ > 1000000000)
        util::fatal("fuzzer: activation budget must be in [1, 1e9]");
}

AggressorSlot
FuzzingParameterSet::sampleSchedule(util::Rng &rng, int row) const
{
    AggressorSlot slot;
    slot.row = row;
    slot.frequency = 1 << static_cast<int>(rng.uniformInt(
                         0, static_cast<std::uint64_t>(maxFrequencyLog2_)));
    slot.amplitude = 1;
    const int interval = basePeriod_ / slot.frequency;
    slot.phase = interval <= 1
        ? 0
        : static_cast<int>(
              rng.uniformInt(0, static_cast<std::uint64_t>(interval - 1)));
    return slot;
}

void
FuzzingParameterSet::normalize(AccessPattern &pattern) const
{
    // Blacksmith's REF synchronization, in this model's terms: fit the
    // period to exactly one tREFI worth of activations, so every REF
    // boundary lands on a period boundary and the pattern's escape
    // behavior is identical in every interval. Decoys keep amplitude 1
    // (plus the rounding slack), the core pair absorbs the remaining
    // budget as amplitude — which is exactly the published attacks'
    // shape: a thin decoy prefix saturating the sampler, then the pair
    // hammering with almost the whole interval.
    std::vector<std::size_t> core;
    std::vector<std::size_t> decoys;
    for (std::size_t i = 0; i < pattern.slots.size(); ++i) {
        if (std::abs(pattern.slots[i].row - pattern.victimRow) <= step_)
            core.push_back(i);
        else
            decoys.push_back(i);
    }
    const int ref_acts = static_cast<int>(refActs_);
    if (core.empty()) {
        // All-decoy degenerate shape: nothing to fit; it hammers no
        // neighbor of the victim and scores zero anyway.
        for (std::size_t i : decoys)
            pattern.slots[i].amplitude = 1;
        return;
    }
    // Decoys keep their frequency — per-decoy dose is a searchable
    // feature (a high-frequency decoy parked next to an incidental
    // weak cell harvests it, like the high-order hand-built patterns
    // do) — but amplitude resets to 1; the first decoy is pinned to
    // frequency 1 and absorbs the fit's rounding slack exactly.
    int decoy_acts = 0;
    for (std::size_t i : decoys) {
        if (i == decoys.front())
            pattern.slots[i].frequency = 1;
        pattern.slots[i].amplitude = 1;
        decoy_acts += pattern.slots[i].frequency;
    }
    const int core_count = static_cast<int>(core.size());
    if (ref_acts - decoy_acts < core_count) {
        // Decoy-heavy overflow: drop every decoy to one firing (the
        // ctor guarantees maxOrder + 2 <= ref_acts, so this fits).
        for (std::size_t i : decoys)
            pattern.slots[i].frequency = 1;
        decoy_acts = static_cast<int>(decoys.size());
    }
    int frequency = pattern.slots[core[0]].frequency;
    const int avail = ref_acts - decoy_acts;
    if (avail < core_count * frequency)
        frequency = 1;
    int amplitude = avail / (core_count * frequency);
    amplitude = std::clamp(amplitude, 1, maxAmplitude_);
    for (std::size_t i : core) {
        pattern.slots[i].frequency = frequency;
        pattern.slots[i].amplitude = amplitude;
        pattern.slots[i].phase = std::min(
            pattern.slots[i].phase, basePeriod_ / frequency - 1);
    }
    const int slack = avail - core_count * frequency * amplitude;
    if (!decoys.empty() && slack > 0)
        pattern.slots[decoys.front()].amplitude = 1 + slack;
}

int
FuzzingParameterSet::drawDecoyRow(util::Rng &rng, int victim,
                                  const std::vector<int> &used_rows) const
{
    const auto fits = [&](int row) {
        return row >= 1 && row <= rows_ - 2 &&
            std::find(used_rows.begin(), used_rows.end(), row) ==
                used_rows.end();
    };
    for (int attempt = 0; attempt < 16; ++attempt) {
        const int magnitude = 3 + 2 * static_cast<int>(rng.uniformInt(
                                  0, static_cast<std::uint64_t>(maxOrder_)));
        const int row = rng.bernoulli(0.5) ? victim + magnitude * step_
                                           : victim - magnitude * step_;
        if (fits(row))
            return row;
    }
    // Deterministic fallback: walk outward so a crowded neighborhood
    // still yields a decoy instead of spinning.
    for (int magnitude = 3;; magnitude += 2) {
        const int above = victim + magnitude * step_;
        const int below = victim - magnitude * step_;
        if (fits(above))
            return above;
        if (fits(below))
            return below;
        if (above > rows_ - 2 && below < 1) {
            util::fatal("fuzzer: array too small for the requested "
                        "decoy count");
        }
    }
}

void
FuzzingParameterSet::finalize(AccessPattern &pattern) const
{
    int radius = step_;
    for (const AggressorSlot &slot : pattern.slots) {
        radius =
            std::max(radius, std::abs(slot.row - pattern.victimRow));
    }
    pattern.blastRadius = radius;
    const std::int64_t per = pattern.activationsPerPeriod();
    pattern.periods = per > 0
        ? static_cast<int>(std::max<std::int64_t>(1, budget_ / per))
        : 1;
}

AccessPattern
FuzzingParameterSet::sample(int bank, int victim,
                            std::uint64_t pattern_seed) const
{
    if (victim - step_ < 1 || victim + step_ > rows_ - 2)
        util::fatal("fuzzer: victim's core pair does not fit the array");

    util::Rng rng(util::mix64(pattern_seed ^ kSampleSalt));
    AccessPattern pattern;
    pattern.bank = bank;
    pattern.victimRow = victim;
    pattern.basePeriod = basePeriod_;
    pattern.seed = pattern_seed;

    const int order =
        minOrder_ +
        static_cast<int>(rng.uniformInt(
            0, static_cast<std::uint64_t>(maxOrder_ - minOrder_)));

    // Decoys first in slot order — the front-loading that fills an
    // in-order TRR sampler before the rows that matter fire.
    std::vector<int> used{victim - step_, victim + step_};
    for (int d = 0; d < order - 2; ++d) {
        const int row = drawDecoyRow(rng, victim, used);
        used.push_back(row);
        pattern.slots.push_back(sampleSchedule(rng, row));
    }
    if (order == 1) {
        // Degenerate single-aggressor draw: well-defined, just weak.
        pattern.slots.push_back(sampleSchedule(rng, victim - step_));
    } else {
        // The core pair shares one schedule (Blacksmith anchors its
        // patterns on a double-sided core). The sampled phase is
        // biased into the upper half of the firing interval — the
        // published patterns fire the pair after the decoy prefix, and
        // seeding the search there gives generation 0 a foothold;
        // mutation can still move the phase anywhere.
        AggressorSlot lo = sampleSchedule(rng, victim - step_);
        const int interval = basePeriod_ / lo.frequency;
        if (interval >= 2) {
            lo.phase = interval / 2 +
                static_cast<int>(rng.uniformInt(
                    0, static_cast<std::uint64_t>(
                           interval - interval / 2 - 1)));
        }
        AggressorSlot hi = lo;
        hi.row = victim + step_;
        pattern.slots.push_back(lo);
        pattern.slots.push_back(hi);
    }
    normalize(pattern);
    finalize(pattern);
    return pattern;
}

AccessPattern
FuzzingParameterSet::mutate(const AccessPattern &parent,
                            std::uint64_t pattern_seed) const
{
    std::string why;
    if (!parent.wellFormed(&why))
        util::fatal("fuzzer: mutation parent is malformed: " + why);
    if (parent.basePeriod != basePeriod_) {
        util::fatal("fuzzer: mutation parent has a foreign base "
                    "period");
    }

    util::Rng rng(util::mix64(pattern_seed ^ kMutateSalt));
    AccessPattern child = parent;
    child.seed = pattern_seed;

    const int count = static_cast<int>(child.slots.size());
    std::vector<int> decoys;
    for (int i = 0; i < count; ++i) {
        if (std::abs(child.slots[i].row - child.victimRow) > step_)
            decoys.push_back(i);
    }

    const int op = static_cast<int>(rng.uniformInt(0, 5));
    bool done = false;
    if (op == 3 && !decoys.empty()) {
        // Move a decoy to a fresh row, keeping its schedule.
        const int i = decoys[rng.uniformInt(
            0, static_cast<std::uint64_t>(decoys.size() - 1))];
        child.slots[i].row =
            drawDecoyRow(rng, child.victimRow, child.rows());
        done = true;
    } else if (op == 4 && count < maxOrder_) {
        // Add a decoy at a random slot position (slot order is the
        // equal-tick tie-break, so position matters to the sampler).
        const int row = drawDecoyRow(rng, child.victimRow, child.rows());
        const AggressorSlot slot = sampleSchedule(rng, row);
        const int pos = static_cast<int>(
            rng.uniformInt(0, static_cast<std::uint64_t>(count)));
        child.slots.insert(child.slots.begin() + pos, slot);
        done = true;
    } else if (op == 5 && !decoys.empty() && count > 1) {
        const int i = decoys[rng.uniformInt(
            0, static_cast<std::uint64_t>(decoys.size() - 1))];
        child.slots.erase(child.slots.begin() + i);
        done = true;
    } else if (op == 2 && !decoys.empty()) {
        // Reschedule one decoy (fresh frequency and phase, same row):
        // the phase decides whether it occupies a sampler slot before
        // the pair does, the frequency decides how much dose its own
        // neighborhood receives.
        const int i = decoys[rng.uniformInt(
            0, static_cast<std::uint64_t>(decoys.size() - 1))];
        const int row = child.slots[i].row;
        child.slots[i] = sampleSchedule(rng, row);
        done = true;
    }
    if (!done) {
        // Reschedule the core pair: fresh frequency (op 0) or fresh
        // phase at the current frequency (op 1 and fallbacks).
        const AggressorSlot fresh = sampleSchedule(rng, 0);
        for (int i = 0; i < count; ++i) {
            AggressorSlot &slot = child.slots[i];
            if (std::abs(slot.row - child.victimRow) > step_)
                continue;
            if (op == 0)
                slot.frequency = fresh.frequency;
            const int interval = basePeriod_ / slot.frequency;
            slot.phase = std::min(fresh.phase, interval - 1);
        }
    }
    normalize(child);
    finalize(child);
    return child;
}

// --------------------------------------------------------------- scoring

std::int64_t
PatternScore::scoreMicro() const
{
    return flips * 1000000 / std::max<std::int64_t>(1, refIntervals);
}

int
compareScores(const PatternScore &a, const PatternScore &b)
{
    // flips/refIntervals compared exactly by cross-multiplication; the
    // products stay far below 2^63 (flips <= total array bits ~ 2^27,
    // refIntervals <= budget <= 1e9 is never paired with it — each
    // side multiplies its flips by the OTHER side's interval count).
    const std::int64_t lhs =
        a.flips * std::max<std::int64_t>(1, b.refIntervals);
    const std::int64_t rhs =
        b.flips * std::max<std::int64_t>(1, a.refIntervals);
    if (lhs != rhs)
        return lhs < rhs ? -1 : 1;
    return 0;
}

// ---------------------------------------------------------------- Fuzzer

Fuzzer::Fuzzer(FuzzerConfig config) : config_(std::move(config))
{
    const FuzzerConfig &c = config_;
    if (c.generations < 1)
        util::fatal("fuzzer: generations must be >= 1");
    if (c.population < 1)
        util::fatal("fuzzer: population must be >= 1");
    if (c.survivors < 1 || c.survivors > c.population)
        util::fatal("fuzzer: survivors must be in [1, population]");
    if (c.chips < 1)
        util::fatal("fuzzer: chips must be >= 1");
    if (c.hcFirst <= 0)
        util::fatal("fuzzer: hcFirst must be positive");
    if (c.actsPerRefInterval < 1)
        util::fatal("fuzzer: actsPerRefInterval must be >= 1");
    if (c.samplerSize < 1)
        util::fatal("fuzzer: samplerSize must be >= 1");
    if (c.activationBudget < 0 || c.activationBudget > 1000000000)
        util::fatal("fuzzer: activationBudget must be in [0, 1e9]");
    if (c.baselineNSides.empty())
        util::fatal("fuzzer: baselineNSides must not be empty");
    for (int n : c.baselineNSides) {
        if (n < 2 || n > 64) {
            util::fatal("fuzzer: baseline N-sided orders must be in "
                        "[2, 64]");
        }
    }
    // Fail fast on bad range knobs too (the parameter set re-validates
    // at run() with the real step and budget).
    FuzzingParameterSet probe(c, 1, 1);
    (void)probe;
}

std::uint64_t
Fuzzer::slotSeed(std::uint64_t campaign_seed, int generation, int slot)
{
    // Two rounds of keyed mixing: a pure function of the arguments, so
    // pattern identity can never depend on which worker thread reaches
    // a slot first.
    std::uint64_t x = campaign_seed;
    x = util::mix64(x ^ (0x9E3779B97F4A7C15ULL *
                         (static_cast<std::uint64_t>(generation) + 1)));
    x = util::mix64(x ^ (0xBF58476D1CE4E5B9ULL *
                         (static_cast<std::uint64_t>(slot) + 1)));
    return x;
}

std::vector<int>
Fuzzer::selectSurvivors(const std::vector<PatternScore> &scores,
                        std::uint64_t seed, int count)
{
    std::vector<int> order(scores.size());
    std::iota(order.begin(), order.end(), 0);
    std::vector<std::uint64_t> tie(scores.size());
    for (std::size_t i = 0; i < tie.size(); ++i) {
        tie[i] = util::mix64(seed ^
                             (kTieSalt + static_cast<std::uint64_t>(i)));
    }
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        const int c = compareScores(scores[a], scores[b]);
        if (c != 0)
            return c > 0;
        if (tie[a] != tie[b])
            return tie[a] < tie[b];
        return a < b;
    });
    if (count < 0)
        count = 0;
    if (static_cast<int>(order.size()) > count)
        order.resize(static_cast<std::size_t>(count));
    return order;
}

CampaignResult
Fuzzer::run() const
{
    const FuzzerConfig &config = config_;
    const std::int64_t budget = config.budget();
    const int rows = config.geometry.rows;

    // Mapping context (see SweepConfig): patterns are built in the
    // attacker's believed DRAM space.
    const AttackMapping mapping(config.mapping, config.attackerMapping,
                                config.mappingRanks,
                                config.mappingChannels, config.geometry);

    // The chip population: chip 0 reuses the campaign seed directly
    // (the same identity an attack sweep at this seed profiles), the
    // rest derive per-index identities. Each chip's weakest row is the
    // campaign's hammer target on that chip.
    struct ChipTarget
    {
        std::uint64_t seed;
        int believedBank;
        int believedVictim;
    };
    std::vector<ChipTarget> targets;
    int step = 1;
    for (int c = 0; c < config.chips; ++c) {
        const std::uint64_t chip_seed = c == 0
            ? config.seed
            : util::mix64(config.seed ^
                          (kChipSalt + static_cast<std::uint64_t>(c)));
        fault::ChipModel probe(config.spec, config.hcFirst, chip_seed,
                               config.geometry);
        if (c == 0)
            step = probe.aggressorStep();
        const auto [believed_bank, believed_victim] =
            mapping.believedVictim(probe.weakestBank(),
                                   probe.weakestRow());
        targets.push_back({chip_seed, believed_bank, believed_victim});
    }

    const auto clamp_victim = [&](int victim) {
        return std::clamp(victim, 1 + step, rows - 2 - step);
    };
    const int anchor_bank = targets[0].believedBank;
    const int anchor_victim = clamp_victim(targets[0].believedVictim);

    const FuzzingParameterSet params(config, step, budget);

    // The campaign grid is a pure function of the hashed config, so
    // (generation, slot, chip) flattens to a stable shard key and
    // resume replays the search with memoized sessions.
    const auto checkpoint = util::openCheckpoint(config, config.hash());
    std::unique_ptr<util::TaskPool> owned_pool;
    util::TaskPool &pool = util::poolFor(config, owned_pool);

    SessionConfig session;
    session.actsPerRefInterval = config.actsPerRefInterval;

    // One (pattern, chip) session. Everything derives from (campaign
    // seed, pattern seed, chip index): a carried survivor re-scores
    // identically in any later generation, so elitism is exact.
    const auto run_session = [&](const AccessPattern &pattern,
                                 std::size_t chip_idx) {
        PatternScore out;
        out.patternSeed = pattern.seed;

        // Re-aim the pattern at this chip's weakest row: shift every
        // slot by the victim delta, dropping slots pushed off the
        // array (a pure shift cannot create duplicates).
        const ChipTarget &target = targets[chip_idx];
        const int victim = clamp_victim(target.believedVictim);
        const int delta = victim - pattern.victimRow;
        AccessPattern placed = pattern;
        placed.bank = target.believedBank;
        placed.victimRow = victim;
        placed.slots.clear();
        int radius = step;
        for (AggressorSlot slot : pattern.slots) {
            slot.row += delta;
            if (slot.row < 1 || slot.row > rows - 2 ||
                slot.row == victim) {
                continue;
            }
            radius = std::max(radius, std::abs(slot.row - victim));
            placed.slots.push_back(slot);
        }
        placed.blastRadius = radius;
        placed = mapping.land(std::move(placed));

        if (!placed.slots.empty()) {
            fault::ChipModel chip(config.spec, config.hcFirst,
                                  target.seed, config.geometry);
            mitigation::TrrSampler mech(config.samplerSize);
            util::Rng rng(
                util::mix64(util::mix64(config.seed ^ kStreamSalt) ^
                            pattern.seed ^
                            (0xBF58476D1CE4E5B9ULL * (chip_idx + 1))));
            const SessionResult res =
                runPattern(chip, placed, &mech, session, rng);
            out.activations = res.activations;
            out.flips = static_cast<std::int64_t>(res.flips.size());
            out.refIntervals = res.refIntervals;
        }
        return out;
    };

    // Score a contiguous run of patterns across the chip population,
    // summing per-chip results per pattern. key_base addresses the
    // first pattern's chip-0 session in the checkpoint keyspace.
    const std::size_t chip_count =
        static_cast<std::size_t>(config.chips);
    const auto score_patterns =
        [&](const std::vector<AccessPattern> &patterns,
            std::uint64_t key_base) {
            const std::vector<PatternScore> per_chip = pool.map(
                patterns.size() * chip_count, [&](std::size_t job) {
                    const AccessPattern &pattern =
                        patterns[job / chip_count];
                    // A record for another pattern seed is stale.
                    return util::memoized<PatternScore>(
                        checkpoint.get(), key_base + job,
                        [&] { return run_session(pattern,
                                                 job % chip_count); },
                        encodeScore,
                        [&](util::ByteReader &r, PatternScore &score) {
                            decodeScore(r, score);
                            return score.patternSeed == pattern.seed;
                        });
                });
            std::vector<PatternScore> out(patterns.size());
            for (std::size_t i = 0; i < patterns.size(); ++i) {
                PatternScore sum;
                sum.label = patterns[i].label;
                sum.patternSeed = patterns[i].seed;
                for (std::size_t c = 0; c < chip_count; ++c) {
                    const PatternScore &p = per_chip[i * chip_count + c];
                    sum.activations += p.activations;
                    sum.flips += p.flips;
                    sum.refIntervals += p.refIntervals;
                }
                out[i] = sum;
            }
            return out;
        };

    CampaignResult result;
    result.samplerSize = config.samplerSize;

    // Hand-built N-sided baselines: same chips, same budget, same
    // sampler — the bar the campaign's headline is measured against.
    {
        const int max_n = *std::max_element(config.baselineNSides.begin(),
                                            config.baselineNSides.end());
        BuilderConfig builder_config;
        builder_config.rows = rows;
        builder_config.step = step;
        builder_config.activationBudget = budget;
        builder_config.maxOrder = std::max(20, max_n);
        const PatternBuilder builder(builder_config, config.seed);
        std::vector<AccessPattern> baseline_patterns;
        for (int n : config.baselineNSides) {
            AccessPattern p =
                builder.nSided(anchor_bank, anchor_victim, n);
            p.seed = util::mix64(
                config.seed ^
                (kBaselineSalt + static_cast<std::uint64_t>(n)));
            baseline_patterns.push_back(std::move(p));
        }
        result.baselines =
            score_patterns(baseline_patterns, kBaselineKeyBase);
    }

    // The generational loop. Generation 0 is sampled fresh; later
    // generations carry the survivors unchanged (elitism, scores
    // copied — re-running them is deterministic but wasted work) and
    // breed the rest by mutation. Every pattern's seed comes from
    // slotSeed(campaign seed, generation, slot).
    std::vector<AccessPattern> population;
    std::vector<PatternScore> scores;
    std::vector<int> survivors;
    PatternScore best_score;
    bool have_best = false;
    for (int g = 0; g < config.generations; ++g) {
        if (g == 0) {
            for (int s = 0; s < config.population; ++s) {
                AccessPattern p =
                    params.sample(anchor_bank, anchor_victim,
                                  slotSeed(config.seed, 0, s));
                p.label = "g0s" + std::to_string(s);
                population.push_back(std::move(p));
            }
            scores = score_patterns(
                population, /*key_base=*/0);
        } else {
            const int carried =
                static_cast<int>(survivors.size());
            std::vector<AccessPattern> next_population;
            std::vector<PatternScore> next_scores;
            for (int i = 0; i < carried; ++i) {
                next_population.push_back(population[survivors[i]]);
                next_scores.push_back(scores[survivors[i]]);
            }
            std::vector<AccessPattern> children;
            for (int s = carried; s < config.population; ++s) {
                const AccessPattern &parent =
                    next_population[(s - carried) % carried];
                AccessPattern child = params.mutate(
                    parent, slotSeed(config.seed, g, s));
                child.label =
                    "g" + std::to_string(g) + "s" + std::to_string(s);
                children.push_back(std::move(child));
            }
            const std::uint64_t key_base =
                (static_cast<std::uint64_t>(g) *
                     static_cast<std::uint64_t>(config.population) +
                 static_cast<std::uint64_t>(carried)) *
                chip_count;
            std::vector<PatternScore> child_scores =
                score_patterns(children, key_base);
            for (std::size_t i = 0; i < children.size(); ++i) {
                next_population.push_back(std::move(children[i]));
                next_scores.push_back(std::move(child_scores[i]));
            }
            population = std::move(next_population);
            scores = std::move(next_scores);
        }

        GenerationLog log;
        log.generation = g;
        log.scores = scores;
        log.survivors = selectSurvivors(
            scores,
            util::mix64(config.seed ^
                        (kSelectSalt + static_cast<std::uint64_t>(g))),
            config.survivors);
        survivors = log.survivors;
        result.generations.push_back(std::move(log));

        for (int s = 0; s < config.population; ++s) {
            if (!have_best ||
                compareScores(scores[static_cast<std::size_t>(s)],
                              best_score) > 0) {
                result.bestGeneration = g;
                result.bestSlot = s;
                result.bestPattern =
                    population[static_cast<std::size_t>(s)];
                best_score = scores[static_cast<std::size_t>(s)];
                have_best = true;
            }
        }
    }

    int best_baseline = 0;
    for (std::size_t i = 1; i < result.baselines.size(); ++i) {
        if (compareScores(result.baselines[i],
                          result.baselines[best_baseline]) > 0) {
            best_baseline = static_cast<int>(i);
        }
    }
    result.bestBaseline = best_baseline;
    return result;
}

// --------------------------------------------------------------- render

std::string
renderCampaign(const CampaignResult &result)
{
    std::ostringstream out;
    const auto line = [&](const std::string &prefix,
                          const PatternScore &s) {
        out << prefix << s.label << " seed=" << s.patternSeed
            << " acts=" << s.activations << " flips=" << s.flips
            << " refis=" << s.refIntervals
            << " score_micro=" << s.scoreMicro() << "\n";
    };
    for (const PatternScore &s : result.baselines)
        line("baseline ", s);
    for (const GenerationLog &g : result.generations) {
        const std::string prefix =
            "gen " + std::to_string(g.generation) + " ";
        for (const PatternScore &s : g.scores)
            line(prefix, s);
        out << "gen " << g.generation << " survivors:";
        for (int s : g.survivors)
            out << " " << s;
        out << "\n";
    }
    if (result.generations.empty() || result.baselines.empty())
        return out.str();

    const GenerationLog &best_gen =
        result.generations[static_cast<std::size_t>(
            result.bestGeneration)];
    const PatternScore &fuzzed =
        best_gen.scores[static_cast<std::size_t>(result.bestSlot)];
    const PatternScore &hand = result.baselines[static_cast<std::size_t>(
        result.bestBaseline)];
    line("best fuzzed ", fuzzed);
    line("best hand-built ", hand);
    const int verdict = compareScores(fuzzed, hand);
    out << "headline: fuzzed " << fuzzed.label
        << (verdict > 0        ? " beats hand-built "
                : verdict == 0 ? " ties hand-built "
                               : " does not beat hand-built ")
        << hand.label << " vs TRR-" << result.samplerSize << " (flips "
        << fuzzed.flips << " vs " << hand.flips << ", score_micro "
        << fuzzed.scoreMicro() << " vs " << hand.scoreMicro() << ")\n";
    return out.str();
}

} // namespace rowhammer::attack
