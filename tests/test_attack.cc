/**
 * @file
 * Adversarial test harness for the attack-pattern subsystem: property
 * tests over every PatternBuilder output, golden pins of generated
 * patterns, equivalence of the multi-aggressor hammer paths (fault
 * model vs. command-level tester), the multi-aggressor flip
 * de-duplication regression, and the TraceAdapter bridge into the
 * cycle-accurate stack.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "attack/builder.hh"
#include "attack/fuzzer.hh"
#include "attack/pattern.hh"
#include "attack/session.hh"
#include "attack/sweep.hh"
#include "attack/trace_adapter.hh"
#include "dram/address_functions.hh"
#include "cpu/core.hh"
#include "ecc/ondie.hh"
#include "fault/chip_model.hh"
#include "fault/chipspec.hh"
#include "mitigation/factory.hh"
#include "mitigation/mitigation.hh"
#include "mitigation/trr.hh"
#include "softmc/chip_tester.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace
{

using namespace rowhammer;
using namespace rowhammer::attack;
using rowhammer::util::Rng;

BuilderConfig
testConfig()
{
    BuilderConfig config;
    config.rows = 4096;
    config.step = 1;
    config.activationBudget = 48000;
    return config;
}

std::vector<AccessPattern>
allTestPatterns(const PatternBuilder &builder, int bank, int victim)
{
    std::vector<AccessPattern> out;
    out.push_back(builder.singleSided(bank, victim));
    out.push_back(builder.doubleSided(bank, victim));
    for (int n : {4, 8, 12, 20})
        out.push_back(builder.nSided(bank, victim, n));
    for (std::uint64_t f = 0; f < 6; ++f)
        out.push_back(builder.fuzzed(bank, victim, f));
    return out;
}

// ------------------------------------------------------ property tests

TEST(PatternBuilder, EveryPatternWellFormed)
{
    PatternBuilder builder(testConfig(), 2020);
    for (const AccessPattern &p : allTestPatterns(builder, 0, 1000)) {
        std::string why;
        EXPECT_TRUE(p.wellFormed(&why)) << p.label << ": " << why;
    }
}

TEST(PatternBuilder, AggressorsWithinBlastRadiusAndArray)
{
    const BuilderConfig config = testConfig();
    PatternBuilder builder(config, 7);
    for (int victim : {8, 1000, config.rows - 9}) {
        for (const AccessPattern &p :
             allTestPatterns(builder, 0, victim)) {
            for (const AggressorSlot &slot : p.slots) {
                EXPECT_NE(slot.row, p.victimRow) << p.label;
                EXPECT_LE(std::abs(slot.row - p.victimRow),
                          p.blastRadius)
                    << p.label;
                // Aggressors keep their own neighbors on the array so
                // every mechanism's victim refs are in range.
                EXPECT_GE(slot.row, 1) << p.label;
                EXPECT_LE(slot.row, config.rows - 2) << p.label;
            }
        }
    }
}

TEST(PatternBuilder, FrequenciesSumToActivationBudget)
{
    PatternBuilder builder(testConfig(), 11);
    for (const AccessPattern &p : allTestPatterns(builder, 0, 500)) {
        // The IR identity: the expanded schedule is exactly the
        // per-period frequency * amplitude sum times the period count.
        std::vector<int> schedule;
        p.expand(schedule);
        EXPECT_EQ(static_cast<std::int64_t>(schedule.size()),
                  p.activationBudget())
            << p.label;
        // And the per-row doses partition the budget.
        std::int64_t dosed = 0;
        for (const fault::AggressorDose &dose : p.doses())
            dosed += dose.count;
        EXPECT_EQ(dosed, p.activationBudget()) << p.label;
        // Builder patterns land within one period of the target.
        EXPECT_LE(p.activationBudget(),
                  builder.config().activationBudget);
        EXPECT_GT(p.activationBudget(),
                  builder.config().activationBudget -
                      p.activationsPerPeriod());
    }
}

TEST(PatternBuilder, IdenticalSeedIdenticalPattern)
{
    PatternBuilder a(testConfig(), 42);
    PatternBuilder b(testConfig(), 42);
    for (std::uint64_t f = 0; f < 8; ++f) {
        const AccessPattern pa = a.fuzzed(0, 777, f);
        const AccessPattern pb = b.fuzzed(0, 777, f);
        EXPECT_EQ(pa.slots, pb.slots) << "fuzz seed " << f;
        EXPECT_EQ(pa.periods, pb.periods);
        EXPECT_EQ(pa.basePeriod, pb.basePeriod);
    }
}

TEST(PatternBuilder, DifferentFuzzSeedsDiffer)
{
    PatternBuilder builder(testConfig(), 42);
    const AccessPattern a = builder.fuzzed(0, 777, 1);
    const AccessPattern b = builder.fuzzed(0, 777, 2);
    EXPECT_NE(a.slots, b.slots);
}

TEST(PatternBuilder, ManySidedDecoysFireBeforeTruePair)
{
    PatternBuilder builder(testConfig(), 3);
    const AccessPattern p = builder.nSided(0, 600, 12);
    ASSERT_EQ(p.slots.size(), 12u);
    // The saturating property: the last two slots of every round are
    // the true pair.
    EXPECT_EQ(p.slots[10].row, 599);
    EXPECT_EQ(p.slots[11].row, 601);
    std::vector<int> schedule;
    p.expand(schedule);
    for (int i = 0; i < 10; ++i)
        EXPECT_NE(schedule[static_cast<std::size_t>(i)], 599);
}

TEST(PatternBuilder, EdgeVictimClipsToOneSide)
{
    const BuilderConfig config = testConfig();
    PatternBuilder builder(config, 5);
    // A victim near row 0: minus-side decoys do not fit; the builder
    // must place them on the plus side instead of leaving the array.
    const AccessPattern p = builder.nSided(0, 8, 12);
    std::string why;
    EXPECT_TRUE(p.wellFormed(&why)) << why;
    for (const AggressorSlot &slot : p.slots)
        EXPECT_GE(slot.row, 1);
}

// -------------------------------------------------------- golden pins

TEST(PatternGolden, NSidedOffsets)
{
    PatternBuilder builder(testConfig(), 2020);
    const AccessPattern p = builder.nSided(0, 1000, 8);
    const std::vector<AggressorSlot> expected{
        {1003, 1, 0, 1}, {997, 1, 1, 1},  {1005, 1, 2, 1},
        {995, 1, 3, 1},  {1007, 1, 4, 1}, {993, 1, 5, 1},
        {999, 1, 6, 1},  {1001, 1, 7, 1},
    };
    EXPECT_EQ(p.slots, expected);
    EXPECT_EQ(p.basePeriod, 8);
    EXPECT_EQ(p.periods, 6000);
}

TEST(PatternGolden, FuzzedPatternsPinned)
{
    // Committed aggressor lists for two fuzz seeds: any change to the
    // builder's RNG consumption or placement logic shows up here.
    PatternBuilder builder(testConfig(), 2020);

    const AccessPattern f0 = builder.fuzzed(0, 1000, 0);
    const std::vector<AggressorSlot> expected0{
        {1037, 1, 13, 2}, {993, 4, 3, 2}, {1027, 4, 2, 2},
        {975, 1, 8, 2},   {999, 4, 3, 1}, {1001, 4, 0, 1},
    };
    EXPECT_EQ(f0.slots, expected0);
    EXPECT_EQ(f0.periods, 1714);
    EXPECT_EQ(f0.activationBudget(), 47992);

    const AccessPattern f1 = builder.fuzzed(0, 1000, 1);
    const std::vector<AggressorSlot> expected1{
        {963, 4, 3, 1},  {1027, 4, 2, 2}, {1033, 1, 10, 1},
        {1035, 2, 7, 2}, {1019, 2, 5, 1}, {957, 4, 3, 1},
        {1015, 1, 12, 1}, {1029, 4, 1, 2}, {999, 4, 1, 1},
        {1001, 4, 1, 1},
    };
    EXPECT_EQ(f1.slots, expected1);
    EXPECT_EQ(f1.periods, 1200);
}

// --------------------------------------- multi-aggressor hammer paths

fault::ChipGeometry
smallGeometry()
{
    fault::ChipGeometry g;
    g.banks = 2;
    g.rows = 1024;
    g.rowDataBits = 16384;
    return g;
}

fault::ChipSpec
denseSpec()
{
    fault::ChipSpec s = fault::configFor(fault::TypeNode::DDR4New,
                                         fault::Manufacturer::A);
    s.weakDensityAt150k = 5e-4;
    return s;
}

TEST(HammerRows, TwoDoseSetMatchesDoubleSided)
{
    fault::ChipModel a(denseSpec(), 8000, 22, smallGeometry());
    fault::ChipModel b(denseSpec(), 8000, 22, smallGeometry());
    const int bank = a.weakestBank();
    const int victim = a.weakestRow();

    Rng rng_a(5);
    const auto via_pair = a.hammerDoubleSided(
        bank, victim, 20000, a.spec().worstPattern, rng_a);

    Rng rng_b(5);
    const std::vector<fault::AggressorDose> doses{{victim - 1, 20000},
                                                  {victim + 1, 20000}};
    const auto via_doses = b.hammerRows(bank, victim, doses,
                                        b.spec().worstPattern, rng_b);
    EXPECT_EQ(via_pair, via_doses);
    EXPECT_FALSE(via_pair.empty());
}

TEST(HammerRows, DecoyDosesDoNotPerturbVictimFlips)
{
    // Far-away decoys change neither the victim's exposure nor its
    // random draws: read the victim row directly with a fresh stream.
    const auto victim_flips = [](const std::vector<fault::AggressorDose>
                                     &doses) {
        fault::ChipModel chip(denseSpec(), 8000, 22, smallGeometry());
        const int bank = chip.weakestBank();
        const int victim = chip.weakestRow();
        chip.writePattern(chip.spec().worstPattern, victim & 1);
        chip.refreshRow(bank, victim);
        for (const fault::AggressorDose &dose : doses) {
            chip.addActivations(bank, victim + dose.row, dose.count);
        }
        Rng rng(9);
        return chip.readRow(bank, victim, rng);
    };

    const auto pair_only =
        victim_flips({{-1, 20000}, {+1, 20000}});
    const auto with_decoys = victim_flips(
        {{-1, 20000}, {+1, 20000}, {-5, 20000}, {+5, 20000},
         {+9, 20000}});
    EXPECT_EQ(pair_only, with_decoys);
    EXPECT_FALSE(pair_only.empty());
}

TEST(HammerRows, TesterPatternMatchesFaultModel)
{
    // The command-level tester path (full timing enforcement) must
    // observe exactly the fault model's flips for the same pattern.
    // Budget: 12k activations per slot, 2x the chip's HCfirst.
    PatternBuilder builder(
        BuilderConfig{.rows = 1024, .step = 1, .activationBudget = 72000},
        13);

    fault::ChipModel model_only(denseSpec(), 6000, 31, smallGeometry());
    fault::ChipModel tested(denseSpec(), 6000, 31, smallGeometry());
    const int bank = model_only.weakestBank();
    const int victim = model_only.weakestRow();
    const AccessPattern pattern = builder.nSided(bank, victim, 6);

    Rng rng_a(3);
    const auto doses = pattern.doses();
    const auto via_model = model_only.hammerRows(
        bank, victim, doses, model_only.spec().worstPattern, rng_a);

    softmc::ChipTester tester(tested);
    Rng rng_b(3);
    const auto result = runOnTester(tester, pattern,
                                    tested.spec().worstPattern, rng_b);
    EXPECT_EQ(via_model, result.flips);
    EXPECT_FALSE(result.flips.empty());
    EXPECT_GT(result.coreLoopCycles, 0);
    EXPECT_EQ(result.activations, pattern.activationBudget());
}

// ------------------------------- flip de-duplication regression (fix)

TEST(FlipDedup, DuplicateStoredBitsCountOnceNotCancel)
{
    // Concatenating per-aggressor flip contributions can list the same
    // stored bit twice; physically that is one leaked cell, not a
    // cancelling pair. {5, 5, 9} must decode exactly like {5, 9}.
    ecc::OnDieEcc ecc(128);
    const util::BitVec data(128, 0x5A);

    ecc::OnDieEccStats dup_stats;
    const util::BitVec dup =
        ecc.readWithFlips(data, {5, 5, 9}, &dup_stats);
    ecc::OnDieEccStats set_stats;
    const util::BitVec set = ecc.readWithFlips(data, {5, 9}, &set_stats);
    EXPECT_TRUE(dup == set);
    EXPECT_EQ(dup_stats.cleanWords, set_stats.cleanWords);
    EXPECT_EQ(dup_stats.corrections, set_stats.corrections);
    EXPECT_EQ(dup_stats.detectedOnly, set_stats.detectedOnly);

    // Under the old cancel semantics {5, 5, 9} aliased to the single
    // flip {9}, which a SEC decoder corrects back to clean data.
    ecc::OnDieEccStats one_stats;
    const util::BitVec one = ecc.readWithFlips(data, {9}, &one_stats);
    EXPECT_TRUE(one == data);
    EXPECT_FALSE(dup == data);
}

TEST(FlipDedup, WeightedHammerNeverReportsDuplicateBits)
{
    // Saturate a dense on-die-ECC chip with a heavy 6-sided hammer and
    // check no (bank, row, bit) is ever reported twice.
    fault::ChipSpec spec = fault::configFor(fault::TypeNode::LPDDR4_1y,
                                            fault::Manufacturer::A);
    spec.weakDensityAt150k = 2e-3;
    spec.meanClusterSize = 4.0;
    fault::ChipModel chip(spec, 4000, 51, smallGeometry());
    const int bank = chip.weakestBank();
    const int victim = chip.weakestRow();

    const std::vector<fault::AggressorDose> doses{
        {victim - 1, 120000}, {victim + 1, 120000},
        {victim - 5, 120000}, {victim + 5, 120000},
        {victim + 3, 120000}, {victim - 3, 120000}};
    Rng rng(23);
    const auto flips =
        chip.hammerRows(bank, victim, doses, spec.worstPattern, rng);
    EXPECT_FALSE(flips.empty());

    std::set<std::tuple<int, int, long>> seen;
    for (const auto &flip : flips) {
        EXPECT_TRUE(
            seen.insert({flip.bank, flip.row, flip.bitIndex}).second)
            << "duplicate flip at row " << flip.row << " bit "
            << flip.bitIndex;
    }
}

// ----------------------------------------------- session & adapter

TEST(Session, DeterministicAcrossRuns)
{
    PatternBuilder builder(
        BuilderConfig{.rows = 1024, .step = 1, .activationBudget = 24000},
        19);
    const auto run = [&] {
        fault::ChipModel chip(denseSpec(), 4000, 9, smallGeometry());
        const AccessPattern p =
            builder.nSided(chip.weakestBank(), chip.weakestRow(), 6);
        Rng rng(55);
        return runPattern(chip, p, nullptr, SessionConfig{}, rng);
    };
    const SessionResult a = run();
    const SessionResult b = run();
    EXPECT_EQ(a.flips, b.flips);
    EXPECT_EQ(a.activations, b.activations);
    EXPECT_FALSE(a.flips.empty());
}

TEST(Session, UnprotectedMatchesBudget)
{
    fault::ChipModel chip(denseSpec(), 4000, 9, smallGeometry());
    PatternBuilder builder(
        BuilderConfig{.rows = 1024, .step = 1, .activationBudget = 24000},
        19);
    const AccessPattern p =
        builder.doubleSided(chip.weakestBank(), chip.weakestRow());
    Rng rng(1);
    const SessionResult result =
        runPattern(chip, p, nullptr, SessionConfig{}, rng);
    EXPECT_EQ(result.activations, p.activationBudget());
    EXPECT_EQ(result.mitigationRefreshes, 0);
    EXPECT_GT(result.refIntervals, 0);
}

TEST(Session, DegenerateFuzzerDrawsAreRejectedNotUB)
{
    // The fuzzer's parameter space brushes against draws the session
    // must reject with a typed error — never run as UB (this test is
    // part of the ASan/UBSan job).
    fault::ChipModel chip(denseSpec(), 4000, 9, smallGeometry());
    const int victim = chip.weakestRow();

    AccessPattern zero;
    zero.bank = chip.weakestBank();
    zero.victimRow = victim;
    zero.blastRadius = 1;
    zero.basePeriod = 4;
    zero.periods = 10;
    zero.slots.push_back({victim - 1, 1, 0, 0}); // Amplitude zero.
    zero.slots.push_back({victim + 1, 1, 0, 1});
    std::string why;
    EXPECT_FALSE(zero.wellFormed(&why));
    EXPECT_NE(why.find("amplitude"), std::string::npos);
    Rng rng(3);
    EXPECT_THROW(runPattern(chip, zero, nullptr, SessionConfig{}, rng),
                 util::FatalError);

    // Duplicate aggressor rows: same contract.
    AccessPattern dup = zero;
    dup.slots[0].amplitude = 1;
    dup.slots[1].row = victim - 1;
    EXPECT_FALSE(dup.wellFormed(&why));
    EXPECT_NE(why.find("duplicate"), std::string::npos);
    EXPECT_THROW(runPattern(chip, dup, nullptr, SessionConfig{}, rng),
                 util::FatalError);
}

TEST(Session, SingleAggressorFuzzDrawRunsCleanly)
{
    // minOrder = maxOrder = 1 degenerates the fuzzer to one-sided
    // hammering: weak, but well-defined end to end.
    FuzzerConfig fc;
    fc.geometry = smallGeometry();
    fc.minOrder = 1;
    fc.maxOrder = 1;
    const FuzzingParameterSet params(fc, 1, 24000);
    fault::ChipModel chip(denseSpec(), 4000, 9, smallGeometry());
    const int victim = chip.weakestRow();
    const AccessPattern p = params.sample(chip.weakestBank(), victim, 5);
    std::string why;
    ASSERT_TRUE(p.wellFormed(&why)) << why;
    EXPECT_EQ(p.rows(), std::vector<int>{victim - 1});
    Rng rng(7);
    const SessionResult result =
        runPattern(chip, p, nullptr, SessionConfig{}, rng);
    EXPECT_EQ(result.activations, p.activationBudget());
    EXPECT_GT(result.refIntervals, 0);
}

TEST(Session, PeriodLongerThanRefWindowIsWellDefined)
{
    // One pattern period spanning multiple tREFI windows (amplitude
    // bursts far above actsPerRefInterval): the session interleaves
    // REF boundaries mid-period and counts them exactly.
    fault::ChipModel chip(denseSpec(), 4000, 9, smallGeometry());
    const int victim = chip.weakestRow();
    AccessPattern wide;
    wide.bank = chip.weakestBank();
    wide.victimRow = victim;
    wide.blastRadius = 1;
    wide.basePeriod = 1;
    wide.periods = 5;
    wide.slots.push_back({victim - 1, 1, 0, 240});
    wide.slots.push_back({victim + 1, 1, 0, 240});
    std::string why;
    ASSERT_TRUE(wide.wellFormed(&why)) << why;
    ASSERT_EQ(wide.activationsPerPeriod(), 480);

    SessionConfig session;
    session.actsPerRefInterval = 240;
    Rng rng(11);
    const SessionResult result =
        runPattern(chip, wide, nullptr, session, rng);
    EXPECT_EQ(result.activations, wide.activationBudget());
    EXPECT_EQ(result.refIntervals,
              wide.activationBudget() / session.actsPerRefInterval);
}

// ------------------------------- burst replay vs. per-ACT oracle

/**
 * Reference lowering: the pattern's activation stream built tick by
 * tick, independently of AccessPattern::bursts().
 */
std::vector<int>
tickByTickSchedule(const AccessPattern &pattern)
{
    std::vector<int> out;
    for (int period = 0; period < pattern.periods; ++period) {
        for (int tick = 0; tick < pattern.basePeriod; ++tick) {
            for (const AggressorSlot &slot : pattern.slots) {
                const int interval = pattern.basePeriod / slot.frequency;
                if (tick < slot.phase ||
                    (tick - slot.phase) % interval != 0) {
                    continue;
                }
                for (int a = 0; a < slot.amplitude; ++a)
                    out.push_back(slot.row);
            }
        }
    }
    return out;
}

/**
 * Reference session: runPattern's ACT-by-ACT replay, one onActivate
 * and one ChipModel::addActivations per activation. runPattern must
 * match it exactly.
 */
SessionResult
perActSession(fault::ChipModel &chip, const AccessPattern &pattern,
              mitigation::Mitigation *mechanism,
              const SessionConfig &config, Rng &rng)
{
    const int bank = pattern.bank;
    const int rows = chip.geometry().rows;

    chip.writePattern(chip.spec().worstPattern, pattern.victimRow & 1);
    chip.refreshRow(bank, pattern.victimRow);

    SessionResult result;
    std::vector<mitigation::VictimRef> scratch;
    const auto latch_and_refresh = [&](int row) {
        chip.readRowInto(bank, row, rng, result.flips);
        chip.refreshRow(bank, row);
    };
    const auto apply_victims = [&] {
        for (const mitigation::VictimRef &ref : scratch) {
            if (ref.flatBank != bank || ref.row < 0 || ref.row >= rows)
                continue; // Neighbor of an edge row, or another bank.
            latch_and_refresh(ref.row);
            ++result.mitigationRefreshes;
        }
        scratch.clear();
    };

    const std::vector<int> schedule = tickByTickSchedule(pattern);
    std::uint64_t ref_index = 0;

    for (std::size_t i = 0; i < schedule.size(); ++i) {
        const int row = schedule[i];
        chip.addActivations(bank, row, 1);
        ++result.activations;
        if (mechanism) {
            scratch.clear();
            mechanism->onActivate(bank, row,
                                  static_cast<dram::Cycle>(i), scratch);
            apply_victims();
        }

        if ((static_cast<std::int64_t>(i) + 1) %
                config.actsPerRefInterval !=
            0) {
            continue;
        }
        ++result.refIntervals;
        if (mechanism) {
            scratch.clear();
            mechanism->onRefresh(ref_index, 0, scratch);
            apply_victims();
        }
        ++ref_index;
    }

    int span_lo = pattern.victimRow;
    int span_hi = pattern.victimRow;
    for (const AggressorSlot &slot : pattern.slots) {
        span_lo = std::min(span_lo, slot.row);
        span_hi = std::max(span_hi, slot.row);
    }
    const auto [lo, hi] = chip.blastReadRange(span_lo, span_hi);
    for (int row = lo; row <= hi; ++row)
        chip.readRowInto(bank, row, rng, result.flips);

    std::sort(result.flips.begin(), result.flips.end());
    result.flips.erase(
        std::unique(result.flips.begin(), result.flips.end()),
        result.flips.end());
    return result;
}

/** A named way to build a fresh mechanism (null = unprotected). */
struct MechanismCase
{
    std::string label;
    std::function<std::unique_ptr<mitigation::Mitigation>()> make;
};

std::vector<MechanismCase>
oracleMechanisms(int rows)
{
    using mitigation::Kind;
    std::vector<MechanismCase> out;
    out.push_back({"unprotected", [] { return nullptr; }});
    std::vector<Kind> kinds = mitigation::allKinds();
    kinds.insert(kinds.begin(), Kind::None);
    const dram::TimingSpec timing = dram::ddr4_2400();
    for (const Kind kind : kinds) {
        // The lowest HCfirst >= 2000 the mechanism is evaluated at.
        double hc = 0.0;
        for (const double candidate : {2000.0, 40000.0, 128000.0}) {
            if (mitigation::evaluatedAt(kind, candidate, timing)) {
                hc = candidate;
                break;
            }
        }
        EXPECT_GT(hc, 0.0) << mitigation::toString(kind);
        out.push_back({mitigation::toString(kind), [=] {
                           return mitigation::makeMitigation(
                               kind, hc, timing, rows, 23);
                       }});
    }
    out.push_back({"TRR-3", [] {
                       return std::make_unique<mitigation::TrrSampler>(3);
                   }});
    return out;
}

std::vector<AccessPattern>
oraclePatterns(int bank, int victim)
{
    PatternBuilder builder(
        BuilderConfig{.rows = 1024, .step = 1, .activationBudget = 6000},
        17);
    std::vector<AccessPattern> out = allTestPatterns(builder, bank, victim);

    FuzzerConfig fc;
    fc.geometry = smallGeometry();
    const FuzzingParameterSet params(fc, 1, 6000);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        out.push_back(params.sample(bank, victim, seed));
        out.push_back(params.mutate(out.back(), seed + 100));
    }

    // One burst spans several REF windows.
    AccessPattern wide;
    wide.label = "wide";
    wide.bank = bank;
    wide.victimRow = victim;
    wide.blastRadius = 1;
    wide.periods = 5;
    wide.slots.push_back({victim - 1, 1, 0, 600});
    wide.slots.push_back({victim + 1, 1, 0, 240});
    out.push_back(wide);

    // 13 ACTs per period: REF boundaries drift through the period.
    AccessPattern odd;
    odd.label = "odd";
    odd.bank = bank;
    odd.victimRow = victim;
    odd.blastRadius = 3;
    odd.basePeriod = 4;
    odd.periods = 400;
    odd.slots.push_back({victim - 3, 2, 1, 2});
    odd.slots.push_back({victim - 1, 1, 0, 5});
    odd.slots.push_back({victim + 1, 4, 0, 1});
    out.push_back(odd);
    return out;
}

TEST(Session, BurstReplayMatchesPerActOracle)
{
    // The chip (HCfirst 500) is weaker than any mechanism here is
    // provisioned for, so rows sit near their thresholds and when a
    // victim refresh lands within a burst shows in the flips.
    const fault::ChipSpec spec = denseSpec();
    const fault::ChipModel probe(spec, 500, 9, smallGeometry());
    const int bank = probe.weakestBank();
    const int victim = std::clamp(probe.weakestRow(), 8, 1024 - 9);
    const std::vector<AccessPattern> patterns = oraclePatterns(bank, victim);
    ASSERT_NE(patterns.back().activationsPerPeriod() % 240, 0);

    std::int64_t flips = 0;
    std::int64_t refreshes = 0;
    for (const MechanismCase &mech : oracleMechanisms(1024)) {
        for (const AccessPattern &pattern : patterns) {
            ASSERT_TRUE(pattern.wellFormed()) << pattern.label;
            for (const std::int64_t interval : {240, 97}) {
                SessionConfig config;
                config.actsPerRefInterval = interval;
                const auto run = [&](bool oracle, Rng &rng) {
                    fault::ChipModel chip(spec, 500, 9, smallGeometry());
                    const auto mechanism = mech.make();
                    return oracle ? perActSession(chip, pattern,
                                                  mechanism.get(), config,
                                                  rng)
                                  : runPattern(chip, pattern,
                                               mechanism.get(), config,
                                               rng);
                };
                Rng want_rng(77);
                Rng got_rng(77);
                const SessionResult want = run(true, want_rng);
                const SessionResult got = run(false, got_rng);
                const std::string where = mech.label + " / " +
                    pattern.label + " / interval " +
                    std::to_string(interval);
                EXPECT_EQ(got.flips, want.flips) << where;
                EXPECT_EQ(got.activations, want.activations) << where;
                EXPECT_EQ(got.refIntervals, want.refIntervals) << where;
                EXPECT_EQ(got.mitigationRefreshes, want.mitigationRefreshes)
                    << where;
                EXPECT_EQ(got_rng(), want_rng()) << where;
                flips += static_cast<std::int64_t>(want.flips.size());
                refreshes += want.mitigationRefreshes;
            }
        }
    }
    // Without flips and victim refreshes the grid compares nothing.
    EXPECT_GT(flips, 0);
    EXPECT_GT(refreshes, 0);
}

TEST(Session, BurstsAgreeWithTickByTickLowering)
{
    const std::vector<AccessPattern> patterns = oraclePatterns(0, 500);
    for (const AccessPattern &pattern : patterns) {
        std::vector<int> expanded;
        pattern.expand(expanded);
        EXPECT_EQ(expanded, tickByTickSchedule(pattern)) << pattern.label;

        const std::vector<fault::AggressorDose> bursts = pattern.bursts();
        std::int64_t total = 0;
        for (std::size_t i = 0; i < bursts.size(); ++i) {
            EXPECT_GT(bursts[i].count, 0) << pattern.label;
            if (i > 0) {
                EXPECT_NE(bursts[i].row, bursts[i - 1].row)
                    << pattern.label;
            }
            total += bursts[i].count;
        }
        EXPECT_EQ(total, pattern.activationsPerPeriod()) << pattern.label;
    }
}

TEST(TraceAdapter, FollowsScheduleAndRotatesColumns)
{
    dram::Organization org;
    org.ranks = 1;
    org.bankGroups = 1;
    org.banksPerGroup = 2;
    org.rows = 1024;
    org.columns = 32;
    org.bytesPerColumn = 64;
    org.check();

    PatternBuilder builder(
        BuilderConfig{.rows = 1024, .step = 1, .activationBudget = 4000},
        19);
    const AccessPattern p = builder.nSided(1, 500, 4);
    TraceAdapter adapter(p, sim::AddressMapper(org));

    std::vector<int> schedule;
    p.expand(schedule);
    sim::AddressMapper mapper(org);
    std::set<int> columns_seen;
    for (int i = 0; i < 256; ++i) {
        const cpu::TraceEntry entry = adapter.next();
        EXPECT_FALSE(entry.write);
        const dram::Address addr = mapper.decode(entry.addr);
        EXPECT_EQ(addr.row,
                  schedule[static_cast<std::size_t>(i) %
                           schedule.size()]);
        EXPECT_EQ(addr.bankGroup * org.banksPerGroup + addr.bank, 1);
        columns_seen.insert(addr.column);
    }
    // Column rotation touches every column, defeating caches.
    EXPECT_EQ(columns_seen.size(), 32u);
}

TEST(TraceAdapter, ResyncRestartsSchedule)
{
    dram::Organization org;
    org.ranks = 1;
    org.bankGroups = 1;
    org.banksPerGroup = 1;
    org.rows = 1024;
    org.columns = 32;
    org.bytesPerColumn = 64;
    org.check();

    PatternBuilder builder(
        BuilderConfig{.rows = 1024, .step = 1, .activationBudget = 4000},
        19);
    const AccessPattern p = builder.nSided(0, 500, 8);
    TraceAdapter adapter(p, sim::AddressMapper(org));
    sim::AddressMapper mapper(org);

    std::vector<int> schedule;
    p.expand(schedule);
    for (int i = 0; i < 3; ++i)
        adapter.next();
    adapter.resync();
    const dram::Address addr = mapper.decode(adapter.next().addr);
    EXPECT_EQ(addr.row, schedule[0]);
}

TEST(TraceAdapter, DrivesACoreAsTraceSource)
{
    dram::Organization org;
    org.ranks = 1;
    org.bankGroups = 1;
    org.banksPerGroup = 1;
    org.rows = 1024;
    org.columns = 32;
    org.bytesPerColumn = 64;
    org.check();

    PatternBuilder builder(
        BuilderConfig{.rows = 1024, .step = 1, .activationBudget = 4000},
        19);
    TraceAdapter adapter(builder.doubleSided(0, 500),
                         sim::AddressMapper(org));

    // A memory system that completes everything instantly.
    std::vector<std::uint64_t> addresses;
    cpu::Core core(adapter,
                   [&](std::uint64_t addr, bool,
                       std::function<void()> done) {
                       addresses.push_back(addr);
                       done();
                       return true;
                   });
    for (int i = 0; i < 64; ++i)
        core.tick();
    EXPECT_FALSE(addresses.empty());
    sim::AddressMapper mapper(org);
    for (std::size_t i = 0; i < addresses.size(); ++i) {
        EXPECT_EQ(mapper.decode(addresses[i]).row,
                  i % 2 == 0 ? 499 : 501);
    }
}

// --------------------------------------------- address-mapping bridge

/** A pow-2, multi-bank organization for the mapping tests. */
dram::Organization
mappedOrg(int ranks = 1)
{
    dram::Organization org;
    org.ranks = ranks;
    org.bankGroups = 4;
    org.banksPerGroup = 4 / ranks;
    org.rows = 4096;
    org.columns = 128;
    org.bytesPerColumn = 64;
    org.check();
    return org;
}

TEST(Remap, ExactInverseReturnsThePatternUnchanged)
{
    // The zenhammer scenario: the attacker recovered the true address
    // functions and inverts them exactly — every aggressor lands where
    // it was aimed, whatever the mapping is.
    const dram::Organization org = mappedOrg();
    PatternBuilder builder(testConfig(), 7);
    for (const std::string preset : {"linear", "bank-xor"}) {
        sim::AddressMapper mapper(
            org, dram::AddressFunctions::preset(preset, org));
        for (const AccessPattern &p :
             allTestPatterns(builder, 5, 1000)) {
            const RemappedPattern landed = remapPattern(p, mapper, mapper);
            EXPECT_EQ(landed.droppedSlots, 0);
            EXPECT_EQ(landed.pattern.bank, p.bank);
            EXPECT_EQ(landed.pattern.victimRow, p.victimRow);
            EXPECT_EQ(landed.pattern.blastRadius, p.blastRadius);
            EXPECT_EQ(landed.pattern.slots, p.slots);
        }
    }
}

TEST(Remap, NaiveAttackerScattersUnderBankXor)
{
    // An attacker assuming the linear layout computes aggressor
    // addresses by row arithmetic; under bank-xor the low row bits
    // feed the bank selects, so the odd-offset aggressors (the whole
    // blast radius) leave the victim's bank.
    const dram::Organization org = mappedOrg();
    sim::AddressMapper actual(
        org, dram::AddressFunctions::preset("bank-xor", org));
    sim::AddressMapper assumed(org);

    PatternBuilder builder(testConfig(), 7);
    const dram::Address victim_phys =
        assumed.decode(actual.encode([&] {
            dram::Address a = org.bankAddress(5);
            a.row = 1000;
            return a;
        }()));
    const AccessPattern believed = builder.doubleSided(
        org.flatBank(victim_phys), victim_phys.row);

    const RemappedPattern landed =
        remapPattern(believed, assumed, actual);
    EXPECT_EQ(landed.droppedSlots, 2);
    EXPECT_TRUE(landed.pattern.slots.empty());
}

TEST(Remap, SweepWithAwareAttackerMatchesLinearCellValues)
{
    SweepConfig config;
    config.hcFirst = 2000.0;
    config.fuzzCount = 1;
    config.nSides = {4};
    config.samplerSizes = {2};
    config.activationBudget = 24000;
    config.threads = 2;
    config.geometry.banks = 16;

    const auto linear_cells = runSweep(config);

    config.mapping = "bank-xor";
    const auto aware_cells = runSweep(config);

    // Inverting the mapping exactly neutralizes it: same flips, same
    // refresh work, cell for cell (labels carry the mapping suffix).
    ASSERT_EQ(linear_cells.size(), aware_cells.size());
    for (std::size_t i = 0; i < linear_cells.size(); ++i) {
        EXPECT_EQ(aware_cells[i].pattern,
                  linear_cells[i].pattern + "@bank-xor");
        EXPECT_EQ(aware_cells[i].mechanism, linear_cells[i].mechanism);
        EXPECT_EQ(aware_cells[i].flips, linear_cells[i].flips);
        EXPECT_EQ(aware_cells[i].activations,
                  linear_cells[i].activations);
        EXPECT_EQ(aware_cells[i].mitigationRefreshes,
                  linear_cells[i].mitigationRefreshes);
    }
}

TEST(Remap, SweepWithNaiveAttackerDiffersMeasurably)
{
    SweepConfig config;
    config.hcFirst = 2000.0;
    config.fuzzCount = 1;
    config.nSides = {4};
    config.samplerSizes = {2};
    config.activationBudget = 24000;
    config.threads = 2;
    config.geometry.banks = 16;

    const auto linear_cells = runSweep(config);

    config.mapping = "bank-xor";
    config.attackerMapping = "linear";
    const auto naive_cells = runSweep(config);

    ASSERT_EQ(linear_cells.size(), naive_cells.size());
    EXPECT_NE(renderSweepCells(linear_cells),
              renderSweepCells(naive_cells));

    // The unprotected chip flips under a correctly-landed attack; the
    // naive attacker cannot even reach the victim's bank.
    std::int64_t linear_none = 0;
    std::int64_t naive_none = 0;
    for (std::size_t i = 0; i < linear_cells.size(); ++i) {
        if (linear_cells[i].mechanism == "None") {
            linear_none += linear_cells[i].flips;
            naive_none += naive_cells[i].flips;
        }
    }
    EXPECT_GT(linear_none, 0);
    EXPECT_LT(naive_none, linear_none);
}

TEST(Remap, MultiRankSweepDiffersFromSingleRank)
{
    SweepConfig config;
    config.hcFirst = 2000.0;
    config.fuzzCount = 0;
    config.nSides = {4};
    config.samplerSizes = {2};
    config.activationBudget = 24000;
    config.threads = 2;
    config.geometry.banks = 16;
    config.mapping = "bank-xor";
    config.attackerMapping = "linear";
    const auto single = runSweep(config);

    config.mapping = "rank-xor";
    config.mappingRanks = 2;
    const auto multi = runSweep(config);

    ASSERT_EQ(single.size(), multi.size());
    EXPECT_NE(renderSweepCells(single), renderSweepCells(multi));
}

TEST(Remap, ChannelNaiveAggressorsLandOnOtherControllers)
{
    // The channel dimension specifically (not just another bank): an
    // aggressor offset that flips only the channel-xor fold bit keeps
    // the per-channel bank selects intact, so the slot would survive a
    // channel-blind (flatBank) comparison — it must still be dropped,
    // because it hammers a different controller's DRAM.
    dram::Organization org;
    org.channels = 2;
    org.bankGroups = 4;
    org.banksPerGroup = 2;
    org.rows = 4096;
    sim::AddressMapper actual(
        org, dram::AddressFunctions::preset("channel-xor", org));
    sim::AddressMapper assumed(org);

    // Layout: bank-group folds take row bits 0-1, bank folds row bit
    // 2, the channel fold row bit 3 — victim +/- 8 flips only the
    // channel select.
    dram::Address victim_addr = org.globalBankAddress(5);
    victim_addr.row = 1000;
    const dram::Address believed_addr =
        assumed.decode(actual.encode(victim_addr));

    AccessPattern believed;
    believed.bank = org.globalFlatBank(believed_addr);
    believed.victimRow = believed_addr.row;
    believed.blastRadius = 8;
    believed.slots.push_back(AggressorSlot{believed.victimRow - 8, 1,
                                           0, 1});
    believed.slots.push_back(AggressorSlot{believed.victimRow + 8, 1,
                                           0, 1});

    const RemappedPattern landed =
        remapPattern(believed, assumed, actual);
    EXPECT_EQ(landed.droppedSlots, 2);
    EXPECT_TRUE(landed.pattern.slots.empty());

    // Sanity: each believed slot really lands in the victim's
    // per-channel bank, only on the other controller.
    for (const AggressorSlot &slot : believed.slots) {
        dram::Address aimed = org.globalBankAddress(believed.bank);
        aimed.row = slot.row;
        const dram::Address where =
            actual.decode(assumed.encode(aimed));
        EXPECT_EQ(org.flatBank(where), org.flatBank(victim_addr));
        EXPECT_NE(where.channel, victim_addr.channel);
    }
}

TEST(Remap, SweepWithChannelAwareAttackerReproducesBypassTable)
{
    SweepConfig config;
    config.hcFirst = 2000.0;
    config.fuzzCount = 1;
    config.nSides = {4};
    config.samplerSizes = {2};
    config.activationBudget = 24000;
    config.threads = 2;
    config.geometry.banks = 16;

    const auto linear_cells = runSweep(config);

    config.mapping = "channel-xor";
    config.mappingChannels = 2;
    const auto aware_cells = runSweep(config);

    // A zenhammer-style attacker that recovered the channel functions
    // inverts them exactly: the whole TRR-bypass table reproduces cell
    // for cell under the 2-channel mapping.
    ASSERT_EQ(linear_cells.size(), aware_cells.size());
    for (std::size_t i = 0; i < linear_cells.size(); ++i) {
        EXPECT_EQ(aware_cells[i].pattern,
                  linear_cells[i].pattern + "@channel-xor");
        EXPECT_EQ(aware_cells[i].mechanism, linear_cells[i].mechanism);
        EXPECT_EQ(aware_cells[i].flips, linear_cells[i].flips);
        EXPECT_EQ(aware_cells[i].mitigationRefreshes,
                  linear_cells[i].mitigationRefreshes);
    }

    // And that table exhibits the headline: the unprotected chip
    // flips, TRR-2 stops double-sided, 4-sided bypasses TRR-2.
    const auto flips_of = [&](const std::string &pattern,
                              const std::string &mechanism) {
        for (const auto &cell : aware_cells) {
            if (cell.pattern == pattern && cell.mechanism == mechanism)
                return cell.flips;
        }
        ADD_FAILURE() << "missing cell " << pattern << "/" << mechanism;
        return std::int64_t{-1};
    };
    EXPECT_GT(flips_of("double-sided@channel-xor", "None"), 0);
    EXPECT_EQ(flips_of("double-sided@channel-xor", "TRR-2"), 0);
    EXPECT_GT(flips_of("4-sided@channel-xor", "TRR-2"), 0);
}

TEST(Remap, ChannelNaiveAttackerCannotReproduceBypassTable)
{
    SweepConfig config;
    config.hcFirst = 2000.0;
    config.fuzzCount = 1;
    config.nSides = {4};
    config.samplerSizes = {2};
    config.activationBudget = 24000;
    config.threads = 2;
    config.geometry.banks = 16;

    const auto linear_cells = runSweep(config);

    config.mapping = "channel-xor";
    config.mappingChannels = 2;
    config.attackerMapping = "linear";
    const auto naive_cells = runSweep(config);

    ASSERT_EQ(linear_cells.size(), naive_cells.size());
    EXPECT_NE(renderSweepCells(linear_cells),
              renderSweepCells(naive_cells));

    // The naive double-sided pair scatters off the victim's controller
    // and bank: zero flips even with no mitigation at all, while the
    // correctly-landed attack flips freely.
    std::int64_t linear_none = 0;
    std::int64_t naive_none = 0;
    for (std::size_t i = 0; i < linear_cells.size(); ++i) {
        if (linear_cells[i].mechanism == "None") {
            linear_none += linear_cells[i].flips;
            naive_none += naive_cells[i].flips;
        }
        if (naive_cells[i].pattern ==
                "double-sided@channel-xor!naive" &&
            naive_cells[i].mechanism == "None") {
            EXPECT_EQ(naive_cells[i].flips, 0);
        }
    }
    EXPECT_GT(linear_none, 0);
    EXPECT_LT(naive_none, linear_none);
}

TEST(TraceAdapter, InvertsXorMappingToLandAggressorsInOneBank)
{
    // The cycle-accurate path's core attack property: whatever the
    // controller's address functions, the adapter's emitted physical
    // addresses decode back into the pattern's single target bank.
    const dram::Organization org = mappedOrg(2);
    sim::AddressMapper mapper(
        org, dram::AddressFunctions::preset("rank-xor", org));

    PatternBuilder builder(testConfig(), 19);
    const AccessPattern p = builder.nSided(6, 500, 8);
    TraceAdapter adapter(p, mapper);

    std::vector<int> schedule;
    p.expand(schedule);
    for (int i = 0; i < 512; ++i) {
        const cpu::TraceEntry entry = adapter.next();
        const dram::Address addr = mapper.decode(entry.addr);
        EXPECT_EQ(org.flatBank(addr), 6);
        EXPECT_EQ(addr.row,
                  schedule[static_cast<std::size_t>(i) %
                           schedule.size()]);
    }
}

} // namespace
