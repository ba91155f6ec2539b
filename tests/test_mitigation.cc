/**
 * @file
 * Tests for the six RowHammer mitigation mechanisms and their scaling
 * behaviour (Section 6.1).
 */

#include <gtest/gtest.h>

#include "attack/builder.hh"
#include "attack/session.hh"
#include "dram/timing.hh"
#include "fault/chip_model.hh"
#include "fault/chipspec.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "mitigation/factory.hh"
#include "mitigation/ideal.hh"
#include "mitigation/increfresh.hh"
#include "mitigation/mrloc.hh"
#include "mitigation/para.hh"
#include "mitigation/prohit.hh"
#include "mitigation/trr.hh"
#include "mitigation/twice.hh"

namespace
{

using namespace rowhammer;
using namespace rowhammer::mitigation;

const dram::TimingSpec kTiming = dram::ddr4_2400();

TEST(Para, ProbabilityIncreasesAsChipsWeaken)
{
    double prev = 0.0;
    for (double hc : {100000.0, 10000.0, 1000.0, 128.0}) {
        const double p = Para::solveProbability(hc, kTiming, 1e-15);
        EXPECT_GT(p, prev);
        EXPECT_LE(p, 1.0);
        prev = p;
    }
}

TEST(Para, ProbabilityTinyForRobustChips)
{
    const double p = Para::solveProbability(100000.0, kTiming, 1e-15);
    EXPECT_LT(p, 0.002);
    EXPECT_GT(p, 0.0);
}

TEST(Para, MeetsBerTarget)
{
    // Check the defining inequality: windows/hour * (1-p)^HC <= target.
    for (double hc : {2000.0, 50000.0}) {
        const double p = Para::solveProbability(hc, kTiming, 1e-15);
        const double trc_s = kTiming.toNs(kTiming.tRC) * 1e-9;
        const double windows = 3600.0 / (trc_s * hc);
        const double fail = windows * std::pow(1.0 - p, hc);
        EXPECT_LE(fail, 1e-15 * 1.01);
    }
}

TEST(Para, EmitsNeighborsAtExpectedRate)
{
    Para para(1000.0, kTiming, 42);
    const double p = para.probability();
    std::vector<VictimRef> out;
    const int acts = 20000;
    for (int i = 0; i < acts; ++i)
        para.onActivate(0, 100, i, out);
    const double rate = static_cast<double>(out.size()) / acts;
    EXPECT_NEAR(rate, 2.0 * p, 0.5 * p + 0.01);
    for (const auto &v : out)
        EXPECT_TRUE(v.row == 99 || v.row == 101);
}

TEST(IncRefresh, MultiplierFollowsFormula)
{
    const IncreasedRefreshRate mech(64000.0, kTiming);
    const double expected =
        static_cast<double>(kTiming.refreshWindowCycles()) /
        (64000.0 * kTiming.tRC);
    EXPECT_NEAR(mech.refreshRateMultiplier(), expected, 1e-9);
}

TEST(IncRefresh, InfeasibleAtLowHcFirst)
{
    EXPECT_TRUE(IncreasedRefreshRate(150000.0, kTiming).feasible());
    // Section 6.1: the mechanism inherently cannot scale to low HCfirst;
    // at 4.8k (today's worst chip) refresh alone would saturate DRAM.
    EXPECT_FALSE(IncreasedRefreshRate(4800.0, kTiming).feasible());
    EXPECT_FALSE(IncreasedRefreshRate(128.0, kTiming).feasible());
}

TEST(IncRefresh, NeverBelowBaselineRate)
{
    const IncreasedRefreshRate mech(1e9, kTiming);
    EXPECT_DOUBLE_EQ(mech.refreshRateMultiplier(), 1.0);
}

TEST(TWiCe, RefreshesVictimAtThreshold)
{
    TWiCe twice(40000.0, kTiming, false);
    EXPECT_DOUBLE_EQ(twice.rowHammerThreshold(), 10000.0);
    std::vector<VictimRef> out;
    for (int i = 0; i < 9999; ++i)
        twice.onActivate(0, 100, i, out);
    EXPECT_TRUE(out.empty());
    twice.onActivate(0, 100, 9999, out);
    // Both neighbors cross the threshold on the 10000th activation.
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].row, 99);
    EXPECT_EQ(out[1].row, 101);
}

TEST(TWiCe, CounterResetsAfterRefresh)
{
    TWiCe twice(40000.0, kTiming, false);
    std::vector<VictimRef> out;
    for (int i = 0; i < 10000; ++i)
        twice.onActivate(0, 100, i, out);
    ASSERT_EQ(out.size(), 2u);
    out.clear();
    // Another 9999 activations must not trigger again.
    for (int i = 0; i < 9999; ++i)
        twice.onActivate(0, 100, i, out);
    EXPECT_TRUE(out.empty());
}

TEST(TWiCe, PruningDropsColdEntries)
{
    TWiCe twice(160000.0, kTiming, false);
    std::vector<VictimRef> out;
    // One activation of a row: both neighbors enter the table.
    twice.onActivate(0, 100, 0, out);
    EXPECT_EQ(twice.tableSize(), 2u);
    // After a few refresh intervals with no further activity, the
    // entries' rate falls below the pruning threshold.
    for (int i = 0; i < 4; ++i)
        twice.onRefresh(static_cast<std::uint64_t>(i), 2, out);
    EXPECT_EQ(twice.tableSize(), 0u);
}

TEST(TWiCe, HotEntriesSurvivePruning)
{
    TWiCe twice(160000.0, kTiming, false);
    std::vector<VictimRef> out;
    for (int round = 0; round < 4; ++round) {
        for (int i = 0; i < 2000; ++i)
            twice.onActivate(0, 100, i, out);
        twice.onRefresh(static_cast<std::uint64_t>(round), 2, out);
    }
    EXPECT_EQ(twice.tableSize(), 2u);
}

TEST(TWiCe, FeasibilityBoundary)
{
    // tRH below refreshes-per-window (~8192) is unimplementable:
    // HCfirst < ~32k fails, TWiCe-ideal lifts the restriction.
    EXPECT_TRUE(TWiCe(40000.0, kTiming, false).feasible());
    EXPECT_FALSE(TWiCe(20000.0, kTiming, false).feasible());
    EXPECT_TRUE(TWiCe(20000.0, kTiming, true).feasible());
    EXPECT_TRUE(TWiCe(128.0, kTiming, true).feasible());
}

TEST(Ideal, RefreshesJustBeforeThreshold)
{
    IdealRefresh ideal(1000.0, 16384);
    std::vector<VictimRef> out;
    for (int i = 0; i < 998; ++i)
        ideal.onActivate(0, 100, i, out);
    EXPECT_TRUE(out.empty());
    ideal.onActivate(0, 100, 998, out);
    ASSERT_EQ(out.size(), 2u); // Both neighbors at HCfirst - 1.
}

TEST(Ideal, AutoRefreshRotationClearsCounters)
{
    IdealRefresh ideal(1000.0, 8);
    std::vector<VictimRef> out;
    for (int i = 0; i < 500; ++i)
        ideal.onActivate(0, 4, i, out);
    EXPECT_EQ(ideal.trackedRows(), 2u);
    // Advance the rotation across all 8 rows.
    ideal.onRefresh(0, 8, out);
    EXPECT_EQ(ideal.trackedRows(), 0u);
    // Counters restart: another 998 activations stay silent.
    for (int i = 0; i < 998; ++i)
        ideal.onActivate(0, 4, i, out);
    EXPECT_TRUE(out.empty());
}

TEST(Ideal, EdgeRowsIgnored)
{
    IdealRefresh ideal(10.0, 64);
    std::vector<VictimRef> out;
    for (int i = 0; i < 100; ++i)
        ideal.onActivate(0, 0, i, out); // Neighbor -1 is off-array.
    for (const auto &v : out)
        EXPECT_EQ(v.row, 1);
}

TEST(ProHit, TracksAndRefreshesHotVictims)
{
    ProHit prohit(7);
    std::vector<VictimRef> out;
    // Hammer one row hard: its neighbors should reach the hot table.
    for (int i = 0; i < 5000; ++i)
        prohit.onActivate(0, 100, i, out);
    EXPECT_TRUE(out.empty()); // ProHIT refreshes only on REF.
    EXPECT_GT(prohit.hotSize(), 0u);

    prohit.onRefresh(0, 2, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].row == 99 || out[0].row == 101);
}

TEST(ProHit, TableSizesBounded)
{
    ProHit prohit(8);
    std::vector<VictimRef> out;
    for (int i = 0; i < 20000; ++i)
        prohit.onActivate(0, i % 500, i, out);
    EXPECT_LE(prohit.hotSize(), 4u);
    EXPECT_LE(prohit.coldSize(), 5u);
}

TEST(MrLoc, RecencyRaisesProbability)
{
    MrLoc mrloc(9);
    EXPECT_GT(mrloc.probabilityForGap(1.0),
              mrloc.probabilityForGap(1000.0));
}

TEST(MrLoc, HammeredRowEventuallyRefreshed)
{
    MrLoc mrloc(10);
    std::vector<VictimRef> out;
    for (int i = 0; i < 4000 && out.empty(); ++i)
        mrloc.onActivate(0, 100, i, out);
    ASSERT_FALSE(out.empty());
    EXPECT_TRUE(out[0].row == 99 || out[0].row == 101);
}

TEST(MrLoc, QuietTrafficRarelyRefreshes)
{
    MrLoc mrloc(11);
    std::vector<VictimRef> out;
    // Scattered accesses with no locality.
    for (int i = 0; i < 4000; ++i)
        mrloc.onActivate(0, (i * 37) % 8192, i, out);
    EXPECT_LT(out.size(), 40u);
}

// ----------------------------------------------- TRR sampler model

TEST(TrrSampler, SamplerCapacityBounded)
{
    TrrSampler trr(4);
    std::vector<VictimRef> out;
    for (int i = 0; i < 1000; ++i)
        trr.onActivate(0, i % 100, i, out);
    EXPECT_TRUE(out.empty()); // TRR refreshes only under REF.
    EXPECT_EQ(trr.sampledRows(), 4u);
}

TEST(TrrSampler, ServicesNeighborsAndClearsOnRefresh)
{
    TrrSampler trr(2);
    std::vector<VictimRef> out;
    trr.onActivate(0, 100, 0, out);
    trr.onActivate(0, 200, 1, out);
    trr.onRefresh(0, 0, out);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0].row, 99);
    EXPECT_EQ(out[1].row, 101);
    EXPECT_EQ(out[2].row, 199);
    EXPECT_EQ(out[3].row, 201);
    EXPECT_EQ(trr.sampledRows(), 0u); // Interval-scoped state.
}

TEST(TrrSampler, InOrderPolicyIsBlindOnceSaturated)
{
    // The adversarial core of TRRespass: decoys claim every slot, the
    // rows activated afterwards are never sampled.
    TrrSampler trr(2);
    std::vector<VictimRef> out;
    for (int round = 0; round < 50; ++round) {
        for (int decoy : {300, 400})
            trr.onActivate(0, decoy, round, out);
        for (int real : {100, 102})
            trr.onActivate(0, real, round, out);
    }
    trr.onRefresh(0, 0, out);
    for (const auto &v : out) {
        EXPECT_NE(v.row, 101) << "saturated sampler serviced the pair";
        EXPECT_TRUE(v.row == 299 || v.row == 301 || v.row == 399 ||
                    v.row == 401);
    }
}

// --------------------------- onActivateRun: a run equals its ACTs

TEST(TrrSampler, ActivateRunMatchesSingleActivations)
{
    // Seeded random bursts over more distinct rows than sampler slots,
    // across several REF intervals: the burst-fed sampler must consume
    // every run whole, hold the same rows and service the same victims
    // as one fed ACT by ACT.
    TrrSampler runs(4);
    TrrSampler single(4);
    rowhammer::util::Rng rng(5);
    std::vector<VictimRef> run_out;
    std::vector<VictimRef> single_out;
    dram::Cycle now = 0;
    std::size_t serviced = 0;
    for (std::uint64_t ref = 0; ref < 12; ++ref) {
        for (int burst = 0; burst < 24; ++burst) {
            const int row = 100 + 2 * static_cast<int>(rng.uniformInt(0, 7));
            const auto count =
                static_cast<std::int64_t>(rng.uniformInt(1, 30));
            EXPECT_EQ(runs.onActivateRun(0, row, count, now, run_out),
                      count);
            for (std::int64_t i = 0; i < count; ++i)
                single.onActivate(0, row, now + i, single_out);
            now += count;
            // TRR refreshes only under cover of REF.
            EXPECT_TRUE(run_out.empty());
            EXPECT_EQ(runs.sampledRows(), single.sampledRows());
        }
        runs.onRefresh(ref, 0, run_out);
        single.onRefresh(ref, 0, single_out);
        ASSERT_EQ(run_out.size(), single_out.size());
        serviced += run_out.size();
        for (std::size_t i = 0; i < run_out.size(); ++i) {
            EXPECT_EQ(run_out[i].flatBank, single_out[i].flatBank);
            EXPECT_EQ(run_out[i].row, single_out[i].row);
        }
        run_out.clear();
        single_out.clear();
    }
    EXPECT_GT(serviced, 0u);
}

/** Test double: appends one victim on its k-th activation. */
class VictimOnKth : public Mitigation
{
  public:
    explicit VictimOnKth(std::size_t k) : k_(k) {}

    std::string name() const override { return "VictimOnKth"; }

    void
    onActivate(int flat_bank, int row, dram::Cycle now,
               std::vector<VictimRef> &out) override
    {
        cycles.push_back(now);
        if (cycles.size() == k_)
            out.push_back(VictimRef{flat_bank, row + 1});
    }

    /** Cycle of every activation observed, in order. */
    std::vector<dram::Cycle> cycles;

  private:
    std::size_t k_;
};

TEST(Mitigation, DefaultActivateRunStopsAfterTheFirstVictim)
{
    VictimOnKth mech(5);
    std::vector<VictimRef> out;
    EXPECT_EQ(mech.onActivateRun(2, 40, 12, 100, out), 5);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].flatBank, 2);
    EXPECT_EQ(out[0].row, 41);

    // The caller applies the victims and hands back the rest.
    out.clear();
    EXPECT_EQ(mech.onActivateRun(2, 40, 7, 105, out), 7);
    EXPECT_TRUE(out.empty());
    const std::vector<dram::Cycle> expected{100, 101, 102, 103,
                                            104, 105, 106, 107,
                                            108, 109, 110, 111};
    EXPECT_EQ(mech.cycles, expected);
}

/**
 * End-to-end sampler saturation against the fault model: an N-sided
 * pattern leaks flips iff its aggressor count exceeds the sampler
 * size. This is the adversarial acceptance test of the attack-vs-TRR
 * arena (small chip, HCfirst 1000, 8x overdrive).
 */
std::size_t
trrSessionFlips(int n_sided, int sampler_size)
{
    fault::ChipSpec spec = fault::configFor(fault::TypeNode::DDR4New,
                                            fault::Manufacturer::A);
    fault::ChipGeometry geometry;
    geometry.banks = 1;
    geometry.rows = 512;
    geometry.rowDataBits = 4096;
    fault::ChipModel chip(spec, 1000, 77, geometry);

    attack::BuilderConfig config;
    config.rows = geometry.rows;
    config.activationBudget = 8000LL * n_sided; // 8 * HCfirst per slot.
    attack::PatternBuilder builder(config, 5);
    const attack::AccessPattern pattern =
        builder.nSided(chip.weakestBank(), chip.weakestRow(), n_sided);

    TrrSampler trr(sampler_size);
    attack::SessionConfig session;
    session.actsPerRefInterval = 240; // Multiple of every tested N.
    rowhammer::util::Rng rng(41);
    return attack::runPattern(chip, pattern, &trr, session, rng)
        .flips.size();
}

TEST(TrrSampler, NSidedAboveSamplerSizeLeaksFlips)
{
    EXPECT_GT(trrSessionFlips(6, 4), 0u);
    EXPECT_GT(trrSessionFlips(8, 4), 0u);
    EXPECT_GT(trrSessionFlips(4, 2), 0u);
}

TEST(TrrSampler, NSidedWithinSamplerSizeFullyMitigated)
{
    EXPECT_EQ(trrSessionFlips(4, 4), 0u);
    EXPECT_EQ(trrSessionFlips(4, 8), 0u);
    EXPECT_EQ(trrSessionFlips(6, 6), 0u);
}

// ------------------- table eviction beyond capacity (ProHIT / MRLoc)

TEST(ProHit, EvictionUnderAggressorCountsBeyondCapacity)
{
    // Force every victim insertion (p_i = 1) and stream far more
    // distinct aggressors than hot + cold can hold: tables must stay
    // bounded, keep unique entries, and still service refreshes.
    ProHit::Params params;
    params.insertProbability = 1.0;
    ProHit prohit(7, params);
    std::vector<VictimRef> out;
    for (int i = 0; i < 20000; ++i)
        prohit.onActivate(0, 2 * (i % 1000) + 2, i, out);
    EXPECT_LE(prohit.hotSize(),
              static_cast<std::size_t>(params.hotEntries));
    EXPECT_LE(prohit.coldSize(),
              static_cast<std::size_t>(params.coldEntries));

    std::size_t serviced = 0;
    for (int ref = 0; ref < 16; ++ref) {
        out.clear();
        prohit.onRefresh(static_cast<std::uint64_t>(ref), 2, out);
        EXPECT_LE(out.size(), 1u); // One hot entry per REF.
        serviced += out.size();
    }
    EXPECT_GT(serviced, 0u);
}

TEST(ProHit, HotTableNeverExceedsCapacityDuringPromotionBursts)
{
    ProHit::Params params;
    params.insertProbability = 1.0;
    ProHit prohit(11, params);
    std::vector<VictimRef> out;
    // Re-reference a rotating window so cold entries keep promoting
    // into a full hot table (exercising the demotion path).
    for (int i = 0; i < 30000; ++i) {
        prohit.onActivate(0, 2 * (i % 6) + 2, i, out);
        EXPECT_LE(prohit.hotSize(),
                  static_cast<std::size_t>(params.hotEntries));
    }
}

TEST(MrLoc, QueueAndRecencyBoundedBeyondCapacity)
{
    MrLoc mrloc(13);
    std::vector<VictimRef> out;
    // 5000 distinct aggressors, each touched a few times: far beyond
    // the 64-entry queue.
    for (int round = 0; round < 4; ++round) {
        for (int i = 0; i < 5000; ++i)
            mrloc.onActivate(0, 2 * i + 2, i, out);
    }
    EXPECT_LE(mrloc.queuedVictims(), MrLoc::Params{}.queueSize);
    // Eviction must drop recency records once victims leave the queue;
    // allow in-flight duplicates up to one extra queue's worth.
    EXPECT_LE(mrloc.trackedRecords(), 2 * MrLoc::Params{}.queueSize);
}

TEST(Factory, AllKindsConstructible)
{
    for (Kind kind : allKinds()) {
        const auto mech =
            makeMitigation(kind, 50000.0, kTiming, 16384, 3);
        ASSERT_NE(mech, nullptr);
        EXPECT_FALSE(mech->name().empty());
        EXPECT_EQ(mech->name(), toString(kind));
    }
}

TEST(Factory, EvaluatedAtRules)
{
    // ProHIT / MRLoc: only at the published HCfirst = 2000 point.
    EXPECT_TRUE(evaluatedAt(Kind::ProHIT, 2000.0, kTiming));
    EXPECT_FALSE(evaluatedAt(Kind::ProHIT, 4800.0, kTiming));
    EXPECT_TRUE(evaluatedAt(Kind::MRLoc, 2000.0, kTiming));
    EXPECT_FALSE(evaluatedAt(Kind::MRLoc, 1024.0, kTiming));
    // TWiCe: HCfirst >= 32k only; ideal variant everywhere.
    EXPECT_TRUE(evaluatedAt(Kind::TWiCe, 40000.0, kTiming));
    EXPECT_FALSE(evaluatedAt(Kind::TWiCe, 4800.0, kTiming));
    EXPECT_TRUE(evaluatedAt(Kind::TWiCeIdeal, 128.0, kTiming));
    // PARA and Ideal scale everywhere.
    EXPECT_TRUE(evaluatedAt(Kind::PARA, 64.0, kTiming));
    EXPECT_TRUE(evaluatedAt(Kind::Ideal, 64.0, kTiming));
}

} // namespace
