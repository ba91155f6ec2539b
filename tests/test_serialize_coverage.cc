/**
 * @file
 * Serialize-coverage contract for every result-affecting config
 * struct: hash() must CHANGE when any result-affecting field changes
 * (otherwise two different run descriptions share a checkpoint store /
 * daemon memo key and one silently serves the other's results), and
 * must NOT change under execution-only knobs (threads, checkpoint
 * paths, io seams, deadlines, engine toggles — otherwise a resumed or
 * re-threaded run recomputes shards it already has).
 *
 * scripts/check_invariants.sh [sercov] requires every struct in src/
 * that declares a `hash() const` to be exercised here, so adding a new
 * config struct without extending this test fails CI. Covered structs:
 * ExperimentConfig, SystemConfig, SweepConfig, FuzzerConfig,
 * Organization, TimingSpec, AddressFunctions, ChipSpec, ChipGeometry,
 * ChipInstance, HcFirstOptions.
 */

#include <gtest/gtest.h>

#include "attack/fuzzer.hh"
#include "attack/sweep.hh"
#include "charlib/hcfirst.hh"
#include "core/experiment.hh"
#include "dram/address_functions.hh"
#include "fault/population.hh"
#include "util/io.hh"
#include "util/serialize.hh"
#include "util/taskpool.hh"

namespace
{

using namespace rowhammer;

/**
 * Assert that `mutate` moves the hash (the field is on the wire) and
 * that the mutation is the ONLY difference probed: each check starts
 * from a fresh default-constructed (or factory-supplied) instance.
 */
template <typename Config, typename Mutate>
void
expectSensitive(const char *field, const Config &base, Mutate &&mutate)
{
    Config c = base;
    mutate(c);
    EXPECT_NE(c.hash(), base.hash())
        << field << " changed but hash() did not: two different run "
        << "descriptions would share a checkpoint/memo identity";
}

template <typename Config, typename Mutate>
void
expectExecutionOnly(const char *knob, const Config &base, Mutate &&mutate)
{
    Config c = base;
    mutate(c);
    EXPECT_EQ(c.hash(), base.hash())
        << knob << " is execution-only but moved hash(): a resumed or "
        << "re-threaded run would orphan its own checkpoints";
}

// --------------------------------------------------------------- dram

TEST(SerializeCoverage, Organization)
{
    const dram::Organization base;
    expectSensitive("channels", base, [](auto &c) { c.channels = 2; });
    expectSensitive("ranks", base, [](auto &c) { c.ranks = 2; });
    expectSensitive("bankGroups", base, [](auto &c) { c.bankGroups = 2; });
    expectSensitive("banksPerGroup", base,
                    [](auto &c) { c.banksPerGroup = 2; });
    expectSensitive("rows", base, [](auto &c) { c.rows = 8192; });
    expectSensitive("columns", base, [](auto &c) { c.columns = 64; });
    expectSensitive("bytesPerColumn", base,
                    [](auto &c) { c.bytesPerColumn = 32; });
}

TEST(SerializeCoverage, TimingSpec)
{
    const dram::TimingSpec base = dram::ddr4_2400();
    expectSensitive("tCKns", base, [](auto &t) { t.tCKns *= 2.0; });
    expectSensitive("tRCD", base, [](auto &t) { t.tRCD += 1; });
    expectSensitive("tRP", base, [](auto &t) { t.tRP += 1; });
    expectSensitive("tRAS", base, [](auto &t) { t.tRAS += 1; });
    expectSensitive("tRC", base, [](auto &t) { t.tRC += 1; });
    expectSensitive("tCL", base, [](auto &t) { t.tCL += 1; });
    expectSensitive("tCWL", base, [](auto &t) { t.tCWL += 1; });
    expectSensitive("tBL", base, [](auto &t) { t.tBL += 1; });
    expectSensitive("tRTP", base, [](auto &t) { t.tRTP += 1; });
    expectSensitive("tWR", base, [](auto &t) { t.tWR += 1; });
    expectSensitive("tCCDS", base, [](auto &t) { t.tCCDS += 1; });
    expectSensitive("tCCDL", base, [](auto &t) { t.tCCDL += 1; });
    expectSensitive("tRRDS", base, [](auto &t) { t.tRRDS += 1; });
    expectSensitive("tRRDL", base, [](auto &t) { t.tRRDL += 1; });
    expectSensitive("tFAW", base, [](auto &t) { t.tFAW += 1; });
    expectSensitive("tWTRS", base, [](auto &t) { t.tWTRS += 1; });
    expectSensitive("tWTRL", base, [](auto &t) { t.tWTRL += 1; });
    expectSensitive("tRFC", base, [](auto &t) { t.tRFC += 1; });
    expectSensitive("tREFI", base, [](auto &t) { t.tREFI += 1; });
    expectSensitive("tREFWms", base, [](auto &t) { t.tREFWms *= 2.0; });
}

TEST(SerializeCoverage, AddressFunctions)
{
    const dram::Organization org = dram::table6Organization();
    const dram::AddressFunctions base = dram::AddressFunctions::linear();
    expectSensitive("scheme/masks (preset)", base, [&](auto &f) {
        f = dram::AddressFunctions::preset("bank-xor", org);
    });
    // Two distinct non-linear specs must not collide either.
    dram::AddressFunctions bankXor =
        dram::AddressFunctions::preset("bank-xor", org);
    expectSensitive("bankMasks", bankXor, [](auto &f) {
        ASSERT_FALSE(f.bankMasks.empty());
        f.bankMasks[0] ^= 1ULL << 40;
    });
    expectSensitive("name", base, [](auto &f) { f.name = "renamed"; });
}

// -------------------------------------------------------------- fault

TEST(SerializeCoverage, ChipSpec)
{
    const fault::ChipSpec base;
    expectSensitive("manufacturer", base, [](auto &s) {
        s.manufacturer = fault::Manufacturer::B;
    });
    expectSensitive("typeNode", base, [](auto &s) {
        s.typeNode = fault::TypeNode::DDR4Old;
    });
    expectSensitive("minHcFirst", base,
                    [](auto &s) { s.minHcFirst = 25000.0; });
    expectSensitive("hcFirstSpread", base,
                    [](auto &s) { s.hcFirstSpread += 1.0; });
    expectSensitive("rowHammerableFraction", base,
                    [](auto &s) { s.rowHammerableFraction = 0.5; });
    expectSensitive("weakDensityAt150k", base,
                    [](auto &s) { s.weakDensityAt150k = 1e-4; });
    expectSensitive("distance3Coupling", base,
                    [](auto &s) { s.distance3Coupling = 0.1; });
    expectSensitive("distance5Coupling", base,
                    [](auto &s) { s.distance5Coupling = 0.1; });
    expectSensitive("maxCouplingDistance", base,
                    [](auto &s) { s.maxCouplingDistance = 2; });
    expectSensitive("worstPattern", base, [](auto &s) {
        s.worstPattern = fault::DataPattern::Solid1;
    });
    expectSensitive("onDieEcc", base, [](auto &s) { s.onDieEcc = true; });
    expectSensitive("meanClusterSize", base,
                    [](auto &s) { s.meanClusterSize += 1.0; });
    expectSensitive("clusterThresholdSpread", base,
                    [](auto &s) { s.clusterThresholdSpread += 0.1; });
    expectSensitive("eccMultiplier12", base,
                    [](auto &s) { s.eccMultiplier12 = 2.0; });
    expectSensitive("eccMultiplier23", base,
                    [](auto &s) { s.eccMultiplier23 = 2.0; });
    expectSensitive("rowRemap", base, [](auto &s) {
        s.rowRemap = fault::RowRemap::PairedWordline;
    });
    expectSensitive("trueCellFraction", base,
                    [](auto &s) { s.trueCellFraction = 0.25; });
    expectSensitive("thresholdWidth", base,
                    [](auto &s) { s.thresholdWidth *= 2.0; });
}

TEST(SerializeCoverage, ChipGeometry)
{
    const fault::ChipGeometry base;
    expectSensitive("banks", base, [](auto &g) { g.banks = 4; });
    expectSensitive("rows", base, [](auto &g) { g.rows = 4096; });
    expectSensitive("rowDataBits", base,
                    [](auto &g) { g.rowDataBits = 16384; });
}

TEST(SerializeCoverage, ChipInstance)
{
    const fault::ChipInstance base;
    expectSensitive("spec", base,
                    [](auto &c) { c.spec.minHcFirst = 30000.0; });
    expectSensitive("moduleId", base,
                    [](auto &c) { c.moduleId = "DDR4-X99"; });
    expectSensitive("chipIndex", base, [](auto &c) { c.chipIndex = 3; });
    expectSensitive("hcFirst", base, [](auto &c) { c.hcFirst = 17500.0; });
    expectSensitive("rowHammerable", base,
                    [](auto &c) { c.rowHammerable = true; });
    expectSensitive("seed", base, [](auto &c) { c.seed = 42; });
}

// ------------------------------------------------------------ charlib

TEST(SerializeCoverage, HcFirstOptions)
{
    const charlib::HcFirstOptions base;
    expectSensitive("sampleRows", base, [](auto &o) { o.sampleRows = 8; });
    expectSensitive("hcMin", base, [](auto &o) { o.hcMin = 2000; });
    expectSensitive("hcMax", base, [](auto &o) { o.hcMax = 100000; });
    expectSensitive("resolution", base, [](auto &o) { o.resolution = 50; });
    expectSensitive("bank", base, [](auto &o) { o.bank = 1; });
    expectSensitive("flipsPerWord", base,
                    [](auto &o) { o.flipsPerWord = 2; });
}

// --------------------------------------------------------------- core

TEST(SerializeCoverage, SystemConfigResultFields)
{
    const core::SystemConfig base;
    expectSensitive("cores", base, [](auto &c) { c.cores = 4; });
    expectSensitive("cpuGhz", base, [](auto &c) { c.cpuGhz = 3.0; });
    expectSensitive("issueWidth", base, [](auto &c) { c.issueWidth = 2; });
    expectSensitive("windowSize", base, [](auto &c) { c.windowSize = 64; });
    expectSensitive("llcBytes", base,
                    [](auto &c) { c.llcBytes = 8LL * 1024 * 1024; });
    expectSensitive("llcWays", base, [](auto &c) { c.llcWays = 4; });
    expectSensitive("lineBytes", base, [](auto &c) { c.lineBytes = 128; });
    expectSensitive("llcHitLatencyCpu", base,
                    [](auto &c) { c.llcHitLatencyCpu = 30; });
    expectSensitive("mshrPerCore", base,
                    [](auto &c) { c.mshrPerCore = 8; });
    expectSensitive("organization", base,
                    [](auto &c) { c.organization.rows = 8192; });
    expectSensitive("timing", base, [](auto &c) { c.timing.tCL += 1; });
    expectSensitive("addressFunctions", base, [](auto &c) {
        c.addressFunctions =
            dram::AddressFunctions::preset("bank-xor", c.organization);
    });
    expectSensitive("controller.readQueueSize", base,
                    [](auto &c) { c.controller.readQueueSize = 32; });
    expectSensitive("controller.writeQueueSize", base,
                    [](auto &c) { c.controller.writeQueueSize = 32; });
    expectSensitive("controller.writeHighWatermark", base,
                    [](auto &c) { c.controller.writeHighWatermark = 40; });
    expectSensitive("controller.writeLowWatermark", base,
                    [](auto &c) { c.controller.writeLowWatermark = 8; });
    expectSensitive("controller.rowIdleCloseCycles", base,
                    [](auto &c) { c.controller.rowIdleCloseCycles = 100; });
}

TEST(SerializeCoverage, SystemConfigExecutionKnobs)
{
    const core::SystemConfig base;
    expectExecutionOnly("lockstep", base,
                        [](auto &c) { c.lockstep = true; });
    expectExecutionOnly("controller.eventDriven", base, [](auto &c) {
        c.controller.eventDriven = false;
    });
}

TEST(SerializeCoverage, ExperimentConfigResultFields)
{
    const core::ExperimentConfig base;
    expectSensitive("system", base,
                    [](auto &c) { c.system.cores = 4; });
    expectSensitive("instructionsPerCore", base,
                    [](auto &c) { c.instructionsPerCore = 100000; });
    expectSensitive("warmupInstructions", base,
                    [](auto &c) { c.warmupInstructions = 10000; });
    expectSensitive("mixCount", base, [](auto &c) { c.mixCount = 2; });
    expectSensitive("mixIndices", base,
                    [](auto &c) { c.mixIndices = {0, 5, 11}; });
    expectSensitive("coldBytesPerApp", base, [](auto &c) {
        c.coldBytesPerApp = 64LL * 1024 * 1024;
    });
    expectSensitive("appRegionStride", base, [](auto &c) {
        c.appRegionStride = 512LL * 1024 * 1024;
    });
    expectSensitive("seed", base, [](auto &c) { c.seed = 99; });
}

TEST(SerializeCoverage, ExperimentConfigExecutionKnobs)
{
    const core::ExperimentConfig base;
    expectExecutionOnly("threads", base, [](auto &c) { c.threads = 9; });
    expectExecutionOnly("checkpointPath", base, [](auto &c) {
        c.checkpointPath = "/tmp/elsewhere";
    });
    expectExecutionOnly("io", base, [](auto &c) {
        c.io = &util::Io::system();
    });
    util::TaskPool pool(1);
    expectExecutionOnly("pool", base, [&](auto &c) { c.pool = &pool; });
    expectExecutionOnly("batchDeadlineMs", base,
                        [](auto &c) { c.batchDeadlineMs = 60000; });
}

// ------------------------------------------------------------- attack

TEST(SerializeCoverage, SweepConfigResultFields)
{
    const attack::SweepConfig base;
    expectSensitive("spec", base,
                    [](auto &c) { c.spec.onDieEcc = !c.spec.onDieEcc; });
    expectSensitive("geometry", base,
                    [](auto &c) { c.geometry.rows = 2048; });
    expectSensitive("hcFirst", base, [](auto &c) { c.hcFirst = 4000.0; });
    expectSensitive("seed", base, [](auto &c) { c.seed = 7; });
    expectSensitive("nSides", base, [](auto &c) { c.nSides = {4}; });
    expectSensitive("fuzzCount", base, [](auto &c) { c.fuzzCount = 1; });
    expectSensitive("samplerSizes", base,
                    [](auto &c) { c.samplerSizes = {2}; });
    expectSensitive("activationBudget", base,
                    [](auto &c) { c.activationBudget = 100000; });
    expectSensitive("actsPerRefInterval", base,
                    [](auto &c) { c.actsPerRefInterval = 120; });
    expectSensitive("mapping", base,
                    [](auto &c) { c.mapping = "bank-xor"; });
    expectSensitive("attackerMapping", base,
                    [](auto &c) { c.attackerMapping = "linear"; });
    expectSensitive("mappingRanks", base,
                    [](auto &c) { c.mappingRanks = 2; });
    expectSensitive("mappingChannels", base,
                    [](auto &c) { c.mappingChannels = 2; });
}

TEST(SerializeCoverage, SweepConfigExecutionKnobs)
{
    const attack::SweepConfig base;
    expectExecutionOnly("threads", base, [](auto &c) { c.threads = 5; });
    expectExecutionOnly("checkpointPath", base, [](auto &c) {
        c.checkpointPath = "/tmp/elsewhere";
    });
    expectExecutionOnly("io", base, [](auto &c) {
        c.io = &util::Io::system();
    });
    util::TaskPool pool(1);
    expectExecutionOnly("pool", base, [&](auto &c) { c.pool = &pool; });
    expectExecutionOnly("batchDeadlineMs", base,
                        [](auto &c) { c.batchDeadlineMs = 60000; });
}

TEST(SerializeCoverage, FuzzerConfigResultFields)
{
    const attack::FuzzerConfig base;
    expectSensitive("spec", base,
                    [](auto &c) { c.spec.onDieEcc = !c.spec.onDieEcc; });
    expectSensitive("geometry", base,
                    [](auto &c) { c.geometry.rows = 2048; });
    expectSensitive("hcFirst", base, [](auto &c) { c.hcFirst = 4000.0; });
    expectSensitive("seed", base, [](auto &c) { c.seed = 7; });
    expectSensitive("generations", base,
                    [](auto &c) { c.generations = 3; });
    expectSensitive("population", base,
                    [](auto &c) { c.population = 9; });
    expectSensitive("survivors", base, [](auto &c) { c.survivors = 3; });
    expectSensitive("chips", base, [](auto &c) { c.chips = 5; });
    expectSensitive("minOrder", base, [](auto &c) { c.minOrder = 4; });
    expectSensitive("maxOrder", base, [](auto &c) { c.maxOrder = 16; });
    expectSensitive("basePeriod", base,
                    [](auto &c) { c.basePeriod = 32; });
    expectSensitive("maxFrequencyLog2", base,
                    [](auto &c) { c.maxFrequencyLog2 = 2; });
    expectSensitive("maxAmplitude", base,
                    [](auto &c) { c.maxAmplitude = 60; });
    expectSensitive("activationBudget", base,
                    [](auto &c) { c.activationBudget = 100000; });
    expectSensitive("actsPerRefInterval", base,
                    [](auto &c) { c.actsPerRefInterval = 120; });
    expectSensitive("samplerSize", base,
                    [](auto &c) { c.samplerSize = 8; });
    expectSensitive("baselineNSides", base,
                    [](auto &c) { c.baselineNSides = {4}; });
    expectSensitive("mapping", base,
                    [](auto &c) { c.mapping = "bank-xor"; });
    expectSensitive("attackerMapping", base,
                    [](auto &c) { c.attackerMapping = "linear"; });
    expectSensitive("mappingRanks", base,
                    [](auto &c) { c.mappingRanks = 2; });
    expectSensitive("mappingChannels", base,
                    [](auto &c) { c.mappingChannels = 2; });
}

TEST(SerializeCoverage, FuzzerConfigExecutionKnobs)
{
    const attack::FuzzerConfig base;
    expectExecutionOnly("threads", base, [](auto &c) { c.threads = 5; });
    expectExecutionOnly("checkpointPath", base, [](auto &c) {
        c.checkpointPath = "/tmp/elsewhere";
    });
    expectExecutionOnly("io", base, [](auto &c) {
        c.io = &util::Io::system();
    });
    util::TaskPool pool(1);
    expectExecutionOnly("pool", base, [&](auto &c) { c.pool = &pool; });
    expectExecutionOnly("batchDeadlineMs", base,
                        [](auto &c) { c.batchDeadlineMs = 60000; });
}

// ------------------------------------------------- round-trip sanity

/** deserialize(serialize()) must reproduce the hash — otherwise the
 *  protocol's decoded config computes under a different identity than
 *  the client framed. */
TEST(SerializeCoverage, RoundTripPreservesHash)
{
    core::ExperimentConfig e;
    e.mixIndices = {1, 2, 3};
    e.seed = 1234;
    util::ByteWriter we;
    e.serialize(we);
    util::ByteReader re(we.bytes());
    EXPECT_EQ(core::ExperimentConfig::deserialize(re).hash(), e.hash());
    EXPECT_TRUE(re.done());

    attack::SweepConfig s;
    s.mapping = "bank-xor";
    s.mappingRanks = 2;
    util::ByteWriter ws;
    s.serialize(ws);
    util::ByteReader rs(ws.bytes());
    EXPECT_EQ(attack::SweepConfig::deserialize(rs).hash(), s.hash());
    EXPECT_TRUE(rs.done());

    attack::FuzzerConfig f;
    f.baselineNSides = {4, 8, 12};
    f.seed = 99;
    util::ByteWriter wf;
    f.serialize(wf);
    util::ByteReader rf(wf.bytes());
    EXPECT_EQ(attack::FuzzerConfig::deserialize(rf).hash(), f.hash());
    EXPECT_TRUE(rf.done());
}

} // namespace
