/**
 * @file
 * Determinism tests for the parallel mitigation-sweep driver: a
 * Figure 10-style grid must produce byte-identical overhead tables for
 * any thread count, and concurrent runMix() calls after prepare() must
 * match serial ones.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "attack/sweep.hh"
#include "core/experiment.hh"
#include "dram/address_functions.hh"
#include "util/io.hh"
#include "util/logging.hh"
#include "util/run_store.hh"

namespace
{

using namespace rowhammer;
using core::ExperimentConfig;
using core::ExperimentRunner;
using core::SweepPoint;

/** Unique scratch directory per test, removed on destruction. */
class TempDir
{
  public:
    TempDir()
    {
        char templ[] = "/tmp/rh_experiment_XXXXXX";
        path_ = mkdtemp(templ);
        EXPECT_FALSE(path_.empty());
    }

    ~TempDir()
    {
        const std::string cmd = "rm -rf '" + path_ + "'";
        [[maybe_unused]] const int rc = std::system(cmd.c_str());
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

ExperimentConfig
smallConfig(int threads)
{
    ExperimentConfig config;
    config.system.cores = 2;
    config.system.organization.rows = 256;
    config.system.llcBytes = 256 * 1024;
    config.coldBytesPerApp = 512 * 1024;
    config.instructionsPerCore = 4000;
    config.warmupInstructions = 500;
    config.mixCount = 2;
    config.threads = threads;
    return config;
}

/** Render a sweep the way fig10_mitigations does: exact digits. */
std::string
renderSweep(const std::vector<SweepPoint> &points)
{
    std::ostringstream out;
    out.precision(17);
    for (const auto &p : points) {
        out << toString(p.kind) << " " << p.hcFirst << " "
            << p.evaluated << " " << p.normalizedPerformance.count()
            << " " << p.normalizedPerformance.mean() << " "
            << p.normalizedPerformance.min() << " "
            << p.normalizedPerformance.max() << " "
            << p.bandwidthOverheadPercent.mean() << " "
            << p.bandwidthOverheadPercent.min() << " "
            << p.bandwidthOverheadPercent.max() << "\n";
    }
    return out.str();
}

TEST(ExperimentSweep, ThreadCountInvariant)
{
    const std::vector<double> hc_firsts{200000, 4800, 2000, 512};

    ExperimentRunner serial(smallConfig(1));
    ExperimentRunner parallel(smallConfig(4));
    const auto a = serial.sweep(hc_firsts);
    const auto b = parallel.sweep(hc_firsts);

    // Byte-identical tables: same cells, same digits, same order.
    EXPECT_EQ(renderSweep(a), renderSweep(b));

    // The grid must contain real measurements, not just skips.
    std::size_t measured = 0;
    for (const auto &p : a)
        measured += p.normalizedPerformance.count();
    EXPECT_GT(measured, 0u);
}

TEST(ExperimentSweep, ConstructorRejectsOutOfRangeMixIndices)
{
    // The catalogue has 48 mixes; an index outside it must fail as a
    // user error before any mix is looked up.
    for (const int mix : {-1, 48, 100000000}) {
        ExperimentConfig config = smallConfig(1);
        config.mixIndices = {0, mix};
        EXPECT_THROW(ExperimentRunner{config}, util::FatalError) << mix;
    }
    ExperimentConfig edge = smallConfig(1);
    edge.mixIndices = {0, 47};
    EXPECT_NO_THROW(ExperimentRunner{edge});
}

TEST(ExperimentSweep, RepeatedSweepIsStable)
{
    // Caches warmed by the first sweep must not change the second.
    ExperimentRunner runner(smallConfig(2));
    const std::vector<double> hc_firsts{4800};
    const auto first = runner.sweep(hc_firsts);
    const auto second = runner.sweep(hc_firsts);
    EXPECT_EQ(renderSweep(first), renderSweep(second));
}

TEST(AttackSweep, ThreadCountInvariant)
{
    // The attack_sweep grid must be byte-identical for any thread
    // count, same style as the fig10 pin above (scaled-down grid).
    attack::SweepConfig config;
    config.hcFirst = 500;
    config.geometry.rows = 1024;
    config.geometry.rowDataBits = 4096;
    config.nSides = {4, 8};
    config.fuzzCount = 1;
    config.samplerSizes = {2, 4};

    config.threads = 1;
    const auto serial = attack::runSweep(config);
    config.threads = 4;
    const auto parallel = attack::runSweep(config);

    EXPECT_EQ(attack::renderSweepCells(serial),
              attack::renderSweepCells(parallel));
    // The grid the ACT-by-ACT session replay produced, byte for byte.
    EXPECT_EQ(attack::renderSweepCells(serial),
              "single-sided None 32000 3 0\n"
              "single-sided TRR-2 32000 0 266\n"
              "single-sided TRR-4 32000 0 266\n"
              "single-sided PARA 32000 0 6633\n"
              "single-sided ProHIT 32000 0 133\n"
              "single-sided MRLoc 32000 0 3011\n"
              "single-sided TWiCe-ideal 32000 0 512\n"
              "single-sided Ideal 32000 0 128\n"
              "double-sided None 32000 3 0\n"
              "double-sided TRR-2 32000 0 532\n"
              "double-sided TRR-4 32000 0 532\n"
              "double-sided PARA 32000 0 6583\n"
              "double-sided ProHIT 32000 0 133\n"
              "double-sided MRLoc 32000 0 2972\n"
              "double-sided TWiCe-ideal 32000 0 512\n"
              "double-sided Ideal 32000 0 128\n"
              "4-sided None 32000 3 0\n"
              "4-sided TRR-2 32000 3 532\n"
              "4-sided TRR-4 32000 0 1064\n"
              "4-sided PARA 32000 0 6460\n"
              "4-sided ProHIT 32000 0 133\n"
              "4-sided MRLoc 32000 0 2923\n"
              "4-sided TWiCe-ideal 32000 0 512\n"
              "4-sided Ideal 32000 0 128\n"
              "8-sided None 32000 3 0\n"
              "8-sided TRR-2 32000 3 532\n"
              "8-sided TRR-4 32000 3 1064\n"
              "8-sided PARA 32000 0 6394\n"
              "8-sided ProHIT 32000 0 133\n"
              "8-sided MRLoc 32000 0 2689\n"
              "8-sided TWiCe-ideal 32000 0 512\n"
              "8-sided Ideal 32000 0 128\n"
              "fuzz#0 None 31976 3 0\n"
              "fuzz#0 TRR-2 31976 0 532\n"
              "fuzz#0 TRR-4 31976 0 1064\n"
              "fuzz#0 PARA 31976 0 6286\n"
              "fuzz#0 ProHIT 31976 1 133\n"
              "fuzz#0 MRLoc 31976 0 2664\n"
              "fuzz#0 TWiCe-ideal 31976 0 509\n"
              "fuzz#0 Ideal 31976 0 124\n");

    // The grid must exhibit the headline ordering, not just agree.
    const auto flips_of = [&](const std::string &pattern,
                              const std::string &mechanism) {
        for (const auto &cell : serial) {
            if (cell.pattern == pattern && cell.mechanism == mechanism)
                return cell.flips;
        }
        ADD_FAILURE() << "missing cell " << pattern << "/" << mechanism;
        return std::int64_t{-1};
    };
    EXPECT_GT(flips_of("double-sided", "None"), 0);
    EXPECT_EQ(flips_of("double-sided", "TRR-2"), 0);
    EXPECT_GT(flips_of("4-sided", "TRR-2"), 0);   // N > sampler size.
    EXPECT_EQ(flips_of("4-sided", "TRR-4"), 0);   // N <= sampler size.
    EXPECT_GT(flips_of("8-sided", "TRR-4"), 0);
    for (const auto &cell : serial) {
        if (cell.mechanism == "Ideal") {
            EXPECT_EQ(cell.flips, 0) << cell.pattern;
        }
    }
}

TEST(Fig10Mapping, DefaultPresetStatsMatchPrePr)
{
    // Hard-coded outcomes captured from the pre-AddressFunctions build
    // on this exact configuration: the default mapping's fig10 numbers
    // must not move. (NEAR, not EQ: CI builds without -march=native
    // may contract floating-point differently.)
    ExperimentConfig config;
    config.system.cores = 2;
    config.instructionsPerCore = 4000;
    config.warmupInstructions = 500;
    config.mixCount = 1;
    config.mixIndices = {24};
    config.threads = 1;
    config.system.organization.rows = 128;
    config.system.llcBytes = 256 * 1024;
    config.coldBytesPerApp = 1024 * 1024;
    ExperimentRunner runner(config);

    const auto para = runner.runMix(24, mitigation::Kind::PARA, 2000.0);
    ASSERT_TRUE(para.has_value());
    EXPECT_NEAR(para->weightedSpeedup, 1.0168442019022976, 1e-9);
    EXPECT_NEAR(para->normalizedPerformance, 0.82866499239404701, 1e-9);
    EXPECT_NEAR(para->bandwidthOverheadPercent, 14.275601698914583,
                1e-6);
    EXPECT_NEAR(para->mpki, 83.505782105903833, 1e-6);

    const auto ideal =
        runner.runMix(24, mitigation::Kind::Ideal, 2000.0);
    ASSERT_TRUE(ideal.has_value());
    EXPECT_NEAR(ideal->weightedSpeedup, 1.2270871959542942, 1e-9);
    EXPECT_NEAR(ideal->mpki, 82.364459674458445, 1e-6);
}

TEST(Fig10Mapping, BankXorChangesTheOverheadTable)
{
    ExperimentConfig config = smallConfig(2);
    config.mixCount = 1;
    config.mixIndices = {24};
    ExperimentRunner linear(config);

    config.system.addressFunctions = dram::AddressFunctions::preset(
        "bank-xor", config.system.organization);
    ExperimentRunner xorred(config);

    const std::vector<double> hc_firsts{2000};
    const std::string a = renderSweep(linear.sweep(hc_firsts));
    const std::string b = renderSweep(xorred.sweep(hc_firsts));
    EXPECT_NE(a, b);
}

TEST(Fig10Mapping, MultiRankRankXorRunsAndDiffers)
{
    ExperimentConfig config = smallConfig(2);
    config.mixCount = 1;
    config.mixIndices = {24};
    ExperimentRunner single(config);

    config.system.organization.ranks = 2;
    config.system.addressFunctions = dram::AddressFunctions::preset(
        "rank-xor", config.system.organization);
    config.appRegionStride =
        config.system.organization.totalBytes() / config.system.cores;
    ExperimentRunner multi(config);

    const std::vector<double> hc_firsts{2000};
    const auto a = single.sweep(hc_firsts);
    const auto b = multi.sweep(hc_firsts);
    EXPECT_NE(renderSweep(a), renderSweep(b));

    // The multi-rank run must be a real measurement.
    std::size_t measured = 0;
    for (const auto &p : b)
        measured += p.normalizedPerformance.count();
    EXPECT_GT(measured, 0u);
}

TEST(ExperimentSweep, ChannelShardedSweepThreadCountInvariant)
{
    // The RH_THREADS contract survives the channel axis: a 2-channel
    // channel-xor sweep — whose baseline runs shard per (mix,
    // system-run) across the pool — is byte-identical for any worker
    // count.
    auto channel_config = [](int threads) {
        ExperimentConfig config = smallConfig(threads);
        config.mixCount = 1;
        config.mixIndices = {24};
        config.system.organization.channels = 2;
        config.system.addressFunctions =
            dram::AddressFunctions::preset(
                "channel-xor", config.system.organization);
        config.appRegionStride =
            config.system.organization.systemBytes() /
            config.system.cores;
        return config;
    };

    ExperimentRunner serial(channel_config(1));
    ExperimentRunner parallel(channel_config(4));
    const std::vector<double> hc_firsts{2000};
    const auto a = serial.sweep(hc_firsts);
    const auto b = parallel.sweep(hc_firsts);
    EXPECT_EQ(renderSweep(a), renderSweep(b));

    std::size_t measured = 0;
    for (const auto &p : a)
        measured += p.normalizedPerformance.count();
    EXPECT_GT(measured, 0u);

    // The channel axis must actually move the overhead table.
    ExperimentConfig single = smallConfig(4);
    single.mixCount = 1;
    single.mixIndices = {24};
    ExperimentRunner single_runner(single);
    EXPECT_NE(renderSweep(single_runner.sweep(hc_firsts)),
              renderSweep(b));
}

TEST(AttackSweep, MappedGridThreadCountInvariant)
{
    // The RH_THREADS contract extends to the mapping axis: believed-
    // space construction and remapping happen once, outside the pool.
    attack::SweepConfig config;
    config.hcFirst = 500;
    config.geometry.banks = 16;
    config.geometry.rows = 1024;
    config.geometry.rowDataBits = 4096;
    config.nSides = {4};
    config.fuzzCount = 1;
    config.samplerSizes = {2};
    config.mapping = "rank-xor";
    config.attackerMapping = "linear";
    config.mappingRanks = 2;

    config.threads = 1;
    const auto serial = attack::runSweep(config);
    config.threads = 4;
    const auto parallel = attack::runSweep(config);
    EXPECT_EQ(attack::renderSweepCells(serial),
              attack::renderSweepCells(parallel));
}

TEST(ExperimentSweep, ConcurrentRunMixMatchesSerial)
{
    ExperimentRunner serial(smallConfig(1));
    ExperimentRunner parallel(smallConfig(4));

    serial.prepare({0});
    parallel.prepare({0});

    const auto kinds = mitigation::allKinds();
    std::vector<std::optional<core::MixOutcome>> serial_out;
    for (auto kind : kinds)
        serial_out.push_back(serial.runMix(0, kind, 4800.0));

    const auto parallel_out = parallel.pool().map(
        kinds.size(), [&](std::size_t k) {
            return parallel.runMix(0, kinds[k], 4800.0);
        });

    ASSERT_EQ(serial_out.size(), parallel_out.size());
    for (std::size_t k = 0; k < kinds.size(); ++k) {
        ASSERT_EQ(serial_out[k].has_value(),
                  parallel_out[k].has_value());
        if (!serial_out[k])
            continue;
        EXPECT_EQ(serial_out[k]->weightedSpeedup,
                  parallel_out[k]->weightedSpeedup);
        EXPECT_EQ(serial_out[k]->normalizedPerformance,
                  parallel_out[k]->normalizedPerformance);
        EXPECT_EQ(serial_out[k]->bandwidthOverheadPercent,
                  parallel_out[k]->bandwidthOverheadPercent);
        EXPECT_EQ(serial_out[k]->mpki, parallel_out[k]->mpki);
    }
}

TEST(ExperimentRunner, RunMixPreparesItsMix)
{
    // runMix() on an unprepared mix computes its baseline through
    // prepare(): the same outcome, and the baseline runs checkpointed.
    ExperimentRunner prepared(smallConfig(2));
    prepared.prepare({1});
    const auto reference =
        prepared.runMix(1, mitigation::Kind::PARA, 4800.0);
    ASSERT_TRUE(reference.has_value());

    TempDir dir;
    auto config = smallConfig(2);
    config.checkpointPath = dir.path();
    ExperimentRunner runner(config);
    const auto outcome = runner.runMix(1, mitigation::Kind::PARA, 4800.0);
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->weightedSpeedup, reference->weightedSpeedup);
    EXPECT_EQ(outcome->normalizedPerformance,
              reference->normalizedPerformance);
    EXPECT_EQ(outcome->bandwidthOverheadPercent,
              reference->bandwidthOverheadPercent);
    EXPECT_EQ(outcome->mpki, reference->mpki);
    EXPECT_EQ(outcome->droppedWritebacks, reference->droppedWritebacks);

    // One record per standalone run plus the shared baseline run.
    ASSERT_NE(runner.store(), nullptr);
    EXPECT_EQ(runner.store()->size(),
              static_cast<std::size_t>(config.system.cores) + 1);
}

TEST(Checkpoint, ResumedSweepIsByteIdentical)
{
    const std::vector<double> hc_firsts{4800, 512};

    ExperimentRunner plain(smallConfig(2));
    const std::string reference = renderSweep(plain.sweep(hc_firsts));

    TempDir dir;
    auto config = smallConfig(2);
    config.checkpointPath = dir.path();

    // First checkpointed run populates the store...
    {
        ExperimentRunner runner(config);
        EXPECT_EQ(renderSweep(runner.sweep(hc_firsts)), reference);
        ASSERT_NE(runner.store(), nullptr);
        EXPECT_GT(runner.store()->size(), 0u);
        EXPECT_TRUE(runner.store()->persistent());
    }

    // ...and the store file lands where the config hash says.
    const std::string store_path =
        util::RunStore::pathInDir(dir.path(), config.hash());
    std::string bytes;
    ASSERT_TRUE(util::Io::system().readFile(store_path, bytes));

    // A second runner resumes every shard from disk and renders the
    // same bytes without recomputing anything. Scoped: the store now
    // holds an advisory lock for the runner's lifetime, so sequential
    // runners must not overlap.
    {
        ExperimentRunner resumed(config);
        EXPECT_EQ(renderSweep(resumed.sweep(hc_firsts)), reference);
        ASSERT_NE(resumed.store(), nullptr);
        EXPECT_GT(resumed.store()->size(), 0u);
    }

    // A subset of the hcFirst list resumes from the same store: shard
    // keys are content-tagged, not positional.
    ExperimentRunner subset(config);
    const std::string partial =
        renderSweep(subset.sweep(std::vector<double>{512}));
    EXPECT_NE(partial, "");
    EXPECT_NE(reference.find(partial.substr(0, partial.find('\n'))),
              std::string::npos);
}

TEST(Checkpoint, CorruptedStoreRecomputesWithSameOutput)
{
    const std::vector<double> hc_firsts{4800};

    ExperimentRunner plain(smallConfig(2));
    const std::string reference = renderSweep(plain.sweep(hc_firsts));

    TempDir dir;
    auto config = smallConfig(2);
    config.checkpointPath = dir.path();
    {
        ExperimentRunner runner(config);
        EXPECT_EQ(renderSweep(runner.sweep(hc_firsts)), reference);
    }

    const std::string store_path =
        util::RunStore::pathInDir(dir.path(), config.hash());
    std::string bytes;
    ASSERT_TRUE(util::Io::system().readFile(store_path, bytes));

    // Truncate the store mid-file: the valid prefix resumes, the torn
    // tail recomputes, and the table is still byte-identical.
    ASSERT_TRUE(atomicWriteFile(util::Io::system(), store_path,
                                bytes.substr(0, bytes.size() / 2)));
    {
        ExperimentRunner runner(config);
        EXPECT_EQ(renderSweep(runner.sweep(hc_firsts)), reference);
    }

    // Flip a bit in the middle of the full file: CRC framing rejects
    // the damaged record and the cell recomputes.
    std::string damaged = bytes;
    damaged[damaged.size() / 2] ^= 0x10;
    ASSERT_TRUE(
        atomicWriteFile(util::Io::system(), store_path, damaged));
    {
        ExperimentRunner runner(config);
        EXPECT_EQ(renderSweep(runner.sweep(hc_firsts)), reference);
    }

    // Replace it with garbage that is not a checkpoint at all.
    ASSERT_TRUE(atomicWriteFile(util::Io::system(), store_path,
                                "not a checkpoint"));
    {
        ExperimentRunner runner(config);
        EXPECT_EQ(renderSweep(runner.sweep(hc_firsts)), reference);
    }
}

TEST(Checkpoint, PersistenceFailureStillProducesCorrectTable)
{
    const std::vector<double> hc_firsts{4800};

    ExperimentRunner plain(smallConfig(2));
    const std::string reference = renderSweep(plain.sweep(hc_firsts));

    // Disk fills up immediately: every checkpoint write fails, the
    // sweep must still complete with the right numbers.
    TempDir dir;
    util::FaultInjectingIo io(util::Io::system());
    io.failAfterBytes = 0;

    auto config = smallConfig(2);
    config.checkpointPath = dir.path();
    config.io = &io;
    ExperimentRunner runner(config);
    EXPECT_EQ(renderSweep(runner.sweep(hc_firsts)), reference);
    ASSERT_NE(runner.store(), nullptr);
    EXPECT_FALSE(runner.store()->persistent());
}

TEST(Checkpoint, ConfigHashSeparatesRunsButIgnoresExecutionKnobs)
{
    const auto base = smallConfig(2);

    // Execution-only knobs must not change the run's identity: a
    // resume with more threads or a different store path still finds
    // its shards.
    auto retuned = smallConfig(8);
    retuned.checkpointPath = "/somewhere/else";
    retuned.batchDeadlineMs = 1234;
    EXPECT_EQ(base.hash(), retuned.hash());

    // Anything that changes the measured numbers must change the hash.
    auto reseeded = smallConfig(2);
    reseeded.seed = base.seed + 1;
    EXPECT_NE(base.hash(), reseeded.hash());
    auto resized = smallConfig(2);
    resized.instructionsPerCore += 1;
    EXPECT_NE(base.hash(), resized.hash());
}

TEST(Checkpoint, AttackSweepResumesByteIdentical)
{
    attack::SweepConfig config;
    config.hcFirst = 500;
    config.geometry.rows = 1024;
    config.geometry.rowDataBits = 4096;
    config.nSides = {4};
    config.fuzzCount = 1;
    config.samplerSizes = {2};
    config.threads = 2;

    const std::string reference =
        attack::renderSweepCells(attack::runSweep(config));

    TempDir dir;
    config.checkpointPath = dir.path();
    EXPECT_EQ(attack::renderSweepCells(attack::runSweep(config)),
              reference);

    // The store exists under the attack config's own hash...
    const std::string store_path =
        util::RunStore::pathInDir(dir.path(), config.hash());
    std::string bytes;
    ASSERT_TRUE(util::Io::system().readFile(store_path, bytes));

    // ...a rerun resumes from it byte-identically...
    EXPECT_EQ(attack::renderSweepCells(attack::runSweep(config)),
              reference);

    // ...and corruption degrades to recompute, not to wrong cells.
    std::string damaged = bytes;
    damaged[damaged.size() / 2] ^= 0x04;
    ASSERT_TRUE(
        atomicWriteFile(util::Io::system(), store_path, damaged));
    EXPECT_EQ(attack::renderSweepCells(attack::runSweep(config)),
              reference);
}

} // namespace
