/**
 * @file
 * Figure 10 experiment driver: run workload mixes against mitigation
 * mechanisms across a sweep of HCfirst values, reporting normalized
 * system performance (weighted speedup normalized to the no-mitigation
 * baseline) and DRAM bandwidth overhead.
 *
 * sweep() fans the (mechanism x HCfirst x mix) grid across a
 * util::TaskPool: every cell runs an independent System instance whose
 * seeds derive only from (config seed, mix index, mechanism), so the
 * overhead tables are bit-identical for any thread count.
 */

#ifndef ROWHAMMER_CORE_EXPERIMENT_HH
#define ROWHAMMER_CORE_EXPERIMENT_HH

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/system.hh"
#include "mitigation/factory.hh"
#include "util/execution.hh"
#include "util/stats.hh"

namespace rowhammer::core
{

/** Per-(mechanism, HCfirst, mix) outcome. */
struct MixOutcome
{
    double weightedSpeedup = 0.0;
    double normalizedPerformance = 0.0; ///< vs. the mix's baseline WS.
    double bandwidthOverheadPercent = 0.0;
    double mpki = 0.0;
    /** Posted (best-effort) writebacks the memory system dropped when
     *  a victim channel's write queue was full; demand traffic is
     *  never dropped. Summed across channels. */
    double droppedWritebacks = 0.0;
};

/** Sweep-level aggregation across mixes. */
struct SweepPoint
{
    mitigation::Kind kind;
    double hcFirst = 0.0;
    bool evaluated = false; ///< False if the design cannot scale here.
    util::RunningStat normalizedPerformance;
    util::RunningStat bandwidthOverheadPercent;
    util::RunningStat droppedWritebacks;
};

/**
 * Experiment configuration. With checkpointPath set, prepare() and
 * sweep() persist every completed shard (see util::Execution).
 */
struct ExperimentConfig : util::Execution
{
    SystemConfig system;
    /** Instructions per core per run (the paper uses 200M; scaled-down
     *  runs preserve the comparison because all runs share it). */
    std::int64_t instructionsPerCore = 300000;
    std::int64_t warmupInstructions = 50000;
    /** Number of catalogue mixes to run (<= 48). */
    int mixCount = 8;
    /** Explicit catalogue indices to run; when empty, 0..mixCount-1.
     *  Benches spread indices across the catalogue so the full MPKI
     *  range (10-740) is represented. */
    std::vector<int> mixIndices;
    /** Per-app cold footprint; scale together with the DRAM array and
     *  LLC when shortening runs (see mixCatalogue). */
    std::int64_t coldBytesPerApp = 256LL * 1024 * 1024;
    /** Physical-address stride between apps' regions; 0 = packed at
     *  coldBytesPerApp (legacy). Multi-rank and multi-channel
     *  geometries set this to organization.systemBytes() / cores to
     *  span every rank and channel. */
    std::int64_t appRegionStride = 0;
    std::uint64_t seed = 1;

    /**
     * Append the bit-stable encoding of the run description (every
     * field that affects results; the util::Execution knobs are
     * excluded). See util/serialize.hh for the stability contract.
     */
    void serialize(util::ByteWriter &w) const;

    /** FNV-1a content hash of serialize()'s bytes: the checkpoint
     *  store identity of this run description. */
    std::uint64_t hash() const;

    /**
     * Rebuild from serialize()'s bytes; check r.ok() afterwards. The
     * util::Execution knobs are not on the wire and come back
     * default-initialized.
     */
    static ExperimentConfig deserialize(util::ByteReader &r);
};

/**
 * Weighted-speedup evaluation of one mix under one mechanism.
 *
 * The runner caches per-app standalone IPCs and the mix's baseline
 * weighted speedup across calls, so sweeping mechanisms and HCfirst
 * values only pays for the mechanism runs.
 */
class ExperimentRunner
{
  public:
    /** fatal() unless mixCount and every mixIndices entry address the
     *  mix catalogue. */
    explicit ExperimentRunner(ExperimentConfig config);

    /**
     * Precompute (in parallel) the standalone IPCs and no-mitigation
     * baseline of each listed mix. The work is sharded at
     * (mix, system-run) granularity — every standalone run and every
     * shared baseline run is its own pool task — so a handful of
     * expensive mixes (multi-channel systems cost ~channels x as much
     * per run) still spreads across every worker. After prepare(),
     * runMix() is safe to call concurrently for distinct cells: all
     * shared caches are warm and only read.
     */
    void prepare(const std::vector<int> &mix_indices);

    /**
     * Run one mix under a mechanism; nullopt if not evaluable there.
     * An unprepared mix is prepare()d first, which fans out on the
     * pool: concurrent calls still need prepare() beforehand.
     */
    std::optional<MixOutcome> runMix(int mix_index, mitigation::Kind kind,
                                     double hc_first);

    /**
     * Full Figure 10 sweep: every mechanism at every HCfirst value,
     * averaged over the configured mixes. The grid cells run across the
     * task pool; aggregation order (and thus every statistic) is
     * independent of the thread count.
     */
    std::vector<SweepPoint> sweep(const std::vector<double> &hc_firsts);

    const ExperimentConfig &config() const { return config_; }

    /** The pool used by sweep()/prepare(), for callers fanning their
     *  own cells (created on first use). */
    util::TaskPool &pool();

    /**
     * The checkpoint store backing prepare()/sweep(), or nullptr when
     * config.checkpointPath is empty. Opened on first use
     * (util::openCheckpoint with config.hash()).
     */
    util::RunStore *store();

  private:
    /** Cached per-mix baseline measurements. */
    struct MixBaseline
    {
        std::vector<double> aloneIpc;
        double baselineWs = 0.0;
    };

    /** Weighted speedup of a shared run given standalone IPCs. */
    double weightedSpeedup(const SystemResult &shared,
                           const std::vector<double> &alone_ipc) const;

    /** Standalone IPC of one app of a mix (pure; thread-safe). */
    double soloIpc(int mix_index, int core) const;

    /** Per-core IPCs of a mix's shared no-mitigation run (pure;
     *  thread-safe). */
    std::vector<double> sharedBaselineIpcs(int mix_index) const;

    /** A mix's cached baseline; prepare()s the mix first if needed. */
    const MixBaseline &baseline(int mix_index);

    ExperimentConfig config_;
    std::vector<workload::Mix> mixes_;
    std::map<int, MixBaseline> baselineCache_;
    std::unique_ptr<util::TaskPool> pool_;
    std::unique_ptr<util::RunStore> store_;
    bool storeOpened_ = false;
};

} // namespace rowhammer::core

#endif // ROWHAMMER_CORE_EXPERIMENT_HH
