#include "experiment.hh"

#include <string>
#include <utility>

#include "util/logging.hh"
#include "util/serialize.hh"

namespace rowhammer::core
{

namespace
{

/**
 * Checkpoint record keys: FNV-1a over a tagged encoding of the shard
 * identity, so a key names the same unit of work regardless of grid
 * shape (sweep() may be called with different HCfirst lists against
 * the same store file).
 */
std::uint64_t
baselineShardKey(int mix, std::size_t unit)
{
    util::ByteWriter w;
    w.str("baseline");
    w.i64(mix);
    w.u64(unit);
    return util::fnv1a64(w.bytes());
}

std::uint64_t
sweepCellKey(mitigation::Kind kind, double hc, int mix)
{
    util::ByteWriter w;
    w.str("cell");
    w.i64(static_cast<int>(kind));
    w.f64(hc);
    w.i64(mix);
    return util::fnv1a64(w.bytes());
}

/**
 * The one weighted-speedup definition: sum of per-core shared/alone
 * IPC ratios, skipping cores whose standalone IPC is zero. Both the
 * baseline WS and runMix's outcome WS (whose ratio is the normalized
 * performance) go through here.
 */
double
weightedSpeedupFromIpcs(const std::vector<double> &shared,
                        const std::vector<double> &alone)
{
    double ws = 0.0;
    for (std::size_t i = 0; i < shared.size(); ++i) {
        if (alone[i] > 0.0)
            ws += shared[i] / alone[i];
    }
    return ws;
}

} // namespace

ExperimentRunner::ExperimentRunner(ExperimentConfig config)
    : config_(config),
      mixes_(workload::mixCatalogue(config.system.cores,
                                    config.coldBytesPerApp,
                                    config.appRegionStride))
{
    const int catalogue = static_cast<int>(mixes_.size());
    if (config_.mixCount < 1 || config_.mixCount > catalogue)
        util::fatal("ExperimentRunner: mixCount out of range");
    for (int mix : config_.mixIndices) {
        if (mix < 0 || mix >= catalogue) {
            util::fatal("ExperimentRunner: mix index " +
                        std::to_string(mix) + " outside the " +
                        std::to_string(catalogue) + "-mix catalogue");
        }
    }
}

util::TaskPool &
ExperimentRunner::pool()
{
    return util::poolFor(config_, pool_);
}

util::RunStore *
ExperimentRunner::store()
{
    if (!storeOpened_) {
        storeOpened_ = true;
        store_ = util::openCheckpoint(config_, config_.hash());
    }
    return store_.get();
}

double
ExperimentRunner::weightedSpeedup(
    const SystemResult &shared, const std::vector<double> &alone_ipc) const
{
    std::vector<double> shared_ipc;
    for (const auto &core : shared.coreStats)
        shared_ipc.push_back(core.ipc());
    return weightedSpeedupFromIpcs(shared_ipc, alone_ipc);
}

double
ExperimentRunner::soloIpc(int mix_index, int core) const
{
    const workload::Mix &mix =
        mixes_[static_cast<std::size_t>(mix_index)];
    SystemConfig solo = config_.system;
    solo.cores = 1;
    System system(solo, {mix.apps[static_cast<std::size_t>(core)]},
                  config_.seed ^
                      (static_cast<std::uint64_t>(mix_index) << 16) ^
                      static_cast<std::uint64_t>(core));
    const SystemResult result = system.run(
        config_.instructionsPerCore, config_.warmupInstructions);
    return result.coreStats[0].ipc();
}

std::vector<double>
ExperimentRunner::sharedBaselineIpcs(int mix_index) const
{
    const workload::Mix &mix =
        mixes_[static_cast<std::size_t>(mix_index)];
    System system(config_.system, mix.apps,
                  config_.seed ^
                      (static_cast<std::uint64_t>(mix_index) << 16));
    const SystemResult result = system.run(config_.instructionsPerCore,
                                           config_.warmupInstructions);
    std::vector<double> ipcs;
    for (const auto &core : result.coreStats)
        ipcs.push_back(core.ipc());
    return ipcs;
}

const ExperimentRunner::MixBaseline &
ExperimentRunner::baseline(int mix_index)
{
    prepare({mix_index});
    return baselineCache_.at(mix_index);
}

void
ExperimentRunner::prepare(const std::vector<int> &mix_indices)
{
    std::vector<int> missing;
    for (int mix : mix_indices) {
        if (!baselineCache_.count(mix))
            missing.push_back(mix);
    }
    if (missing.empty())
        return;

    // One pool task per system run — `cores` standalone runs plus the
    // shared baseline per mix — instead of one per mix, so the pool
    // stays saturated even when few mixes are missing and each run is
    // expensive (multi-channel systems tick every controller per
    // step). Results are combined in task order, so the cache is
    // byte-identical for any thread count.
    const auto cores = static_cast<std::size_t>(config_.system.cores);
    const std::size_t per_mix = cores + 1;
    util::RunStore *checkpoint = store();
    auto runs = pool().map(
        missing.size() * per_mix, [&](std::size_t i) {
            const int mix = missing[i / per_mix];
            const std::size_t unit = i % per_mix;
            const std::size_t expected = unit < cores ? 1 : cores;
            return util::memoized<std::vector<double>>(
                checkpoint, baselineShardKey(mix, unit),
                [&] {
                    return unit < cores
                        ? std::vector<double>{soloIpc(
                              mix, static_cast<int>(unit))}
                        : sharedBaselineIpcs(mix);
                },
                [](auto &a, auto &ipcs) { a.f64Vec(ipcs); },
                [&](const std::vector<double> &ipcs) {
                    return ipcs.size() == expected;
                });
        });
    for (std::size_t m = 0; m < missing.size(); ++m) {
        MixBaseline &base = baselineCache_[missing[m]];
        for (std::size_t core = 0; core < cores; ++core)
            base.aloneIpc.push_back(runs[m * per_mix + core][0]);
        base.baselineWs = weightedSpeedupFromIpcs(
            runs[m * per_mix + cores], base.aloneIpc);
    }
}

std::optional<MixOutcome>
ExperimentRunner::runMix(int mix_index, mitigation::Kind kind,
                         double hc_first)
{
    if (!mitigation::evaluatedAt(kind, hc_first, config_.system.timing))
        return std::nullopt;

    const workload::Mix &mix =
        mixes_[static_cast<std::size_t>(mix_index)];
    // One mechanism instance per channel (mechanisms track per-bank
    // state keyed by the channel-local flat bank index). Channel 0
    // keeps the historical seed so single-channel results are
    // byte-identical to the pre-channel build.
    std::vector<std::unique_ptr<mitigation::Mitigation>> mechanisms;
    std::vector<mitigation::Mitigation *> attached;
    for (int ch = 0; ch < config_.system.organization.channels; ++ch) {
        mechanisms.push_back(mitigation::makeMitigation(
            kind, hc_first, config_.system.timing,
            config_.system.organization.rows,
            config_.seed ^ 0x1157ULL ^
                static_cast<std::uint64_t>(mix_index) ^
                (static_cast<std::uint64_t>(ch) << 40)));
        attached.push_back(mechanisms.back().get());
    }

    const MixBaseline &base = baseline(mix_index);

    System system(config_.system, mix.apps,
                  config_.seed ^
                      (static_cast<std::uint64_t>(mix_index) << 16));
    system.setMitigations(attached);
    const SystemResult result = system.run(config_.instructionsPerCore,
                                           config_.warmupInstructions);

    MixOutcome outcome;
    outcome.weightedSpeedup = weightedSpeedup(result, base.aloneIpc);
    outcome.normalizedPerformance = base.baselineWs > 0.0
        ? outcome.weightedSpeedup / base.baselineWs
        : 0.0;
    outcome.bandwidthOverheadPercent =
        result.memStats.bandwidthOverheadPercent();
    outcome.mpki = result.mpki();
    outcome.droppedWritebacks =
        static_cast<double>(result.memStats.droppedWritebacks);
    return outcome;
}

std::vector<SweepPoint>
ExperimentRunner::sweep(const std::vector<double> &hc_firsts)
{
    std::vector<int> indices = config_.mixIndices;
    if (indices.empty()) {
        for (int mix = 0; mix < config_.mixCount; ++mix)
            indices.push_back(mix);
    }
    prepare(indices);

    // Lay the whole (mechanism x HCfirst x mix) grid out flat, run the
    // cells across the pool, then aggregate in grid order so every
    // statistic is independent of scheduling.
    struct Cell
    {
        mitigation::Kind kind;
        double hc;
        int mix;
        std::size_t point;
    };
    std::vector<SweepPoint> points;
    std::vector<Cell> cells;
    for (mitigation::Kind kind : mitigation::allKinds()) {
        for (double hc : hc_firsts) {
            SweepPoint point;
            point.kind = kind;
            point.hcFirst = hc;
            point.evaluated = mitigation::evaluatedAt(
                kind, hc, config_.system.timing);
            if (point.evaluated) {
                for (int mix : indices)
                    cells.push_back(Cell{kind, hc, mix, points.size()});
            }
            points.push_back(std::move(point));
        }
    }

    util::RunStore *checkpoint = store();
    const auto outcomes = pool().map(
        cells.size(), [&](std::size_t i) {
            const Cell &cell = cells[i];
            return util::memoized<std::optional<MixOutcome>>(
                checkpoint, sweepCellKey(cell.kind, cell.hc, cell.mix),
                [&] { return runMix(cell.mix, cell.kind, cell.hc); },
                [](auto &a, auto &outcome) { a.opt(outcome); });
        });

    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (!outcomes[i])
            continue;
        SweepPoint &point = points[cells[i].point];
        point.normalizedPerformance.add(
            outcomes[i]->normalizedPerformance);
        point.bandwidthOverheadPercent.add(
            outcomes[i]->bandwidthOverheadPercent);
        point.droppedWritebacks.add(outcomes[i]->droppedWritebacks);
    }
    return points;
}

} // namespace rowhammer::core
