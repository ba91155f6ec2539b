/**
 * @file
 * Workload `fig10`: the Figure 10 grid as bench/fig10_mitigations
 * computes it through core::ExperimentRunner::sweep (every mechanism x
 * the 12 HCfirst values x mixes {0, 47}), with the instruction count
 * per core reduced so the grid fits the run.
 *
 * The traced pass splits the sweep into its public steps (prepare(),
 * then runMix() per cell across the pool) and re-runs every cell
 * through core::System with a counting dram::Device observer and a
 * delegating, timing mitigation wrapper attached. Each re-run must
 * reproduce runMix()'s memory statistics bit for bit, which proves the
 * counters describe the same simulation the untraced run times.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <sstream>

#include "core/experiment.hh"
#include "core/system.hh"
#include "dram/address_functions.hh"
#include "harness.hh"
#include "mitigation/factory.hh"
#include "util/stats.hh"
#include "util/taskpool.hh"
#include "workload/synthetic.hh"

namespace perfbench
{
namespace
{

using namespace rowhammer;

/** Instructions per core per run. fig10_mitigations defaults to
 *  100000; this is scaled down so one grid takes a few seconds. */
constexpr std::int64_t kInstructionsPerCore = 2000;

/** The Figure 10 HCfirst sweep (bench/fig10_common.hh). */
const std::vector<double> kHcFirsts = {200000, 69200, 32000, 17500,
                                       10000,  4800,  2000,  1024,
                                       512,    256,   128,   64};

/**
 * fig10_mitigations' run description at its default knobs with
 * RH_F10_MIXES=2 (8 cores, 512 rows, 1 MB LLC, 2 MB per app, mixes 0
 * and 47), built here rather than from the RH_F10_* environment so the
 * benchmark cannot be re-sized by the caller's shell.
 */
core::ExperimentConfig
fig10Config(std::uint64_t seed)
{
    core::ExperimentConfig config;
    config.system.cores = 8;
    config.instructionsPerCore = kInstructionsPerCore;
    config.warmupInstructions = kInstructionsPerCore / 8;
    config.mixCount = 2;
    config.mixIndices = {0, 47};
    config.system.organization.rows = 512;
    config.system.llcBytes = 1024 * 1024;
    config.coldBytesPerApp = 2 * 1024 * 1024;
    config.system.addressFunctions = dram::AddressFunctions::resolve(
        "linear", config.system.organization);
    config.seed = seed;
    return config;
}

struct Cell
{
    mitigation::Kind kind;
    double hc;
    int mix;
};

std::string
cellKey(const Cell &cell)
{
    std::ostringstream out;
    out << "cell " << mitigation::toString(cell.kind) << " "
        << static_cast<long long>(cell.hc) << " mix" << cell.mix;
    return out.str();
}

/** Bit-exact text of a runMix() outcome ("none" = not evaluable). */
std::string
encodeOutcome(const std::optional<core::MixOutcome> &outcome)
{
    if (!outcome)
        return "none";
    return hexBits(outcome->weightedSpeedup) + " " +
        hexBits(outcome->normalizedPerformance) + " " +
        hexBits(outcome->bandwidthOverheadPercent) + " " +
        hexBits(outcome->mpki) + " " +
        hexBits(outcome->droppedWritebacks);
}

double
doubleFromHex(const std::string &hex)
{
    const std::uint64_t bits = std::stoull(hex, nullptr, 16);
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

/** Inverse of encodeOutcome(); false on malformed text. */
bool
decodeOutcome(const std::string &text,
              std::optional<core::MixOutcome> &outcome)
{
    if (text == "none") {
        outcome.reset();
        return true;
    }
    std::istringstream in(text);
    std::string f[5];
    for (std::string &s : f) {
        if (!(in >> s) || s.size() != 16)
            return false;
    }
    core::MixOutcome out;
    out.weightedSpeedup = doubleFromHex(f[0]);
    out.normalizedPerformance = doubleFromHex(f[1]);
    out.bandwidthOverheadPercent = doubleFromHex(f[2]);
    out.mpki = doubleFromHex(f[3]);
    out.droppedWritebacks = doubleFromHex(f[4]);
    outcome = out;
    return true;
}

std::string
statText(const util::RunningStat &s)
{
    return std::to_string(s.count()) + " " + hexBits(s.mean()) + " " +
        hexBits(s.min()) + " " + hexBits(s.max());
}

/** Bit-exact text of one aggregated sweep point. */
std::string
pointText(const core::SweepPoint &p)
{
    return std::string(p.evaluated ? "eval " : "skip ") +
        statText(p.normalizedPerformance) + " | " +
        statText(p.bandwidthOverheadPercent) + " | " +
        statText(p.droppedWritebacks);
}

/** Delegating mechanism that counts and times the controller's hook
 *  calls; behaviour (victims, refresh rate) is the wrapped one's. */
class TracedMitigation : public mitigation::Mitigation
{
  public:
    explicit TracedMitigation(std::unique_ptr<mitigation::Mitigation> inner)
        : inner_(std::move(inner))
    {
    }

    std::string name() const override { return inner_->name(); }

    void
    onActivate(int flat_bank, int row, dram::Cycle now,
               std::vector<mitigation::VictimRef> &out) override
    {
        const double t0 = wallNow();
        const std::size_t before = out.size();
        inner_->onActivate(flat_bank, row, now, out);
        ++activations;
        victims += static_cast<std::int64_t>(out.size() - before);
        hookSeconds += wallNow() - t0;
    }

    void
    onRefresh(std::uint64_t ref_index, int rows_per_ref,
              std::vector<mitigation::VictimRef> &out) override
    {
        const double t0 = wallNow();
        const std::size_t before = out.size();
        inner_->onRefresh(ref_index, rows_per_ref, out);
        victims += static_cast<std::int64_t>(out.size() - before);
        hookSeconds += wallNow() - t0;
    }

    double
    refreshRateMultiplier() const override
    {
        return inner_->refreshRateMultiplier();
    }

    bool feasible() const override { return inner_->feasible(); }

    std::int64_t activations = 0;
    std::int64_t victims = 0;
    double hookSeconds = 0.0;

  private:
    std::unique_ptr<mitigation::Mitigation> inner_;
};

/** Counters of one cell's traced core::System re-run. */
struct CellTrace
{
    bool matchesRunMix = false;
    double wall = 0.0;
    std::int64_t dramCycles = 0;
    std::int64_t instructions = 0;
    std::int64_t llcAccesses = 0;
    std::int64_t llcHits = 0;
    std::int64_t llcWritebacks = 0;
    std::int64_t reads = 0;
    std::int64_t writes = 0;
    std::int64_t demandActs = 0;
    std::int64_t readQueueFull = 0;
    std::int64_t droppedWritebacks = 0;
    std::int64_t cmds = 0;
    std::int64_t acts = 0;
    std::int64_t refs = 0;
    std::int64_t activations = 0;
    std::int64_t victims = 0;
    double hookSeconds = 0.0;
};

/** runMix() of one cell with its host time. */
struct CellRun
{
    bool threw = false;
    std::optional<core::MixOutcome> outcome;
    double wall = 0.0;
};

class Fig10 : public Workload
{
  public:
    explicit Fig10(const Options &options)
        : config_(fig10Config(options.seed)),
          mixes_(workload::mixCatalogue(config_.system.cores,
                                        config_.coldBytesPerApp,
                                        config_.appRegionStride))
    {
        // Grid order of ExperimentRunner::sweep: kind, HCfirst, mix.
        for (mitigation::Kind kind : mitigation::allKinds()) {
            for (double hc : kHcFirsts) {
                for (int mix : config_.mixIndices)
                    cells_.push_back({kind, hc, mix});
            }
        }
    }

    void
    setUp() override
    {
        pool_ = std::make_unique<util::TaskPool>(poolWorkers());
        core::ExperimentConfig config = config_;
        config.pool = pool_.get();
        runner_ = std::make_unique<core::ExperimentRunner>(config);
    }

    void
    run() override
    {
        threw_ = false;
        try {
            points_ = runner_->sweep(kHcFirsts);
        } catch (const std::exception &) {
            threw_ = true;
            points_.clear();
        }
    }

    void
    check(Units &units) override
    {
        const std::size_t per_point = config_.mixIndices.size();
        if (threw_ || points_.size() * per_point != cells_.size()) {
            units.failAll(static_cast<long>(cells_.size()));
            return;
        }
        for (std::size_t i = 0; i < points_.size(); ++i) {
            const std::string actual = pointText(points_[i]);
            bool ok = sane(points_[i]);
            if (units.pinned())
                ok = ok && actual == referencePoint(units, i);
            if (firstPoints_.size() == points_.size())
                ok = ok && actual == firstPoints_[i];
            for (std::size_t m = 0; m < per_point; ++m)
                units.count(ok);
        }
        if (firstPoints_.empty()) {
            for (const auto &p : points_)
                firstPoints_.push_back(pointText(p));
        }
    }

    void
    tearDown() override
    {
        runner_.reset();
        pool_.reset();
    }

    void
    trace(Metrics &m, Units &units) override
    {
        const double prep0 = wallNow();
        runner_->prepare(config_.mixIndices);
        m.set("core.prepare_s", wallNow() - prep0, "s");

        // The sweep's cell batch, fanned out here so each cell is timed.
        PoolTimeline timeline;
        timeline.newBatch();
        const double cpu0 = cpuNow();
        const double wall0 = wallNow();
        const std::vector<CellRun> runs =
            pool_->map(cells_.size(), [&](std::size_t i) {
                CellRun r;
                const double t0 = wallNow();
                try {
                    r.outcome = runner_->runMix(cells_[i].mix,
                                                cells_[i].kind,
                                                cells_[i].hc);
                } catch (const std::exception &) {
                    r.threw = true;
                }
                r.wall = wallNow() - t0;
                timeline.jobDone();
                return r;
            });
        setPoolMetrics(m, cpuNow() - cpu0, wallNow() - wall0,
                       timeline.tailSeconds());

        const std::vector<CellTrace> traces = pool_->map(
            cells_.size(),
            [&](std::size_t i) { return rerun(cells_[i], runs[i]); });

        std::vector<double> cell_walls;
        double run_mix_s = 0.0;
        CellTrace total;
        for (std::size_t i = 0; i < cells_.size(); ++i) {
            const CellRun &r = runs[i];
            const CellTrace &t = traces[i];
            const bool matches = units.matchesReference(
                cellKey(cells_[i]), encodeOutcome(r.outcome));
            units.count(!r.threw && matches && t.matchesRunMix);
            if (!r.outcome)
                continue;
            cell_walls.push_back(r.wall);
            run_mix_s += r.wall;
            total.wall += t.wall;
            total.dramCycles += t.dramCycles;
            total.instructions += t.instructions;
            total.llcAccesses += t.llcAccesses;
            total.llcHits += t.llcHits;
            total.llcWritebacks += t.llcWritebacks;
            total.reads += t.reads;
            total.writes += t.writes;
            total.demandActs += t.demandActs;
            total.readQueueFull += t.readQueueFull;
            total.droppedWritebacks += t.droppedWritebacks;
            total.cmds += t.cmds;
            total.acts += t.acts;
            total.refs += t.refs;
            total.activations += t.activations;
            total.victims += t.victims;
            total.hookSeconds += t.hookSeconds;
        }

        const auto ratio = [](double num, double den) {
            return den > 0 ? num / den : 0.0;
        };
        const auto d = [](std::int64_t v) {
            return static_cast<double>(v);
        };
        m.set("core.cell_s.p50", median(cell_walls), "s");
        m.set("core.cell_s.max",
              cell_walls.empty()
                  ? 0.0
                  : *std::max_element(cell_walls.begin(), cell_walls.end()),
              "s");
        m.set("core.sim_dram_cycles", d(total.dramCycles), "count");
        m.set("core.host_ns_per_dram_cycle",
              ratio(run_mix_s * 1e9, d(total.dramCycles)), "ns");
        m.set("core.host_ns_per_instr",
              ratio(run_mix_s * 1e9, d(total.instructions)), "ns");
        m.set("cpu.instructions", d(total.instructions), "count");
        m.set("cpu.llc_accesses", d(total.llcAccesses), "count");
        m.set("cpu.llc_hit_rate",
              ratio(d(total.llcHits), d(total.llcAccesses)), "ratio");
        m.set("cpu.llc_writebacks", d(total.llcWritebacks), "count");
        m.set("sim.reads", d(total.reads), "count");
        m.set("sim.writes", d(total.writes), "count");
        m.set("sim.read_queue_full", d(total.readQueueFull), "count");
        m.set("sim.dropped_writebacks", d(total.droppedWritebacks),
              "count");
        m.set("sim.row_hit_rate",
              1.0 - ratio(d(total.demandActs),
                          d(total.reads + total.writes)),
              "ratio");
        m.set("sim.host_ns_per_cmd", ratio(run_mix_s * 1e9, d(total.cmds)),
              "ns");
        m.set("dram.cmds", d(total.cmds), "count");
        m.set("dram.acts", d(total.acts), "count");
        m.set("dram.refs", d(total.refs), "count");
        m.set("mitigation.activations_observed", d(total.activations),
              "count");
        m.set("mitigation.victim_refreshes", d(total.victims), "count");
        m.set("mitigation.hook_s", total.hookSeconds, "s");
        m.set("mitigation.busy_pct",
              100.0 * ratio(total.hookSeconds, total.wall), "%");
    }

  private:
    bool
    sane(const core::SweepPoint &p) const
    {
        if (!p.evaluated)
            return p.normalizedPerformance.count() == 0;
        const double perf = p.normalizedPerformance.mean();
        const double bw = p.bandwidthOverheadPercent.mean();
        return p.normalizedPerformance.count() ==
            config_.mixIndices.size() &&
            std::isfinite(perf) && perf > 0.0 && std::isfinite(bw) &&
            bw >= 0.0;
    }

    /** Point `i` aggregated from the pinned per-cell outcomes, in the
     *  sweep's aggregation order; "missing" if a cell is absent. */
    std::string
    referencePoint(const Units &units, std::size_t i) const
    {
        const std::size_t per_point = config_.mixIndices.size();
        core::SweepPoint point;
        point.kind = cells_[i * per_point].kind;
        point.hcFirst = cells_[i * per_point].hc;
        point.evaluated = true;
        for (std::size_t m = 0; m < per_point; ++m) {
            const std::string *text =
                units.reference(cellKey(cells_[i * per_point + m]));
            std::optional<core::MixOutcome> outcome;
            if (!text || !decodeOutcome(*text, outcome))
                return "missing";
            if (!outcome) {
                point.evaluated = false;
                continue;
            }
            point.normalizedPerformance.add(
                outcome->normalizedPerformance);
            point.bandwidthOverheadPercent.add(
                outcome->bandwidthOverheadPercent);
            point.droppedWritebacks.add(outcome->droppedWritebacks);
        }
        return pointText(point);
    }

    /** runMix()'s simulation of `cell`, re-run through core::System
     *  with the observer and the mitigation wrapper attached. */
    CellTrace
    rerun(const Cell &cell, const CellRun &run_mix) const
    {
        CellTrace t;
        if (run_mix.threw || !run_mix.outcome) {
            t.matchesRunMix = !run_mix.threw &&
                !mitigation::evaluatedAt(cell.kind, cell.hc,
                                         config_.system.timing);
            return t;
        }
        const auto mix = static_cast<std::uint64_t>(cell.mix);
        core::SystemConfig system_config = config_.system;
        system_config.threads = 1;
        core::System system(system_config,
                            mixes_[static_cast<std::size_t>(cell.mix)].apps,
                            config_.seed ^ (mix << 16));
        const int channels = config_.system.organization.channels;
        std::vector<std::unique_ptr<TracedMitigation>> mechanisms;
        std::vector<mitigation::Mitigation *> attached;
        for (int ch = 0; ch < channels; ++ch) {
            mechanisms.push_back(std::make_unique<TracedMitigation>(
                mitigation::makeMitigation(
                    cell.kind, cell.hc, config_.system.timing,
                    config_.system.organization.rows,
                    config_.seed ^ 0x1157ULL ^ mix ^
                        (static_cast<std::uint64_t>(ch) << 40))));
            attached.push_back(mechanisms.back().get());
        }
        system.setMitigations(attached);
        for (int ch = 0; ch < channels; ++ch) {
            system.channelController(ch).device().setObserver(
                [&t](dram::Command cmd, const dram::Address &,
                     dram::Cycle) {
                    ++t.cmds;
                    t.acts += cmd == dram::Command::ACT;
                    t.refs += cmd == dram::Command::REF;
                });
        }

        const double t0 = wallNow();
        const core::SystemResult result = system.run(
            config_.instructionsPerCore, config_.warmupInstructions);
        t.wall = wallNow() - t0;

        for (int ch = 0; ch < channels; ++ch)
            t.dramCycles += system.channelController(ch).now();
        for (const auto &core : result.coreStats)
            t.instructions += core.retired;
        t.llcAccesses = result.llcStats.accesses;
        t.llcHits = result.llcStats.hits;
        t.llcWritebacks = result.llcStats.writebacks;
        t.reads = result.memStats.readsServed;
        t.writes = result.memStats.writesServed;
        t.demandActs = result.memStats.demandActs;
        t.readQueueFull = result.memStats.readQueueFullEvents;
        t.droppedWritebacks = result.memStats.droppedWritebacks;
        for (const auto &mech : mechanisms) {
            t.activations += mech->activations;
            t.victims += mech->victims;
            t.hookSeconds += mech->hookSeconds;
        }
        const core::MixOutcome &expected = *run_mix.outcome;
        t.matchesRunMix =
            hexBits(result.memStats.bandwidthOverheadPercent()) ==
                hexBits(expected.bandwidthOverheadPercent) &&
            hexBits(result.mpki()) == hexBits(expected.mpki) &&
            hexBits(static_cast<double>(
                result.memStats.droppedWritebacks)) ==
                hexBits(expected.droppedWritebacks);
        return t;
    }

    core::ExperimentConfig config_;
    std::vector<workload::Mix> mixes_;
    std::vector<Cell> cells_;
    std::unique_ptr<util::TaskPool> pool_;
    std::unique_ptr<core::ExperimentRunner> runner_;
    std::vector<core::SweepPoint> points_;
    bool threw_ = false;
    /** pointText() of the first repetition (determinism across reps). */
    std::vector<std::string> firstPoints_;
};

} // namespace

std::unique_ptr<Workload>
makeFig10(const Options &options)
{
    return std::make_unique<Fig10>(options);
}

} // namespace perfbench
