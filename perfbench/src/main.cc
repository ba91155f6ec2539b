/**
 * @file
 * The benchmark binary (run it through perfbench/run.py, which
 * builds it first):
 *
 *   perfbench --workload fig10|fuzz-ckpt|population --seed N
 *             --seconds S --trace 0|1 --reference-dir DIR
 *             --work-dir DIR [--write-reference FILE]
 *             [--perturb-reference]
 *
 * Untraced (--trace 0): a few set-ups are timed alone, then the
 * workload repeats (fresh set-up, timed phase, output check) until S
 * seconds have passed; the end-to-end metrics are medians over the
 * repetitions. Traced (--trace 1): one untraced repetition, then one
 * instrumented pass printing every per-layer metric (0 for layers the
 * workload does not exercise) and the tracing overhead.
 *
 * The last stdout line is the JSON result: correct, attempted, failed
 * (units; see Units in harness.hh) and metrics.
 */

#include <filesystem>
#include <iostream>
#include <string>
#include <utility>

#include "harness.hh"
#include "util/logging.hh"

using namespace perfbench;

namespace
{

/** Set-ups timed on their own before the repetitions. One set-up takes
 *  tens to hundreds of microseconds, so setup_s is the median of many
 *  even when only one repetition fits the run. */
constexpr int kExtraSetups = 200;

/** Every per-layer metric with its unit, in report order. */
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"core.prepare_s", "s"},
    {"core.cell_s.p50", "s"},
    {"core.cell_s.max", "s"},
    {"core.sim_dram_cycles", "count"},
    {"core.host_ns_per_dram_cycle", "ns"},
    {"core.host_ns_per_instr", "ns"},
    {"cpu.instructions", "count"},
    {"cpu.llc_accesses", "count"},
    {"cpu.llc_hit_rate", "ratio"},
    {"cpu.llc_writebacks", "count"},
    {"sim.reads", "count"},
    {"sim.writes", "count"},
    {"sim.read_queue_full", "count"},
    {"sim.dropped_writebacks", "count"},
    {"sim.row_hit_rate", "ratio"},
    {"sim.host_ns_per_cmd", "ns"},
    {"dram.cmds", "count"},
    {"dram.acts", "count"},
    {"dram.refs", "count"},
    {"mitigation.activations_observed", "count"},
    {"mitigation.victim_refreshes", "count"},
    {"mitigation.hook_s", "s"},
    {"mitigation.busy_pct", "%"},
    {"taskpool.busy_s", "s"},
    {"taskpool.idle_s", "s"},
    {"taskpool.efficiency", "ratio"},
    {"taskpool.tail_s", "s"},
    {"run_store.records", "count"},
    {"run_store.fsyncs", "count"},
    {"run_store.bytes_written", "B"},
    {"run_store.bytes_per_record", "B"},
    {"run_store.write_s", "s"},
    {"run_store.fsync_s", "s"},
    {"run_store.load_s", "s"},
    {"run_store.checkpoint_overhead_s", "s"},
    {"attack.sessions", "count"},
    {"attack.campaign_cold_s", "s"},
    {"attack.campaign_warm_s", "s"},
    {"attack.campaign_nockpt_s", "s"},
    {"charlib.chips", "count"},
    {"charlib.hcfirst_ms.ddr.p50", "ms"},
    {"charlib.hcfirst_ms.ddr.max", "ms"},
    {"charlib.hcfirst_ms.lpddr4.p50", "ms"},
    {"charlib.hcfirst_ms.lpddr4.max", "ms"},
    {"fault.make_model_s", "s"},
    {"ecc.lpddr4_share", "ratio"},
    {"trace.overhead_s", "s"},
    {"env.nproc", "count"},
    {"env.pool_threads", "count"},
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--perturb-reference") {
            o.perturbReference = true;
            continue;
        }
        if (i + 1 >= argc)
            throw rowhammer::util::FatalError("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload")
            o.workload = value;
        else if (flag == "--seed")
            o.seed = std::stoull(value);
        else if (flag == "--seconds")
            o.seconds = std::stod(value);
        else if (flag == "--trace")
            o.trace = value != "0";
        else if (flag == "--reference-dir")
            o.referenceDir = value;
        else if (flag == "--work-dir")
            o.workDir = value;
        else if (flag == "--write-reference")
            o.writeReference = value;
        else
            throw rowhammer::util::FatalError("unknown flag " + flag);
    }
    if (o.referenceDir.empty() || o.workDir.empty())
        throw rowhammer::util::FatalError(
            "--reference-dir and --work-dir are required");
    return o;
}

std::unique_ptr<Workload>
makeWorkload(const Options &o)
{
    if (o.workload == "fig10")
        return makeFig10(o);
    if (o.workload == "fuzz-ckpt")
        return makeFuzzCkpt(o);
    if (o.workload == "population")
        return makePopulation(o);
    throw rowhammer::util::FatalError("unknown workload '" + o.workload +
                                      "'");
}

/** End-to-end metrics: medians over repetitions filling the run. */
void
measureEndToEnd(const Options &o, Workload &w, Units &units, Metrics &m)
{
    std::vector<double> setups;
    for (int i = 0; i < kExtraSetups; ++i) {
        const double t0 = wallNow();
        w.setUp();
        setups.push_back(wallNow() - t0);
        w.tearDown();
    }
    std::vector<double> walls;
    std::vector<double> cpus;
    const double start = wallNow();
    do {
        double t0 = wallNow();
        w.setUp();
        setups.push_back(wallNow() - t0);
        const double cpu0 = cpuNow();
        t0 = wallNow();
        w.run();
        walls.push_back(wallNow() - t0);
        cpus.push_back(cpuNow() - cpu0);
        std::cout << "repetition " << walls.size()
                  << " wall_s=" << walls.back()
                  << " cpu_s=" << cpus.back() << std::endl;
        w.check(units);
        w.tearDown();
    } while (wallNow() - start < o.seconds);

    m.set("wall_s", median(walls), "s");
    m.set("cpu_s", median(cpus), "s");
    m.set("setup_s", median(setups), "s");
    m.set("peak_rss_mb", peakRssMb(), "MB");
}

/** Per-layer metrics plus the tracing overhead. */
void
measureLayers(Workload &w, Units &units, Metrics &m)
{
    for (const auto &[name, unit] : kPerLayer)
        m.set(name, 0.0, unit);

    w.setUp();
    double t0 = wallNow();
    w.run();
    const double untraced = wallNow() - t0;
    w.check(units);
    w.tearDown();

    w.setUp();
    t0 = wallNow();
    w.trace(m, units);
    const double traced = wallNow() - t0;
    w.tearDown();

    m.set("trace.overhead_s", traced - untraced, "s");
    m.set("env.nproc", onlineCpus(), "count");
    m.set("env.pool_threads", poolWorkers() + 1, "count");
    std::cout << "untraced_wall_s=" << untraced
              << " traced_wall_s=" << traced << "\n";
    if (m.names().size() != kPerLayer.size())
        throw rowhammer::util::FatalError(
            "workload set a metric outside the per-layer list");
}

int
run(int argc, char **argv)
{
    rowhammer::util::setVerbose(false);
    const Options o = parseArgs(argc, argv);
    std::filesystem::create_directories(o.workDir);
    std::unique_ptr<Workload> w = makeWorkload(o);
    Units units(o);
    Metrics m;
    if (o.trace)
        measureLayers(*w, units, m);
    else
        measureEndToEnd(o, *w, units, m);
    if (!o.writeReference.empty())
        units.writeReference(o.writeReference);

    const double error_rate = units.attempted()
        ? static_cast<double>(units.failed()) /
            static_cast<double>(units.attempted())
        : 0.0;
    std::cout << "workload=" << o.workload << " seed=" << o.seed
              << " nproc=" << onlineCpus()
              << " pool_threads=" << poolWorkers() + 1
              << " reference=" << (units.pinned() ? "pinned" : "none")
              << " error_rate=" << error_rate << " (" << units.failed()
              << "/" << units.attempted() << " units failed)\n";
    std::cout << "{\"correct\": "
              << (units.failed() == 0 && units.attempted() > 0 ? "true"
                                                               : "false")
              << ", \"attempted\": " << units.attempted()
              << ", \"failed\": " << units.failed()
              << ", \"metrics\": " << m.json() << "}" << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &err) {
        std::cerr << "perfbench: " << err.what() << "\n";
        return 1;
    }
}
