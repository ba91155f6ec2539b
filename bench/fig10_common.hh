/**
 * @file
 * The Figure 10 experiment, factored out of fig10_mitigations so the
 * standalone bench and the rhc daemon client build the SAME
 * ExperimentConfig from the SAME environment knobs and render results
 * through the SAME table code. That sharing is what makes the
 * acceptance check meaningful: an rhc query and a standalone run with
 * identical knobs must print byte-identical figures, whether the
 * daemon served the result cold or from its memo store.
 */

#ifndef ROWHAMMER_BENCH_FIG10_COMMON_HH
#define ROWHAMMER_BENCH_FIG10_COMMON_HH

#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/experiment.hh"
#include "dram/address_functions.hh"

namespace rowhammer::bench
{

/** Build the Figure 10 run description from the RH_F10_* environment
 *  knobs (defaults per Table 6; see EXPERIMENTS.md). */
inline core::ExperimentConfig
fig10ConfigFromEnv()
{
    core::ExperimentConfig config;
    config.system.cores =
        static_cast<int>(envLong("RH_F10_CORES", 8));
    config.instructionsPerCore = envLong("RH_F10_INSTR", 100000);
    config.warmupInstructions = config.instructionsPerCore / 8;
    config.mixCount = static_cast<int>(envLong("RH_F10_MIXES", 2));
    config.threads = static_cast<int>(envLong("RH_THREADS", 0));
    config.checkpointPath = envString("RH_CHECKPOINT", "");
    config.batchDeadlineMs = envLong("RH_DEADLINE_MS", 0);

    // Scaled model (see EXPERIMENTS.md): the paper simulates 200M
    // instructions per core against a 2 GB channel, so hot rows
    // accumulate hundreds of activations per refresh window. To keep
    // bench runtime sane we shrink the run AND the memory system
    // together (DRAM rows, LLC, per-app footprints), preserving the
    // per-row activation intensity that drives counter-based
    // mechanisms (TWiCe, Ideal).
    config.system.organization.rows =
        static_cast<int>(envLong("RH_F10_ROWS", 512));
    config.system.llcBytes = envLong("RH_F10_LLC_MB", 1) * 1024 * 1024;
    config.coldBytesPerApp =
        envLong("RH_F10_COLD_MB", 2) * 1024 * 1024;

    // Address-translation axis: rank/channel counts, mapping
    // preset/mask file, and optional app-region spreading across the
    // full memory system.
    config.system.organization.ranks =
        static_cast<int>(envLong("RH_F10_RANKS", 1));
    config.system.organization.channels =
        static_cast<int>(envLong("RH_F10_CHANNELS", 1));
    const std::string mapping = envString("RH_F10_MAPPING", "linear");
    config.system.addressFunctions = dram::AddressFunctions::resolve(
        mapping, config.system.organization);
    if (envLong("RH_F10_SPREAD", 0) != 0) {
        config.appRegionStride =
            config.system.organization.systemBytes() /
            config.system.cores;
    }

    // Spread the selected mixes across the catalogue's MPKI range.
    for (int i = 0; i < config.mixCount; ++i) {
        config.mixIndices.push_back(
            config.mixCount == 1 ? 24
                                 : i * 47 / (config.mixCount - 1));
    }
    return config;
}

/** The HCfirst sweep of Figure 10: the paper's characterized minima
 *  (vertical lines) plus the projected future values. */
inline std::vector<double>
fig10HcFirsts()
{
    return {200000, 69200, 32000, 17500, 10000, 4800,
            2000,   1024,  512,   256,   128,   64};
}

/** The run-shape line printed before the tables. */
inline void
printFig10RunShape(const core::ExperimentConfig &config,
                   std::ostream &os)
{
    os << "mixes=" << config.mixCount
       << " instructions/core=" << config.instructionsPerCore
       << " cores=" << config.system.cores
       << " ranks=" << config.system.organization.ranks
       << " channels=" << config.system.organization.channels
       << " mapping=" << config.system.addressFunctions.name
       << "\n\n";
}

/** Render both Figure 10 panels plus the shape-check footer. */
inline void
renderFigure10(const std::vector<core::SweepPoint> &points,
               std::ostream &os)
{
    util::TextTable bw;
    bw.setHeader({"mechanism", "HCfirst", "bandwidth ovh %",
                  "min..max %", "dropped wb"});
    util::TextTable perf;
    perf.setHeader({"mechanism", "HCfirst", "norm perf %",
                    "min..max %"});

    for (const auto &p : points) {
        const std::string hc_label = util::fmtKilo(p.hcFirst);
        if (!p.evaluated) {
            bw.addRow({toString(p.kind), hc_label, "not scalable", "-",
                       "-"});
            perf.addRow({toString(p.kind), hc_label, "not scalable",
                         "-"});
            continue;
        }
        if (p.normalizedPerformance.count() == 0)
            continue;
        bw.addRow({toString(p.kind), hc_label,
                   util::fmt(p.bandwidthOverheadPercent.mean(), 3),
                   util::fmt(p.bandwidthOverheadPercent.min(), 3) +
                       ".." +
                       util::fmt(p.bandwidthOverheadPercent.max(), 3),
                   util::fmt(p.droppedWritebacks.mean(), 1)});
        perf.addRow(
            {toString(p.kind), hc_label,
             util::fmt(p.normalizedPerformance.mean() * 100.0, 2),
             util::fmt(p.normalizedPerformance.min() * 100.0, 2) +
                 ".." +
                 util::fmt(p.normalizedPerformance.max() * 100.0, 2)});
    }

    os << "--- (a) DRAM bandwidth overhead of mitigation ---\n";
    bw.render(os);
    os << "\n--- (b) normalized system performance ---\n";
    perf.render(os);

    os << "\nShape check (paper Section 6.2.2): IncRefresh and TWiCe "
          "stop\nscaling below ~32k; ProHIT/MRLoc exist only at 2k "
          "with ~95-100%\nperformance; PARA scales everywhere but "
          "craters at low HCfirst;\nTWiCe-ideal beats PARA; the Ideal "
          "oracle stays fastest but is no\nlonger free at HCfirst <= "
          "256 (Observation: still significant\nopportunity for "
          "refresh-based mechanisms).\n";
}

} // namespace rowhammer::bench

#endif // ROWHAMMER_BENCH_FIG10_COMMON_HH
