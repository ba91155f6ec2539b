/**
 * @file
 * Shared helpers for the bench binaries that regenerate the paper's
 * tables and figures: configuration iteration, representative chip
 * selection, and environment-variable scaling knobs.
 */

#ifndef ROWHAMMER_BENCH_COMMON_HH
#define ROWHAMMER_BENCH_COMMON_HH

#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "fault/population.hh"
#include "util/env.hh"
#include "util/execution.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace rowhammer::bench
{

/**
 * Integer knob from the environment with a default. Strict: a
 * malformed value (RH_THREADS=four) fatal()s at startup instead of
 * silently parsing as 0 and changing the run shape.
 */
inline long
envLong(const char *name, long fallback)
{
    return util::envLong(name, fallback);
}

/** String knob from the environment with a default. */
inline std::string
envString(const char *name, const std::string &fallback)
{
    return util::envString(name, fallback);
}

/**
 * The execution-only knobs of a checkpointed bench: RH_THREADS (pool
 * width), RH_CHECKPOINT (resume directory) and RH_DEADLINE_MS (batch
 * watchdog). None of them changes what the bench prints.
 */
inline void
applyExecutionEnv(util::Execution &exec)
{
    exec.threads = static_cast<int>(envLong("RH_THREADS", 0));
    exec.checkpointPath = envString("RH_CHECKPOINT", "");
    exec.batchDeadlineMs = envLong("RH_DEADLINE_MS", 0);
}

/**
 * Top-level harness every bench main() delegates to: runs the bench
 * body and turns util::FatalError (bad knobs, invalid configs, a fired
 * TaskPool watchdog) into a clean stderr message and a non-zero exit
 * instead of std::terminate's abort-with-core.
 */
inline int
guardedMain(int (*run)())
{
    try {
        return run();
    } catch (const util::FatalError &err) {
        std::cerr << err.what() << "\n";
        return 1;
    } catch (const std::exception &err) {
        std::cerr << "unhandled exception: " << err.what() << "\n";
        return 1;
    }
}

/** All (type-node, manufacturer) combinations the paper has chips for. */
inline std::vector<std::pair<fault::TypeNode, fault::Manufacturer>>
allCombinations()
{
    std::vector<std::pair<fault::TypeNode, fault::Manufacturer>> out;
    for (int t = 0; t < fault::numTypeNodes; ++t) {
        for (auto mfr : {fault::Manufacturer::A, fault::Manufacturer::B,
                         fault::Manufacturer::C}) {
            const auto tn = static_cast<fault::TypeNode>(t);
            if (fault::combinationExists(tn, mfr))
                out.emplace_back(tn, mfr);
        }
    }
    return out;
}

/** Print a bench header in a uniform style. */
inline void
banner(const std::string &title)
{
    std::cout << "\n=== " << title << " ===\n\n";
}

} // namespace rowhammer::bench

#endif // ROWHAMMER_BENCH_COMMON_HH
