/**
 * @file
 * Attack-pattern x mitigation grid: the modern-attack complement to
 * Figure 10. Generated single-sided, double-sided, N-sided, and
 * frequency-fuzzed patterns run against the in-DRAM TRR sampler model
 * (several sampler sizes) and the paper's Section 6 mechanisms on a
 * TRR-era chip, reporting observed bit flips per cell.
 *
 * Expected shape: double-sided is fully mitigated by any TRR sampler
 * with >= 2 slots, an N-sided pattern with N above the sampler size
 * bypasses it (nonzero flips), and the Ideal oracle stops everything.
 *
 * Scaling knobs (environment, documented in EXPERIMENTS.md):
 *   RH_AS_HC       chip HCfirst (default 2000)
 *   RH_AS_FUZZ     fuzzed patterns generated (default 3)
 *   RH_AS_BUDGET   activations per pattern (default 8 * HC * 20)
 *   RH_AS_SEED     chip/pattern seed (default 2020)
 *   RH_AS_BANKS    chip banks (default 1; use 16 with mappings)
 *   RH_AS_MAPPING  controller address functions: preset name or mask
 *                  file (default linear)
 *   RH_AS_ATTACKER attacker's believed mapping (default: the true one,
 *                  i.e. a zenhammer-style attacker; set to linear with
 *                  a non-linear RH_AS_MAPPING for a naive attacker)
 *   RH_AS_RANKS    ranks the mapping splits the banks across (default 1)
 *   RH_AS_CHANNELS channels the mapping splits the banks across
 *                  (default 1; pair with RH_AS_MAPPING=channel-xor)
 *   RH_THREADS     worker threads (results identical for any value)
 *   RH_CHECKPOINT  checkpoint directory: completed cells persist
 *                  across crashes/SIGKILL and a rerun resumes instead
 *                  of recomputing (default: unset; output is
 *                  byte-identical either way)
 *   RH_DEADLINE_MS watchdog: abort the cell batch if it exceeds this
 *                  many milliseconds (default 0 = no deadline)
 */

#include <algorithm>
#include <iostream>
#include <map>

#include "attack/sweep.hh"
#include "bench_common.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace rowhammer;

static int
run()
{
    util::setVerbose(false);
    bench::banner("Attack patterns vs. mitigation mechanisms "
                  "(N-sided / fuzzed hammering against TRR samplers)");

    attack::SweepConfig config;
    config.hcFirst =
        static_cast<double>(bench::envLong("RH_AS_HC", 2000));
    config.fuzzCount = static_cast<int>(bench::envLong("RH_AS_FUZZ", 3));
    config.activationBudget = bench::envLong("RH_AS_BUDGET", 0);
    config.seed =
        static_cast<std::uint64_t>(bench::envLong("RH_AS_SEED", 2020));
    bench::applyExecutionEnv(config);
    config.geometry.banks =
        static_cast<int>(bench::envLong("RH_AS_BANKS", 1));
    config.mapping = bench::envString("RH_AS_MAPPING", "linear");
    config.attackerMapping = bench::envString("RH_AS_ATTACKER", "");
    config.mappingRanks =
        static_cast<int>(bench::envLong("RH_AS_RANKS", 1));
    config.mappingChannels =
        static_cast<int>(bench::envLong("RH_AS_CHANNELS", 1));

    std::string sizes;
    for (int size : config.samplerSizes)
        sizes += (sizes.empty() ? "" : ",") + std::to_string(size);
    std::cout << "chip HCfirst=" << config.hcFirst
              << " sampler sizes={" << sizes << "}"
              << " budget=" << config.budget()
              << " acts/tREFI=" << config.actsPerRefInterval
              << " mapping=" << config.mapping
              << " attacker="
              << (config.attackerMapping.empty()
                      ? "mapping-aware"
                      : config.attackerMapping)
              << "\n\n";

    const auto cells = attack::runSweep(config);

    // Pivot: one row per pattern, one column per mechanism.
    std::vector<std::string> mech_order;
    std::vector<std::string> pattern_order;
    std::map<std::pair<std::string, std::string>, std::int64_t> flips;
    for (const auto &cell : cells) {
        if (std::find(mech_order.begin(), mech_order.end(),
                      cell.mechanism) == mech_order.end())
            mech_order.push_back(cell.mechanism);
        if (std::find(pattern_order.begin(), pattern_order.end(),
                      cell.pattern) == pattern_order.end())
            pattern_order.push_back(cell.pattern);
        flips[{cell.pattern, cell.mechanism}] = cell.flips;
    }

    util::TextTable table;
    std::vector<std::string> header{"pattern \\ flips"};
    header.insert(header.end(), mech_order.begin(), mech_order.end());
    table.setHeader(header);
    for (const auto &pattern : pattern_order) {
        std::vector<std::string> row{pattern};
        for (const auto &mech : mech_order)
            row.push_back(std::to_string(flips[{pattern, mech}]));
        table.addRow(row);
    }
    table.render(std::cout);

    std::cout
        << "\nShape check: TRR-S stops single/double-sided and every "
           "N-sided\npattern with N <= S, but N > S saturates the "
           "sampler (the decoys\nclaim every slot) and the true pair "
           "hammers the profiled victim\nfreely - nonzero flips. PARA "
           "and the Ideal oracle are pattern-\nagnostic and stop every "
           "generated pattern; ProHIT/MRLoc (tuned\nfor double-sided "
           "locality at HCfirst=2000) degrade under high-\norder "
           "patterns.\n";
    return 0;
}

int
main()
{
    return bench::guardedMain(run);
}
