/**
 * @file
 * Closed-loop fuzzing campaign: the Blacksmith/TRRespass-style search
 * loop over the attack-pattern space. Each generation samples a
 * population of frequency/phase/amplitude patterns, scores them
 * against a population of simulated TRR-protected chips, and mutates
 * the winners; the campaign log ends with the headline comparison of
 * the best evolved pattern against the best hand-built N-sided one.
 *
 * Expected shape: hand-built N-sided patterns leak a few flips past a
 * TRR sampler once N exceeds the sampler size, but split their budget
 * evenly across all N aggressors; the evolved patterns keep enough
 * front-loaded decoys to stay unsampled while concentrating the budget
 * on the core pair, and end up beating the best hand-built pattern on
 * flips per tREFI ("headline: ... beats hand-built ...").
 *
 * Scaling knobs (environment, documented in EXPERIMENTS.md):
 *   RH_FZ_GENERATIONS  search generations (default 6)
 *   RH_FZ_POPULATION   patterns per generation (default 16)
 *   RH_FZ_SURVIVORS    winners carried + mutated (default 4)
 *   RH_FZ_CHIPS        chips each pattern is scored on (default 2)
 *   RH_FZ_SAMPLER      TRR sampler capacity attacked (default 4)
 *   RH_FZ_HC           chip HCfirst (default 2000)
 *   RH_FZ_BUDGET       activations per pattern (default 20 * HC * 12)
 *   RH_FZ_SEED         campaign seed (default 2024)
 *   RH_FZ_MAPPING      controller address functions (default linear)
 *   RH_FZ_ATTACKER     attacker's believed mapping (default: the true
 *                      one; see RH_AS_ATTACKER)
 *   RH_THREADS         worker threads (log identical for any value)
 *   RH_CHECKPOINT      checkpoint directory: completed sessions
 *                      persist across crashes/SIGKILL and a rerun
 *                      resumes the search instead of recomputing
 *   RH_DEADLINE_MS     watchdog per scoring batch (default 0 = off)
 */

#include <iostream>

#include "attack/fuzzer.hh"
#include "bench_common.hh"
#include "util/logging.hh"

using namespace rowhammer;

static int
run()
{
    util::setVerbose(false);
    bench::banner("Closed-loop fuzzing campaign "
                  "(evolved patterns vs. a TRR sampler)");

    attack::FuzzerConfig config;
    config.generations =
        static_cast<int>(bench::envLong("RH_FZ_GENERATIONS", 6));
    config.population =
        static_cast<int>(bench::envLong("RH_FZ_POPULATION", 16));
    config.survivors =
        static_cast<int>(bench::envLong("RH_FZ_SURVIVORS", 4));
    config.chips = static_cast<int>(bench::envLong("RH_FZ_CHIPS", 2));
    config.samplerSize =
        static_cast<int>(bench::envLong("RH_FZ_SAMPLER", 4));
    config.hcFirst =
        static_cast<double>(bench::envLong("RH_FZ_HC", 2000));
    config.activationBudget = bench::envLong("RH_FZ_BUDGET", 0);
    config.seed =
        static_cast<std::uint64_t>(bench::envLong("RH_FZ_SEED", 2024));
    config.mapping = bench::envString("RH_FZ_MAPPING", "linear");
    config.attackerMapping = bench::envString("RH_FZ_ATTACKER", "");
    bench::applyExecutionEnv(config);

    std::cout << "chip HCfirst=" << config.hcFirst << " sampler=TRR-"
              << config.samplerSize << " budget=" << config.budget()
              << " generations=" << config.generations
              << " population=" << config.population
              << " survivors=" << config.survivors
              << " chips=" << config.chips << "\n\n";

    const attack::Fuzzer fuzzer(config);
    const attack::CampaignResult result = fuzzer.run();
    std::cout << attack::renderCampaign(result);
    return 0;
}

int
main()
{
    return bench::guardedMain(run);
}
