/**
 * @file
 * Regenerates Figure 10: DRAM bandwidth overhead (a) and normalized
 * system performance (b) of the six RowHammer mitigation mechanisms as
 * chips become more vulnerable (HCfirst from 200k down to 64).
 *
 * Scaling knobs (environment, documented in EXPERIMENTS.md at the
 * repo root):
 *   RH_F10_MIXES    workload mixes, spread over the MPKI range (default 2)
 *   RH_F10_INSTR    instructions per core per run (default 100000)
 *   RH_F10_CORES    cores (default 8 per Table 6)
 *   RH_F10_RANKS    DRAM ranks (default 1 per Table 6)
 *   RH_F10_CHANNELS memory channels / controllers (default 1 per
 *                   Table 6)
 *   RH_F10_MAPPING  address functions: a preset name (linear, bank-xor,
 *                   rank-xor, channel-xor) or a mask-file path
 *                   (default linear)
 *   RH_F10_SPREAD   1 = stride app regions over the whole memory
 *                   system (multi-rank/channel runs; default 0 =
 *                   legacy packing)
 *   RH_THREADS      sweep worker threads (default: one per hardware
 *                   thread; results are identical for any value)
 *   RH_CHECKPOINT   checkpoint directory: completed shards persist
 *                   across crashes/SIGKILL and a rerun resumes instead
 *                   of recomputing (default: unset = no checkpointing;
 *                   output is byte-identical either way)
 *   RH_DEADLINE_MS  watchdog: abort a sweep batch that exceeds this
 *                   many milliseconds, dumping in-flight shard indices
 *                   to stderr (default 0 = no deadline)
 *
 * The config construction and table rendering live in fig10_common.hh,
 * shared with the rhc daemon client: the same knobs through rhc print
 * byte-identical figures.
 */

#include <iostream>

#include "fig10_common.hh"
#include "util/logging.hh"

using namespace rowhammer;

static int
run()
{
    util::setVerbose(false);
    bench::banner("Figure 10: mitigation mechanism scaling with "
                  "RowHammer vulnerability");

    core::ExperimentConfig config = bench::fig10ConfigFromEnv();
    const std::vector<double> hc_firsts = bench::fig10HcFirsts();
    bench::printFig10RunShape(config, std::cout);

    core::ExperimentRunner runner(config);
    bench::renderFigure10(runner.sweep(hc_firsts), std::cout);
    return 0;
}

int
main()
{
    return bench::guardedMain(run);
}
