/**
 * @file
 * Command-level characterization of one DRAM module, exactly as the
 * paper's FPGA methodology does it (Section 4): reverse-engineer the
 * logical-to-physical row remap, then run Algorithm 1 across hammer
 * counts and data patterns through the SoftMC-substitute tester.
 *
 * Build & run:  ./build/examples/characterize_module
 */

#include <iostream>

#include "charlib/runner.hh"
#include "fault/population.hh"
#include "softmc/chip_tester.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace rowhammer;

int
main()
{
    util::setVerbose(false);

    // Use a dense variant of a Mfr B LPDDR4-1x chip so the remap
    // reverse-engineering has flips to find quickly in a demo.
    fault::ChipSpec spec = fault::configFor(fault::TypeNode::LPDDR4_1x,
                                            fault::Manufacturer::B);
    spec.weakDensityAt150k = 3e-3;
    fault::ChipGeometry geometry;
    geometry.banks = 2;
    geometry.rows = 2048;
    geometry.rowDataBits = 16384;
    fault::ChipModel chip(spec, 16800, 99, geometry);
    softmc::ChipTester tester(chip); // 50C, like the paper.

    util::Rng rng(3);

    // Step 1: find the aggressor step. Mfr B LPDDR4-1x chips pair
    // consecutive logical rows onto one wordline, so the step is 2.
    const int step = tester.reverseEngineerAggressorStep(0, 64, rng);
    std::cout << "reverse-engineered aggressor step: " << step
              << (step == 2 ? "  (paired-wordline remap!)" : "")
              << "\n\n";

    // Step 2: Algorithm 1 on the chip's weakest row (HCfirst = 16.8k)
    // across hammer counts.
    const int bank = chip.weakestBank();
    const int victim = chip.weakestRow();
    util::TextTable table;
    table.setHeader({"HC", "flips", "core loop ms", "activations"});
    for (std::int64_t hc : {10000, 30000, 60000, 100000, 150000}) {
        const auto result = tester.runHammerTest(
            bank, victim, hc, spec.worstPattern, rng);
        table.addRow({std::to_string(hc),
                      std::to_string(result.flips.size()),
                      util::fmt(result.coreLoopMs, 2),
                      std::to_string(result.activations)});
    }
    table.render(std::cout);
    std::cout << "(core loop always < 32 ms: flips are RowHammer, not "
                 "retention)\n\n";

    // Step 3: data-pattern dependence at HC = 150k.
    util::TextTable dp_table;
    dp_table.setHeader({"pattern", "flips"});
    for (auto dp : fault::figure4Patterns()) {
        const auto result =
            tester.runHammerTest(bank, victim, 150000, dp, rng);
        dp_table.addRow({toString(dp),
                         std::to_string(result.flips.size())});
    }
    dp_table.render(std::cout);
    std::cout << "(worst-case pattern for this config: "
              << toString(spec.worstPattern) << ")\n\n";

    // Step 4: scale out — fan the same HCfirst search across every chip
    // of a sampled module with the PopulationRunner. Per-chip RNG
    // streams make the results bit-identical for any thread count; the
    // pool width is fixed so the line that prints it is the same on
    // every host.
    const auto chips = fault::sampleConfigChips(
        fault::TypeNode::LPDDR4_1x, fault::Manufacturer::B, 2020, 4);
    charlib::RunnerOptions runner_options;
    runner_options.seed = 7;
    runner_options.threads = 4;
    charlib::PopulationRunner runner(runner_options);
    charlib::HcFirstOptions options;
    options.sampleRows = 8;
    const auto measured = runner.measureHcFirst(chips, options, geometry);

    util::TextTable pop_table;
    pop_table.setHeader({"chip", "true HCfirst", "measured HCfirst"});
    for (std::size_t i = 0; i < chips.size(); ++i) {
        pop_table.addRow(
            {chips[i].moduleId + "/" +
                 std::to_string(chips[i].chipIndex),
             chips[i].rowHammerable ? util::fmt(chips[i].hcFirst, 0)
                                    : "> 150k",
             measured[i] ? std::to_string(*measured[i]) : "no flips"});
    }
    pop_table.render(std::cout);
    std::cout << "(population fan-out across " << runner.threadCount()
              << " threads; deterministic for any thread count)\n";
    return 0;
}
