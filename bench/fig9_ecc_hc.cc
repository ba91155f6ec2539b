/**
 * @file
 * Regenerates Figure 9: the hammer count needed to find the first
 * 64-bit word containing one, two, and three RowHammer bit flips, plus
 * the hammer-count multipliers between them. The multipliers quantify
 * how much a single- or double-error-correcting 64-bit ECC would
 * improve a chip's apparent HCfirst (Observations 12-13). LPDDR4 chips
 * are excluded, as in the paper, because their on-die ECC obfuscates
 * the analysis.
 *
 * Configurations fan across a util::TaskPool (RH_THREADS workers; every
 * configuration derives its own RNG stream, so the table is identical
 * for any thread count). RH_F9_ROWS scales rows probed per chip.
 */

#include <iostream>

#include "bench_common.hh"
#include "charlib/hcfirst.hh"
#include "util/logging.hh"
#include "util/taskpool.hh"

using namespace rowhammer;

static int
run()
{
    util::setVerbose(false);
    bench::banner("Figure 9: HC to first 64-bit word with 1/2/3 flips "
                  "and ECC multipliers");

    const long rows = bench::envLong("RH_F9_ROWS", 64);

    util::TextTable table;
    table.setHeader({"config", "HC(1)", "HC(2)", "HC(3)", "x(1->2)",
                     "x(2->3)"});

    std::vector<std::pair<fault::TypeNode, fault::Manufacturer>> combos;
    for (const auto &combo : bench::allCombinations()) {
        if (standardOf(combo.first) == dram::Standard::LPDDR4)
            continue; // On-die ECC: excluded by the paper.
        combos.push_back(combo);
    }

    util::TaskPool pool(
        static_cast<int>(bench::envLong("RH_THREADS", 0)));
    const auto rows_out = pool.map(
        combos.size(),
        [&](std::size_t c) -> std::vector<std::string> {
            const auto [tn, mfr] = combos[c];
            const auto chips = fault::sampleConfigChips(tn, mfr, 2020, 1);
            util::Rng rng(37);
            for (const auto &chip : chips) {
                if (!chip.rowHammerable)
                    continue;
                fault::ChipModel model = chip.makeModel();
                std::array<std::optional<std::int64_t>, 3> hc;
                for (int k = 1; k <= 3; ++k) {
                    charlib::HcFirstOptions options;
                    options.sampleRows = static_cast<int>(rows);
                    options.flipsPerWord = k;
                    // The paper's Figure 9 y-axis extends to 200k
                    // hammers (still within the 32 ms refresh-window
                    // bound).
                    options.hcMax = 200000;
                    hc[static_cast<std::size_t>(k - 1)] =
                        charlib::findHcFirst(model, options, rng);
                }
                if (!hc[0])
                    continue;
                std::vector<std::string> row{toString(tn) + " " +
                                             toString(mfr)};
                for (const auto &h : hc) {
                    row.push_back(h ? util::fmtKilo(
                                          static_cast<double>(*h))
                                    : ">200k");
                }
                row.push_back(
                    hc[1] ? util::fmt(static_cast<double>(*hc[1]) /
                                          static_cast<double>(*hc[0]),
                                      2)
                          : "-");
                row.push_back(hc[1] && hc[2]
                                  ? util::fmt(
                                        static_cast<double>(*hc[2]) /
                                            static_cast<double>(*hc[1]),
                                        2)
                                  : "-");
                return row;
            }
            return {toString(tn) + " " + toString(mfr),
                    "not enough bit flips", "-", "-", "-", "-"};
        });

    for (auto row : rows_out)
        table.addRow(std::move(row));
    table.render(std::cout);
    std::cout << "\nShape check: SEC ECC (x 1->2) buys up to ~2.8x for "
                 "DDR4 chips\nand ~1.65x for DDR3-new; the 2->3 "
                 "multiplier diminishes for DDR4\n(Observations "
                 "12-13).\n";
    return 0;
}

int
main()
{
    return bench::guardedMain(run);
}
