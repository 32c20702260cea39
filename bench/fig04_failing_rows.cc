/**
 * @file
 * Regenerates Figure 4: the percentage of rows that exhibit
 * data-dependent failures with each SPEC CPU2006 benchmark's memory
 * content, versus the exhaustive any-content profile ("ALL FAIL").
 *
 * Methodology mirrors Section 5: per benchmark, content snapshots
 * are taken every 100M instructions (content epochs), the module is
 * filled with the program's data, held idle for the 328 ms-equivalent
 * interval, and read back. We report the mean over 5 epochs (0.5B
 * instructions) with min/max, as the paper's error bars do.
 */

#include <algorithm>

#include "bench_util.hh"
#include "common/table.hh"
#include "failure/content.hh"
#include "failure/model.hh"
#include "failure/tester.hh"

using namespace memcon;
using namespace memcon::failure;

int
main()
{
    bench::banner("Figure 4",
                  "% of rows failing: program content vs ALL FAIL");
    note("Paper: 0.38%-5.6% with program content vs 13.5% ALL FAIL "
         "(2.4x-35.2x fewer).");

    FailureModelParams params;
    params.nominalIntervalMs = 328.0;
    params.seed = 2017;
    const std::uint64_t rows = 1 << 15;
    FailureModel model(params, rows, 1 << 16);
    DramTester tester(model);

    TextTable table;
    table.header({"benchmark", "failing-rows", "min", "max",
                  "visible-bits/epoch"});

    double lowest = 1.0, highest = 0.0;
    for (const auto &persona : ContentPersona::specSuite()) {
        double sum = 0.0, mn = 1.0, mx = 0.0;
        std::uint64_t bits = 0;
        const unsigned epochs = 5; // 0.5 B instructions
        for (unsigned e = 0; e < epochs; ++e) {
            ProgramContent content(persona, e);
            double frac =
                tester.testWithContent(content, 328.0).failingRowFraction();
            sum += frac;
            mn = std::min(mn, frac);
            mx = std::max(mx, frac);
            // The block pass prices severity, not just row verdicts:
            // how many visible bits the controller would actually
            // see flip under this content (DESIGN.md §19).
            bits += tester.testWithContentBlock(content, 328.0)
                        .failingBits;
        }
        double mean = sum / epochs;
        lowest = std::min(lowest, mean);
        highest = std::max(highest, mean);
        table.row({persona.name, TextTable::pct(mean, 2),
                   TextTable::pct(mn, 2), TextTable::pct(mx, 2),
                   TextTable::num(
                       static_cast<double>(bits) / epochs, 1)});
    }

    double all_fail =
        tester.exhaustivePhysicalTest(328.0).failingRowFraction();
    table.row({"ALL FAIL", TextTable::pct(all_fail, 2), "", ""});
    std::printf("%s", table.render().c_str());

    std::printf("\n");
    note(strprintf("content range: %.2f%% - %.2f%%  (paper: 0.38%% - "
                   "5.6%%)",
                   lowest * 100.0, highest * 100.0));
    note(strprintf("ALL FAIL: %.2f%%  (paper: 13.5%%)", all_fail * 100.0));
    note(strprintf("ratio: %.1fx - %.1fx fewer failures with program "
                   "content (paper: 2.4x - 35.2x)",
                   all_fail / highest, all_fail / lowest));
    return 0;
}
