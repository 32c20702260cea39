/**
 * @file
 * A software stand-in for the paper's SoftMC FPGA testing
 * infrastructure (Section 5).
 *
 * The tester performs the same three-step experiment as the paper:
 * (i) install content into the module, (ii) keep it idle for the
 * target refresh interval so cells reach their lowest charge, and
 * (iii) read back and compare. Because the content is installed
 * through the system (logical) address space and the failure model
 * translates through the chip's private scrambler and remapper, a
 * "neighbouring-address" pattern written here exercises exactly the
 * mismatch Section 2 describes.
 *
 * Temperature handling follows the paper's methodology: tests at a
 * low temperature use a longer interval that is retention-equivalent
 * to the target interval at 85°C (their 4 s at 45°C ~ 328 ms at 85°C).
 */

#ifndef MEMCON_FAILURE_TESTER_HH
#define MEMCON_FAILURE_TESTER_HH

#include <cstdint>
#include <set>
#include <vector>

#include "failure/content.hh"
#include "failure/model.hh"

namespace memcon::failure
{

/**
 * Retention-equivalent interval scaling across temperature.
 * Retention shrinks exponentially with temperature; the default
 * coefficient is fitted to the paper's 4 s @ 45°C == 328 ms @ 85°C.
 *
 * @return the interval at to_celsius equivalent to interval_ms at
 *         from_celsius
 */
double temperatureScaledInterval(double interval_ms, double from_celsius,
                                 double to_celsius);

/** Outcome of one module test pass. */
struct TestResult
{
    std::uint64_t rowsTested = 0;
    std::uint64_t rowsFailing = 0;

    /**
     * Total logically visible failing bits: the distinct cells with a
     * logical address that fail, i.e. the bits a compare of the
     * written and read-back rows would flag. Populated by the block
     * test path; the sparse per-cell paths leave it zero.
     */
    std::uint64_t failingBits = 0;

    std::vector<CellFailure> failures;

    double failingRowFraction() const
    {
        return rowsTested == 0
                   ? 0.0
                   : static_cast<double>(rowsFailing) /
                         static_cast<double>(rowsTested);
    }
};

class DramTester
{
  public:
    explicit DramTester(const FailureModel &model);

    /**
     * Write the content, idle for interval_ms, read back, compare
     * (the SoftMC experiment). Tests physical rows [0, row_limit).
     */
    TestResult testWithContent(const ContentProvider &content,
                               double interval_ms,
                               std::uint64_t row_limit = 0) const;

    /**
     * The controller's view of testWithContent (DESIGN.md §19): what
     * a compare of the written and read-back rows would report. The
     * readback is the written row with each visible failing cell
     * inverted, so this derives the verdict from those cells
     * directly and never fills or compares a row. Reports
     * rowsFailing and failingBits but leaves the failures vector
     * empty - per-cell attribution needs the sparse path.
     *
     * Verdict caveat: this path sees what the memory controller
     * sees, so failures at unused spare / fused-off columns (no
     * logical address) are invisible here while testWithContent
     * reports them. On a model with redundantColumns == 0 the two
     * paths' rowsFailing match exactly (pinned by the property
     * suite).
     */
    TestResult testWithContentBlock(const ContentProvider &content,
                                    double interval_ms,
                                    std::uint64_t row_limit = 0) const;

    /**
     * Run a battery of patterns and return the union of failures -
     * what a vendor-style exhaustive pattern campaign finds *through
     * the system address space*. With scrambling enabled this misses
     * failures that manufacturer-level (physical) testing finds.
     */
    TestResult testWithPatternBattery(const std::vector<PatternContent> &battery,
                                      double interval_ms,
                                      std::uint64_t row_limit = 0) const;

    /**
     * Manufacturer-level exhaustive result: every cell that *any*
     * content could fail, derived with physical-layout knowledge.
     * This is the "ALL FAIL" reference of Figure 4.
     */
    TestResult exhaustivePhysicalTest(double interval_ms,
                                      std::uint64_t row_limit = 0) const;

    /**
     * Distinct cells failing per pattern, for the Figure 3 sweep:
     * element i is the set of (row, column) cells that fail under
     * battery[i].
     */
    std::vector<std::set<std::pair<RowId, std::uint64_t>>>
    perPatternFailingCells(const std::vector<PatternContent> &battery,
                           double interval_ms,
                           std::uint64_t row_limit = 0) const;

    /** Per-pattern failing-bit totals from the block battery sweep. */
    struct PatternBitCounts
    {
        /** Logically visible bits differing under this pattern. */
        std::uint64_t failingBits = 0;
        /** Of those, bits no earlier battery pattern had flagged. */
        std::uint64_t newFailingBits = 0;
    };

    /**
     * Block battery sweep for the Figure 3 pattern-coverage curves:
     * per pattern, the visible failing-bit count and how many of
     * those bits are new versus all preceding patterns. Each row's
     * "seen" state is the sorted set of logical bits earlier
     * patterns flagged, so memory grows with the failures found,
     * not with the module.
     */
    std::vector<PatternBitCounts>
    batteryFailingBitCounts(const std::vector<PatternContent> &battery,
                            double interval_ms,
                            std::uint64_t row_limit = 0) const;

  private:
    std::uint64_t rowLimitOrAll(std::uint64_t row_limit) const;

    const FailureModel &model;
};

} // namespace memcon::failure

#endif // MEMCON_FAILURE_TESTER_HH
