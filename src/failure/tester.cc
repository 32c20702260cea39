#include "failure/tester.hh"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/logging.hh"

namespace memcon::failure
{

namespace
{

/**
 * The block readback of one physical row, projected: the sorted,
 * de-duplicated logical bit positions at which the row reads back
 * differently from what was written. The readback is the written row
 * with each visible failing cell inverted, so these bits are all a
 * compare of the two rows could find. Failures with no logical
 * address (unused spare or fused-off column) are invisible to the
 * system; every other column has a logical position inside the row.
 */
void
visibleFailingBits(const FailureModel &model, RowId physical_row,
                   const ContentProvider &content, double interval_ms,
                   std::vector<std::uint64_t> &out)
{
    out.clear();
    for (const CellFailure &f :
         model.evaluatePhysicalRow(physical_row, content, interval_ms)) {
        std::uint64_t addressed = model.remapper().addressedColumn(f.column);
        if (addressed != ColumnRemapper::kUnmapped)
            out.push_back(model.scrambler().logicalColumn(addressed));
    }
    // Two failure records can share a column; the cell still reads
    // back as one inverted bit.
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
}

} // namespace

double
temperatureScaledInterval(double interval_ms, double from_celsius,
                          double to_celsius)
{
    // k fitted to the paper's equivalence 4 s @ 45°C == 328 ms @ 85°C:
    // k = ln(4000 / 328) / 40 per °C.
    static const double k = std::log(4000.0 / 328.0) / 40.0;
    return interval_ms * std::exp(-k * (to_celsius - from_celsius));
}

DramTester::DramTester(const FailureModel &model_ref) : model(model_ref) {}

std::uint64_t
DramTester::rowLimitOrAll(std::uint64_t row_limit) const
{
    std::uint64_t limit = row_limit == 0 ? model.numRows() : row_limit;
    fatal_if(limit > model.numRows(),
             "row limit %llu exceeds module rows %llu",
             static_cast<unsigned long long>(limit),
             static_cast<unsigned long long>(model.numRows()));
    return limit;
}

TestResult
DramTester::testWithContent(const ContentProvider &content,
                            double interval_ms,
                            std::uint64_t row_limit) const
{
    std::uint64_t limit = rowLimitOrAll(row_limit);
    TestResult result;
    result.rowsTested = limit;
    for (std::uint64_t r = 0; r < limit; ++r) {
        auto fails =
            model.evaluatePhysicalRow(RowId{r}, content, interval_ms);
        if (!fails.empty()) {
            ++result.rowsFailing;
            result.failures.insert(result.failures.end(), fails.begin(),
                                   fails.end());
        }
    }
    return result;
}

TestResult
DramTester::testWithContentBlock(const ContentProvider &content,
                                 double interval_ms,
                                 std::uint64_t row_limit) const
{
    std::uint64_t limit = rowLimitOrAll(row_limit);
    TestResult result;
    result.rowsTested = limit;

    std::vector<std::uint64_t> bits;
    for (std::uint64_t r = 0; r < limit; ++r) {
        visibleFailingBits(model, RowId{r}, content, interval_ms, bits);
        if (!bits.empty()) {
            ++result.rowsFailing;
            result.failingBits += bits.size();
        }
    }
    return result;
}

TestResult
DramTester::testWithPatternBattery(
    const std::vector<PatternContent> &battery, double interval_ms,
    std::uint64_t row_limit) const
{
    std::uint64_t limit = rowLimitOrAll(row_limit);
    TestResult result;
    result.rowsTested = limit;

    std::set<std::pair<RowId, std::uint64_t>> seen;
    std::vector<bool> row_failed(limit, false);
    for (const PatternContent &pattern : battery) {
        for (std::uint64_t r = 0; r < limit; ++r) {
            auto fails =
                model.evaluatePhysicalRow(RowId{r}, pattern, interval_ms);
            for (const CellFailure &f : fails) {
                if (seen.insert({f.physicalRow, f.column}).second)
                    result.failures.push_back(f);
                row_failed[r] = true;
            }
        }
    }
    for (bool failed : row_failed)
        if (failed)
            ++result.rowsFailing;
    return result;
}

TestResult
DramTester::exhaustivePhysicalTest(double interval_ms,
                                   std::uint64_t row_limit) const
{
    std::uint64_t limit = rowLimitOrAll(row_limit);
    TestResult result;
    result.rowsTested = limit;
    for (std::uint64_t r = 0; r < limit; ++r) {
        if (model.physicalRowCanFail(RowId{r}, interval_ms))
            ++result.rowsFailing;
    }
    return result;
}

std::vector<std::set<std::pair<RowId, std::uint64_t>>>
DramTester::perPatternFailingCells(
    const std::vector<PatternContent> &battery, double interval_ms,
    std::uint64_t row_limit) const
{
    std::uint64_t limit = rowLimitOrAll(row_limit);
    std::vector<std::set<std::pair<RowId, std::uint64_t>>> out;
    out.reserve(battery.size());
    for (const PatternContent &pattern : battery) {
        std::set<std::pair<RowId, std::uint64_t>> cells;
        for (std::uint64_t r = 0; r < limit; ++r) {
            for (const CellFailure &f :
                 model.evaluatePhysicalRow(RowId{r}, pattern,
                                           interval_ms)) {
                cells.insert({f.physicalRow, f.column});
            }
        }
        out.push_back(std::move(cells));
    }
    return out;
}

std::vector<DramTester::PatternBitCounts>
DramTester::batteryFailingBitCounts(
    const std::vector<PatternContent> &battery, double interval_ms,
    std::uint64_t row_limit) const
{
    std::uint64_t limit = rowLimitOrAll(row_limit);
    std::vector<PatternBitCounts> out(battery.size());

    // Per row, the sorted logical bits any earlier pattern flagged.
    std::vector<std::vector<std::uint64_t>> seen(limit);
    std::vector<std::uint64_t> bits, merged;
    for (std::size_t i = 0; i < battery.size(); ++i) {
        for (std::uint64_t r = 0; r < limit; ++r) {
            visibleFailingBits(model, RowId{r}, battery[i], interval_ms,
                               bits);
            if (bits.empty())
                continue;
            out[i].failingBits += bits.size();

            std::vector<std::uint64_t> &row_seen = seen[r];
            merged.clear();
            std::set_union(row_seen.begin(), row_seen.end(), bits.begin(),
                           bits.end(), std::back_inserter(merged));
            out[i].newFailingBits += merged.size() - row_seen.size();
            row_seen.swap(merged);
        }
    }
    return out;
}

} // namespace memcon::failure
