#include "oracles/reference_readback.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace memcon::oracles
{

namespace
{

std::uint64_t
rowLimitOrAll(const failure::FailureModel &model, std::uint64_t row_limit)
{
    std::uint64_t limit = row_limit == 0 ? model.numRows() : row_limit;
    fatal_if(limit > model.numRows(), "row limit exceeds module rows");
    return limit;
}

std::size_t
rowWords(const failure::FailureModel &model)
{
    return static_cast<std::size_t>((model.cellsPerRow() + 63) / 64);
}

/** dst[w] = wordAt(row, w) for the first n_words words of the row. */
void
fillFromWords(const failure::ContentProvider &content, std::uint64_t row,
              std::uint64_t *dst, std::size_t n_words)
{
    for (std::size_t w = 0; w < n_words; ++w)
        dst[w] = content.wordAt(row, w);
}

std::uint64_t
popcountSpan(const std::vector<std::uint64_t> &words)
{
    std::uint64_t total = 0;
    for (std::uint64_t w : words)
        total += static_cast<std::uint64_t>(std::popcount(w));
    return total;
}

} // namespace

void
referenceReadback(const failure::FailureModel &model, RowId physical_row,
                  const failure::ContentProvider &content,
                  double interval_ms, std::uint64_t *dst,
                  std::size_t n_words)
{
    std::uint64_t logical_row =
        model.scrambler().logicalRow(physical_row.value());
    fillFromWords(content, logical_row, dst, n_words);
    std::vector<std::uint64_t> expected(dst, dst + n_words);

    for (const failure::CellFailure &f :
         model.evaluatePhysicalRow(physical_row, content, interval_ms)) {
        std::uint64_t addressed = model.remapper().addressedColumn(f.column);
        if (addressed == failure::ColumnRemapper::kUnmapped)
            continue; // no logical address: invisible to the system
        std::uint64_t logical_col = model.scrambler().logicalColumn(addressed);
        if (logical_col / 64 >= n_words)
            continue; // outside the compared span
        // A failing cell reads as its stored bit inverted, however
        // many failure records share the column.
        std::uint64_t bit = std::uint64_t{1} << (logical_col % 64);
        std::uint64_t &word = dst[logical_col / 64];
        word = (word & ~bit) | (~expected[logical_col / 64] & bit);
    }
}

failure::TestResult
referenceTestWithContentBlock(const failure::FailureModel &model,
                              const failure::ContentProvider &content,
                              double interval_ms, std::uint64_t row_limit)
{
    std::uint64_t limit = rowLimitOrAll(model, row_limit);
    const std::size_t n_words = rowWords(model);
    failure::TestResult result;
    result.rowsTested = limit;

    std::vector<std::uint64_t> expected(n_words), readback(n_words);
    for (std::uint64_t r = 0; r < limit; ++r) {
        fillFromWords(content, model.scrambler().logicalRow(r),
                      expected.data(), n_words);
        referenceReadback(model, RowId{r}, content, interval_ms,
                          readback.data(), n_words);
        if (std::equal(expected.begin(), expected.end(), readback.begin()))
            continue;
        ++result.rowsFailing;
        for (std::size_t w = 0; w < n_words; ++w)
            result.failingBits += static_cast<std::uint64_t>(
                std::popcount(expected[w] ^ readback[w]));
    }
    return result;
}

std::vector<failure::DramTester::PatternBitCounts>
referenceBatteryFailingBitCounts(
    const failure::FailureModel &model,
    const std::vector<failure::PatternContent> &battery,
    double interval_ms, std::uint64_t row_limit)
{
    std::uint64_t limit = rowLimitOrAll(model, row_limit);
    const std::size_t n_words = rowWords(model);
    std::vector<failure::DramTester::PatternBitCounts> out(battery.size());

    std::vector<std::uint64_t> expected(n_words), readback(n_words),
        diff(n_words), fresh(n_words);
    // One dense seen-mask per row, accumulated across the battery.
    std::vector<std::uint64_t> seen(limit * n_words, 0);

    for (std::size_t i = 0; i < battery.size(); ++i) {
        const failure::PatternContent &pattern = battery[i];
        for (std::uint64_t r = 0; r < limit; ++r) {
            fillFromWords(pattern, model.scrambler().logicalRow(r),
                          expected.data(), n_words);
            referenceReadback(model, RowId{r}, pattern, interval_ms,
                              readback.data(), n_words);
            for (std::size_t w = 0; w < n_words; ++w)
                diff[w] = expected[w] ^ readback[w];
            std::uint64_t bits = popcountSpan(diff);
            if (bits == 0)
                continue;
            out[i].failingBits += bits;

            // New bits = diff with everything already seen masked
            // off; then fold this pattern's diff into the row mask.
            std::uint64_t *row_seen = seen.data() + r * n_words;
            for (std::size_t w = 0; w < n_words; ++w) {
                fresh[w] = diff[w] & ~row_seen[w];
                row_seen[w] |= diff[w];
            }
            out[i].newFailingBits += popcountSpan(fresh);
        }
    }
    return out;
}

} // namespace memcon::oracles
