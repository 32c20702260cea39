#include "oracles/row_fractions.hh"

#include "common/logging.hh"

namespace memcon::oracles
{

namespace
{

template <typename Fails>
double
rowFraction(std::uint64_t rows, std::uint64_t row_limit, Fails fails)
{
    const std::uint64_t limit = row_limit == 0 ? rows : row_limit;
    panic_if(limit > rows, "row limit exceeds module size");
    std::uint64_t failing = 0;
    for (std::uint64_t r = 0; r < limit; ++r)
        failing += fails(RowId{r});
    return static_cast<double>(failing) / static_cast<double>(limit);
}

} // namespace

double
failingRowFraction(const failure::FailureModel &model,
                   const failure::ContentProvider &content,
                   double interval_ms, std::uint64_t row_limit)
{
    return rowFraction(model.numRows(), row_limit, [&](RowId row) {
        return model.physicalRowFails(row, content, interval_ms);
    });
}

double
worstCaseRowFraction(const failure::FailureModel &model,
                     double interval_ms, std::uint64_t row_limit)
{
    return rowFraction(model.numRows(), row_limit, [&](RowId row) {
        return model.physicalRowCanFail(row, interval_ms);
    });
}

double
failingRowFraction(const failure::VrtPopulation &pop, double interval_ms,
                   TimeMs time_ms, std::uint64_t row_limit)
{
    return rowFraction(pop.numRows(), row_limit, [&](RowId row) {
        return pop.rowFailsAt(row, interval_ms, time_ms);
    });
}

} // namespace memcon::oracles
