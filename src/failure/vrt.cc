#include "failure/vrt.hh"

#include "common/logging.hh"
#include "common/random.hh"

namespace memcon::failure
{

VrtPopulation::VrtPopulation(const VrtParams &params,
                             std::uint64_t num_rows)
    : vrtParams(params), rows(num_rows)
{
    fatal_if(params.vrtCellsPerRow < 0.0,
             "VRT cell density must be non-negative");
    fatal_if(params.dwellHighMs <= 0.0 || params.dwellLowMs <= 0.0,
             "dwell times must be positive");
    fatal_if(num_rows == 0, "population needs rows");
}

const std::vector<VrtCell> &
VrtPopulation::cellsOfRow(RowId row) const
{
    panic_if(row.value() >= rows, "row out of range");
    auto it = cache.find(row);
    if (it != cache.end())
        return it->second;

    Rng rng(hashMix64(vrtParams.seed * 0x9e3779b97f4a7c15ULL ^
                      (row.value() + 0x7777)));
    std::vector<VrtCell> cells;
    std::uint64_t n = rng.poisson(vrtParams.vrtCellsPerRow);
    cells.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
        cells.push_back({rng.uniformInt(kVrtColumnsPerRow), rng.next()});

    auto [ins, ok] = cache.emplace(row, std::move(cells));
    (void)ok;
    return ins->second;
}

bool
VrtPopulation::isLeakyAt(const VrtCell &cell, TimeMs time_ms) const
{
    panic_if(time_ms < TimeMs{0.0}, "time must be non-negative");
    // Replay the telegraph process from t = 0 (healthy).
    Rng rng(cell.processSeed);
    double t = 0.0;
    bool leaky = false;
    while (true) {
        double dwell = rng.exponential(
            leaky ? vrtParams.dwellLowMs : vrtParams.dwellHighMs);
        if (t + dwell > time_ms.value())
            return leaky;
        t += dwell;
        leaky = !leaky;
    }
}

bool
VrtPopulation::rowFailsAt(RowId row, double interval_ms,
                          TimeMs time_ms) const
{
    if (interval_ms < vrtParams.leakyFailIntervalMs)
        return false;
    for (const VrtCell &cell : cellsOfRow(row)) {
        if (isLeakyAt(cell, time_ms))
            return true;
    }
    return false;
}

} // namespace memcon::failure
