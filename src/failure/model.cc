#include "failure/model.hh"

#include <bit>
#include <cmath>

#include "common/logging.hh"
#include "common/random.hh"

namespace memcon::failure
{

namespace
{

unsigned
log2Exact(std::uint64_t v, const char *what)
{
    fatal_if(v == 0 || (v & (v - 1)) != 0,
             "%s must be a power of two, got %llu", what,
             static_cast<unsigned long long>(v));
    return static_cast<unsigned>(std::countr_zero(v));
}

} // namespace

FailureModel::FailureModel(const FailureModelParams &params,
                           std::uint64_t num_rows,
                           std::uint64_t cells_per_row)
    : modelParams(params), rows(num_rows), columns(cells_per_row),
      scrambler_(log2Exact(num_rows, "num_rows"),
                 log2Exact(cells_per_row, "cells_per_row"),
                 params.scrambling ? hashMix64(params.seed ^ 0x5eed) : 0),
      remapper_(cells_per_row, params.redundantColumns,
                params.remappedColumns, hashMix64(params.seed ^ 0x4e31))
{
    fatal_if(params.vulnerableCellsPerRow < 0.0 ||
                 params.weakCellsPerRow < 0.0,
             "cell population means must be non-negative");
    fatal_if(params.nominalIntervalMs <= 0.0,
             "nominal interval must be positive");
    fatal_if(params.marginFracMin <= 0.0 || params.marginFracMin >= 1.0,
             "marginFracMin must lie in (0, 1)");
}

const FailureModel::RowPopulation &
FailureModel::population(RowId physical_row) const
{
    panic_if(physical_row.value() >= rows, "physical row out of range");
    auto it = cache.find(physical_row);
    if (it != cache.end())
        return it->second;

    Rng rng(hashMix64(modelParams.seed * 0x9e3779b97f4a7c15ULL ^
                      (physical_row.value() + 0x1234)));
    RowPopulation pop;

    std::uint64_t total_cols = remapper_.totalColumns();
    std::uint64_t n_vuln = rng.poisson(modelParams.vulnerableCellsPerRow);
    pop.vulnerable.reserve(n_vuln);
    for (std::uint64_t i = 0; i < n_vuln; ++i) {
        VulnerableCell c;
        // Interior columns only, so both neighbours exist.
        c.column = 1 + rng.uniformInt(total_cols - 2);
        c.wLeft = static_cast<float>(
            rng.uniform(modelParams.weightMin, modelParams.weightMax));
        c.wRight = static_cast<float>(
            rng.uniform(modelParams.weightMin, modelParams.weightMax));
        c.marginFrac =
            static_cast<float>(rng.uniform(modelParams.marginFracMin, 1.0));
        pop.vulnerable.push_back(c);
    }

    std::uint64_t n_weak = rng.poisson(modelParams.weakCellsPerRow);
    pop.weak.reserve(n_weak);
    for (std::uint64_t i = 0; i < n_weak; ++i) {
        WeakCell w;
        w.column = rng.uniformInt(total_cols);
        w.retentionMs = modelParams.nominalIntervalMs *
                        rng.uniform(modelParams.retentionMinFrac,
                                    modelParams.retentionMaxFrac);
        pop.weak.push_back(w);
    }

    auto [ins, ok] = cache.emplace(physical_row, std::move(pop));
    (void)ok;
    return ins->second;
}

const std::vector<VulnerableCell> &
FailureModel::cellsOfRow(RowId physical_row) const
{
    return population(physical_row).vulnerable;
}

bool
FailureModel::rowPolarity(RowId physical_row) const
{
    return hashMix64(modelParams.seed ^
                     (physical_row.value() * 0x6b43a9b5)) &
           1;
}

double
FailureModel::leakScale(double interval_ms) const
{
    panic_if(interval_ms <= 0.0, "refresh interval must be positive");
    return std::pow(interval_ms / modelParams.nominalIntervalMs,
                    modelParams.leakExponent);
}

bool
FailureModel::chargedAt(RowId physical_row,
                        std::uint64_t storage_col,
                        const ContentProvider &content) const
{
    std::uint64_t addressed = remapper_.addressedColumn(storage_col);
    if (addressed == ColumnRemapper::kUnmapped)
        return false; // unused spare or fused-off column: not driven

    std::uint64_t logical_col = scrambler_.logicalColumn(addressed);
    std::uint64_t logical_row = scrambler_.logicalRow(physical_row.value());
    bool bit = content.bit(logical_row, logical_col);
    return bit == rowPolarity(physical_row);
}

std::vector<CellFailure>
FailureModel::evaluatePhysicalRow(RowId physical_row,
                                  const ContentProvider &content,
                                  double interval_ms) const
{
    const RowPopulation &pop = population(physical_row);
    std::vector<CellFailure> failures;
    double scale = leakScale(interval_ms);

    for (const VulnerableCell &c : pop.vulnerable) {
        bool victim = chargedAt(physical_row, c.column, content);
        bool left = chargedAt(physical_row, c.column - 1, content);
        bool right = chargedAt(physical_row, c.column + 1, content);

        double aggression = 0.0;
        if (left != victim)
            aggression += c.wLeft;
        if (right != victim)
            aggression += c.wRight;

        double margin =
            static_cast<double>(c.marginFrac) * (c.wLeft + c.wRight);
        if (aggression * scale >= margin)
            failures.push_back({physical_row, c.column, true});
    }

    for (const WeakCell &w : pop.weak) {
        if (interval_ms >= w.retentionMs)
            failures.push_back({physical_row, w.column, false});
    }
    return failures;
}

bool
FailureModel::physicalRowFails(RowId physical_row,
                               const ContentProvider &content,
                               double interval_ms) const
{
    return !evaluatePhysicalRow(physical_row, content, interval_ms).empty();
}

bool
FailureModel::logicalRowFails(RowId logical_row,
                              const ContentProvider &content,
                              double interval_ms) const
{
    return physicalRowFails(RowId{scrambler_.physicalRow(logical_row.value())},
                            content, interval_ms);
}

bool
FailureModel::physicalRowCanFail(RowId physical_row,
                                 double interval_ms) const
{
    const RowPopulation &pop = population(physical_row);
    double scale = leakScale(interval_ms);

    for (const VulnerableCell &c : pop.vulnerable) {
        // Worst case: both neighbours aggress.
        double margin =
            static_cast<double>(c.marginFrac) * (c.wLeft + c.wRight);
        if ((c.wLeft + c.wRight) * scale >= margin)
            return true;
    }
    for (const WeakCell &w : pop.weak) {
        if (interval_ms >= w.retentionMs)
            return true;
    }
    return false;
}

} // namespace memcon::failure
