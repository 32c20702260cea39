#include "failure/remap.hh"

#include "common/logging.hh"
#include "common/random.hh"

namespace memcon::failure
{

ColumnRemapper::ColumnRemapper(std::uint64_t data_columns,
                               std::uint64_t redundant_columns,
                               std::uint64_t num_faulty,
                               std::uint64_t seed)
    : dataColumns(data_columns), redundantColumns(redundant_columns)
{
    fatal_if(num_faulty > redundant_columns,
             "cannot repair %llu columns with %llu spares",
             static_cast<unsigned long long>(num_faulty),
             static_cast<unsigned long long>(redundant_columns));
    spareToFaulty.assign(redundant_columns, kUnmapped);
    if (seed == 0 || num_faulty == 0)
        return;

    Rng rng(seed);
    std::uint64_t spare = 0;
    while (faultyToSpare.size() < num_faulty) {
        std::uint64_t victim = rng.uniformInt(data_columns);
        if (faultyToSpare.count(victim))
            continue;
        faultyToSpare[victim] = spare;
        spareToFaulty[spare] = victim;
        ++spare;
    }
}

std::uint64_t
ColumnRemapper::addressedColumn(std::uint64_t storage_col) const
{
    panic_if(storage_col >= totalColumns(), "storage column out of range");
    if (storage_col >= dataColumns) {
        return spareToFaulty[storage_col - dataColumns];
    }
    // A faulty original column is fused off; it stores nothing.
    if (faultyToSpare.count(storage_col))
        return kUnmapped;
    return storage_col;
}

} // namespace memcon::failure
