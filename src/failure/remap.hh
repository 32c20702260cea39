/**
 * @file
 * Redundant-column remapping (Figure 2b).
 *
 * Manufacturing-time repair remaps faulty bitlines to spare columns
 * appended to the right of the cell array. After repair, the data a
 * system address refers to physically lives in the redundant region,
 * and its bitline neighbours are other remapped columns - the second
 * reason system-level neighbour testing cannot rely on address
 * adjacency.
 */

#ifndef MEMCON_FAILURE_REMAP_HH
#define MEMCON_FAILURE_REMAP_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace memcon::failure
{

class ColumnRemapper
{
  public:
    /**
     * Randomly select faulty columns and assign them spares, in
     * order, mimicking fuse-programmed repair.
     *
     * @param data_columns     number of addressable columns per row
     * @param redundant_columns spare columns appended after them
     * @param num_faulty       how many columns were repaired
     * @param seed             deterministic selection; 0 means no
     *                         repairs (identity)
     */
    ColumnRemapper(std::uint64_t data_columns,
                   std::uint64_t redundant_columns,
                   std::uint64_t num_faulty, std::uint64_t seed);

    /**
     * The addressable column whose data lives at a storage position,
     * or kUnmapped when the position holds no data (an unused spare
     * or a disabled faulty column).
     */
    std::uint64_t addressedColumn(std::uint64_t storage_col) const;

    /** Total physical columns including spares. */
    std::uint64_t totalColumns() const
    {
        return dataColumns + redundantColumns;
    }

    std::uint64_t numDataColumns() const { return dataColumns; }
    std::uint64_t numRemapped() const { return faultyToSpare.size(); }

    static constexpr std::uint64_t kUnmapped = ~std::uint64_t{0};

  private:
    std::uint64_t dataColumns;
    std::uint64_t redundantColumns;
    std::unordered_map<std::uint64_t, std::uint64_t> faultyToSpare;
    std::vector<std::uint64_t> spareToFaulty; // indexed by spare slot
};

} // namespace memcon::failure

#endif // MEMCON_FAILURE_REMAP_HH
