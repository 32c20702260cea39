/**
 * @file
 * Vendor-internal address scrambling (Figure 2a).
 *
 * DRAM vendors map the system-visible (logical) address space onto
 * physical cell positions through an undisclosed, per-generation
 * permutation, so logically adjacent addresses are not physically
 * adjacent. We model this as a keyed bijection implemented with a
 * balanced Feistel network over the index bits: cheap, invertible,
 * and different for every chip seed, exactly the property that makes
 * system-level neighbour testing miss failures.
 */

#ifndef MEMCON_FAILURE_SCRAMBLER_HH
#define MEMCON_FAILURE_SCRAMBLER_HH

#include <cstdint>

namespace memcon::failure
{

/**
 * A keyed bijection over [0, 2^bits). Four Feistel rounds with a
 * SplitMix-based round function give thorough mixing while staying
 * exactly invertible.
 */
class KeyedPermutation
{
  public:
    /**
     * @param bits  width of the index space (1..62)
     * @param key   per-chip secret; different keys give unrelated
     *              permutations
     */
    KeyedPermutation(unsigned bits, std::uint64_t key);

    /** Map a logical index to its physical position. */
    std::uint64_t forward(std::uint64_t logical) const;

    /** Map a physical position back to the logical index. */
    std::uint64_t inverse(std::uint64_t physical) const;

    /** Size of the index space. */
    std::uint64_t size() const { return std::uint64_t{1} << numBits; }

  private:
    std::uint64_t roundFn(std::uint64_t half, unsigned round) const;

    unsigned numBits;
    unsigned halfBits;
    std::uint64_t key;
    static constexpr unsigned numRounds = 4;
};

/**
 * The full per-chip scrambler: independent keyed permutations over
 * row addresses and column (cell) addresses within a bank. The
 * identity configuration (scrambling disabled) models an idealized
 * chip whose internals are exposed.
 */
class AddressScrambler
{
  public:
    /**
     * @param row_bits    log2(rows per bank)
     * @param column_bits log2(cells per row)
     * @param chip_key    per-chip secret; 0 disables scrambling
     */
    AddressScrambler(unsigned row_bits, unsigned column_bits,
                     std::uint64_t chip_key);

    bool enabled() const { return chipKey != 0; }

    std::uint64_t physicalRow(std::uint64_t logical_row) const;
    std::uint64_t logicalRow(std::uint64_t physical_row) const;
    std::uint64_t logicalColumn(std::uint64_t physical_col) const;

    std::uint64_t numRows() const { return rowPerm.size(); }
    std::uint64_t numColumns() const { return colPerm.size(); }

  private:
    std::uint64_t chipKey;
    KeyedPermutation rowPerm;
    KeyedPermutation colPerm;
};

} // namespace memcon::failure

#endif // MEMCON_FAILURE_SCRAMBLER_HH
