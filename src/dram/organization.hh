/**
 * @file
 * DRAM module geometry and physical-address decomposition.
 *
 * A module is channels x ranks x banks x rows x columns of cache
 * blocks (Figure 1). Addresses arriving from the system are split
 * into coordinates with a configurable interleaving; the default is
 * row:bank:rank:column:channel (RoBaRaCoCh), which spreads successive
 * cache blocks across channels and keeps a row's blocks in one bank
 * so that row-buffer locality is visible.
 */

#ifndef MEMCON_DRAM_ORGANIZATION_HH
#define MEMCON_DRAM_ORGANIZATION_HH

#include <cstdint>

#include "common/strong_id.hh"
#include "common/units.hh"
#include "dram/timing.hh"

namespace memcon::dram
{

/** Physical address of a cache block inside a module. */
struct Coordinates
{
    unsigned channel = 0;
    unsigned rank = 0;
    unsigned bank = 0;
    RowId row{}; //!< per-bank row coordinate
    unsigned column = 0;

    bool operator==(const Coordinates &) const = default;
};

/** How the flat address is split into coordinates. */
enum class AddressMapping
{
    RoBaRaCoCh, //!< row : bank : rank : column : channel
    RoRaBaCoCh, //!< row : rank : bank : column : channel
    RoCoBaRaCh, //!< row : column : bank : rank : channel (bank-interleaved)
};

/**
 * Geometry of one memory system. Sizes are powers of two; the module
 * mirrors the paper's default of an 8 GB DIMM with 8 KB rows.
 */
struct Geometry
{
    unsigned channels = 1;
    unsigned ranks = 1;
    unsigned banks = 8;
    std::uint64_t rowsPerBank = 1 << 17; // 131072
    unsigned columnsPerRow = 128;        // cache blocks per row
    unsigned blockBytes = 64;
    AddressMapping mapping = AddressMapping::RoBaRaCoCh;

    /** Bytes in one DRAM row (the unit MEMCON tests/refreshes). */
    std::uint64_t rowBytes() const
    {
        return std::uint64_t{columnsPerRow} * blockBytes;
    }

    /** Total rows across the module. */
    std::uint64_t totalRows() const
    {
        return std::uint64_t{channels} * ranks * banks * rowsPerBank;
    }

    /** Total capacity in bytes. */
    std::uint64_t capacityBytes() const
    {
        return totalRows() * rowBytes();
    }

    /** Total cache blocks. */
    std::uint64_t totalBlocks() const
    {
        return totalRows() * columnsPerRow;
    }

    /** Decompose a block-aligned byte address into coordinates. */
    Coordinates decompose(std::uint64_t byte_addr) const;

    /** Recompose coordinates into the block-aligned byte address. */
    std::uint64_t compose(const Coordinates &coords) const;

    /**
     * A dense index over all rows in the module, used to key per-row
     * refresh state and failure records.
     */
    RowId flatRowIndex(const Coordinates &coords) const;

    /** Inverse of flatRowIndex (column/channel fields are zero). */
    Coordinates rowFromFlatIndex(RowId row_index) const;

    /**
     * The paper's 8 GB DDR3 DIMM (Table 2): 1 channel, 1 rank,
     * 8 banks, 8 KB rows.
     */
    static Geometry dimm8GB();

    /** Validate invariants (power-of-two fields); fatal on error. */
    void validate() const;
};

} // namespace memcon::dram

#endif // MEMCON_DRAM_ORGANIZATION_HH
