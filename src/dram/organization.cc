#include "dram/organization.hh"

#include <bit>

#include "common/logging.hh"

namespace memcon::dram
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

/** Pull the low `bits` bits off addr, advancing it. */
std::uint64_t
sliceLow(std::uint64_t &addr, unsigned bits)
{
    std::uint64_t field = addr & ((std::uint64_t{1} << bits) - 1);
    addr >>= bits;
    return field;
}

} // namespace

void
Geometry::validate() const
{
    log2Exact(channels, "channels");
    log2Exact(ranks, "ranks");
    log2Exact(banks, "banks");
    log2Exact(rowsPerBank, "rowsPerBank");
    log2Exact(columnsPerRow, "columnsPerRow");
    log2Exact(blockBytes, "blockBytes");
}

Coordinates
Geometry::decompose(std::uint64_t byte_addr) const
{
    std::uint64_t addr = byte_addr >> log2Exact(blockBytes, "blockBytes");

    unsigned ch_bits = log2Exact(channels, "channels");
    unsigned ra_bits = log2Exact(ranks, "ranks");
    unsigned ba_bits = log2Exact(banks, "banks");
    unsigned co_bits = log2Exact(columnsPerRow, "columnsPerRow");

    Coordinates c;
    switch (mapping) {
      case AddressMapping::RoBaRaCoCh:
        c.channel = static_cast<unsigned>(sliceLow(addr, ch_bits));
        c.column = static_cast<unsigned>(sliceLow(addr, co_bits));
        c.rank = static_cast<unsigned>(sliceLow(addr, ra_bits));
        c.bank = static_cast<unsigned>(sliceLow(addr, ba_bits));
        c.row = RowId{addr};
        break;
      case AddressMapping::RoRaBaCoCh:
        c.channel = static_cast<unsigned>(sliceLow(addr, ch_bits));
        c.column = static_cast<unsigned>(sliceLow(addr, co_bits));
        c.bank = static_cast<unsigned>(sliceLow(addr, ba_bits));
        c.rank = static_cast<unsigned>(sliceLow(addr, ra_bits));
        c.row = RowId{addr};
        break;
      case AddressMapping::RoCoBaRaCh:
        c.channel = static_cast<unsigned>(sliceLow(addr, ch_bits));
        c.rank = static_cast<unsigned>(sliceLow(addr, ra_bits));
        c.bank = static_cast<unsigned>(sliceLow(addr, ba_bits));
        c.column = static_cast<unsigned>(sliceLow(addr, co_bits));
        c.row = RowId{addr};
        break;
    }
    panic_if(c.row.value() >= rowsPerBank,
             "address 0x%llx decodes past the last row",
             static_cast<unsigned long long>(byte_addr));
    return c;
}

std::uint64_t
Geometry::compose(const Coordinates &coords) const
{
    unsigned ch_bits = log2Exact(channels, "channels");
    unsigned ra_bits = log2Exact(ranks, "ranks");
    unsigned ba_bits = log2Exact(banks, "banks");
    unsigned co_bits = log2Exact(columnsPerRow, "columnsPerRow");

    std::uint64_t addr = coords.row.value();
    auto push = [&addr](std::uint64_t field, unsigned bits) {
        addr = (addr << bits) | field;
    };

    switch (mapping) {
      case AddressMapping::RoBaRaCoCh:
        push(coords.bank, ba_bits);
        push(coords.rank, ra_bits);
        push(coords.column, co_bits);
        push(coords.channel, ch_bits);
        break;
      case AddressMapping::RoRaBaCoCh:
        push(coords.rank, ra_bits);
        push(coords.bank, ba_bits);
        push(coords.column, co_bits);
        push(coords.channel, ch_bits);
        break;
      case AddressMapping::RoCoBaRaCh:
        push(coords.column, co_bits);
        push(coords.bank, ba_bits);
        push(coords.rank, ra_bits);
        push(coords.channel, ch_bits);
        break;
    }
    return addr << log2Exact(blockBytes, "blockBytes");
}

RowId
Geometry::flatRowIndex(const Coordinates &coords) const
{
    std::uint64_t idx = coords.channel;
    idx = idx * ranks + coords.rank;
    idx = idx * banks + coords.bank;
    idx = idx * rowsPerBank + coords.row.value();
    return RowId{idx};
}

Coordinates
Geometry::rowFromFlatIndex(RowId row_index) const
{
    panic_if(row_index.value() >= totalRows(),
             "flat row index out of range");
    std::uint64_t idx = row_index.value();
    Coordinates c;
    c.row = RowId{idx % rowsPerBank};
    idx /= rowsPerBank;
    c.bank = static_cast<unsigned>(idx % banks);
    idx /= banks;
    c.rank = static_cast<unsigned>(idx % ranks);
    idx /= ranks;
    c.channel = static_cast<unsigned>(idx);
    return c;
}

Geometry
Geometry::dimm8GB()
{
    Geometry g;
    g.channels = 1;
    g.ranks = 1;
    g.banks = 8;
    g.rowsPerBank = 1 << 17; // 131072 rows x 8 KB x 8 banks = 8 GB
    g.columnsPerRow = 128;
    g.blockBytes = 64;
    return g;
}

} // namespace memcon::dram
