#include "dram/address_map.hh"

#include <bit>

#include "common/logging.hh"

namespace memcon::dram
{

namespace
{

/** Window + masks can't push fields past 64 bits of page index. */
constexpr unsigned kMaxShardBits = 20;

} // namespace

AddressMap::AddressMap() : AddressMap(AddressMapConfig{}) {}

AddressMap::AddressMap(AddressMapConfig config) : cfg(std::move(config))
{
    totalShardBits = cfg.channelBits + cfg.rankBits + cfg.bankBits;
    fatal_if(totalShardBits > kMaxShardBits,
             "address map '%s': %u shard bits exceeds the %u-bit limit",
             cfg.name.c_str(), totalShardBits, kMaxShardBits);
    fatal_if(cfg.shardShift + totalShardBits >= 58,
             "address map '%s': shard window past bit 58",
             cfg.name.c_str());
    if (cfg.xorMasks.empty())
        cfg.xorMasks.assign(totalShardBits, 0);
    fatal_if(cfg.xorMasks.size() != totalShardBits,
             "address map '%s': %zu XOR masks for %u shard bits",
             cfg.name.c_str(), cfg.xorMasks.size(), totalShardBits);
    shardMask = totalShardBits == 64
                    ? ~std::uint64_t{0}
                    : (std::uint64_t{1} << totalShardBits) - 1;
    lowMask = (std::uint64_t{1} << cfg.shardShift) - 1;
}

std::uint64_t
AddressMap::fold(std::uint64_t local_row) const
{
    std::uint64_t s = 0;
    for (unsigned i = 0; i < totalShardBits; ++i)
        s |= static_cast<std::uint64_t>(
                 std::popcount(local_row & cfg.xorMasks[i]) & 1)
             << i;
    return s;
}

std::uint64_t
AddressMap::pageOf(std::uint64_t shard, std::uint64_t local_row) const
{
    panic_if(shard > shardMask, "shard %llu out of range",
             static_cast<unsigned long long>(shard));
    const std::uint64_t window = (shard ^ fold(local_row)) & shardMask;
    const std::uint64_t low = local_row & lowMask;
    const std::uint64_t high = local_row >> cfg.shardShift;
    return (((high << totalShardBits) | window) << cfg.shardShift) | low;
}

std::optional<std::uint64_t>
AddressMap::rowNeighbor(std::uint64_t page, int delta,
                        std::uint64_t num_pages) const
{
    panic_if(page >= num_pages, "page %llu outside the population",
             static_cast<unsigned long long>(page));
    const std::uint64_t shard = shardOf(page);
    const std::uint64_t row = localRowOf(page);
    if (delta < 0 && row < static_cast<std::uint64_t>(-delta))
        return std::nullopt;
    const std::uint64_t neighbor_row =
        delta < 0 ? row - static_cast<std::uint64_t>(-delta)
                  : row + static_cast<std::uint64_t>(delta);
    const std::uint64_t neighbor = pageOf(shard, neighbor_row);
    if (neighbor >= num_pages)
        return std::nullopt;
    return neighbor;
}

std::string
AddressMap::describe() const
{
    std::string masks;
    for (std::uint64_t m : cfg.xorMasks)
        masks += strprintf("%s0x%llx", masks.empty() ? "" : ",",
                           static_cast<unsigned long long>(m));
    return strprintf("%s: %uch+%urk+%uba @bit%u masks=[%s]",
                     cfg.name.c_str(), cfg.channelBits, cfg.rankBits,
                     cfg.bankBits, cfg.shardShift, masks.c_str());
}

AddressMap
AddressMap::identity()
{
    return AddressMap{};
}

AddressMap
AddressMap::paperDdr3_8bank()
{
    AddressMapConfig c;
    c.name = "paper-ddr3-8bank";
    c.bankBits = 3;
    return AddressMap(std::move(c));
}

AddressMap
AddressMap::paper4ch8bank()
{
    AddressMapConfig c;
    c.name = "paper-4ch8bank";
    c.channelBits = 2;
    c.bankBits = 3;
    // Each shard bit additionally folds two local-row bits, the way
    // DRAMA-derived controller functions pair a low and a high
    // address bit (bank = a_x ^ a_y). Distinct bit pairs per
    // function keep the fold full-rank over any row window.
    c.xorMasks = {
        (std::uint64_t{1} << 3) | (std::uint64_t{1} << 9),
        (std::uint64_t{1} << 4) | (std::uint64_t{1} << 10),
        (std::uint64_t{1} << 5) | (std::uint64_t{1} << 11),
        (std::uint64_t{1} << 6) | (std::uint64_t{1} << 12),
        (std::uint64_t{1} << 7) | (std::uint64_t{1} << 13),
    };
    return AddressMap(std::move(c));
}

AddressMap
AddressMap::zenDdr4_64bank()
{
    AddressMapConfig c;
    c.name = "zen-ddr4-64bank";
    // Six bank functions -> 64 banks (4 bank groups x 4 banks x 2x2
    // ch/rk folded into one index), the arity of the published
    // single-DIMM DDR4 sets; every function XORs two local-row bits
    // into its window bit.
    c.bankBits = 6;
    c.xorMasks = {
        (std::uint64_t{1} << 0) | (std::uint64_t{1} << 7),
        (std::uint64_t{1} << 1) | (std::uint64_t{1} << 8),
        (std::uint64_t{1} << 2) | (std::uint64_t{1} << 9),
        (std::uint64_t{1} << 3) | (std::uint64_t{1} << 10),
        (std::uint64_t{1} << 4) | (std::uint64_t{1} << 11),
        (std::uint64_t{1} << 5) | (std::uint64_t{1} << 12),
    };
    return AddressMap(std::move(c));
}

AddressMap
AddressMap::blocked(unsigned shard_bits, unsigned row_bits)
{
    AddressMapConfig c;
    c.name = strprintf("blocked-%ux%u", shard_bits, row_bits);
    c.bankBits = shard_bits;
    c.shardShift = row_bits;
    return AddressMap(std::move(c));
}

AddressMap
AddressMap::preset(const std::string &name)
{
    if (name == "identity")
        return identity();
    if (name == "paper-ddr3-8bank")
        return paperDdr3_8bank();
    if (name == "paper-4ch8bank")
        return paper4ch8bank();
    if (name == "zen-ddr4-64bank")
        return zenDdr4_64bank();
    fatal("unknown address map preset '%s' (have: identity, "
          "paper-ddr3-8bank, paper-4ch8bank, zen-ddr4-64bank)",
          name.c_str());
}

} // namespace memcon::dram
