/**
 * @file
 * Physical-address interleaving: XOR bank-function address maps.
 *
 * Real memory controllers do not hand out rows bank by bank - they
 * interleave the physical address space across channels, ranks, and
 * banks with XOR "bank functions": each bank-index bit is the parity
 * of a set of physical address bits (DRAMA/zenhammer reverse these
 * sets from real CPUs; Intel's classic bank bit is a13 ^ a17). The
 * MEMCON engine models its population at row granularity, so the map
 * here operates on *page indices* (one page == one DRAM row) and
 * answers the two questions bank sharding needs:
 *
 *   - which shard (channel/rank/bank) owns a page, and
 *   - what the page's row coordinate inside that shard is,
 *
 * with an exact inverse, so pages and (shard, row) pairs are in
 * bijection - the property test suite proves encode/decode round-trip
 * on every preset.
 *
 * Construction keeps invertibility by fiat instead of by linear
 * algebra: the shard field occupies a contiguous bit window of the
 * page index at `shardShift`, and shard bit i is the window bit i
 * XOR the parity of `xorMasks[i]` applied to the *local row index*
 * (the page index with the window excised). Any classic two-bit
 * function (bank = a_x ^ a_y) fits this form, arbitrary row bits can
 * fold in, and decode is window = shard ^ fold(row) - no matrix
 * inversion, no special cases.
 *
 * Shard indices pack bank-first: shard = (channel << (rankBits +
 * bankBits)) | (rank << bankBits) | bank.
 */

#ifndef MEMCON_DRAM_ADDRESS_MAP_HH
#define MEMCON_DRAM_ADDRESS_MAP_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace memcon::dram
{

/** How a page index splits into (shard, local row). */
struct AddressMapConfig
{
    std::string name = "identity";

    /** Shard-field split; total shard bits = sum of the three. */
    unsigned channelBits = 0;
    unsigned rankBits = 0;
    unsigned bankBits = 0;

    /**
     * Bit offset of the shard window inside the page index. 0
     * interleaves consecutive pages across shards (the controller
     * default); rowBits-of-the-module makes the map palloc-style
     * "blocked" - each shard owns a contiguous page range.
     */
    unsigned shardShift = 0;

    /**
     * One XOR mask per shard bit, applied to the local row index:
     * shard bit i = page's window bit i XOR parity(localRow &
     * xorMasks[i]). Empty means all-zero masks (a pure bit slice).
     */
    std::vector<std::uint64_t> xorMasks;
};

class AddressMap
{
  public:
    /** The identity map: one shard, page == local row. */
    AddressMap();

    /** Validates the config (window width, mask count); fatal on
     * error. */
    explicit AddressMap(AddressMapConfig config);

    // --- presets ----------------------------------------------------

    /** One shard; the flat engine's behavior, bit for bit. */
    static AddressMap identity();

    /**
     * The paper's Table 2 module: 1 channel, 1 rank, 8 banks,
     * consecutive rows interleaved across banks (pure bit slice).
     */
    static AddressMap paperDdr3_8bank();

    /**
     * The paper's 4-channel system configuration (Table 2): 4
     * channels x 8 banks = 32 shards, with each shard bit folding
     * two higher row bits in (DRAMA-style XOR interleave).
     */
    static AddressMap paper4ch8bank();

    /**
     * A zenhammer-style DDR4 set: 6 bank functions (64 shards), each
     * the XOR of its window bit with two row bits - the shape of the
     * published single-rank DDR4 function sets.
     */
    static AddressMap zenDdr4_64bank();

    /**
     * palloc-style blocked partitioning: the shard index is the top
     * `shard_bits` of a `shard_bits + row_bits` page index, so each
     * shard owns one contiguous page range. Pages >= (1 <<
     * (shard_bits + row_bits)) keep spilling into higher shards-
     * worth of address space; the engine rejects such populations.
     */
    static AddressMap blocked(unsigned shard_bits, unsigned row_bits);

    /**
     * Look up a preset by its CLI name: "identity",
     * "paper-ddr3-8bank", "paper-4ch8bank", "zen-ddr4-64bank".
     * Fatal on an unknown name (a typo must not silently fall back).
     */
    static AddressMap preset(const std::string &name);

    // --- queries ----------------------------------------------------

    const AddressMapConfig &config() const { return cfg; }
    const std::string &name() const { return cfg.name; }

    unsigned shardBits() const { return totalShardBits; }
    std::uint64_t numShards() const
    {
        return std::uint64_t{1} << totalShardBits;
    }

    /** Which shard owns this page. */
    std::uint64_t shardOf(std::uint64_t page) const
    {
        return windowOf(page) ^ fold(localRowOf(page));
    }

    /** The page's row coordinate inside its shard. */
    std::uint64_t localRowOf(std::uint64_t page) const
    {
        const std::uint64_t low = page & lowMask;
        const std::uint64_t high = page >> (cfg.shardShift + totalShardBits);
        return (high << cfg.shardShift) | low;
    }

    /** Inverse of (shardOf, localRowOf); exact for all inputs. */
    std::uint64_t pageOf(std::uint64_t shard, std::uint64_t local_row) const;

    /**
     * The physically adjacent row `delta` rows away in the same
     * shard (bank), as a page index; nullopt when it would cross row
     * 0 or `num_pages`. Physical adjacency is what read-disturb
     * (RowHammer) aggressor/victim analysis needs, and it is defined
     * per bank - two pages adjacent in the flat index are usually in
     * different banks entirely.
     */
    std::optional<std::uint64_t> rowNeighbor(std::uint64_t page, int delta,
                                             std::uint64_t num_pages) const;

    /** Human-readable one-liner (preset, split, masks). */
    std::string describe() const;

    bool operator==(const AddressMap &other) const
    {
        return cfg.channelBits == other.cfg.channelBits &&
               cfg.rankBits == other.cfg.rankBits &&
               cfg.bankBits == other.cfg.bankBits &&
               cfg.shardShift == other.cfg.shardShift &&
               cfg.xorMasks == other.cfg.xorMasks;
    }

  private:
    std::uint64_t windowOf(std::uint64_t page) const
    {
        return (page >> cfg.shardShift) & shardMask;
    }

    /** XOR-fold the local row through the per-bit masks. */
    std::uint64_t fold(std::uint64_t local_row) const;

    AddressMapConfig cfg;
    unsigned totalShardBits = 0;
    std::uint64_t shardMask = 0; //!< (1 << totalShardBits) - 1
    std::uint64_t lowMask = 0;   //!< (1 << shardShift) - 1
};

} // namespace memcon::dram

#endif // MEMCON_DRAM_ADDRESS_MAP_HH
