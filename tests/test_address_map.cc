/**
 * @file
 * Property suite for dram::AddressMap (DESIGN.md §17): every preset
 * must be an exact bijection between page indices and (shard, local
 * row) pairs - exhaustively over small domains, by seeded random
 * sample over large ones - must spread a linear page walk uniformly
 * across shards (chi-square bound), and must answer row-adjacency
 * queries symmetrically. The engine's sharding correctness rests on
 * these three properties: partition-and-reduce needs the bijection,
 * load balance needs the uniformity, and the (future) read-disturb
 * adjacency analysis needs neighbor symmetry.
 */

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "dram/address_map.hh"

namespace memcon::dram
{
namespace
{

// The CLI names AddressMap::preset() accepts.
const char *const kPresetNames[] = {"identity", "paper-ddr3-8bank",
                                    "paper-4ch8bank", "zen-ddr4-64bank"};

std::vector<AddressMap>
allPresets()
{
    std::vector<AddressMap> maps;
    for (const std::string name : kPresetNames)
        maps.push_back(AddressMap::preset(name));
    maps.push_back(AddressMap::blocked(3, 10));
    maps.push_back(AddressMap::blocked(1, 20));
    return maps;
}

} // namespace

TEST(AddressMap, PresetNamesRoundTripThroughLookup)
{
    for (const std::string name : kPresetNames) {
        AddressMap map = AddressMap::preset(name);
        EXPECT_EQ(map.name(), name);
        EXPECT_FALSE(map.describe().empty());
    }
}

TEST(AddressMap, IdentityIsASingleShard)
{
    AddressMap map = AddressMap::identity();
    EXPECT_EQ(map.numShards(), 1u);
    for (std::uint64_t p : {0ull, 1ull, 12345ull, (1ull << 40) + 7}) {
        EXPECT_EQ(map.shardOf(p), 0u);
        EXPECT_EQ(map.localRowOf(p), p);
        EXPECT_EQ(map.pageOf(0, p), p);
    }
}

TEST(AddressMap, BijectionExhaustiveOverSmallDomain)
{
    // encode(decode) and decode(encode) are both identities over the
    // full first 2^16 pages of every preset: each page maps to a
    // distinct (shard, row) and back.
    // Round-tripping every page through its own (shard, row) pair is
    // enough: injectivity follows, since two pages sharing a pair
    // would decode to the same page and one round-trip would fail.
    for (const AddressMap &map : allPresets()) {
        const std::uint64_t n = 1u << 16;
        for (std::uint64_t p = 0; p < n; ++p) {
            const std::uint64_t shard = map.shardOf(p);
            const std::uint64_t row = map.localRowOf(p);
            ASSERT_LT(shard, map.numShards()) << map.describe();
            ASSERT_EQ(map.pageOf(shard, row), p)
                << map.describe() << " page " << p;
        }
    }
}

TEST(AddressMap, BijectionSeededRandomOverLargeDomain)
{
    // The shard window tops out below bit 58; anything up to 2^57
    // must round-trip. 20k samples per preset from a fixed seed.
    Rng rng(20260808);
    for (const AddressMap &map : allPresets()) {
        for (int i = 0; i < 20000; ++i) {
            const std::uint64_t p = rng.uniformInt(std::uint64_t{1} << 57);
            const std::uint64_t shard = map.shardOf(p);
            const std::uint64_t row = map.localRowOf(p);
            ASSERT_LT(shard, map.numShards()) << map.describe();
            ASSERT_EQ(map.pageOf(shard, row), p)
                << map.describe() << " page " << p;
        }
    }
}

TEST(AddressMap, DecodeThenEncodeRoundTrips)
{
    // The other direction of the bijection: every (shard, local row)
    // pair names a page that maps back to exactly that pair.
    Rng rng(97);
    for (const AddressMap &map : allPresets()) {
        for (int i = 0; i < 20000; ++i) {
            const std::uint64_t shard = rng.uniformInt(map.numShards());
            const std::uint64_t row =
                rng.uniformInt(std::uint64_t{1} << 40);
            const std::uint64_t page = map.pageOf(shard, row);
            ASSERT_EQ(map.shardOf(page), shard) << map.describe();
            ASSERT_EQ(map.localRowOf(page), row) << map.describe();
        }
    }
}

TEST(AddressMap, LinearWalkDistributesUniformlyChiSquare)
{
    // A linear walk over a population that is NOT a multiple of the
    // shard count (the +12345 tail) must still land near-uniformly on
    // every shard. The bound is the 99.9% chi-square critical value
    // approximated by df + 4*sqrt(2 df) + 4; the XOR-fold maps are
    // exactly uniform over aligned blocks, so observed values sit far
    // below it - a regression to a skewed fold fails loudly. Blocked
    // maps are excluded: they deliberately do NOT interleave (each
    // bank owns a contiguous range), so only the shardShift == 0
    // controller presets make the uniformity promise.
    for (const AddressMap &map : allPresets()) {
        const std::uint64_t shards = map.numShards();
        if (shards == 1 || map.config().shardShift != 0)
            continue;
        const std::uint64_t n = (std::uint64_t{1} << 18) + 12345;
        std::vector<std::uint64_t> count(shards, 0);
        for (std::uint64_t p = 0; p < n; ++p)
            ++count[map.shardOf(p)];
        const double expect =
            static_cast<double>(n) / static_cast<double>(shards);
        double chi2 = 0.0;
        for (std::uint64_t c : count) {
            const double d = static_cast<double>(c) - expect;
            chi2 += d * d / expect;
        }
        const double df = static_cast<double>(shards - 1);
        EXPECT_LT(chi2, df + 4.0 * std::sqrt(2.0 * df) + 4.0)
            << map.describe();
    }
}

TEST(AddressMap, RowNeighborIsSymmetricAndSameShard)
{
    Rng rng(4242);
    const std::uint64_t num_pages = std::uint64_t{1} << 22;
    for (const AddressMap &map : allPresets()) {
        for (int i = 0; i < 5000; ++i) {
            const std::uint64_t p = rng.uniformInt(num_pages);
            for (int delta : {1, -1, 3, -3}) {
                auto q = map.rowNeighbor(p, delta, num_pages);
                if (!q)
                    continue;
                EXPECT_EQ(map.shardOf(*q), map.shardOf(p))
                    << map.describe();
                EXPECT_EQ(map.localRowOf(*q),
                          map.localRowOf(p) + delta);
                auto back = map.rowNeighbor(*q, -delta, num_pages);
                ASSERT_TRUE(back.has_value()) << map.describe();
                EXPECT_EQ(*back, p) << map.describe();
            }
        }
    }
}

TEST(AddressMap, RowNeighborStopsAtBankEdges)
{
    AddressMap map = AddressMap::paperDdr3_8bank();
    // Page 3 is row 0 of bank 3: no predecessor row exists.
    EXPECT_FALSE(map.rowNeighbor(3, -1, 1024).has_value());
    // The successor of row 0 in bank 3 is page 3 + 8.
    auto next = map.rowNeighbor(3, 1, 1024);
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(*next, 11u);
    // Neighbors past the population are rejected.
    EXPECT_FALSE(map.rowNeighbor(1020, 1, 1024).has_value());
}

TEST(AddressMap, BlockedMapOwnsContiguousRanges)
{
    // blocked(2, 10): four banks, each owning 1024 consecutive pages.
    AddressMap map = AddressMap::blocked(2, 10);
    ASSERT_EQ(map.numShards(), 4u);
    for (std::uint64_t p = 0; p < (1u << 12); ++p) {
        EXPECT_EQ(map.shardOf(p), p >> 10);
        EXPECT_EQ(map.localRowOf(p), p & 1023);
    }
}

TEST(AddressMap, ZenPresetBankBitsDependOnRowBits)
{
    // The XOR fold must actually couple row bits into the bank index:
    // flipping a masked row bit moves the page to a different bank
    // while a pure bit-slice would not.
    AddressMap map = AddressMap::zenDdr4_64bank();
    const std::uint64_t p = 0;
    // Local row bit 0 folds into shard bit 0: page index bit 6 is the
    // first local-row bit (shardShift 0, 6 window bits), so flipping
    // page bit 6 flips the computed shard.
    EXPECT_NE(map.shardOf(p), map.shardOf(p | (1u << 6)));
}

} // namespace memcon::dram
