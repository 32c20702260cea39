/**
 * @file
 * Unit and property tests for the DRAM substrate: timing derivation,
 * geometry/address mapping, and the bank/rank/channel timing-
 * legality engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "common/state_io.hh"
#include "dram/channel.hh"
#include "dram/organization.hh"
#include "dram/timing.hh"
#include "oracles/secded.hh"

namespace memcon::dram
{
namespace
{

TEST(Timing, Ddr3SpeedBin)
{
    TimingParams t = TimingParams::ddr3_1600(Density::Gb8, TimeMs{16.0});
    EXPECT_EQ(t.tCk, nsToTicks(1.25));
    EXPECT_EQ(t.tCL, 11u);
    EXPECT_EQ(t.tRCD, 11u);
    EXPECT_EQ(t.tRP, 11u);
    EXPECT_EQ(t.tRC, t.tRAS + t.tRP);
    // Table 2: baseline tREFI 1.95 us at a 16 ms refresh interval.
    EXPECT_NEAR(ticksToNs(t.cyc(t.tREFI)), 1953.0, 2.0);
    // Table 2: baseline tRFC 350 ns.
    EXPECT_NEAR(ticksToNs(t.cyc(t.tRFC)), 350.0, 1.25);
}

TEST(Timing, TrefiScalesWithRefreshInterval)
{
    TimingParams t16 = TimingParams::ddr3_1600(Density::Gb8, TimeMs{16.0});
    TimingParams t64 = TimingParams::ddr3_1600(Density::Gb8, TimeMs{64.0});
    EXPECT_NEAR(static_cast<double>(t64.tREFI) / t16.tREFI, 4.0, 0.01);
    // 64 ms corresponds to the standard 7.8 us tREFI.
    EXPECT_NEAR(ticksToNs(t64.cyc(t64.tREFI)), 7812.0, 8.0);
}

/** Table 2's density-dependent tRFC scaling. */
class TrfcByDensity
    : public ::testing::TestWithParam<std::pair<Density, double>>
{
};

TEST_P(TrfcByDensity, MatchesTable2)
{
    auto [density, expected_ns] = GetParam();
    EXPECT_DOUBLE_EQ(densityTrfcNs(density), expected_ns);
    TimingParams t = TimingParams::ddr3_1600(density, TimeMs{16.0});
    EXPECT_NEAR(ticksToNs(t.cyc(t.tRFC)), expected_ns, 1.25);
}

INSTANTIATE_TEST_SUITE_P(
    Densities, TrfcByDensity,
    ::testing::Values(std::pair{Density::Gb8, 350.0},
                      std::pair{Density::Gb16, 530.0},
                      std::pair{Density::Gb32, 890.0},
                      std::pair{Density::Gb64, 1600.0}));

TEST(Timing, DensityNamesAndBits)
{
    EXPECT_EQ(toString(Density::Gb8), "8Gb");
    EXPECT_EQ(toString(Density::Gb64), "64Gb");
}

TEST(Timing, CostTimingsReproduceAppendix)
{
    CostTimings ct = CostTimings::paperDdr3_1600();
    EXPECT_DOUBLE_EQ(ct.rowStreamNs(), 534.0);
    EXPECT_DOUBLE_EQ(2.0 * ct.rowStreamNs(), 1068.0); // Read&Compare
    EXPECT_DOUBLE_EQ(3.0 * ct.rowStreamNs(), 1602.0); // Copy&Compare
    EXPECT_DOUBLE_EQ(ct.refreshOpNs(), 39.0);         // tRAS + tRP
}

TEST(Geometry, CapacityMath)
{
    Geometry g = Geometry::dimm8GB();
    g.validate();
    EXPECT_EQ(g.rowBytes(), 8u * 1024);
    EXPECT_EQ(g.capacityBytes(), 8ull * GiB);
    EXPECT_EQ(g.totalRows(), 8ull * 131072);
}

TEST(Geometry, DecomposeKnownAddress)
{
    Geometry g = Geometry::dimm8GB(); // RoBaRaCoCh, 1 ch, 1 rank
    Coordinates c = g.decompose(0);
    EXPECT_EQ(c.row, RowId{});
    EXPECT_EQ(c.bank, 0u);
    EXPECT_EQ(c.column, 0u);
    // Next block goes to the next column (single channel).
    c = g.decompose(64);
    EXPECT_EQ(c.column, 1u);
    EXPECT_EQ(c.row, RowId{});
    // One full row of columns later, the bank advances.
    c = g.decompose(g.rowBytes());
    EXPECT_EQ(c.column, 0u);
    EXPECT_EQ(c.bank, 1u);
}

/** Round-trip property across all mappings and random addresses. */
class MappingRoundTrip : public ::testing::TestWithParam<AddressMapping>
{
};

TEST_P(MappingRoundTrip, ComposeInvertsDecompose)
{
    Geometry g;
    g.channels = 2;
    g.ranks = 2;
    g.banks = 8;
    g.rowsPerBank = 1 << 12;
    g.columnsPerRow = 128;
    g.mapping = GetParam();
    g.validate();

    Rng rng(99);
    for (int i = 0; i < 2000; ++i) {
        std::uint64_t addr =
            (rng.uniformInt(g.totalBlocks())) * g.blockBytes;
        Coordinates c = g.decompose(addr);
        EXPECT_LT(c.channel, g.channels);
        EXPECT_LT(c.rank, g.ranks);
        EXPECT_LT(c.bank, g.banks);
        EXPECT_LT(c.row.value(), g.rowsPerBank);
        EXPECT_LT(c.column, g.columnsPerRow);
        ASSERT_EQ(g.compose(c), addr);
    }
}

INSTANTIATE_TEST_SUITE_P(Mappings, MappingRoundTrip,
                         ::testing::Values(AddressMapping::RoBaRaCoCh,
                                           AddressMapping::RoRaBaCoCh,
                                           AddressMapping::RoCoBaRaCh));

TEST(Geometry, FlatRowIndexRoundTrip)
{
    Geometry g;
    g.channels = 2;
    g.ranks = 2;
    g.banks = 4;
    g.rowsPerBank = 256;
    g.validate();
    for (std::uint64_t i = 0; i < g.totalRows(); i += 7) {
        Coordinates c = g.rowFromFlatIndex(RowId{i});
        ASSERT_EQ(g.flatRowIndex(c), RowId{i});
    }
}

class ChannelTest : public ::testing::Test
{
  protected:
    ChannelTest()
        : geom(smallGeom()),
          timing(TimingParams::ddr3_1600(Density::Gb8, TimeMs{16.0})),
          chan(geom, timing)
    {
    }

    static Geometry smallGeom()
    {
        Geometry g;
        g.channels = 1;
        g.ranks = 1;
        g.banks = 8;
        g.rowsPerBank = 1 << 12;
        return g;
    }

    Tick cyc(unsigned c) const { return timing.cyc(c); }

    Geometry geom;
    TimingParams timing;
    Channel chan;
};

TEST_F(ChannelTest, ActThenReadRespectsTrcd)
{
    EXPECT_TRUE(chan.canIssue(Command::Act, 0, 0, RowId{5}, Tick{}));
    chan.issue(Command::Act, 0, 0, RowId{5}, Tick{});
    EXPECT_TRUE(chan.isRowOpen(0, 0));
    EXPECT_TRUE(chan.isRowHit(0, 0, RowId{5}));

    EXPECT_FALSE(chan.canIssue(Command::Rd, 0, 0, RowId{5}, cyc(timing.tRCD) - Tick{1}));
    EXPECT_TRUE(chan.canIssue(Command::Rd, 0, 0, RowId{5}, cyc(timing.tRCD)));
}

TEST_F(ChannelTest, ReadDataReturnTime)
{
    chan.issue(Command::Act, 0, 0, RowId{5}, Tick{});
    Tick t = cyc(timing.tRCD);
    Tick done = chan.issue(Command::Rd, 0, 0, RowId{5}, t);
    EXPECT_EQ(done, t + cyc(timing.tCL + timing.tBL));
}

TEST_F(ChannelTest, PrechargeRespectsTras)
{
    chan.issue(Command::Act, 0, 0, RowId{5}, Tick{});
    EXPECT_FALSE(chan.canIssue(Command::Pre, 0, 0, RowId{0}, cyc(timing.tRAS) - Tick{1}));
    EXPECT_TRUE(chan.canIssue(Command::Pre, 0, 0, RowId{0}, cyc(timing.tRAS)));
    chan.issue(Command::Pre, 0, 0, RowId{0}, cyc(timing.tRAS));
    EXPECT_FALSE(chan.isRowOpen(0, 0));
}

TEST_F(ChannelTest, ActToActSameBankRespectsTrc)
{
    chan.issue(Command::Act, 0, 0, RowId{1}, Tick{});
    chan.issue(Command::Pre, 0, 0, RowId{0}, cyc(timing.tRAS));
    // tRC from the first ACT, tRP from the PRE - both must hold.
    Tick pre_done = cyc(timing.tRAS) + cyc(timing.tRP);
    Tick trc_done = cyc(timing.tRC);
    Tick earliest = std::max(pre_done, trc_done);
    EXPECT_FALSE(chan.canIssue(Command::Act, 0, 0, RowId{2}, earliest - Tick{1}));
    EXPECT_TRUE(chan.canIssue(Command::Act, 0, 0, RowId{2}, earliest));
}

TEST_F(ChannelTest, ColumnCommandNeedsMatchingOpenRow)
{
    chan.issue(Command::Act, 0, 0, RowId{5}, Tick{});
    // Wrong row: not issuable.
    EXPECT_FALSE(chan.canIssue(Command::Rd, 0, 0, RowId{6}, cyc(timing.tRCD)));
    // Closed bank: not issuable.
    EXPECT_FALSE(chan.canIssue(Command::Wr, 0, 1, RowId{5}, cyc(timing.tRCD)));
}

TEST_F(ChannelTest, ConsecutiveReadsRespectTccd)
{
    chan.issue(Command::Act, 0, 0, RowId{5}, Tick{});
    Tick t = cyc(timing.tRCD);
    chan.issue(Command::Rd, 0, 0, RowId{5}, t);
    EXPECT_FALSE(chan.canIssue(Command::Rd, 0, 0, RowId{5}, t + cyc(timing.tCCD) - Tick{1}));
    EXPECT_TRUE(chan.canIssue(Command::Rd, 0, 0, RowId{5}, t + cyc(timing.tCCD)));
}

TEST_F(ChannelTest, ActToActDifferentBanksRespectsTrrd)
{
    chan.issue(Command::Act, 0, 0, RowId{5}, Tick{});
    EXPECT_FALSE(chan.canIssue(Command::Act, 0, 1, RowId{5}, cyc(timing.tRRD) - Tick{1}));
    EXPECT_TRUE(chan.canIssue(Command::Act, 0, 1, RowId{5}, cyc(timing.tRRD)));
}

TEST_F(ChannelTest, FawLimitsActivationBursts)
{
    // Four back-to-back ACTs at tRRD spacing, then the fifth must
    // wait for the tFAW window.
    Tick t{};
    for (unsigned b = 0; b < 4; ++b) {
        chan.issue(Command::Act, 0, b, RowId{1}, t);
        t += cyc(timing.tRRD);
    }
    Tick faw_open = cyc(timing.tFAW); // window from the first ACT
    EXPECT_FALSE(chan.canIssue(Command::Act, 0, 4, RowId{1}, faw_open - Tick{1}));
    EXPECT_TRUE(chan.canIssue(Command::Act, 0, 4, RowId{1}, faw_open));
}

TEST_F(ChannelTest, WriteToReadTurnaround)
{
    chan.issue(Command::Act, 0, 0, RowId{5}, Tick{});
    Tick t = cyc(timing.tRCD);
    chan.issue(Command::Wr, 0, 0, RowId{5}, t);
    Tick wtr_done = t + cyc(timing.writeToRead());
    EXPECT_FALSE(chan.canIssue(Command::Rd, 0, 0, RowId{5}, wtr_done - Tick{1}));
    EXPECT_TRUE(chan.canIssue(Command::Rd, 0, 0, RowId{5}, wtr_done));
}

TEST_F(ChannelTest, WriteToPrechargeRespectsTwr)
{
    chan.issue(Command::Act, 0, 0, RowId{5}, Tick{});
    Tick t = cyc(timing.tRCD);
    chan.issue(Command::Wr, 0, 0, RowId{5}, t);
    Tick twr_done = t + cyc(timing.writeToPre());
    // tRAS may also bind; take the later of the two.
    Tick earliest = std::max(twr_done, cyc(timing.tRAS));
    EXPECT_FALSE(chan.canIssue(Command::Pre, 0, 0, RowId{0}, earliest - Tick{1}));
    EXPECT_TRUE(chan.canIssue(Command::Pre, 0, 0, RowId{0}, earliest));
}

TEST_F(ChannelTest, RefreshRequiresAllBanksPrecharged)
{
    chan.issue(Command::Act, 0, 3, RowId{5}, Tick{});
    EXPECT_FALSE(chan.canIssue(Command::Ref, 0, 0, RowId{0}, cyc(100)));
    chan.issue(Command::Pre, 0, 3, RowId{0}, cyc(timing.tRAS));
    Tick ready = cyc(timing.tRAS) + cyc(timing.tRP);
    EXPECT_TRUE(chan.allBanksPrecharged(0));
    EXPECT_TRUE(chan.canIssue(Command::Ref, 0, 0, RowId{0}, ready));
}

TEST_F(ChannelTest, RefreshBlocksRankForTrfc)
{
    Tick done = chan.issue(Command::Ref, 0, 0, RowId{0}, Tick{});
    EXPECT_EQ(done, cyc(timing.tRFC));
    EXPECT_FALSE(chan.canIssue(Command::Act, 0, 0, RowId{1}, done - Tick{1}));
    EXPECT_TRUE(chan.canIssue(Command::Act, 0, 0, RowId{1}, done));
}

TEST_F(ChannelTest, ReadWithAutoPrecharge)
{
    chan.issue(Command::Act, 0, 0, RowId{5}, Tick{});
    Tick t = cyc(timing.tRCD);
    chan.issue(Command::RdA, 0, 0, RowId{5}, t);
    EXPECT_FALSE(chan.isRowOpen(0, 0));
}

TEST_F(ChannelTest, IllegalIssuePanics)
{
    chan.issue(Command::Act, 0, 0, RowId{5}, Tick{});
    // Reading before tRCD is a controller bug -> panic (abort).
    EXPECT_DEATH(chan.issue(Command::Rd, 0, 0, RowId{5}, Tick{1}), "legal only from");
    // ACT on an open bank is a state violation.
    EXPECT_DEATH(chan.issue(Command::Act, 0, 0, RowId{6}, cyc(1000)),
                 "open row");
}

TEST_F(ChannelTest, StatsCountCommands)
{
    chan.issue(Command::Act, 0, 0, RowId{5}, Tick{});
    chan.issue(Command::Rd, 0, 0, RowId{5}, cyc(timing.tRCD));
    EXPECT_EQ(chan.stats().value("cmd.ACT"), 1.0);
    EXPECT_EQ(chan.stats().value("cmd.RD"), 1.0);
}

TEST_F(ChannelTest, CommandCountsSurviveStateRoundTrip)
{
    // Every command once (ACT four times, REF twice): each counter is named
    // "cmd." + toString(cmd), the record carries it, and a restore
    // brings the counts and the record bytes back exactly.
    Tick t{};
    auto at = [&](Command cmd, unsigned bank, RowId row) {
        t = std::max(t, chan.earliestIssueTick(cmd, 0, bank, row));
        chan.issue(cmd, 0, bank, row, t);
    };
    at(Command::Act, 0, RowId{5});
    at(Command::Rd, 0, RowId{5});
    at(Command::Wr, 0, RowId{5});
    at(Command::Pre, 0, RowId{5});
    at(Command::Act, 1, RowId{6});
    at(Command::RdA, 1, RowId{6});
    at(Command::Act, 2, RowId{7});
    at(Command::WrA, 2, RowId{7});
    at(Command::Act, 3, RowId{8});
    at(Command::PreA, 0, RowId{});
    at(Command::Ref, 0, RowId{});
    at(Command::Ref, 0, RowId{});
    const StatGroup counts = chan.stats();
    for (Command cmd : {Command::Act, Command::Pre, Command::PreA,
                        Command::Rd, Command::RdA, Command::Wr,
                        Command::WrA, Command::Ref}) {
        const double expected = cmd == Command::Act   ? 4.0
                                : cmd == Command::Ref ? 2.0
                                                      : 1.0;
        EXPECT_EQ(counts.value("cmd." + toString(cmd)), expected)
            << toString(cmd);
    }
    EXPECT_EQ(counts.entries().size(), kNumCommands);

    StateWriter out;
    chan.saveState(out);
    const std::vector<std::string> saved = std::move(out).take();
    Channel restored(geom, timing);
    StateReader in(saved);
    restored.loadState(in);
    in.finish();
    EXPECT_EQ(restored.stats().dump(), counts.dump());
    StateWriter again;
    restored.saveState(again);
    EXPECT_EQ(std::move(again).take(), saved);

    // Every counter is written, zeros included, in command order. A
    // count that is not an integer below 2^53, or an unknown, extra or
    // missing key does not decode.
    auto replaced = [&saved](const std::string &good, const std::string &bad) {
        std::vector<std::string> record = saved;
        for (std::string &line : record) {
            const std::size_t pos = line.find(good);
            if (pos != std::string::npos)
                line.replace(pos, good.size(), bad);
        }
        EXPECT_NE(record, saved) << good;
        return record;
    };
    const std::pair<const char *, const char *> bad_records[] = {
        {"cmd.ACT=4", "cmd.ACT=1.5"},
        {"cmd.ACT=4", "cmd.ACT=-4"},
        {"cmd.ACT=4", "cmd.ACT=9007199254740992"},
        {"cmd.ACT=4", "cmd.ACK=4"},
        {"cmd.ACT=4", "cmd.ACK=1 cmd.ACT=4"},
        {"cmd.REF=2", "cmd.REF=2 rowHit=4"},
        {" cmd.WRA=1", ""},
    };
    for (const auto &[good, bad] : bad_records) {
        const std::vector<std::string> record = replaced(good, bad);
        Channel target(geom, timing);
        StateReader bad_in(record);
        EXPECT_THROW(
            {
                target.loadState(bad_in);
                bad_in.finish();
            },
            StateError)
            << bad;
    }

    // A zero count is a record like any other.
    const std::vector<std::string> zeroed = replaced("cmd.PREA=1", "cmd.PREA=0");
    Channel target(geom, timing);
    StateReader zero_in(zeroed);
    target.loadState(zero_in);
    zero_in.finish();
    EXPECT_EQ(target.stats().entries().size(), kNumCommands - 1);
    StateWriter resaved;
    target.saveState(resaved);
    EXPECT_EQ(std::move(resaved).take(), zeroed);
}

/**
 * Property: a driver that always asks earliestIssueTick() and issues
 * at that time never trips a timing panic, across random command
 * sequences (the channel self-checks every constraint).
 */
class ChannelFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

/** The bank's open row, found through the scheduler's row-hit test
 * (the bank must have one open). */
RowId
openRowOf(const Channel &chan, unsigned rank, unsigned bank)
{
    const std::uint64_t rows = chan.geometry().rowsPerBank;
    for (std::uint64_t r = 0; r < rows; ++r)
        if (chan.isRowHit(rank, bank, RowId{r}))
            return RowId{r};
    ADD_FAILURE() << "no open row in rank " << rank << " bank " << bank;
    return RowId{};
}

TEST_P(ChannelFuzz, LegalDriverNeverPanics)
{
    Geometry g;
    g.channels = 1;
    g.ranks = 2;
    g.banks = 4;
    g.rowsPerBank = 64;
    TimingParams timing = TimingParams::ddr3_1600(Density::Gb8, TimeMs{16.0});
    Channel chan(g, timing);
    Rng rng(GetParam());

    Tick now{};
    for (int step = 0; step < 3000; ++step) {
        unsigned rank = rng.uniformInt(g.ranks);
        unsigned bank = rng.uniformInt(g.banks);
        RowId row{rng.uniformInt(g.rowsPerBank)};

        Command cmd;
        if (chan.isRowOpen(rank, bank)) {
            switch (rng.uniformInt(4)) {
              case 0:
                cmd = Command::Rd;
                row = openRowOf(chan, rank, bank);
                break;
              case 1:
                cmd = Command::Wr;
                row = openRowOf(chan, rank, bank);
                break;
              case 2:
                cmd = Command::RdA;
                row = openRowOf(chan, rank, bank);
                break;
              default:
                cmd = Command::Pre;
            }
        } else if (chan.allBanksPrecharged(rank) &&
                   rng.uniformInt(8) == 0) {
            cmd = Command::Ref;
        } else {
            cmd = Command::Act;
        }

        Tick earliest = chan.earliestIssueTick(cmd, rank, bank, row);
        now = std::max(now, earliest);
        // Issuing exactly at the earliest legal tick must not panic,
        // and issuing later must also be fine.
        now += timing.tCk * rng.uniformInt(3);
        ASSERT_NO_FATAL_FAILURE(chan.issue(cmd, rank, bank, row, now));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChannelFuzz,
                         ::testing::Values(101, 102, 103, 104, 105, 106));

// --- SECDED edge paths --------------------------------------------
//
// The resilience layer acts on decode verdicts, so the code's
// detection guarantees are load-bearing: a double error that decoded
// as Ok (or miscorrected into CorrectedData) would silently poison a
// LO-REF verdict. The double-flip tests are exhaustive. The codec is
// the test oracle the injector's flip-count classification is
// checked against (test_failure's SecdedOracle suite).

using oracles::EccDecode;
using oracles::EccWord;
using oracles::Secded64;

TEST(SecdedEdge, EveryDoubleDataBitFlipIsDetectedNotMiscorrected)
{
    Rng rng(42);
    for (int trial = 0; trial < 4; ++trial) {
        std::uint64_t data = rng.next();
        EccWord word = Secded64::encode(data);
        for (unsigned a = 0; a < 64; ++a) {
            for (unsigned b = a + 1; b < 64; ++b) {
                EccWord bad = word;
                bad.data ^= (std::uint64_t{1} << a) |
                            (std::uint64_t{1} << b);
                EccDecode out = Secded64::decode(bad);
                ASSERT_EQ(out.status, EccStatus::Uncorrectable)
                    << "bits " << a << "," << b;
            }
        }
    }
}

TEST(SecdedEdge, DataPlusCheckBitFlipIsDetected)
{
    Rng rng(43);
    std::uint64_t data = rng.next();
    EccWord word = Secded64::encode(data);
    for (unsigned d = 0; d < 64; ++d) {
        for (unsigned c = 0; c < 8; ++c) {
            EccWord bad = word;
            bad.data ^= std::uint64_t{1} << d;
            bad.check ^= static_cast<std::uint8_t>(1u << c);
            EccDecode out = Secded64::decode(bad);
            ASSERT_EQ(out.status, EccStatus::Uncorrectable)
                << "data bit " << d << ", check bit " << c;
        }
    }
}

TEST(SecdedEdge, DoubleCheckBitFlipIsDetected)
{
    Rng rng(44);
    std::uint64_t data = rng.next();
    EccWord word = Secded64::encode(data);
    for (unsigned a = 0; a < 8; ++a) {
        for (unsigned b = a + 1; b < 8; ++b) {
            EccWord bad = word;
            bad.check ^= static_cast<std::uint8_t>((1u << a) |
                                                   (1u << b));
            EccDecode out = Secded64::decode(bad);
            ASSERT_EQ(out.status, EccStatus::Uncorrectable)
                << "check bits " << a << "," << b;
        }
    }
}

TEST(SecdedEdge, CheckBitOnlyFlipLeavesDataIntact)
{
    Rng rng(45);
    for (int trial = 0; trial < 8; ++trial) {
        std::uint64_t data = rng.next();
        EccWord word = Secded64::encode(data);
        for (unsigned c = 0; c < 8; ++c) {
            EccWord bad = word;
            bad.check ^= static_cast<std::uint8_t>(1u << c);
            EccDecode out = Secded64::decode(bad);
            EXPECT_EQ(out.status, EccStatus::CorrectedCheck);
            EXPECT_EQ(out.data, data);
        }
    }
}

TEST(SecdedEdge, TripleFlipsNeverDecodeOkButCanMiscorrect)
{
    // Beyond the code's guarantee: three flips always trip the
    // overall parity (never Ok), but the syndrome can alias to a
    // wrong single-bit repair. This documents why an Uncorrectable
    // observation cannot be the *only* trigger of the fallback path -
    // corrected verdicts must be treated as suspect too.
    Rng rng(46);
    unsigned miscorrected = 0;
    for (int trial = 0; trial < 2000; ++trial) {
        std::uint64_t data = rng.next();
        EccWord word = Secded64::encode(data);
        unsigned a = static_cast<unsigned>(rng.uniformInt(64));
        unsigned b = static_cast<unsigned>(rng.uniformInt(64));
        unsigned c = static_cast<unsigned>(rng.uniformInt(64));
        if (a == b || b == c || a == c)
            continue;
        EccWord bad = word;
        bad.data ^= (std::uint64_t{1} << a) | (std::uint64_t{1} << b) |
                    (std::uint64_t{1} << c);
        EccDecode out = Secded64::decode(bad);
        ASSERT_NE(out.status, EccStatus::Ok);
        if (out.status != EccStatus::Uncorrectable &&
            out.data != data)
            ++miscorrected;
    }
    EXPECT_GT(miscorrected, 0u);
}

TEST(SecdedEdge, SignatureCatchesOneAndTwoBitWordCorruption)
{
    // Copy&Compare keeps only each word's check byte; any 1- or 2-bit
    // decay in a word must change its check byte or the comparison
    // would certify a failing row. Exhaustive over both flip counts.
    Rng rng(47);
    for (int trial = 0; trial < 16; ++trial) {
        const std::uint64_t word = rng.next();
        const std::uint8_t check = Secded64::encodeCheck(word);
        for (unsigned a = 0; a < 64; ++a) {
            const std::uint64_t one = word ^ (std::uint64_t{1} << a);
            ASSERT_NE(Secded64::encodeCheck(one), check)
                << std::hex << "word " << word << std::dec << " bit " << a;
            for (unsigned b = a + 1; b < 64; ++b)
                ASSERT_NE(Secded64::encodeCheck(
                              one ^ (std::uint64_t{1} << b)),
                          check)
                    << std::hex << "word " << word << std::dec
                    << " bits " << a << "," << b;
        }
    }
}

} // namespace
} // namespace memcon::dram
