/**
 * @file
 * Tests for the closed-loop, cycle-domain MEMCON integration:
 * PRIL fed by real controller write traffic, test traffic injection,
 * slot-limited testing, abort-on-write, and the emergent refresh
 * reduction re-targeting the controller.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/closed_loop.hh"
#include "sim/system.hh"
#include "trace/cpu_gen.hh"

namespace memcon::core
{
namespace
{

/** A hand-driven rig: controller + OnlineMemcon, no cores. */
struct Rig
{
    explicit Rig(OnlineMemconConfig cfg = smallConfig(),
                 OnlineMemcon::RowFailureOracle oracle = {})
        : geom(smallGeom()),
          timing(dram::TimingParams::ddr3_1600(dram::Density::Gb8, TimeMs{16.0})),
          loop(geom, timing, cfg, std::move(oracle))
    {
    }

    static dram::Geometry
    smallGeom()
    {
        dram::Geometry g;
        g.channels = 1;
        g.ranks = 1;
        g.banks = 8;
        g.rowsPerBank = 256; // 2048 rows
        return g;
    }

    static OnlineMemconConfig
    smallConfig()
    {
        OnlineMemconConfig cfg;
        cfg.quantum = usToTicks(50.0);
        cfg.testIdle = usToTicks(20.0);
        cfg.retargetPeriod = usToTicks(25.0);
        cfg.testEngine.slots = 8;
        return cfg;
    }

    /** Advance the rig by the given number of DRAM cycles. */
    void
    spin(unsigned cycles)
    {
        for (unsigned i = 0; i < cycles; ++i) {
            now += timing.tCk;
            loop.tick(now);
        }
    }

    /** Issue one demand write to a row (column 0). */
    void
    writeRow(std::uint64_t row)
    {
        dram::Coordinates c = geom.rowFromFlatIndex(RowId{row});
        sim::Request req;
        req.type = sim::Request::Type::Write;
        req.addr = geom.compose(c);
        while (!mc->enqueue(std::move(req), now))
            spin(1);
    }

    /** LO-REF fraction of one bank of the map, counted from the
     * per-row state (0.0 for a bank that owns no rows). */
    double
    loRefFractionOfBank(const dram::AddressMap &map,
                        std::uint64_t bank) const
    {
        std::uint64_t rows = 0;
        std::uint64_t lo = 0;
        for (std::uint64_t r = 0; r < geom.totalRows(); ++r) {
            if (map.shardOf(r) != bank)
                continue;
            ++rows;
            lo += memcon->isLoRef(RowId{r});
        }
        return rows == 0 ? 0.0
                         : static_cast<double>(lo) /
                               static_cast<double>(rows);
    }

    dram::Geometry geom;
    dram::TimingParams timing;
    ClosedLoop loop;
    sim::MemoryController *mc = &loop.controller();
    OnlineMemcon *memcon = &loop.memcon();
    Tick now{};
};

TEST(OnlineMemcon, WrittenRowBecomesTestedAndGoesLoRef)
{
    Rig rig;
    rig.writeRow(5);
    // Two quanta (50 us each) plus the test idle and traffic time.
    rig.spin(200000); // 250 us of DRAM cycles
    EXPECT_GE(rig.memcon->testsStarted(), 1u);
    EXPECT_GE(rig.memcon->testsPassed(), 1u);
    EXPECT_GT(rig.memcon->loRefFraction(), 0.0);
    EXPECT_EQ(rig.memcon->writesObserved(), 1u);
}

TEST(OnlineMemcon, WriteDuringTestAborts)
{
    Rig rig;
    rig.writeRow(5);
    // Let the candidate enter testing (two quantum ends = 100 us,
    // idle 20 us) but write again before completion.
    rig.spin(85000); // ~106 us: test started, not yet complete
    if (rig.memcon->testsStarted() > 0 &&
        rig.memcon->testsPassed() == 0) {
        rig.writeRow(5);
        rig.spin(2000);
        EXPECT_GE(rig.memcon->testsAborted(), 1u);
    } else {
        GTEST_SKIP() << "test completed before the abort window";
    }
}

TEST(OnlineMemcon, FailingRowNeverReachesLoRef)
{
    auto oracle = [](RowId row) { return row == RowId{5}; };
    Rig rig(Rig::smallConfig(), oracle);
    rig.writeRow(5);
    rig.writeRow(9);
    rig.spin(300000);
    EXPECT_GE(rig.memcon->testsFailed(), 1u);
    EXPECT_GE(rig.memcon->testsPassed(), 1u);
    // The condemned row never reaches LO-REF; the clean one does.
    EXPECT_FALSE(rig.memcon->isLoRef(RowId{5}));
    EXPECT_TRUE(rig.memcon->isLoRef(RowId{9}));
}

TEST(OnlineMemcon, DemandWriteDemotesLoRow)
{
    Rig rig;
    rig.writeRow(7);
    rig.spin(250000);
    ASSERT_TRUE(rig.memcon->isLoRef(RowId{7}));
    rig.writeRow(7);
    rig.spin(100);
    EXPECT_EQ(rig.memcon->demotions(), 1u);
    EXPECT_FALSE(rig.memcon->isLoRef(RowId{7}));
}

TEST(OnlineMemcon, PerBankLoFractionsPartitionTheModule)
{
    // 2048 rows over the 8-bank map: 256 rows per bank, and the
    // per-bank LO fractions of the per-row state must reassemble the
    // global counter exactly.
    OnlineMemconConfig cfg = Rig::smallConfig();
    cfg.addressMap = dram::AddressMap::paperDdr3_8bank();
    Rig rig(cfg);
    for (std::uint64_t r = 0; r < 8; ++r)
        rig.writeRow(r);
    rig.spin(250000);
    ASSERT_GT(rig.memcon->loRefFraction(), 0.0);
    double weighted = 0.0;
    for (std::uint64_t s = 0; s < 8; ++s) {
        const double f = rig.loRefFractionOfBank(cfg.addressMap, s);
        EXPECT_GE(f, 0.0);
        EXPECT_LE(f, 1.0);
        weighted += f * 256.0;
    }
    EXPECT_DOUBLE_EQ(weighted / 2048.0, rig.memcon->loRefFraction());
}

TEST(OnlineMemcon, DemotionDebitsTheRowsOwnBank)
{
    // Row 13 sits in bank 5 of the 8-bank map (13 & 7): its
    // promotion credits exactly that bank and its write-demotion
    // debits it again. Every other row is condemned by the oracle, so
    // the background read-only sweep cannot promote anything else and
    // the per-bank counters are fully deterministic.
    OnlineMemconConfig cfg = Rig::smallConfig();
    cfg.addressMap = dram::AddressMap::paperDdr3_8bank();
    auto oracle = [](RowId row) { return row != RowId{13}; };
    Rig rig(cfg, oracle);
    rig.writeRow(13);
    rig.spin(250000);
    ASSERT_TRUE(rig.memcon->isLoRef(RowId{13}));
    for (std::uint64_t s = 0; s < 8; ++s)
        EXPECT_DOUBLE_EQ(rig.loRefFractionOfBank(cfg.addressMap, s),
                         s == 5 ? 1.0 / 256.0 : 0.0)
            << "bank " << s;

    rig.writeRow(13);
    rig.spin(100);
    ASSERT_FALSE(rig.memcon->isLoRef(RowId{13}));
    for (std::uint64_t s = 0; s < 8; ++s)
        EXPECT_DOUBLE_EQ(rig.loRefFractionOfBank(cfg.addressMap, s), 0.0)
            << "bank " << s;
}

TEST(OnlineMemcon, IdentityMapHasOneWholeModuleBucket)
{
    Rig rig;
    rig.writeRow(3);
    rig.spin(250000);
    EXPECT_DOUBLE_EQ(
        rig.loRefFractionOfBank(dram::AddressMap::identity(), 0),
        rig.memcon->loRefFraction());
}

TEST(OnlineMemcon, ControllerRefreshReductionTracksLoFraction)
{
    Rig rig;
    EXPECT_DOUBLE_EQ(rig.mc->refreshReduction(), 0.0);
    for (std::uint64_t r = 0; r < 64; ++r)
        rig.writeRow(r);
    rig.spin(600000);
    double expected = rig.memcon->emergentReduction();
    EXPECT_GT(expected, 0.0);
    // The controller lags by at most one retarget period.
    EXPECT_NEAR(rig.mc->refreshReduction(), expected, 0.01);
    EXPECT_NEAR(expected,
                rig.memcon->loRefFraction() * 0.75, 1e-12);
}

TEST(OnlineMemcon, SlotBudgetQueuesCandidates)
{
    OnlineMemconConfig cfg = Rig::smallConfig();
    cfg.testEngine.slots = 2;
    Rig rig(cfg);
    for (std::uint64_t r = 0; r < 32; ++r)
        rig.writeRow(r);
    rig.spin(1200000);
    // All 32 written rows eventually reach LO-REF despite only 2
    // concurrent slots (read-only rows are tested too).
    EXPECT_GE(rig.memcon->testsPassed(), 32u);
    for (std::uint64_t r = 0; r < 32; ++r)
        EXPECT_TRUE(rig.memcon->isLoRef(RowId{r})) << "row " << r;
}

TEST(OnlineMemcon, ExhaustedReserveRequeuesCandidates)
{
    // Copy&Compare with one reserve row: slots are free, but only one
    // test can hold the reserve at a time. The other candidates must
    // wait their turn rather than drop out of the queue.
    OnlineMemconConfig cfg = Rig::smallConfig();
    cfg.testEngine.mode = TestMode::CopyAndCompare;
    cfg.testEngine.reserveRowsPerBank = 1;
    cfg.testEngine.banks = 1;
    cfg.testEngine.slots = 4;
    Rig rig(cfg);
    for (std::uint64_t r = 0; r < 3; ++r)
        rig.writeRow(r);
    rig.spin(400000); // 500 us
    for (std::uint64_t r = 0; r < 3; ++r)
        EXPECT_TRUE(rig.memcon->isLoRef(RowId{r})) << "row " << r;
}

TEST(OnlineMemcon, FullSystemClosedLoop)
{
    // End to end with real cores: the reduction emerges and the
    // refresh count drops relative to a MEMCON-less run. A tiny
    // module and compressed quanta keep the test fast.
    dram::Geometry geom = Rig::smallGeom();
    geom.rowsPerBank = 16; // 128 rows
    auto timing = dram::TimingParams::ddr3_1600(dram::Density::Gb8, TimeMs{16.0});

    auto run = [&](bool with_memcon) {
        OnlineMemconConfig om_cfg = Rig::smallConfig();
        om_cfg.quantum = usToTicks(10.0);
        om_cfg.testIdle = usToTicks(5.0);
        std::unique_ptr<ClosedLoop> loop;
        std::unique_ptr<sim::MemoryController> bare;
        if (with_memcon)
            loop = std::make_unique<ClosedLoop>(geom, timing, om_cfg);
        else
            bare = std::make_unique<sim::MemoryController>(
                geom, timing, sim::ControllerConfig{});
        sim::MemoryController &mc = loop ? loop->controller() : *bare;

        trace::CpuAccessStream stream(
            trace::CpuPersona::byName("perlbench"), 1);
        sim::SimpleCore core(0, std::move(stream), mc, 0,
                             geom.totalBlocks());
        Tick now{};
        const Tick horizon = msToTicks(0.8);
        while (now < horizon) {
            now += timing.tCk;
            if (loop)
                loop->tick(now);
            else
                mc.tick(now);
            for (unsigned k = 0; k < 5; ++k)
                core.tick(now);
        }
        return std::pair{mc.stats().value("refresh") /
                             ticksToMs(now).value(),
                         loop ? loop->memcon().loRefFraction() : 0.0};
    };

    auto [base_rate, base_lo] = run(false);
    auto [memcon_rate, memcon_lo] = run(true);
    // Time compression makes the demand write rate ~1000x higher
    // relative to the quantum than in real time, so the equilibrium
    // LO share is modest; what matters is that rows migrate and the
    // refresh rate follows.
    EXPECT_GT(memcon_lo, 0.15);
    EXPECT_LT(memcon_rate, base_rate * 0.9);
}

} // namespace
} // namespace memcon::core
