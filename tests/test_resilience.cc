/**
 * @file
 * Tests for the fault-injection and graceful-degradation layer: the
 * FaultInjector's composed per-(row, tick) query, the controller's
 * error-event hook, and OnlineMemcon's degradation state machine
 * (corrected-error demotion + backoff re-test + pinning, panic-
 * fallback on uncorrectable errors, periodic LO-REF re-scrub).
 *
 * Everything here is deterministic under the fixed seeds used.
 */

#include <gtest/gtest.h>

#include <functional>

#include "core/closed_loop.hh"
#include "failure/injector.hh"
#include "failure/vrt.hh"

namespace memcon::core
{
namespace
{

using dram::EccStatus;
using failure::FaultInjector;
using failure::FaultInjectorConfig;

/** Controller + OnlineMemcon rig with a programmable ECC probe. */
struct Rig
{
    explicit Rig(OnlineMemconConfig cfg = smallConfig(),
                 OnlineMemcon::RowFailureOracle oracle = {})
        : geom(smallGeom()),
          timing(dram::TimingParams::ddr3_1600(dram::Density::Gb8, TimeMs{16.0})),
          loop(geom, timing, cfg, std::move(oracle), probeConfig())
    {
    }

    sim::ControllerConfig
    probeConfig()
    {
        sim::ControllerConfig mc_cfg;
        mc_cfg.eccProbe = [this](std::uint64_t addr,
                                 Tick t) -> EccStatus {
            ++probeCalls;
            if (!rowProbe)
                return EccStatus::Ok;
            return rowProbe(geom.flatRowIndex(geom.decompose(addr)), t);
        };
        return mc_cfg;
    }

    static dram::Geometry
    smallGeom()
    {
        dram::Geometry g;
        g.channels = 1;
        g.ranks = 1;
        g.banks = 8;
        // Small enough that the read-only background sweep (which has
        // priority over scrub for test slots) drains quickly.
        g.rowsPerBank = 8; // 64 rows
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
        cfg.resilience.retestBackoff = usToTicks(30.0);
        cfg.resilience.fallbackHold = usToTicks(80.0);
        return cfg;
    }

    void
    spin(unsigned cycles)
    {
        for (unsigned i = 0; i < cycles; ++i) {
            now += timing.tCk;
            loop.tick(now);
        }
    }

    /** Spin in chunks until the predicate holds; false on timeout. */
    bool
    spinUntil(const std::function<bool()> &pred,
              unsigned max_cycles = 1200000)
    {
        for (unsigned spent = 0; spent < max_cycles; spent += 1000) {
            if (pred())
                return true;
            spin(1000);
        }
        return pred();
    }

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

    /** Issue one demand read and let it complete (fires the probe). */
    void
    readRow(std::uint64_t row)
    {
        dram::Coordinates c = geom.rowFromFlatIndex(RowId{row});
        sim::Request req;
        req.type = sim::Request::Type::Read;
        req.addr = geom.compose(c);
        while (!mc->enqueue(std::move(req), now))
            spin(1);
        spin(2000); // ample time for service + completion
    }

    /** Write a row and spin until it is certified LO-REF. */
    void
    promote(std::uint64_t row)
    {
        writeRow(row);
        ASSERT_TRUE(spinUntil(
            [&] { return memcon->isLoRef(RowId{row}); }))
            << "row " << row << " never reached LO-REF";
    }

    double
    stat(const char *name) const
    {
        return memcon->stats().value(name);
    }

    dram::Geometry geom;
    dram::TimingParams timing;
    std::function<EccStatus(RowId row, Tick)> rowProbe;
    unsigned probeCalls = 0;
    ClosedLoop loop;
    sim::MemoryController *mc = &loop.controller();
    OnlineMemcon *memcon = &loop.memcon();
    Tick now{};
};

// --- controller error-event hook -----------------------------------

TEST(ErrorEventHook, CorrectedReadFiresObserverAndStats)
{
    Rig rig;
    rig.rowProbe = [](RowId, Tick) {
        return EccStatus::CorrectedData;
    };
    rig.readRow(1);
    EXPECT_EQ(rig.mc->stats().value("ecc.corrected"), 1.0);
    EXPECT_EQ(rig.stat("ecc.corrected"), 1.0);
    // Row 1 was not LO-REF: counted, but no demotion.
    EXPECT_EQ(rig.stat("demote.corrected"), 0.0);
    EXPECT_EQ(rig.memcon->demotions(), 0u);
}

TEST(ErrorEventHook, TestTrafficReadsAreNotProbed)
{
    Rig rig;
    rig.writeRow(5);
    ASSERT_TRUE(rig.spinUntil(
        [&] { return rig.memcon->testsPassed() >= 1; }));
    // The test's two read passes completed without touching the
    // probe: verdicts come from the failure oracle, not ECC.
    EXPECT_EQ(rig.probeCalls, 0u);
}

// --- corrected-error path ------------------------------------------

TEST(GracefulDegradation, CorrectedErrorDemotesWithinOneRetargetPeriod)
{
    Rig rig;
    rig.promote(5);
    // Let the read-only background sweep certify every row and the
    // cadence catch up, so the demotion is the only moving part.
    ASSERT_TRUE(rig.spinUntil(
        [&] { return rig.memcon->loRefFraction() >= 1.0 &&
                     rig.mc->refreshReduction() >=
                         rig.memcon->emergentReduction() - 1e-12; }));
    double reduction_before = rig.mc->refreshReduction();
    ASSERT_GT(reduction_before, 0.0);

    rig.rowProbe = [](RowId row, Tick) {
        return row == RowId{5} ? EccStatus::CorrectedData : EccStatus::Ok;
    };
    rig.readRow(5);
    // Demotion is immediate - well inside one retarget period.
    EXPECT_FALSE(rig.memcon->isLoRef(RowId{5}));
    EXPECT_EQ(rig.stat("demote.corrected"), 1.0);
    EXPECT_EQ(rig.stat("retest.scheduled"), 1.0);
    // The controller's cadence follows at the next retarget.
    rig.spin(static_cast<unsigned>(usToTicks(30.0) / rig.timing.tCk));
    EXPECT_LT(rig.mc->refreshReduction(), reduction_before);
}

TEST(GracefulDegradation, BackoffRetestRecertifiesHealedRow)
{
    Rig rig;
    rig.promote(5);
    rig.rowProbe = [](RowId row, Tick) {
        return row == RowId{5} ? EccStatus::CorrectedData : EccStatus::Ok;
    };
    rig.readRow(5);
    ASSERT_FALSE(rig.memcon->isLoRef(RowId{5}));
    // The fault clears (VRT cell back in its healthy state); the
    // scheduled backoff re-test re-certifies the row without any
    // demand write.
    rig.rowProbe = {};
    EXPECT_TRUE(rig.spinUntil([&] { return rig.memcon->isLoRef(RowId{5}); }));
    EXPECT_EQ(rig.memcon->pinnedRows(), 0u);
}

TEST(GracefulDegradation, ChronicCorrectedErrorsPinRowHiRef)
{
    OnlineMemconConfig cfg = Rig::smallConfig();
    cfg.resilience.maxCorrectedRetries = 2;
    Rig rig(cfg);
    rig.promote(5);
    rig.rowProbe = [](RowId row, Tick) {
        return row == RowId{5} ? EccStatus::CorrectedData : EccStatus::Ok;
    };
    // Episode 1 and 2: demote, re-test passes, row returns to LO.
    for (int episode = 1; episode <= 2; ++episode) {
        rig.readRow(5);
        ASSERT_FALSE(rig.memcon->isLoRef(RowId{5}));
        ASSERT_TRUE(rig.spinUntil(
            [&] { return rig.memcon->isLoRef(RowId{5}); }))
            << "episode " << episode;
    }
    // Episode 3 exhausts the retries: pinned at HI-REF for good.
    rig.readRow(5);
    EXPECT_FALSE(rig.memcon->isLoRef(RowId{5}));
    EXPECT_EQ(rig.memcon->pinnedRows(), 1u);
    EXPECT_EQ(rig.stat("pinned"), 1.0);
    rig.spin(600000);
    EXPECT_FALSE(rig.memcon->isLoRef(RowId{5}));
    EXPECT_EQ(rig.stat("demote.corrected"), 3.0);
}

// --- uncorrectable / panic-fallback --------------------------------

TEST(GracefulDegradation, UncorrectableEntersAndExitsFallback)
{
    Rig rig;
    for (std::uint64_t r = 0; r < 8; ++r)
        rig.writeRow(r);
    ASSERT_TRUE(rig.spinUntil(
        [&] { return rig.memcon->loRefFraction() > 0.0 &&
                     rig.mc->refreshReduction() > 0.0; }));

    rig.rowProbe = [](RowId row, Tick) {
        return row == RowId{3} ? EccStatus::Uncorrectable : EccStatus::Ok;
    };
    rig.readRow(3);
    // Panic-fallback: blanket HI-REF, cadence re-targeted at once.
    EXPECT_TRUE(rig.memcon->inFallback());
    EXPECT_DOUBLE_EQ(rig.memcon->loRefFraction(), 0.0);
    EXPECT_DOUBLE_EQ(rig.mc->refreshReduction(), 0.0);
    EXPECT_EQ(rig.stat("fallback.entries"), 1.0);
    EXPECT_EQ(rig.memcon->pinnedRows(), 1u);

    // Quiet period: fallback exits and the formerly-LO rows re-earn
    // their verdicts; the machine-checked row stays pinned.
    rig.rowProbe = {};
    EXPECT_TRUE(rig.spinUntil(
        [&] { return !rig.memcon->inFallback() &&
                     rig.memcon->loRefFraction() > 0.0; }));
    EXPECT_EQ(rig.stat("fallback.exits"), 1.0);
    EXPECT_FALSE(rig.memcon->isLoRef(RowId{3}));
}

TEST(GracefulDegradation, FallbackDrainsTestSlots)
{
    Rig rig;
    rig.writeRow(5);
    // Catch the window where the test is in flight.
    ASSERT_TRUE(rig.spinUntil(
        [&] { return rig.memcon->testsStarted() >= 1; }));
    if (rig.memcon->testsPassed() > 0)
        GTEST_SKIP() << "test completed before the drain window";
    rig.rowProbe = [](RowId, Tick) {
        return EccStatus::Uncorrectable;
    };
    rig.readRow(9);
    EXPECT_TRUE(rig.memcon->inFallback());
    EXPECT_GE(rig.stat("fallback.drained"), 1.0);
    EXPECT_GE(rig.memcon->testsAborted(), 1u);
}

TEST(GracefulDegradation, DisabledLayerOnlyCounts)
{
    OnlineMemconConfig cfg = Rig::smallConfig();
    cfg.resilience.enabled = false;
    Rig rig(cfg);
    rig.promote(5);
    rig.rowProbe = [](RowId row, Tick) {
        return row == RowId{5} ? EccStatus::CorrectedData
                        : EccStatus::Uncorrectable;
    };
    rig.readRow(5);
    rig.readRow(9);
    // The trusting baseline: events are visible in the stats but the
    // mechanism acts on none of them.
    EXPECT_GE(rig.stat("ecc.corrected"), 1.0);
    EXPECT_GE(rig.stat("ecc.uncorrectable"), 1.0);
    EXPECT_TRUE(rig.memcon->isLoRef(RowId{5}));
    EXPECT_FALSE(rig.memcon->inFallback());
    EXPECT_EQ(rig.memcon->pinnedRows(), 0u);
}

// --- idle-row re-scrub ---------------------------------------------

TEST(Scrub, DetectsStaleLoRefVerdict)
{
    OnlineMemconConfig cfg = Rig::smallConfig();
    cfg.resilience.scrubPeriod = usToTicks(30.0);
    cfg.resilience.scrubRowsPerSweep = 16;
    bool condemned = false;
    auto oracle = [&condemned](RowId row) {
        return condemned && row == RowId{5};
    };
    Rig rig(cfg, oracle);
    rig.promote(5);
    rig.promote(9);
    // The row's cell drops into its leaky state *after* certification
    // - the AVATAR hazard. No write, no demand read: only the scrub
    // sweep can catch it.
    condemned = true;
    EXPECT_TRUE(rig.spinUntil(
        [&] { return !rig.memcon->isLoRef(RowId{5}); }));
    EXPECT_GE(rig.stat("scrub.failed"), 1.0);
    EXPECT_GE(rig.stat("demote.scrub"), 1.0);
    // The healthy row is re-affirmed, not demoted.
    EXPECT_TRUE(rig.memcon->isLoRef(RowId{9}));
    EXPECT_GE(rig.stat("scrub.passed"), 1.0);
}

TEST(Scrub, WithoutScrubTheStaleVerdictPersists)
{
    // The exposure the scrub closes: same hazard, scrub off, and the
    // condemned row keeps serving at LO-REF - silent corruption.
    bool condemned = false;
    auto oracle = [&condemned](RowId row) {
        return condemned && row == RowId{5};
    };
    Rig rig(Rig::smallConfig(), oracle);
    rig.promote(5);
    condemned = true;
    rig.spin(600000);
    EXPECT_TRUE(rig.memcon->isLoRef(RowId{5}));
    EXPECT_EQ(rig.stat("scrub.failed"), 0.0);
}

// --- FaultInjector -------------------------------------------------

TEST(FaultInjectorTest, DeterministicUnderFixedSeed)
{
    FaultInjectorConfig cfg;
    cfg.transientPerRowPerMs = 40.0;
    cfg.transientDoubleBitFraction = 0.25;
    cfg.seed = 7;
    FaultInjector a(cfg, 64);
    FaultInjector b(cfg, 64);
    for (int step = 1; step <= 20; ++step) {
        for (std::uint64_t row = 0; row < 64; row += 7) {
            Tick t = msToTicks(0.05 * step);
            EXPECT_EQ(a.onRead(RowId{row}, t, true),
                      b.onRead(RowId{row}, t, true));
        }
    }
    EXPECT_EQ(a.injectedFaults(), b.injectedFaults());
    EXPECT_GT(a.injectedFaults(), 0u);
}

TEST(FaultInjectorTest, FaultBudgetCapsInjection)
{
    FaultInjectorConfig cfg;
    cfg.transientPerRowPerMs = 100.0;
    cfg.faultBudget = 5;
    cfg.seed = 3;
    FaultInjector inj(cfg, 32);
    for (std::uint64_t row = 0; row < 32; ++row)
        inj.onRead(RowId{row}, msToTicks(10.0), false);
    EXPECT_EQ(inj.injectedFaults(), 5u);
    EXPECT_GT(inj.stats().value("budgetDropped"), 0.0);
}

TEST(FaultInjectorTest, SingleBitPersistsUntilRestored)
{
    FaultInjectorConfig cfg;
    cfg.transientPerRowPerMs = 20.0;
    cfg.transientDoubleBitFraction = 0.0; // all single-bit
    cfg.seed = 11;
    FaultInjector inj(cfg, 8);
    Tick t = msToTicks(1.0);
    while (inj.onRead(RowId{}, t, false) != EccStatus::CorrectedData)
        t += msToTicks(1.0);
    // Correction does not repair the cell: every further read sees it
    // until the row's content is rewritten.
    EXPECT_EQ(inj.onRead(RowId{}, t, false), EccStatus::CorrectedData);
    EXPECT_TRUE(inj.hasLatentFault(RowId{}, t, false));
    inj.onRowRestored(RowId{}, t);
    EXPECT_EQ(inj.onRead(RowId{}, t, false), EccStatus::Ok);
    EXPECT_FALSE(inj.hasLatentFault(RowId{}, t, false));
}

TEST(FaultInjectorTest, DoubleBitUncorrectableRetiresPage)
{
    FaultInjectorConfig cfg;
    cfg.transientPerRowPerMs = 20.0;
    cfg.transientDoubleBitFraction = 1.0; // all double-bit
    cfg.seed = 11;
    FaultInjector inj(cfg, 8);
    Tick t = msToTicks(1.0);
    while (inj.onRead(RowId{}, t, false) != EccStatus::Uncorrectable)
        t += msToTicks(1.0);
    // The machine-check path retired the page: the pending fault is
    // gone (until the process produces a new one).
    EXPECT_FALSE(inj.hasLatentFault(RowId{}, t, false));
}

TEST(FaultInjectorTest, VrtSourceBitesOnlyAtLoRef)
{
    failure::VrtParams vp;
    vp.vrtCellsPerRow = 2.0;
    vp.dwellHighMs = 2.0;
    vp.dwellLowMs = 2.0;
    vp.seed = 5;
    failure::VrtPopulation pop(vp, 256);

    FaultInjectorConfig cfg; // transients off
    FaultInjector inj(cfg, 256);
    inj.attachVrt(&pop);

    // Find a (row, time) where the population fails at 64 ms.
    std::uint64_t bad_row = 256;
    double bad_ms = 0.0;
    for (double t_ms = 1.0; t_ms < 64.0 && bad_row == 256; t_ms += 1.0) {
        for (std::uint64_t r = 0; r < 256; ++r) {
            if (pop.rowFailsAt(RowId{r}, 64.0, TimeMs{t_ms})) {
                bad_row = r;
                bad_ms = t_ms;
                break;
            }
        }
    }
    ASSERT_LT(bad_row, 256u) << "no leaky cell in the scan window";
    EXPECT_NE(inj.onRead(RowId{bad_row}, msToTicks(bad_ms), true),
              EccStatus::Ok);
    // At HI-REF the same cell holds its charge: no event.
    EXPECT_EQ(inj.onRead(RowId{bad_row}, msToTicks(bad_ms), false),
              EccStatus::Ok);
    EXPECT_TRUE(inj.hasLatentFault(RowId{bad_row}, msToTicks(bad_ms), true));
}

} // namespace
} // namespace memcon::core
