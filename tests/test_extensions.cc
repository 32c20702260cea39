/**
 * @file
 * Tests for the extension substrates: SECDED ECC, the controller-
 * side TestEngine (slots, reserved region, abort-on-write),
 * the DRAM energy model, trace file IO, variable retention time, and
 * the engine's silent-write optimization.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "common/random.hh"
#include "core/engine.hh"
#include "core/test_engine.hh"
#include "dram/ecc.hh"
#include "dram/energy.hh"
#include "failure/vrt.hh"
#include "oracles/row_fractions.hh"
#include "oracles/secded.hh"
#include "trace/trace_io.hh"

namespace memcon
{
namespace
{

using dram::EccStatus;
using oracles::Secded64;

TEST(Secded, CleanWordsDecodeClean)
{
    Rng rng(1);
    for (int i = 0; i < 2000; ++i) {
        std::uint64_t data = rng.next();
        oracles::EccWord word = Secded64::encode(data);
        oracles::EccDecode out = Secded64::decode(word);
        ASSERT_EQ(out.status, EccStatus::Ok);
        ASSERT_EQ(out.data, data);
    }
}

/** Property: every single data-bit flip is corrected, at every bit
 * position, for a sweep of seeds. */
class SecdedSingleBit : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SecdedSingleBit, EveryDataBitFlipCorrected)
{
    Rng rng(GetParam());
    std::uint64_t data = rng.next();
    oracles::EccWord word = Secded64::encode(data);
    for (unsigned bit = 0; bit < 64; ++bit) {
        oracles::EccWord corrupted = word;
        corrupted.data ^= std::uint64_t{1} << bit;
        oracles::EccDecode out = Secded64::decode(corrupted);
        ASSERT_EQ(out.status, EccStatus::CorrectedData) << "bit " << bit;
        ASSERT_EQ(out.data, data) << "bit " << bit;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SecdedSingleBit,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(Secded, SingleCheckBitFlipTolerated)
{
    std::uint64_t data = 0xdeadbeefcafef00dULL;
    oracles::EccWord word = Secded64::encode(data);
    for (unsigned bit = 0; bit < 8; ++bit) {
        oracles::EccWord corrupted = word;
        corrupted.check ^= static_cast<std::uint8_t>(1u << bit);
        oracles::EccDecode out = Secded64::decode(corrupted);
        ASSERT_EQ(out.status, EccStatus::CorrectedCheck) << "bit " << bit;
        ASSERT_EQ(out.data, data);
    }
}

TEST(Secded, DoubleBitFlipsDetected)
{
    Rng rng(9);
    int detected = 0;
    const int trials = 500;
    for (int i = 0; i < trials; ++i) {
        std::uint64_t data = rng.next();
        oracles::EccWord word = Secded64::encode(data);
        unsigned b1 = static_cast<unsigned>(rng.uniformInt(64));
        unsigned b2 = static_cast<unsigned>(rng.uniformInt(64));
        if (b1 == b2)
            continue;
        word.data ^= std::uint64_t{1} << b1;
        word.data ^= std::uint64_t{1} << b2;
        oracles::EccDecode out = Secded64::decode(word);
        // SECDED guarantees detection (never silent corruption).
        ASSERT_NE(out.status, EccStatus::Ok);
        detected += out.status == EccStatus::Uncorrectable;
    }
    EXPECT_EQ(detected + 0, detected); // all flagged uncorrectable
    EXPECT_GT(detected, trials / 2);
}

// --------------------------------------------------------------------
// TestEngine
// --------------------------------------------------------------------

core::TestEngineConfig
smallEngineCfg(core::TestMode mode)
{
    core::TestEngineConfig cfg;
    cfg.mode = mode;
    cfg.slots = 4;
    cfg.reserveRowsPerBank = 2;
    cfg.banks = 2;
    return cfg;
}

class TestEngineModes
    : public ::testing::TestWithParam<core::TestMode>
{
};

TEST_P(TestEngineModes, PassWhenContentStable)
{
    core::TestEngine engine(smallEngineCfg(GetParam()));
    ASSERT_TRUE(engine.beginTest(RowId{7}));
    EXPECT_TRUE(engine.isUnderTest(RowId{7}));
    EXPECT_EQ(engine.completeTest(RowId{7}, false),
              core::TestOutcome::Pass);
    EXPECT_FALSE(engine.isUnderTest(RowId{7}));
    EXPECT_EQ(engine.testsPassed(), 1u);
    EXPECT_EQ(engine.testsFailed(), 0u);
}

TEST_P(TestEngineModes, FailWhenCellDecays)
{
    core::TestEngine engine(smallEngineCfg(GetParam()));
    ASSERT_TRUE(engine.beginTest(RowId{7}));
    // A cell decayed during the idle period.
    EXPECT_EQ(engine.completeTest(RowId{7}, true),
              core::TestOutcome::Fail);
    EXPECT_FALSE(engine.isUnderTest(RowId{7}));
    EXPECT_EQ(engine.testsFailed(), 1u);
    EXPECT_EQ(engine.testsPassed(), 0u);
}

TEST_P(TestEngineModes, SlotExhaustionRejectsBeginTest)
{
    auto cfg = smallEngineCfg(GetParam());
    core::TestEngine engine(cfg);
    std::size_t capacity = GetParam() == core::TestMode::CopyAndCompare
                               ? std::min<std::size_t>(
                                     cfg.slots, cfg.reserveRowsPerBank *
                                                    cfg.banks)
                               : cfg.slots;
    for (std::uint64_t r = 0; r < capacity; ++r)
        ASSERT_TRUE(engine.beginTest(RowId{r}));
    EXPECT_FALSE(engine.beginTest(RowId{99}));
    EXPECT_EQ(engine.freeSlots(), cfg.slots - capacity);
    EXPECT_EQ(engine.rowsUnderTest().size(), capacity);
    // Completing one frees capacity again.
    EXPECT_EQ(engine.completeTest(RowId{0}, false),
              core::TestOutcome::Pass);
    EXPECT_TRUE(engine.beginTest(RowId{99}));
}

TEST_P(TestEngineModes, WriteAbortsInFlightTest)
{
    core::TestEngine engine(smallEngineCfg(GetParam()));
    ASSERT_TRUE(engine.beginTest(RowId{3}));
    EXPECT_TRUE(engine.onWrite(RowId{3}));
    EXPECT_FALSE(engine.isUnderTest(RowId{3}));
    EXPECT_EQ(engine.testsAborted(), 1u);
    EXPECT_EQ(engine.freeSlots(), engine.config().slots);
    // Writes to untested rows are a no-op.
    EXPECT_FALSE(engine.onWrite(RowId{5}));
}

INSTANTIATE_TEST_SUITE_P(Modes, TestEngineModes,
                         ::testing::Values(
                             core::TestMode::ReadAndCompare,
                             core::TestMode::CopyAndCompare));

TEST(TestEngine, ReserveRowsRecycled)
{
    auto cfg = smallEngineCfg(core::TestMode::CopyAndCompare);
    cfg.slots = 16; // slots ample; reserve rows (4) are the limit
    core::TestEngine engine(cfg);
    for (int round = 0; round < 3; ++round) {
        for (std::uint64_t r = 0; r < 4; ++r)
            ASSERT_TRUE(engine.beginTest(RowId{100 + r}));
        ASSERT_FALSE(engine.beginTest(RowId{200}));
        for (std::uint64_t r = 0; r < 4; ++r)
            engine.completeTest(RowId{100 + r}, r == 0);
        // An abort returns its reserve row too.
        ASSERT_TRUE(engine.beginTest(RowId{300}));
        ASSERT_TRUE(engine.onWrite(RowId{300}));
    }
    EXPECT_EQ(engine.testsStarted(), 15u);
    EXPECT_EQ(engine.testsFailed(), 3u);
    EXPECT_EQ(engine.testsAborted(), 3u);
}

// --------------------------------------------------------------------
// Energy model
// --------------------------------------------------------------------

TEST(Energy, ComponentEnergiesArePositiveAndOrdered)
{
    auto timing = dram::TimingParams::ddr3_1600(dram::Density::Gb8, TimeMs{16.0});
    dram::EnergyModel em(dram::PowerParams::ddr3_1600(), timing);
    EXPECT_GT(em.actPreEnergy(), 0.0);
    EXPECT_GT(em.readEnergy(), 0.0);
    EXPECT_GT(em.writeEnergy(), em.readEnergy()); // IDD4W > IDD4R
    EXPECT_GT(em.refreshEnergy(), em.actPreEnergy());
}

TEST(Energy, RefreshEnergyScalesWithDensity)
{
    auto p = dram::PowerParams::ddr3_1600();
    auto t8 = dram::TimingParams::ddr3_1600(dram::Density::Gb8, TimeMs{16.0});
    auto t32 = dram::TimingParams::ddr3_1600(dram::Density::Gb32, TimeMs{16.0});
    dram::EnergyModel e8(p, t8), e32(p, t32);
    // tRFC 350 -> 890 ns: the burst is ~2.5x longer.
    EXPECT_NEAR(e32.refreshEnergy() / e8.refreshEnergy(), 890.0 / 350.0,
                0.05);
}

TEST(Energy, BackgroundInterpolatesStandbyCurrents)
{
    auto timing = dram::TimingParams::ddr3_1600(dram::Density::Gb8, TimeMs{16.0});
    dram::EnergyModel em(dram::PowerParams::ddr3_1600(), timing);
    double idle = em.backgroundEnergy(msToTicks(1.0), 0.0);
    double active = em.backgroundEnergy(msToTicks(1.0), 1.0);
    double mixed = em.backgroundEnergy(msToTicks(1.0), 0.5);
    EXPECT_GT(active, idle);
    EXPECT_NEAR(mixed, (active + idle) / 2.0, 1e-12);
}

TEST(Energy, PolicyRefreshEnergyTracksOpCount)
{
    auto timing = dram::TimingParams::ddr3_1600(dram::Density::Gb8, TimeMs{16.0});
    dram::EnergyModel em(dram::PowerParams::ddr3_1600(), timing);
    double base = em.refreshEnergyFromOps(1000.0);
    double memcon = em.refreshEnergyFromOps(300.0); // 70% reduction
    EXPECT_NEAR(memcon / base, 0.3, 1e-12);
}

// --------------------------------------------------------------------
// Trace IO
// --------------------------------------------------------------------

TEST(TraceIo, WriteTraceRoundTrip)
{
    trace::WriteTrace trace;
    trace.durationMs = 1000.0;
    trace.pageWrites = {{TimeMs{1.5}, TimeMs{20.0}, TimeMs{999.0}},
                        {},
                        {TimeMs{500.25}}};

    std::stringstream ss;
    trace::writeWriteTrace(ss, trace);
    trace::WriteTrace back = trace::readWriteTrace(ss);
    EXPECT_EQ(back.durationMs, trace.durationMs);
    ASSERT_EQ(back.pageWrites.size(), trace.pageWrites.size());
    for (std::size_t p = 0; p < trace.pageWrites.size(); ++p)
        EXPECT_EQ(back.pageWrites[p], trace.pageWrites[p]);
    EXPECT_EQ(back.totalWrites(), 4u);
}

TEST(TraceIo, PersonaExportMatchesEngineInput)
{
    trace::AppPersona p = trace::AppPersona::byName("BlurMotion");
    trace::WriteTrace trace = trace::traceFromPersona(p);
    EXPECT_EQ(trace.pageWrites.size(), p.pages);
    EXPECT_DOUBLE_EQ(trace.durationMs, p.durationSec * 1000.0);

    // Round-tripping through text preserves the engine result.
    std::stringstream ss;
    trace::writeWriteTrace(ss, trace);
    trace::WriteTrace back = trace::readWriteTrace(ss);

    core::MemconEngine engine{core::MemconConfig{}};
    auto direct = engine.run(trace.pageWrites, trace.durationMs);
    auto via_text = engine.run(back.pageWrites, back.durationMs);
    EXPECT_DOUBLE_EQ(direct.reduction(), via_text.reduction());
    EXPECT_EQ(direct.testsRun, via_text.testsRun);
}

TEST(TraceIo, MalformedWriteTraceThrowsTraceError)
{
    // The parser throws a structured, catchable TraceError (CLI
    // binaries convert it to fatal at their boundary).
    std::stringstream bad1("nonsense v1 4 100\n");
    EXPECT_THROW(trace::readWriteTrace(bad1), trace::TraceError);
    std::stringstream bad2("wtrace v1 2 100\n5 10\n");
    try {
        trace::readWriteTrace(bad2);
        FAIL() << "out-of-range page was accepted";
    } catch (const trace::TraceError &e) {
        EXPECT_EQ(e.line(), 2u);
        EXPECT_NE(e.reason().find("out of range"), std::string::npos);
    }
    std::stringstream bad3("wtrace v1 2 100\n1 150\n");
    try {
        trace::readWriteTrace(bad3);
        FAIL() << "out-of-window time was accepted";
    } catch (const trace::TraceError &e) {
        EXPECT_NE(e.reason().find("outside"), std::string::npos);
    }
}

TEST(TraceIo, CpuTraceRoundTrip)
{
    auto trace = trace::captureCpuTrace(
        trace::CpuPersona::byName("mcf"), 500);
    ASSERT_EQ(trace.size(), 500u);
    std::stringstream ss;
    trace::writeCpuTrace(ss, trace);
    auto back = trace::readCpuTrace(ss);
    ASSERT_EQ(back.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(back[i].bubbleInsts, trace[i].bubbleInsts);
        EXPECT_EQ(back[i].blockIndex, trace[i].blockIndex);
        EXPECT_EQ(back[i].isWrite, trace[i].isWrite);
    }
}

// --------------------------------------------------------------------
// VRT
// --------------------------------------------------------------------

TEST(Vrt, DeterministicAndStartsHealthy)
{
    failure::VrtParams params;
    params.vrtCellsPerRow = 1.0;
    failure::VrtPopulation pop(params, 256);
    const auto &cells = pop.cellsOfRow(RowId{5});
    for (const auto &cell : cells) {
        EXPECT_FALSE(pop.isLeakyAt(cell, TimeMs{}));
        // Same query, same answer.
        EXPECT_EQ(pop.isLeakyAt(cell, TimeMs{123456.0}),
                  pop.isLeakyAt(cell, TimeMs{123456.0}));
    }
}

TEST(Vrt, LeakyFractionNearSteadyState)
{
    failure::VrtParams params;
    params.vrtCellsPerRow = 1.0;
    params.dwellHighMs = 1000.0;
    params.dwellLowMs = 500.0;
    failure::VrtPopulation pop(params, 4096);
    // After many dwell times, P(leaky) -> dwellLow/(dwellLow+dwellHigh).
    std::uint64_t leaky = 0, total = 0;
    for (std::uint64_t r = 0; r < 4096; ++r) {
        for (const auto &cell : pop.cellsOfRow(RowId{r})) {
            leaky += pop.isLeakyAt(cell, TimeMs{50000.0});
            ++total;
        }
    }
    ASSERT_GT(total, 1000u);
    EXPECT_NEAR(static_cast<double>(leaky) / total, 500.0 / 1500.0,
                0.04);
}

TEST(Vrt, RowFailureRequiresLongIntervalAndLeakyState)
{
    failure::VrtParams params;
    params.vrtCellsPerRow = 2.0;
    failure::VrtPopulation pop(params, 512);
    // Below the leaky threshold nothing fails, ever.
    EXPECT_EQ(oracles::failingRowFraction(pop, 16.0, TimeMs{1e6}), 0.0);
    // At LO-REF, some rows fail at late times (cells gone leaky).
    EXPECT_GT(oracles::failingRowFraction(pop, 64.0, TimeMs{500000.0}),
              0.0);
}

TEST(Vrt, FailingSetChangesOverTime)
{
    // The hazard one-shot profiling cannot handle: the failing set
    // moves. MEMCON retests on writes; idle rows need a re-scrub.
    failure::VrtParams params;
    params.vrtCellsPerRow = 1.0;
    params.dwellHighMs = 2000.0;
    params.dwellLowMs = 1000.0;
    failure::VrtPopulation pop(params, 1024);
    std::vector<std::uint64_t> early, late;
    for (std::uint64_t r = 0; r < 1024; ++r) {
        if (pop.rowFailsAt(RowId{r}, 64.0, TimeMs{10000.0}))
            early.push_back(r);
        if (pop.rowFailsAt(RowId{r}, 64.0, TimeMs{60000.0}))
            late.push_back(r);
    }
    EXPECT_FALSE(early.empty());
    EXPECT_FALSE(late.empty());
    EXPECT_NE(early, late);
}

// --------------------------------------------------------------------
// Silent writes
// --------------------------------------------------------------------

TEST(SilentWrites, DetectionPreservesLoRefTime)
{
    // Two pages written identically; with detection on, silent
    // writes neither demote nor retrigger tests.
    std::vector<std::vector<TimeMs>> writes(
        64, std::vector<TimeMs>{TimeMs{50.0}, TimeMs{700.0}, TimeMs{1400.0},
                                TimeMs{2100.0}});

    core::MemconConfig base;
    base.quantumMs = TimeMs{100.0};
    core::MemconConfig silent = base;
    silent.silentWriteFraction = 0.5;
    silent.detectSilentWrites = true;

    auto r_base = core::MemconEngine(base).run(writes, 4000.0);
    auto r_silent = core::MemconEngine(silent).run(writes, 4000.0);

    EXPECT_GT(r_silent.silentWritesSkipped, 0u);
    EXPECT_EQ(r_base.silentWritesSkipped, 0u);
    // Skipping silent writes can only help: more LO time, fewer
    // demotions.
    EXPECT_GE(r_silent.reduction(), r_base.reduction());
}

TEST(SilentWrites, UndetectedSilentWritesChangeNothing)
{
    std::vector<std::vector<TimeMs>> writes(
        16, std::vector<TimeMs>{TimeMs{50.0}, TimeMs{900.0}});
    core::MemconConfig cfg;
    cfg.quantumMs = TimeMs{100.0};
    cfg.silentWriteFraction = 0.5; // present but not detected
    cfg.detectSilentWrites = false;
    core::MemconConfig plain;
    plain.quantumMs = TimeMs{100.0};

    auto a = core::MemconEngine(cfg).run(writes, 2000.0);
    auto b = core::MemconEngine(plain).run(writes, 2000.0);
    EXPECT_DOUBLE_EQ(a.reduction(), b.reduction());
    EXPECT_EQ(a.silentWritesSkipped, 0u);
}


// --------------------------------------------------------------------
// Idle-row re-scrub (VRT protection)
// --------------------------------------------------------------------

TEST(Scrub, CatchesRowsThatDriftLeakyWhileIdle)
{
    // A VRT population: rows pass their initial test, then some
    // cells drift into the leaky state with no write to trigger a
    // retest. Without scrubbing the stale LO-REF verdict persists;
    // with scrubbing the engine demotes the row when the drift is
    // caught.
    failure::VrtParams params;
    params.vrtCellsPerRow = 0.5;
    params.dwellHighMs = 3000.0;
    params.dwellLowMs = 1500.0;
    failure::VrtPopulation pop(params, 256);

    auto timed_oracle = [&pop](std::uint64_t page, std::uint64_t,
                               double time_ms) {
        return pop.rowFailsAt(RowId{page}, 64.0, TimeMs{time_ms});
    };

    // 256 pages, one early write each, 20 s horizon.
    std::vector<std::vector<TimeMs>> writes(
        256, std::vector<TimeMs>{TimeMs{10.0}});

    core::MemconConfig no_scrub;
    no_scrub.quantumMs = TimeMs{250.0};
    core::MemconConfig with_scrub = no_scrub;
    with_scrub.scrubPeriodMs = 1000.0;

    auto r_plain = core::MemconEngine(no_scrub).run(
        writes, 20000.0, {}, {}, timed_oracle);
    auto r_scrub = core::MemconEngine(with_scrub).run(
        writes, 20000.0, {}, {}, timed_oracle);

    EXPECT_EQ(r_plain.scrubTests, 0u);
    EXPECT_GT(r_scrub.scrubTests, 0u);
    EXPECT_GT(r_scrub.scrubDemotions, 0u);
    // Scrubbing trades some LO time for closing the exposure.
    EXPECT_LE(r_scrub.loTimeMs, r_plain.loTimeMs);
}

TEST(Scrub, NoDemotionsWhenNothingDrifts)
{
    std::vector<std::vector<TimeMs>> writes(
        32, std::vector<TimeMs>{TimeMs{10.0}});
    core::MemconConfig cfg;
    cfg.quantumMs = TimeMs{250.0};
    cfg.scrubPeriodMs = 1000.0;
    auto r = core::MemconEngine(cfg).run(writes, 10000.0);
    EXPECT_GT(r.scrubTests, 0u);
    EXPECT_EQ(r.scrubDemotions, 0u);
    // Re-verified rows stay at LO-REF.
    EXPECT_GT(r.loCoverage(), 0.9);
}

TEST(Scrub, ScrubbedRowStaysProtectedUntilRetestPasses)
{
    // A row that fails from t=5000 onward: once a scrub catches it,
    // it must stay at HI-REF for the rest of the run (no write ever
    // occurs, so no PRIL retest happens).
    auto timed_oracle = [](std::uint64_t page, std::uint64_t,
                           double time_ms) {
        return page == 3 && time_ms >= 5000.0;
    };
    std::vector<std::vector<TimeMs>> writes(
        8, std::vector<TimeMs>{TimeMs{10.0}});
    core::MemconConfig cfg;
    cfg.quantumMs = TimeMs{250.0};
    cfg.scrubPeriodMs = 500.0;

    std::vector<std::pair<double, bool>> row3;
    core::MemconEngine(cfg).run(
        writes, 12000.0, {},
        [&](std::uint64_t page, double t, bool to_lo, std::uint64_t) {
            if (page == 3)
                row3.emplace_back(t, to_lo);
        },
        timed_oracle);
    // Row 3: promoted once, demoted once by a scrub shortly after
    // t=5000, never promoted again.
    ASSERT_EQ(row3.size(), 2u);
    EXPECT_TRUE(row3[0].second);
    EXPECT_FALSE(row3[1].second);
    EXPECT_GE(row3[1].first, 5000.0);
    EXPECT_LE(row3[1].first, 6000.0);
}

} // namespace
} // namespace memcon
