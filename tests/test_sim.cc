/**
 * @file
 * Unit and behavioural tests for the cycle-level simulator: the
 * FR-FCFS controller (queueing, scheduling, refresh, write drain,
 * test-traffic priority), the simple core model, and the full
 * system.
 */

#include <gtest/gtest.h>

#include "common/state_io.hh"
#include "dram/timing.hh"
#include "sim/controller.hh"
#include "sim/system.hh"
#include "trace/cpu_gen.hh"

namespace memcon::sim
{
namespace
{

dram::Geometry
smallGeom()
{
    dram::Geometry g;
    g.channels = 1;
    g.ranks = 1;
    g.banks = 8;
    g.rowsPerBank = 1 << 12;
    return g;
}

class ControllerTest : public ::testing::Test
{
  protected:
    ControllerTest()
        : geom(smallGeom()),
          timing(dram::TimingParams::ddr3_1600(dram::Density::Gb8, TimeMs{16.0}))
    {
        cfg.refreshEnabled = false; // most tests want a quiet channel
        mc = std::make_unique<MemoryController>(geom, timing, cfg);
    }

    /** Run the controller for a number of DRAM cycles. */
    void
    spin(Tick &now, unsigned cycles)
    {
        for (unsigned i = 0; i < cycles; ++i) {
            now += timing.tCk;
            mc->tick(now);
        }
    }

    Request
    makeRead(std::uint64_t addr, Tick *done_at)
    {
        Request r;
        r.type = Request::Type::Read;
        r.addr = addr;
        r.onComplete = [done_at](const Request &) {
            *done_at = Tick{1}; // flag completion; value rewritten below
        };
        return r;
    }

    dram::Geometry geom;
    dram::TimingParams timing;
    ControllerConfig cfg;
    std::unique_ptr<MemoryController> mc;
};

TEST_F(ControllerTest, ReadCompletesWithCallback)
{
    bool done = false;
    Request r;
    r.type = Request::Type::Read;
    r.addr = 0x1000;
    r.onComplete = [&done](const Request &) { done = true; };
    Tick now{};
    ASSERT_TRUE(mc->enqueue(std::move(r), now));
    spin(now, 100);
    EXPECT_TRUE(done);
    EXPECT_TRUE(mc->idle());
    EXPECT_EQ(mc->stats().value("completed.read"), 1.0);
}

TEST_F(ControllerTest, QueueCapacityEnforced)
{
    Tick now{};
    for (std::size_t i = 0; i < cfg.readQueueCapacity; ++i) {
        Request r;
        r.type = Request::Type::Read;
        r.addr = i * 64;
        ASSERT_TRUE(mc->enqueue(std::move(r), now));
    }
    Request extra;
    extra.type = Request::Type::Read;
    extra.addr = 0;
    EXPECT_FALSE(mc->enqueue(std::move(extra), now));
    EXPECT_EQ(mc->stats().value("queueFull"), 1.0);
}

TEST_F(ControllerTest, QueueFullCountSurvivesStateRoundTrip)
{
    // queueFull is kept apart from the other counters; the state line
    // must carry it, and a restore must bring it back exactly.
    Tick now{};
    auto fill = [&](MemoryController &m) {
        for (std::size_t i = 0; i < cfg.readQueueCapacity; ++i) {
            Request r;
            r.type = Request::Type::Read;
            r.addr = i * 64;
            ASSERT_TRUE(m.enqueue(std::move(r), now));
        }
    };
    fill(*mc);
    EXPECT_EQ(mc->stats().dump().find("queueFull"), std::string::npos);
    Request extra;
    extra.type = Request::Type::Read;
    EXPECT_FALSE(mc->enqueue(std::move(extra), now));
    mc->recordRefusals(41);
    EXPECT_EQ(mc->stats().value("queueFull"), 42.0);

    StateWriter out;
    mc->saveState(out);
    const std::vector<std::string> saved = std::move(out).take();
    MemoryController restored(geom, timing, cfg);
    StateReader in(saved);
    restored.loadState(in);
    in.finish();
    EXPECT_EQ(restored.stats().dump(), mc->stats().dump());
    StateWriter again;
    restored.saveState(again);
    EXPECT_EQ(std::move(again).take(), saved);
    restored.recordRefusals(1);
    EXPECT_EQ(restored.stats().value("queueFull"), 43.0);

    // Every counter is written, zeros included, in table order. A
    // count that is not an integer below 2^53, a latency sum that is
    // not finite and non-negative, or an unknown, extra or missing key
    // does not decode.
    auto replaced = [&saved](const std::string &good, const std::string &bad) {
        std::vector<std::string> record = saved;
        for (std::string &line : record) {
            const std::size_t at = line.find(good);
            if (at != std::string::npos)
                line.replace(at, good.size(), bad);
        }
        EXPECT_NE(record, saved) << good;
        return record;
    };
    const std::pair<const char *, const char *> bad_records[] = {
        {"queueFull=42", "queueFull=1.5"},
        {"queueFull=42", "queueFull=-2"},
        {"enq.read=32", "enq.read=-3.5"},
        {"enq.read=32", "enq.read=9007199254740992"},
        {"enq.read=32", "ecc.bogus=32"},
        {"enq.read=32", "enq.read=32 ecc.bogus=1"},
        {" enq.write=0", ""},
        {"readLatencyTicks=0", "readLatencyTicks=-1"},
        {"readLatencyTicks=0", "readLatencyTicks=-0"},
        {"readLatencyTicks=0", "readLatencyTicks=inf"},
        {"readLatencyTicks=0", "readLatencyTicks=nan"},
        {"readLatencyTicks=0", "readLatencyTicks=0 zz=1"},
    };
    for (const auto &[good, bad] : bad_records) {
        const std::vector<std::string> record = replaced(good, bad);
        MemoryController target(geom, timing, cfg);
        StateReader bad_in(record);
        EXPECT_THROW(target.loadState(bad_in), StateError) << bad;
    }

    // A zero count is a record like any other.
    const std::vector<std::string> zeroed =
        replaced("queueFull=42", "queueFull=0");
    MemoryController target(geom, timing, cfg);
    StateReader zero_in(zeroed);
    target.loadState(zero_in);
    zero_in.finish();
    EXPECT_EQ(target.stats().dump().find("queueFull"), std::string::npos);
    StateWriter resaved;
    target.saveState(resaved);
    EXPECT_EQ(std::move(resaved).take(), zeroed);
}

TEST_F(ControllerTest, UncreditedTestReadSurvivesStateRoundTrip)
{
    // A test read with no callback finishes silently: no tick is an
    // event for it, so it is still in flight inside the controller
    // when its data is done. stats() and the state record count it as
    // finished, and a restore of that record re-saves to the same
    // bytes.
    Tick now{};
    Request r;
    r.type = Request::Type::Read;
    r.addr = 0x1000;
    r.isTest = true;
    ASSERT_TRUE(mc->enqueue(std::move(r), now));
    const Tick data_done{timing.cyc(timing.tRCD + timing.tCL + timing.tBL)};
    spin(now, 3);
    ASSERT_FALSE(mc->idle());
    EXPECT_EQ(mc->stats().value("completed.read"), 0.0);
    spin(now, static_cast<unsigned>(data_done / timing.tCk) + 2);
    EXPECT_TRUE(mc->idle());
    EXPECT_EQ(mc->stats().value("completed.read"), 1.0);
    EXPECT_GT(mc->stats().value("readLatencyTicks"), 0.0);

    StateWriter out;
    mc->saveState(out);
    const std::vector<std::string> saved = std::move(out).take();
    for (const std::string &line : saved) {
        if (line.rfind("mcq", 0) == 0) {
            EXPECT_TRUE(line.ends_with("inflight=")) << line;
        }
    }
    MemoryController restored(geom, timing, cfg);
    StateReader in(saved);
    restored.loadState(in);
    in.finish();
    EXPECT_TRUE(restored.idle());
    EXPECT_EQ(restored.stats().dump(), mc->stats().dump());
    StateWriter again;
    restored.saveState(again);
    EXPECT_EQ(std::move(again).take(), saved);

    // Both go on to count a second read the same way.
    for (MemoryController *m : {mc.get(), &restored}) {
        Request next;
        next.type = Request::Type::Read;
        next.addr = 0x1040;
        next.isTest = true;
        ASSERT_TRUE(m->enqueue(std::move(next), now));
    }
    for (int i = 0; i < 40; ++i) {
        now += timing.tCk;
        mc->tick(now);
        restored.tick(now);
    }
    EXPECT_EQ(restored.stats().value("completed.read"), 2.0);
    EXPECT_EQ(restored.stats().dump(), mc->stats().dump());
}

TEST_F(ControllerTest, InflightReadsOutOfIssueOrderAreRefused)
{
    // The record lists in-flight reads in issue order, which is
    // completion order; a list in any other order does not decode.
    Tick now{};
    for (std::uint64_t i = 0; i < 3; ++i) {
        Request r;
        r.type = Request::Type::Read;
        r.addr = 0x1000 + 64 * i; // one row: three row hits
        ASSERT_TRUE(mc->enqueue(std::move(r), now));
    }
    // ACT, then three RDs tCCD apart, all still in flight.
    spin(now, timing.tRCD + 2 * timing.tCCD + 1);
    StateWriter out;
    mc->saveState(out);
    const std::vector<std::string> saved = std::move(out).take();

    std::vector<std::string> shuffled = saved;
    bool found = false;
    for (std::string &line : shuffled) {
        const std::size_t at = line.find("inflight=");
        if (at == std::string::npos)
            continue;
        std::vector<std::string> reads;
        std::string rest = line.substr(at + 9);
        for (std::size_t comma; (comma = rest.find(',')) != std::string::npos;
             rest = rest.substr(comma + 1))
            reads.push_back(rest.substr(0, comma));
        reads.push_back(rest);
        ASSERT_EQ(reads.size(), 3u) << line;
        line = line.substr(0, at + 9) + reads[2] + "," + reads[0] + "," +
               reads[1];
        found = true;
    }
    ASSERT_TRUE(found);
    MemoryController restored(geom, timing, cfg);
    StateReader in(saved);
    restored.loadState(in);
    in.finish();
    MemoryController target(geom, timing, cfg);
    StateReader bad_in(shuffled);
    EXPECT_THROW(target.loadState(bad_in), StateError);
}

TEST_F(ControllerTest, RowHitFasterThanRowMiss)
{
    // First read opens the row; a second read to the same row
    // completes sooner than one to a different row of the same bank.
    auto latency_of = [&](std::uint64_t warm_addr,
                          std::uint64_t probe_addr) {
        ControllerConfig c;
        c.refreshEnabled = false;
        MemoryController m(geom, timing, c);
        Tick now{};
        bool warm_done = false;
        Request w;
        w.type = Request::Type::Read;
        w.addr = warm_addr;
        w.onComplete = [&](const Request &) { warm_done = true; };
        EXPECT_TRUE(m.enqueue(std::move(w), now));
        while (!warm_done) {
            now += timing.tCk;
            m.tick(now);
        }
        Tick issue = now;
        Tick done_at{};
        Request p;
        p.type = Request::Type::Read;
        p.addr = probe_addr;
        p.onComplete = [&](const Request &) { done_at = Tick{1}; };
        EXPECT_TRUE(m.enqueue(std::move(p), now));
        while (done_at == Tick{}) {
            now += timing.tCk;
            m.tick(now);
        }
        return now - issue;
    };

    // Same row (column 1 of row 0) vs a different row in that bank.
    std::uint64_t same_row = 64;
    std::uint64_t other_row = geom.rowBytes() * geom.banks; // row 1, bank 0
    Tick hit = latency_of(0, same_row);
    Tick miss = latency_of(0, other_row);
    EXPECT_LT(hit, miss);
}

TEST_F(ControllerTest, WritesAreDrainedAndCounted)
{
    Tick now{};
    for (int i = 0; i < 8; ++i) {
        Request w;
        w.type = Request::Type::Write;
        w.addr = static_cast<std::uint64_t>(i) * 64;
        ASSERT_TRUE(mc->enqueue(std::move(w), now));
    }
    spin(now, 2000);
    EXPECT_TRUE(mc->idle());
    EXPECT_EQ(mc->stats().value("completed.write"), 8.0);
}

TEST_F(ControllerTest, DemandReadsOutrankTestTraffic)
{
    Tick now{};
    // A test read to one row and a demand read to another, same bank.
    bool test_done = false, demand_done = false;
    Tick test_at{}, demand_at{};

    Request t;
    t.type = Request::Type::Read;
    t.addr = geom.rowBytes() * geom.banks * 2; // row 2, bank 0
    t.isTest = true;
    t.onComplete = [&](const Request &) {
        test_done = true;
        test_at = Tick{1};
    };
    Request d;
    d.type = Request::Type::Read;
    d.addr = 0; // row 0, bank 0
    d.onComplete = [&](const Request &) {
        demand_done = true;
        demand_at = Tick{1};
    };
    // Enqueue the test first; FR-FCFS with demand priority must still
    // serve the demand read first.
    ASSERT_TRUE(mc->enqueue(std::move(t), now));
    ASSERT_TRUE(mc->enqueue(std::move(d), now));
    while (!test_done || !demand_done) {
        now += timing.tCk;
        mc->tick(now);
        if (demand_done && demand_at == Tick{1}) {
            demand_at = now;
        }
        if (test_done && test_at == Tick{1}) {
            test_at = now;
        }
    }
    EXPECT_LT(demand_at, test_at);
}

TEST_F(ControllerTest, RefreshCadenceMatchesEffectiveTrefi)
{
    ControllerConfig c;
    c.refreshEnabled = true;
    c.refreshReduction = 0.0;
    MemoryController m(geom, timing, c);
    Tick now{};
    Tick horizon = usToTicks(1000); // 1 ms
    while (now < horizon) {
        now += timing.tCk;
        m.tick(now);
    }
    double expected =
        static_cast<double>(horizon / timing.cyc(timing.tREFI));
    EXPECT_NEAR(m.stats().value("refresh"), expected, 2.0);
}

/** Refresh-reduction sweep: the REF count scales by 1 - reduction. */
class RefreshReduction : public ::testing::TestWithParam<double>
{
};

TEST_P(RefreshReduction, ScalesRefreshCount)
{
    double reduction = GetParam();
    dram::Geometry geom = smallGeom();
    auto timing = dram::TimingParams::ddr3_1600(dram::Density::Gb8, TimeMs{16.0});
    ControllerConfig base_cfg, red_cfg;
    base_cfg.refreshEnabled = red_cfg.refreshEnabled = true;
    red_cfg.refreshReduction = reduction;
    MemoryController base(geom, timing, base_cfg);
    MemoryController red(geom, timing, red_cfg);
    Tick now{};
    Tick horizon = usToTicks(2000);
    while (now < horizon) {
        now += timing.tCk;
        base.tick(now);
        red.tick(now);
    }
    double ratio =
        red.stats().value("refresh") / base.stats().value("refresh");
    EXPECT_NEAR(ratio, 1.0 - reduction, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Reductions, RefreshReduction,
                         ::testing::Values(0.25, 0.5, 0.6, 0.75));

TEST(SystemTest, ComputeBoundCoreNearsIssueWidth)
{
    SystemConfig cfg;
    cfg.cores = 1;
    cfg.seed = 3;
    std::vector<trace::CpuPersona> mix{trace::CpuPersona::byName(
        "perlbench")}; // 0.8 MPKI, nearly compute bound
    System sys(cfg, mix);
    RunResult r = sys.run(200000);
    EXPECT_GT(r.ipc[0], 2.0);
    EXPECT_LE(r.ipc[0], 4.0);
}

TEST(SystemTest, MemoryBoundCoreIsThrottled)
{
    SystemConfig cfg;
    cfg.cores = 1;
    cfg.seed = 3;
    std::vector<trace::CpuPersona> mix{trace::CpuPersona::byName("mcf")};
    System sys(cfg, mix);
    RunResult r = sys.run(200000);
    EXPECT_LT(r.ipc[0], 1.0);
}

TEST(SystemTest, DeterministicRuns)
{
    SystemConfig cfg;
    cfg.cores = 2;
    cfg.seed = 9;
    std::vector<trace::CpuPersona> mix{trace::CpuPersona::byName("mcf"),
                                       trace::CpuPersona::byName("lbm")};
    System a(cfg, mix), b(cfg, mix);
    RunResult ra = a.run(100000), rb = b.run(100000);
    EXPECT_EQ(ra.totalTicks, rb.totalTicks);
    EXPECT_EQ(ra.ipc, rb.ipc);
    EXPECT_EQ(ra.refreshCount, rb.refreshCount);
}

TEST(SystemTest, RefreshReductionImprovesMemoryBoundIpc)
{
    std::vector<trace::CpuPersona> mix{trace::CpuPersona::byName("mcf")};
    SystemConfig base;
    base.cores = 1;
    base.density = dram::Density::Gb32;
    SystemConfig fast = base;
    fast.refreshReduction = 0.75;
    RunResult rb = System(base, mix).run(300000);
    RunResult rf = System(fast, mix).run(300000);
    EXPECT_GT(rf.ipc[0], rb.ipc[0] * 1.15);
}

TEST(SystemTest, SpeedupGrowsWithChipDensity)
{
    // Figure 15's key trend: denser chips suffer more from refresh,
    // so eliminating refreshes helps more.
    std::vector<trace::CpuPersona> mix{trace::CpuPersona::byName("lbm")};
    auto speedup_at = [&](dram::Density d) {
        SystemConfig base;
        base.cores = 1;
        base.density = d;
        SystemConfig fast = base;
        fast.refreshReduction = 0.75;
        double b = System(base, mix).run(200000).ipc[0];
        double f = System(fast, mix).run(200000).ipc[0];
        return f / b;
    };
    double s8 = speedup_at(dram::Density::Gb8);
    double s32 = speedup_at(dram::Density::Gb32);
    EXPECT_GT(s32, s8);
    EXPECT_GT(s8, 1.0);
}

TEST(SystemTest, MismatchedMixIsFatal)
{
    SystemConfig cfg;
    cfg.cores = 2;
    std::vector<trace::CpuPersona> mix{trace::CpuPersona::byName("mcf")};
    EXPECT_EXIT(System(cfg, mix), ::testing::ExitedWithCode(1),
                "mix has");
}

TEST(TestTraffic, InjectorPacesTests)
{
    dram::Geometry geom = smallGeom();
    auto timing = dram::TimingParams::ddr3_1600(dram::Density::Gb8, TimeMs{16.0});
    ControllerConfig c;
    c.refreshEnabled = false;
    MemoryController mc(geom, timing, c);
    TestTrafficSource src(geom, mc, 256, false, 1);
    Tick now{};
    Tick horizon = msToTicks(4.0); // 1/16 of a 64 ms window
    while (now < horizon) {
        now += timing.tCk;
        mc.tick(now);
        src.tick(now);
    }
    // 256 tests per 64 ms -> 16 per 4 ms (+/- pipeline slack).
    EXPECT_NEAR(static_cast<double>(src.testsStarted()), 16.0, 2.0);
    // Read&Compare mode issues only reads.
    EXPECT_EQ(mc.stats().value("enq.write"), 0.0);
    EXPECT_GT(mc.stats().value("enq.read"), 0.0);
}

TEST(TestTraffic, CopyModeAddsWrites)
{
    dram::Geometry geom = smallGeom();
    auto timing = dram::TimingParams::ddr3_1600(dram::Density::Gb8, TimeMs{16.0});
    ControllerConfig c;
    c.refreshEnabled = false;
    MemoryController mc(geom, timing, c);
    TestTrafficSource src(geom, mc, 256, true, 1);
    Tick now{};
    while (now < msToTicks(2.0)) {
        now += timing.tCk;
        mc.tick(now);
        src.tick(now);
    }
    EXPECT_GT(mc.stats().value("enq.write"), 0.0);
}

TEST(SystemTest, TestTrafficOverheadIsSmall)
{
    // Table 3: even 1024 concurrent tests per 64 ms cost only a few
    // percent of performance.
    std::vector<trace::CpuPersona> mix{trace::CpuPersona::byName("milc")};
    SystemConfig base;
    base.cores = 1;
    base.refreshReduction = 0.75;
    SystemConfig tested = base;
    tested.concurrentTests = 1024;
    double b = System(base, mix).run(200000).ipc[0];
    double t = System(tested, mix).run(200000).ipc[0];
    EXPECT_LT(b / t - 1.0, 0.08);
    EXPECT_GE(b / t, 0.999);
}

} // namespace
} // namespace memcon::sim
