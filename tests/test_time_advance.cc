/**
 * @file
 * Differential suite for next-event time advance (sim/cycle_loop.hh):
 * every rig runs twice from the same seed - once through
 * ClosedLoop::runUntil, which skips the cycles no component can act
 * in, and once through a loop in this file that ticks every cycle and
 * drops the controller's and MEMCON's cached bounds before each tick,
 * so every tick is a full evaluation. At every 10 us boundary the two
 * runs must agree on the controller's and channel's stats dumps
 * (queueFull refusals included), MEMCON's stats and fingerprint, and
 * the set of LO-REF rows.
 */

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "common/state_io.hh"
#include "core/closed_loop.hh"
#include "sim/controller.hh"
#include "sim/core.hh"
#include "sim/cycle_loop.hh"
#include "trace/cpu_gen.hh"

#include "closed_loop_rigs.hh"

using namespace memcon;

namespace
{

const Tick kObservePeriod = usToTicks(10.0);

/** Everything the two runs must agree on at one boundary. */
struct Observation
{
    Tick at{};
    std::string controller;
    std::string channel;
    std::string memcon;
    std::uint32_t fingerprint = 0;
    std::vector<std::uint64_t> loRows;
};

Observation
observe(const core::ClosedLoop &loop, Tick at, std::uint64_t rows)
{
    Observation o;
    o.at = at;
    o.controller = loop.controller().stats().dump();
    o.channel = loop.controller().channel().stats().dump();
    o.memcon = loop.memcon().stats().dump();
    o.fingerprint = loop.memcon().stateFingerprint();
    for (std::uint64_t r = 0; r < rows; ++r)
        if (loop.memcon().isLoRef(RowId{r}))
            o.loRows.push_back(r);
    return o;
}

/** Tick every cycle, each one a full evaluation of both halves. */
std::vector<Observation>
runEveryCycle(core::ClosedLoop &loop, const sim::CycleDriver &driver,
              Tick tck, Tick horizon, std::uint64_t rows)
{
    std::vector<Observation> out;
    Tick next_observe = kObservePeriod;
    for (Tick now = tck; now <= horizon; now += tck) {
        if (driver.beforeTick)
            driver.beforeTick(now);
        // Re-setting a knob to its own value drops the cached bound.
        sim::MemoryController &mc = loop.controller();
        mc.setRefreshReduction(mc.refreshReduction());
        loop.memcon().setQuantumStretch(loop.memcon().quantumStretch());
        loop.tick(now);
        if (driver.afterTick)
            driver.afterTick(now);
        if (now == next_observe) {
            out.push_back(observe(loop, now, rows));
            next_observe += kObservePeriod;
        }
    }
    return out;
}

/** The same horizon through runUntil, one boundary at a time. */
std::vector<Observation>
runJumping(core::ClosedLoop &loop, const sim::CycleDriver &driver,
           Tick horizon, std::uint64_t rows)
{
    std::vector<Observation> out;
    for (Tick end = kObservePeriod; end <= horizon; end += kObservePeriod) {
        EXPECT_EQ(loop.runUntil(end, driver), end);
        out.push_back(observe(loop, end, rows));
    }
    return out;
}

void
expectSameTrajectory(const std::vector<Observation> &ref,
                     const std::vector<Observation> &jump)
{
    ASSERT_EQ(ref.size(), jump.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        const double us = ticksToNs(ref[i].at) / 1000.0;
        ASSERT_EQ(ref[i].at, jump[i].at);
        ASSERT_EQ(ref[i].controller, jump[i].controller) << "at " << us
                                                         << " us";
        ASSERT_EQ(ref[i].channel, jump[i].channel) << "at " << us << " us";
        ASSERT_EQ(ref[i].memcon, jump[i].memcon) << "at " << us << " us";
        ASSERT_EQ(ref[i].fingerprint, jump[i].fingerprint)
            << "at " << us << " us";
        ASSERT_EQ(ref[i].loRows, jump[i].loRows) << "at " << us << " us";
    }
}

/**
 * A bare closed loop with sparse demand traffic: a write every 2 us, a
 * read every 3.3 us, and every 40 us a burst of 30 writes that pushes
 * the write queue past its drain watermark. Refused requests are
 * dropped, so between due times the driver sleeps.
 */
struct SparseRig
{
    SparseRig(core::TestMode mode, bool reads)
        : timing(dram::TimingParams::ddr3_1600(dram::Density::Gb8,
                                               TimeMs{16.0})),
          withReads(reads)
    {
        geom.rowsPerBank = 32;
        core::OnlineMemconConfig om;
        om.quantum = usToTicks(20.0);
        om.testIdle = usToTicks(10.0);
        om.retargetPeriod = usToTicks(10.0);
        om.testEngine.mode = mode;
        om.testEngine.slots = 4;
        om.testEngine.reserveRowsPerBank = 1;
        om.testEngine.banks = 2; // 2 reserve rows for 4 slots
        om.resilience.scrubPeriod = usToTicks(30.0);
        loop = std::make_unique<core::ClosedLoop>(geom, timing, om);
    }

    void
    enqueue(sim::Request::Type type, std::uint64_t row, Tick now)
    {
        sim::Request req;
        req.type = type;
        req.addr = geom.compose(geom.rowFromFlatIndex(RowId{row}));
        loop->controller().enqueue(std::move(req), now);
    }

    sim::CycleDriver
    driver()
    {
        sim::CycleDriver d;
        d.beforeTick = [this](Tick now) {
            const std::uint64_t rows = geom.totalRows() / 8;
            if (now >= nextWrite) {
                nextWrite += usToTicks(2.0);
                enqueue(sim::Request::Type::Write, cursor++ % rows, now);
            }
            if (withReads && now >= nextRead) {
                nextRead += usToTicks(3.3);
                enqueue(sim::Request::Type::Read, (cursor * 7) % rows, now);
            }
            if (now >= nextBurst) {
                nextBurst += usToTicks(40.0);
                for (std::uint64_t k = 0; k < 30; ++k)
                    enqueue(sim::Request::Type::Write, (cursor + k) % rows,
                            now);
            }
        };
        d.nextEventTick = [this](Tick) {
            Tick next = std::min(nextWrite, nextBurst);
            return withReads ? std::min(next, nextRead) : next;
        };
        return d;
    }

    dram::Geometry geom;
    dram::TimingParams timing;
    bool withReads;
    std::unique_ptr<core::ClosedLoop> loop;
    Tick nextWrite = usToTicks(2.0);
    Tick nextRead = usToTicks(3.3);
    Tick nextBurst = usToTicks(40.0);
    std::uint64_t cursor = 0;
};

void
expectSparseRigAgrees(core::TestMode mode, bool reads)
{
    const Tick horizon = usToTicks(400.0);
    SparseRig ref(mode, reads);
    SparseRig jump(mode, reads);
    const std::uint64_t rows = ref.geom.totalRows();
    const auto a = runEveryCycle(*ref.loop, ref.driver(), ref.timing.tCk,
                                 horizon, rows);
    const auto b = runJumping(*jump.loop, jump.driver(), horizon, rows);
    expectSameTrajectory(a, b);
    // The run did test rows and did refuse requests.
    EXPECT_GT(ref.loop->memcon().testsStarted(), 0u);
    EXPECT_FALSE(a.back().loRows.empty());
    EXPECT_GT(ref.loop->controller().stats().value("queueFull"), 0.0);
}

} // namespace

TEST(TimeAdvance, ClosedLoopReadAndCompareMatchesEveryCycle)
{
    expectSparseRigAgrees(core::TestMode::ReadAndCompare, true);
}

TEST(TimeAdvance, ClosedLoopCopyAndCompareMatchesEveryCycle)
{
    expectSparseRigAgrees(core::TestMode::CopyAndCompare, true);
}

TEST(TimeAdvance, WriteOnlyTrafficKeepsTheDrainHysteresisInStep)
{
    // No demand reads: while the read queue is empty and 1 to 8 writes
    // wait, the write-drain flag toggles on every tick, skipped or not.
    expectSparseRigAgrees(core::TestMode::ReadAndCompare, false);
}

namespace
{

/** A closed loop's dumps plus its whole state record. */
struct StopObservation
{
    std::string controller;
    std::string channel;
    std::string memcon;
    std::vector<std::string> state;
};

StopObservation
observeStop(const core::ClosedLoop &loop)
{
    StopObservation o;
    o.controller = loop.controller().stats().dump();
    o.channel = loop.controller().channel().stats().dump();
    o.memcon = loop.memcon().stats().dump();
    StateWriter out;
    loop.saveState(out);
    o.state = std::move(out).take();
    return o;
}

double
readsIssued(const core::ClosedLoop &loop)
{
    return loop.controller().channel().stats().value("cmd.RD");
}

} // namespace

TEST(TimeAdvance, TestReadCompletionsCreditedBetweenEventsMatchEveryCycle)
{
    // Write-only demand traffic, so every RD is a MEMCON test read,
    // whose completion runUntil credits at the next event instead of
    // simulating it. Stop ticks run from one cycle after every 100th
    // test RD to a few cycles past its data: the dumps and the state
    // record must read as if every cycle had been a full evaluation of
    // the controller, which completes each read in its own cycle.
    // (MEMCON's cache stays: its state record holds the queue sizes
    // its cached bound was taken at.)
    const Tick horizon = usToTicks(150.0);
    SparseRig ref(core::TestMode::ReadAndCompare, false);
    SparseRig jump(core::TestMode::ReadAndCompare, false);
    const Tick tck = ref.timing.tCk;
    const std::uint64_t data_cycles = ref.timing.tCL + ref.timing.tBL;

    std::vector<StopObservation> a;
    std::vector<Tick> stops;
    std::size_t next_stop = 0;
    std::uint64_t reads_seen = 0;
    const sim::CycleDriver ref_driver = ref.driver();
    sim::MemoryController &ref_mc = ref.loop->controller();
    for (Tick now = tck; now <= horizon; now += tck) {
        ref_driver.beforeTick(now);
        ref_mc.setRefreshReduction(ref_mc.refreshReduction());
        ref.loop->tick(now);
        const auto reads = static_cast<std::uint64_t>(readsIssued(*ref.loop));
        if (reads > reads_seen && reads_seen % 100 == 0 &&
            (stops.empty() || stops.back() < now) &&
            now + tck * (data_cycles + 4) <= horizon)
            for (std::uint64_t k = 1; k <= data_cycles + 4; ++k)
                stops.push_back(now + tck * k);
        reads_seen = reads;
        if (next_stop < stops.size() && stops[next_stop] == now) {
            a.push_back(observeStop(*ref.loop));
            ++next_stop;
        }
    }
    ASSERT_EQ(next_stop, stops.size());
    ASSERT_GT(stops.size(), 1000u);

    const sim::CycleDriver jump_driver = jump.driver();
    for (std::size_t i = 0; i < stops.size(); ++i) {
        ASSERT_EQ(jump.loop->runUntil(stops[i], jump_driver), stops[i]);
        const StopObservation b = observeStop(*jump.loop);
        const double us = ticksToNs(stops[i]) / 1000.0;
        ASSERT_EQ(a[i].controller, b.controller) << "at " << us << " us";
        ASSERT_EQ(a[i].channel, b.channel) << "at " << us << " us";
        ASSERT_EQ(a[i].memcon, b.memcon) << "at " << us << " us";
        ASSERT_EQ(a[i].state, b.state) << "at " << us << " us";
    }
}

TEST(TimeAdvance, TestReadCompletionsCostNoCycle)
{
    // The same write-only rig in one runUntil: a test read's
    // completion is no event, so the run simulates about one cycle
    // per command it issues (each command's own), not two per RD.
    SparseRig rig(core::TestMode::ReadAndCompare, false);
    std::uint64_t simulated = 0;
    sim::CycleDriver driver = rig.driver();
    driver.beforeTick = [&simulated, inner = driver.beforeTick](Tick now) {
        ++simulated;
        inner(now);
    };
    const Tick end = usToTicks(400.0);
    ASSERT_EQ(rig.loop->runUntil(end, driver), end);

    double commands = 0.0;
    const StatGroup channel_stats = rig.loop->controller().channel().stats();
    for (const auto &[name, count] : channel_stats.entries())
        commands += count;
    EXPECT_GT(readsIssued(*rig.loop), 0.5 * commands);
    EXPECT_LT(static_cast<double>(simulated), 1.1 * commands)
        << simulated << " cycles for " << commands << " commands";
}

TEST(TimeAdvance, InjectorAndDisturbModelMatchEveryCycle)
{
    const Tick horizon = usToTicks(600.0);
    rigs::InjectorDisturbRig ref;
    rigs::InjectorDisturbRig jump;
    const std::uint64_t rows = ref.geom.totalRows();
    const auto a = runEveryCycle(*ref.loop, ref.driver(), ref.timing.tCk,
                                 horizon, rows);
    const auto b = runJumping(*jump.loop, jump.driver(), horizon, rows);
    expectSameTrajectory(a, b);
    EXPECT_EQ(ref.disturb->flipsRecorded(), jump.disturb->flipsRecorded());
    EXPECT_EQ(ref.injector->injectedFaults(), jump.injector->injectedFaults());
    EXPECT_GT(jump.loop->memcon().victimRefreshes(), 0u);
}

TEST(TimeAdvance, HoldingHammerDriverMatchesEveryCycle)
{
    // An attacker that retries a refused access every cycle acts every
    // cycle: runUntil skips nothing, and the cached bounds of both
    // halves carry the idle ticks.
    const Tick horizon = usToTicks(300.0);
    rigs::InjectorDisturbRig ref;
    rigs::InjectorDisturbRig jump;
    const std::uint64_t rows = ref.geom.totalRows();
    const auto a = runEveryCycle(*ref.loop, ref.holdingDriver(),
                                 ref.timing.tCk, horizon, rows);
    const auto b = runJumping(*jump.loop, jump.holdingDriver(), horizon, rows);
    expectSameTrajectory(a, b);
    EXPECT_EQ(ref.disturb->flipsRecorded(), jump.disturb->flipsRecorded());
}

TEST(TimeAdvance, SimpleCoreDriverMatchesEveryCycle)
{
    struct CoreRig
    {
        CoreRig()
            : timing(dram::TimingParams::ddr3_1600(dram::Density::Gb8,
                                                   TimeMs{16.0}))
        {
            geom.rowsPerBank = 32;
            core::OnlineMemconConfig om;
            om.quantum = usToTicks(20.0);
            om.testIdle = usToTicks(10.0);
            om.retargetPeriod = usToTicks(10.0);
            om.testEngine.slots = 8;
            loop = std::make_unique<core::ClosedLoop>(geom, timing, om);
            cpu = std::make_unique<sim::SimpleCore>(
                0,
                trace::CpuAccessStream(trace::CpuPersona::byName("h264ref"),
                                       7),
                loop->controller(), 0, geom.totalBlocks());
        }

        sim::CycleDriver
        driver()
        {
            sim::CycleDriver d;
            d.afterTick = [this](Tick now) {
                for (unsigned k = 0; k < 5; ++k)
                    cpu->tick(now);
                return true;
            };
            return d;
        }

        dram::Geometry geom;
        dram::TimingParams timing;
        std::unique_ptr<core::ClosedLoop> loop;
        std::unique_ptr<sim::SimpleCore> cpu;
    };

    const Tick horizon = usToTicks(150.0);
    CoreRig ref;
    CoreRig jump;
    const std::uint64_t rows = ref.geom.totalRows();
    const auto a = runEveryCycle(*ref.loop, ref.driver(), ref.timing.tCk,
                                 horizon, rows);
    const auto b = runJumping(*jump.loop, jump.driver(), horizon, rows);
    expectSameTrajectory(a, b);
    EXPECT_EQ(ref.cpu->retiredInsts(), jump.cpu->retiredInsts());
    EXPECT_EQ(ref.cpu->cpuCycles(), jump.cpu->cpuCycles());
    EXPECT_GT(jump.cpu->retiredInsts(), 0u);
}

TEST(TimeAdvance, IdleModuleSimulatesOnlyItsRefreshes)
{
    // No traffic and a quantum beyond the horizon: refresh and the
    // re-target are the only events, and runUntil simulates only the
    // cycles around them.
    auto make = [] {
        dram::Geometry geom;
        geom.rowsPerBank = 32;
        core::OnlineMemconConfig om;
        om.quantum = msToTicks(10.0);
        return std::make_unique<core::ClosedLoop>(
            geom,
            dram::TimingParams::ddr3_1600(dram::Density::Gb8, TimeMs{16.0}),
            om);
    };
    const Tick horizon = msToTicks(1.0);
    const Tick tck = dram::TimingParams::ddr3_1600(dram::Density::Gb8,
                                                   TimeMs{16.0})
                         .tCk;
    auto ref = make();
    auto jump = make();
    const auto a = runEveryCycle(*ref, sim::CycleDriver{}, tck, horizon, 256);

    std::uint64_t simulated = 0;
    sim::CycleDriver counting;
    counting.beforeTick = [&simulated](Tick) { ++simulated; };
    counting.nextEventTick = [](Tick) { return kTickNever; };
    const auto b = runJumping(*jump, counting, horizon, 256);
    expectSameTrajectory(a, b);

    const double refreshes = jump->controller().stats().value("refresh");
    EXPECT_GT(refreshes, 100.0);
    // A handful of cycles per REF (close the rank, wait, issue), out
    // of 800k.
    EXPECT_LT(simulated, static_cast<std::uint64_t>(refreshes) * 8 + 200);
}

TEST(TimeAdvance, BareControllerKeepsTheDrainHysteresisInStep)
{
    // The controller alone as the model. Writes arrive in small groups
    // that conflict in one bank, so the write queue keeps sitting
    // between empty and the drain low watermark while each write waits
    // out tRAS/tRP/tRCD. With no read queued the drain flag then flips
    // on every tick, idle or not, and its value when a read lands
    // decides which queue is served first. A 15 ns starvation
    // threshold makes the oldest demand request overtake row hits
    // while they wait on timing, so the pick changes between events.
    // Both runs log every ACT.
    const dram::Geometry geom = [] {
        dram::Geometry g;
        g.rowsPerBank = 32;
        return g;
    }();
    const auto timing =
        dram::TimingParams::ddr3_1600(dram::Density::Gb8, TimeMs{16.0});
    using ActLog = std::vector<std::pair<std::uint64_t, Tick>>;
    struct Feed
    {
        Tick period;
        Tick next;
        std::uint64_t group = 0;
    };
    auto make_controller = [&](ActLog &log, Tick starvation) {
        sim::ControllerConfig cfg;
        cfg.starvationThreshold = starvation;
        cfg.activateObserver = [&log](std::uint64_t addr, Tick now) {
            log.emplace_back(addr, now);
        };
        return std::make_unique<sim::MemoryController>(geom, timing, cfg);
    };
    auto make_driver = [&geom](sim::MemoryController &mc, Feed &feed) {
        sim::CycleDriver d;
        d.beforeTick = [&mc, &feed, &geom](Tick now) {
            if (now < feed.next)
                return;
            feed.next += feed.period;
            const std::uint64_t g = feed.group++;
            auto send = [&](sim::Request::Type type, std::uint64_t bank,
                            std::uint64_t row) {
                dram::Coordinates c = geom.rowFromFlatIndex(
                    RowId{(row % geom.rowsPerBank) * geom.banks + bank});
                c.column = static_cast<unsigned>(g % geom.columnsPerRow);
                sim::Request req;
                req.type = type;
                req.addr = geom.compose(c);
                mc.enqueue(std::move(req), now);
            };
            for (std::uint64_t k = 0; k < 1 + g % 3; ++k)
                send(sim::Request::Type::Write, 0, g * 3 + k);
            if (g % 4 == 3)
                send(sim::Request::Type::Read, 1 + g % 7, g);
        };
        d.nextEventTick = [&feed](Tick) { return feed.next; };
        return d;
    };

    const Tick horizon = usToTicks(200.0);
    for (const Tick starvation :
         {sim::ControllerConfig{}.starvationThreshold, nsToTicks(15.0)})
    for (double period_ns : {53.75, 71.25, 96.25, 131.25}) {
        const Tick period = nsToTicks(period_ns);
        ActLog ref_acts, jump_acts;
        auto ref = make_controller(ref_acts, starvation);
        auto jump = make_controller(jump_acts, starvation);
        Feed ref_feed{period, period};
        Feed jump_feed{period, period};
        const sim::CycleDriver ref_driver = make_driver(*ref, ref_feed);
        for (Tick now = timing.tCk; now <= horizon; now += timing.tCk) {
            ref_driver.beforeTick(now);
            ref->setRefreshReduction(ref->refreshReduction());
            ref->tick(now);
        }
        const Tick reached =
            sim::runCycles(*jump, make_driver(*jump, jump_feed), Tick{},
                           horizon, timing.tCk);
        EXPECT_EQ(reached, horizon);
        EXPECT_EQ(ref_acts, jump_acts)
            << period_ns << " ns groups, starvation " << starvation.value();
        EXPECT_EQ(ref->stats().dump(), jump->stats().dump())
            << period_ns << " ns groups, starvation " << starvation.value();
        EXPECT_GT(jump->stats().value("completed.read"), 100.0);
    }
}

TEST(TimeAdvance, BareControllerMatchesEveryCycleUnderRandomTraffic)
{
    // Seeded bursts of reads and writes over four rows of four banks -
    // row hits, conflicts and closed banks mixed - with a 15 ns
    // starvation threshold, so an old row miss regularly overtakes the
    // row hits queued behind it while they wait on bus turnaround.
    const dram::Geometry geom = [] {
        dram::Geometry g;
        g.rowsPerBank = 32;
        return g;
    }();
    const auto timing =
        dram::TimingParams::ddr3_1600(dram::Density::Gb8, TimeMs{16.0});
    using ActLog = std::vector<std::pair<std::uint64_t, Tick>>;
    struct Feed
    {
        explicit Feed(std::uint64_t seed) : rng(seed) {}
        Rng rng;
        Tick next{};
    };
    auto make_controller = [&](ActLog &log) {
        sim::ControllerConfig cfg;
        cfg.starvationThreshold = nsToTicks(15.0);
        cfg.activateObserver = [&log](std::uint64_t addr, Tick now) {
            log.emplace_back(addr, now);
        };
        return std::make_unique<sim::MemoryController>(geom, timing, cfg);
    };
    auto make_driver = [&geom, &timing](sim::MemoryController &mc,
                                        Feed &feed) {
        sim::CycleDriver d;
        d.beforeTick = [&mc, &feed, &geom, &timing](Tick now) {
            if (now < feed.next)
                return;
            feed.next = now + timing.tCk * (1 + feed.rng.uniformInt(60));
            const std::uint64_t n = 1 + feed.rng.uniformInt(4);
            for (std::uint64_t k = 0; k < n; ++k) {
                const std::uint64_t bank = feed.rng.uniformInt(4);
                const std::uint64_t row = feed.rng.uniformInt(4);
                dram::Coordinates c = geom.rowFromFlatIndex(
                    RowId{row * geom.banks + bank});
                c.column = static_cast<unsigned>(
                    feed.rng.uniformInt(geom.columnsPerRow));
                sim::Request req;
                req.type = feed.rng.uniformInt(3) == 0
                               ? sim::Request::Type::Write
                               : sim::Request::Type::Read;
                req.addr = geom.compose(c);
                mc.enqueue(std::move(req), now);
            }
        };
        d.nextEventTick = [&feed](Tick) { return feed.next; };
        return d;
    };

    const Tick horizon = usToTicks(100.0);
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        ActLog ref_acts, jump_acts;
        auto ref = make_controller(ref_acts);
        auto jump = make_controller(jump_acts);
        Feed ref_feed(seed), jump_feed(seed);
        const sim::CycleDriver ref_driver = make_driver(*ref, ref_feed);
        for (Tick now = timing.tCk; now <= horizon; now += timing.tCk) {
            ref_driver.beforeTick(now);
            ref->setRefreshReduction(ref->refreshReduction());
            ref->tick(now);
        }
        sim::runCycles(*jump, make_driver(*jump, jump_feed), Tick{}, horizon,
                       timing.tCk);
        EXPECT_EQ(ref_acts, jump_acts) << "seed " << seed;
        EXPECT_EQ(ref->stats().dump(), jump->stats().dump()) << "seed " << seed;
    }
}

namespace
{

/** One request of a hand-written or seeded controller scenario. */
struct ScenarioRequest
{
    std::uint64_t cycle; //!< arrival, in DRAM cycles
    bool write;
    unsigned bank, row, column;
};

/**
 * Play `requests` into a refresh-free controller for 400 cycles, either
 * through runCycles or every cycle with the cached bound dropped, and
 * return its ACT log plus stats dump.
 */
std::pair<std::vector<std::pair<std::uint64_t, Tick>>, std::string>
playScenario(const std::vector<ScenarioRequest> &requests,
             std::uint64_t starvation_cycles, bool jump)
{
    dram::Geometry geom;
    geom.rowsPerBank = 32;
    const auto timing =
        dram::TimingParams::ddr3_1600(dram::Density::Gb8, TimeMs{16.0});
    std::vector<std::pair<std::uint64_t, Tick>> acts;
    sim::ControllerConfig cfg;
    cfg.starvationThreshold = timing.tCk * starvation_cycles;
    cfg.refreshEnabled = false;
    cfg.activateObserver = [&acts](std::uint64_t addr, Tick now) {
        acts.emplace_back(addr, now);
    };
    sim::MemoryController mc(geom, timing, cfg);

    std::size_t next = 0;
    sim::CycleDriver driver;
    driver.beforeTick = [&](Tick now) {
        for (; next < requests.size() &&
               timing.tCk * requests[next].cycle <= now;
             ++next) {
            const ScenarioRequest &r = requests[next];
            dram::Coordinates c = geom.rowFromFlatIndex(
                RowId{std::uint64_t{r.row} * geom.banks + r.bank});
            c.column = r.column;
            sim::Request req;
            req.type = r.write ? sim::Request::Type::Write
                               : sim::Request::Type::Read;
            req.addr = geom.compose(c);
            mc.enqueue(std::move(req), now);
        }
    };
    driver.nextEventTick = [&](Tick) {
        return next < requests.size() ? timing.tCk * requests[next].cycle
                                      : kTickNever;
    };
    const Tick end = timing.tCk * std::uint64_t{400};
    if (jump) {
        sim::runCycles(mc, driver, Tick{}, end, timing.tCk);
    } else {
        for (Tick now = timing.tCk; now <= end; now += timing.tCk) {
            driver.beforeTick(now);
            mc.setRefreshReduction(mc.refreshReduction());
            mc.tick(now);
        }
    }
    return {acts, mc.stats().dump()};
}

} // namespace

TEST(TimeAdvance, StarvationAgeOutIsAnEvent)
{
    // Found by the seeded search below with the age-out bound left
    // out: an old row miss ages past the 23-cycle threshold while the
    // row hit picked ahead of it waits on timing, so the pick changes
    // between two command issue ticks. Skipping to the row hit's issue
    // tick would serve the miss late.
    const std::vector<ScenarioRequest> requests = {
        {11, false, 0, 0, 1}, {15, true, 2, 0, 3}, {38, true, 0, 0, 2},
        {38, false, 0, 0, 1}, {59, true, 0, 2, 2},
    };
    EXPECT_EQ(playScenario(requests, 23, true),
              playScenario(requests, 23, false));
}

TEST(TimeAdvance, ShortSeededScenariosMatchEveryCycle)
{
    // A few thousand small bursts - up to eight requests over three
    // banks and three rows in the first 60 cycles, starvation
    // thresholds of 1 to 25 cycles - each played both ways.
    Rng rng(7);
    for (int trial = 0; trial < 3000; ++trial) {
        std::vector<ScenarioRequest> requests;
        const std::uint64_t n = 2 + rng.uniformInt(7);
        for (std::uint64_t i = 0; i < n; ++i) {
            ScenarioRequest r{};
            r.cycle = 1 + rng.uniformInt(60);
            r.write = rng.uniformInt(3) == 0;
            r.bank = static_cast<unsigned>(rng.uniformInt(3));
            r.row = static_cast<unsigned>(rng.uniformInt(3));
            r.column = static_cast<unsigned>(rng.uniformInt(4));
            requests.push_back(r);
        }
        std::stable_sort(requests.begin(), requests.end(),
                         [](const ScenarioRequest &a, const ScenarioRequest &b) {
                             return a.cycle < b.cycle;
                         });
        const std::uint64_t starvation = 1 + rng.uniformInt(25);
        ASSERT_EQ(playScenario(requests, starvation, true),
                  playScenario(requests, starvation, false))
            << "trial " << trial;
    }
}
