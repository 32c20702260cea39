/**
 * @file
 * Differential tests: sim::SimpleCore's run-length window against the
 * per-slot window oracle (tests/oracles/reference_core). Each core
 * drives its own, identically built MemoryController from the same
 * access stream; after every CPU cycle both must have retired the
 * same instructions and queued the same requests, and at the end both
 * controllers must hold the same counters, so every enqueue and
 * refusal happened alike.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>

#include "dram/timing.hh"
#include "oracles/reference_core.hh"
#include "sim/controller.hh"
#include "sim/core.hh"
#include "trace/cpu_gen.hh"

namespace memcon
{
namespace
{

constexpr unsigned kCpuCyclesPerDramTick = 5; // 4 GHz core, DDR3-1600

/** What a lockstep run leaves behind. */
struct LockstepRun
{
    unsigned window = 0;
    double reads = 0.0;
    double writes = 0.0;
    double refusals = 0.0;
    InstCount retired = 0;
    /** With `track_stall`: most consecutive CPU cycles that retired
     * nothing while every window slot held an issued load (for streams
     * of loads alone). */
    std::uint64_t longestFullStall = 0;
};

/**
 * Run both cores for `dram_ticks` DRAM cycles, asserting equal
 * retired-instruction and cycle counts and equal controller queue
 * sizes after every CPU cycle.
 */
void
runLockstep(const trace::CpuPersona &persona, unsigned width,
            unsigned window, std::uint64_t dram_ticks, LockstepRun &out,
            bool track_stall = false)
{
    dram::Geometry geom;
    geom.rowsPerBank = 1 << 12;
    const dram::TimingParams timing =
        dram::TimingParams::ddr3_1600(dram::Density::Gb8, TimeMs{16.0});
    // Short queues, so that a single core fills them and is refused.
    sim::ControllerConfig cfg;
    cfg.readQueueCapacity = 4;
    cfg.writeQueueCapacity = 8;
    cfg.writeDrainHigh = 6;
    cfg.writeDrainLow = 2;
    sim::MemoryController ref_mc(geom, timing, cfg);
    sim::MemoryController mc(geom, timing, cfg);
    const std::uint64_t base = 12345;
    oracles::ReferenceCore ref(0, trace::CpuAccessStream(persona, 11),
                               ref_mc, base, geom.totalBlocks(), width,
                               window);
    sim::SimpleCore core(0, trace::CpuAccessStream(persona, 11), mc, base,
                         geom.totalBlocks(), width, window);

    std::uint64_t stall = 0;
    Tick now{};
    for (std::uint64_t t = 0; t < dram_ticks; ++t) {
        now += timing.tCk;
        ref_mc.tick(now);
        mc.tick(now);
        for (unsigned c = 0; c < kCpuCyclesPerDramTick; ++c) {
            const InstCount before = core.retiredInsts();
            ref.tick(now);
            core.tick(now);
            ASSERT_EQ(core.retiredInsts(), ref.retiredInsts())
                << "DRAM tick " << t << ", CPU cycle " << c;
            ASSERT_EQ(core.cpuCycles(), ref.cpuCycles());
            // Every enqueue lands in the same CPU cycle.
            ASSERT_EQ(mc.readQueueSize(), ref_mc.readQueueSize());
            ASSERT_EQ(mc.writeQueueSize(), ref_mc.writeQueueSize());
            if (!track_stall)
                continue;
            const double in_window = mc.stats().value("enq.read") -
                                     static_cast<double>(core.retiredInsts());
            const bool full = in_window == static_cast<double>(window);
            stall = core.retiredInsts() == before && full ? stall + 1 : 0;
            out.longestFullStall = std::max(out.longestFullStall, stall);
        }
    }
    out.window = window;
    const StatGroup stats = mc.stats();
    EXPECT_EQ(stats.dump(), ref_mc.stats().dump());
    out.reads = stats.value("enq.read");
    out.writes = stats.value("enq.write");
    out.refusals = stats.value("queueFull");
    out.retired = core.retiredInsts();
}

/** Every issue width and window size of the grid, for one persona. */
void
runGrid(const std::string &persona_name, std::uint64_t dram_ticks,
        const std::function<void(const LockstepRun &)> &check)
{
    const trace::CpuPersona persona = trace::CpuPersona::byName(persona_name);
    for (unsigned width : {1u, 3u, 4u}) {
        for (unsigned window : {128u, 7u}) {
            SCOPED_TRACE(persona_name + " width " + std::to_string(width) +
                         " window " + std::to_string(window));
            LockstepRun run;
            runLockstep(persona, width, window, dram_ticks, run);
            if (::testing::Test::HasFatalFailure())
                return;
            check(run);
        }
    }
}

TEST(CoreEquiv, PerlbenchLongBubbleRuns)
{
    // 0.8 MPKI: about 1250 bubbles between two accesses, so nearly
    // every cycle issues and retires a slice of one long run.
    runGrid("perlbench", 100000, [](const LockstepRun &run) {
        EXPECT_GT(run.reads, 10.0);
        EXPECT_GT(static_cast<double>(run.retired), 500.0 * run.reads);
    });
}

TEST(CoreEquiv, StreamFullQueueRefusals)
{
    // 48 MPKI of sequential loads keeps the 4-entry read queue full:
    // the core is refused and retries the same access cycle after
    // cycle.
    runGrid("stream", 20000, [](const LockstepRun &run) {
        EXPECT_GT(run.reads, 100.0);
        // A 7-entry window holds too few loads to fill the queue.
        if (run.window == 128) {
            EXPECT_GT(run.refusals, 1000.0);
        }
    });
}

TEST(CoreEquiv, TpccPostedWrites)
{
    // 35% of tpcc's accesses are posted writes: ready slots that must
    // merge into the bubble runs around them.
    runGrid("tpcc", 40000, [](const LockstepRun &run) {
        EXPECT_GT(run.writes, 50.0);
        EXPECT_GT(run.reads, 50.0);
    });
}

TEST(CoreEquiv, FullWindowStallsBehindOneLoad)
{
    // Every instruction a load, on a two-block footprint: the 7-entry
    // window fills with loads, so at least one address is outstanding
    // twice, and retirement stalls behind the oldest until its data
    // returns. A completion must ready the oldest load of its
    // address, or the head would stay blocked.
    trace::CpuPersona persona;
    persona.name = "two-block-loads";
    persona.mpki = 1e9; // no bubbles
    persona.writeFraction = 0.0;
    persona.footprintBlocks = 2;
    persona.seqRunMean = 1.0;
    persona.zipfS = 0.0;
    persona.seed = 77;
    for (unsigned width : {1u, 4u}) {
        SCOPED_TRACE("width " + std::to_string(width));
        LockstepRun run;
        runLockstep(persona, width, 7, 4000, run, true);
        ASSERT_FALSE(::testing::Test::HasFatalFailure());
        EXPECT_GT(run.longestFullStall, 10u);
        EXPECT_GT(run.retired, 100u);
        EXPECT_EQ(run.writes, 0.0);
    }
}

} // namespace
} // namespace memcon
