/**
 * @file
 * Ablation: the closed-loop, cycle-domain MEMCON.
 *
 * Unlike Figure 15/16 (which model MEMCON's refresh reduction as a
 * configured tREFI stretch), this run lets the mechanism act on the
 * simulator's real request stream: PRIL observes demand writes, test
 * traffic is injected per candidate row, rows migrate between HI and
 * LO-REF, and the controller's refresh cadence follows the measured
 * LO-REF fraction. Quanta are time-compressed (cycle simulation
 * covers milliseconds, not seconds); the control flow is the real
 * one.
 *
 * One sweep point per (workload, configuration); the access-stream
 * seed derives from the campaign seed, so the table is reproducible
 * from the banner and bit-identical for any --threads value.
 */

#include <memory>
#include <vector>

#include "bench_util.hh"
#include "common/table.hh"
#include "core/closed_loop.hh"
#include "runner.hh"
#include "sim/cycle_loop.hh"
#include "sim/system.hh"
#include "trace/cpu_gen.hh"

using namespace memcon;
using namespace memcon::core;

namespace
{

bench::Metrics
runOne(const char *persona_name, bool with_memcon, std::uint64_t seed,
       bool quick)
{
    dram::Geometry geom;
    geom.rowsPerBank = 64; // 512 rows: testable within the window
    auto timing = dram::TimingParams::ddr3_1600(dram::Density::Gb8, TimeMs{16.0});

    OnlineMemconConfig om_cfg;
    om_cfg.quantum = usToTicks(20.0);
    om_cfg.testIdle = usToTicks(10.0);
    om_cfg.retargetPeriod = usToTicks(10.0);
    om_cfg.testEngine.slots = 16;
    // The baseline arm runs a bare controller.
    std::unique_ptr<ClosedLoop> loop;
    std::unique_ptr<sim::MemoryController> bare;
    if (with_memcon)
        loop = std::make_unique<ClosedLoop>(geom, timing, om_cfg);
    else
        bare = std::make_unique<sim::MemoryController>(
            geom, timing, sim::ControllerConfig{});
    sim::MemoryController &mc = loop ? loop->controller() : *bare;
    const OnlineMemcon *om = loop ? &loop->memcon() : nullptr;

    trace::CpuAccessStream stream(
        trace::CpuPersona::byName(persona_name), seed);
    sim::SimpleCore core(0, std::move(stream), mc, 0,
                         geom.totalBlocks());
    // Run for a fixed simulated duration so the closed loop has the
    // same wall-clock opportunity under every workload.
    const Tick horizon = msToTicks(quick ? 0.2 : 1.0);
    sim::CycleDriver driver;
    driver.afterTick = [&core](Tick now) {
        for (unsigned k = 0; k < 5; ++k)
            core.tick(now);
        return true;
    };
    const Tick now =
        loop ? loop->runUntil(horizon, driver)
             : sim::runCycles(mc, driver, Tick{}, horizon, timing.tCk);

    return bench::Metrics{
        {"ipc", core.ipc()},
        {"refresh_per_ms", mc.stats().value("refresh") / ticksToMs(now).value()},
        {"lo_fraction", om ? om->loRefFraction() : 0.0},
        {"emergent_reduction", om ? om->emergentReduction() : 0.0},
        {"tests", om ? static_cast<double>(om->testsStarted()) : 0.0},
        {"aborts", om ? static_cast<double>(om->testsAborted()) : 0.0},
        {"demotions", om ? static_cast<double>(om->demotions()) : 0.0},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    bench::SweepOptions opts = bench::parseSweepArgs(argc, argv);
    bench::banner("Ablation: closed-loop MEMCON",
                  "emergent refresh reduction from the live request "
                  "stream");
    note("512-row module, 20 us quanta (time-compressed), 1 ms of "
         "simulated time per run. The reduction is measured, not "
         "configured.");

    const std::vector<const char *> workloads = {"perlbench", "h264ref",
                                                 "omnetpp"};
    bench::SweepRunner runner("abl_online_closedloop", opts);
    for (const char *name : workloads) {
        for (bool with_memcon : {false, true}) {
            runner.add(std::string(name) +
                           (with_memcon ? "/memcon" : "/baseline"),
                       [name, with_memcon](const bench::TaskContext &ctx) {
                           return runOne(name, with_memcon, ctx.seed,
                                         ctx.quick);
                       });
        }
    }
    runner.run();

    TextTable t;
    t.header({"workload", "config", "IPC", "REF/ms", "LO-REF rows",
              "emergent reduction", "tests", "aborts", "demotions"});
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const bench::PointResult &base = runner.results()[w * 2];
        const bench::PointResult &mem = runner.results()[w * 2 + 1];
        t.row({workloads[w], "baseline 16ms",
               TextTable::num(base.metric("ipc"), 3),
               TextTable::num(base.metric("refresh_per_ms"), 1), "-", "-",
               "-", "-", "-"});
        t.row({workloads[w], "online MEMCON",
               TextTable::num(mem.metric("ipc"), 3),
               TextTable::num(mem.metric("refresh_per_ms"), 1),
               TextTable::pct(mem.metric("lo_fraction"), 1),
               TextTable::pct(mem.metric("emergent_reduction"), 1),
               TextTable::num(mem.metric("tests"), 0),
               TextTable::num(mem.metric("aborts"), 0),
               TextTable::num(mem.metric("demotions"), 0)});
    }
    std::printf("%s", t.render().c_str());
    note("Write-light workloads settle most rows at LO-REF and cut "
         "the REF rate accordingly; write-heavy ones keep more rows "
         "at HI-REF - the mechanism adapts by itself.");
    runner.finish();
    return 0;
}
