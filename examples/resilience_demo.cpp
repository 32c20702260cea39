/**
 * @file
 * Resilience demo: what happens when the field disagrees with the
 * profile.
 *
 * MEMCON certifies rows against their current content, but a verdict
 * can go stale afterwards: a VRT cell toggles into its leaky state,
 * or a particle strike corrupts a row outright. This demo wires the
 * FaultInjector into the controller's ECC probe and walks the
 * graceful-degradation loop end to end:
 *
 *   corrected error on a LO-REF row  -> demote + backoff re-test
 *   uncorrectable error              -> panic-fallback to blanket
 *                                       HI-REF, then re-certify
 *   idle LO-REF rows                 -> periodic re-scrub
 *
 * Build and run:
 *   cmake --preset default && cmake --build --preset default
 *   ./build/examples/resilience_demo
 */

#include <cstdio>

#include "core/closed_loop.hh"
#include "failure/injector.hh"
#include "failure/vrt.hh"
#include "sim/system.hh"
#include "trace/cpu_gen.hh"

using namespace memcon;
using namespace memcon::core;

int
main()
{
    dram::Geometry geom;
    geom.rowsPerBank = 32; // 256 rows
    auto timing =
        dram::TimingParams::ddr3_1600(dram::Density::Gb8, TimeMs{16.0});

    // VRT cells that toggle on the run's (compressed) timescale, plus
    // a transient-upset process hot enough to watch.
    failure::VrtParams vrt_params;
    vrt_params.vrtCellsPerRow = 0.05;
    vrt_params.dwellHighMs = 0.6;
    vrt_params.dwellLowMs = 0.4;
    vrt_params.seed = 9;
    failure::VrtPopulation vrt(vrt_params, geom.totalRows());

    failure::FaultInjectorConfig inj_cfg;
    inj_cfg.transientPerRowPerMs = 0.2;
    inj_cfg.transientDoubleBitFraction = 0.1;
    inj_cfg.seed = 5;
    failure::FaultInjector injector(inj_cfg, geom.totalRows());
    injector.attachVrt(&vrt);

    OnlineMemconConfig om_cfg;
    om_cfg.quantum = usToTicks(20.0);
    om_cfg.testIdle = usToTicks(10.0);
    om_cfg.retargetPeriod = usToTicks(10.0);
    om_cfg.testEngine.slots = 16;
    om_cfg.resilience.retestBackoff = usToTicks(20.0);
    om_cfg.resilience.fallbackHold = usToTicks(60.0);
    om_cfg.resilience.scrubPeriod = usToTicks(60.0);
    // The injector decodes every demand read, demand writes restore
    // rows, and a row holding a latent fault fails its test.
    ClosedLoop loop(geom, timing, om_cfg, injector);
    sim::MemoryController &mc = loop.controller();
    const OnlineMemcon &om = loop.memcon();

    trace::CpuAccessStream stream(
        trace::CpuPersona::byName("perlbench"), 3);
    sim::SimpleCore core(0, std::move(stream), mc, 0,
                         geom.totalBlocks());

    std::printf("t(us)  LO-REF  reduction  fallback  pinned\n");
    const Tick horizon = msToTicks(2.0);
    Tick next_report = usToTicks(200.0);
    sim::CycleDriver driver;
    driver.afterTick = [&](Tick now) {
        for (unsigned k = 0; k < 5; ++k)
            core.tick(now);
        if (now >= next_report) {
            next_report += usToTicks(200.0);
            std::printf("%5.0f  %5.1f%%  %8.1f%%  %8s  %6llu\n",
                        ticksToMs(now).value() * 1000.0,
                        100.0 * om.loRefFraction(),
                        100.0 * mc.refreshReduction(),
                        om.inFallback() ? "ACTIVE" : "-",
                        static_cast<unsigned long long>(
                            om.pinnedRows()));
        }
        return true;
    };
    loop.runUntil(horizon, driver);

    std::printf("\nevent counters:\n%s\n", om.stats().dump().c_str());
    std::printf("transients injected: %llu\n",
                static_cast<unsigned long long>(
                    injector.injectedFaults()));
    return 0;
}
