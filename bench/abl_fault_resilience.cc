/**
 * @file
 * Ablation: fault injection vs. the graceful-degradation layer.
 *
 * The closed-loop MEMCON run (abl_online_closedloop) trusts its own
 * verdicts; this ablation stresses that trust. A FaultInjector feeds
 * the controller's ECC probe with VRT telegraph flips plus a swept
 * rate of transient upsets, and the run is scored on *undetected
 * corruption*: rows serving demand at LO-REF while holding a fault no
 * read has surfaced yet.
 *
 * Three configurations per fault rate:
 *  - resilience off: the trusting baseline. ECC events are counted
 *    but nothing acts on them; latent corruption accumulates.
 *  - resilience on: corrected errors demote + re-test with backoff,
 *    uncorrectable errors trigger the panic-fallback.
 *  - resilience + scrub: additionally, idle LO-REF rows are
 *    re-certified round-robin through the test slots, closing the
 *    window on rows that see neither writes nor demand reads.
 *
 * One sweep point per (rate, layer); the VRT and injector seeds are
 * derived from the campaign seed, so rerunning with any --threads
 * value reproduces every number bit-identically.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/random.hh"
#include "common/table.hh"
#include "core/closed_loop.hh"
#include "failure/injector.hh"
#include "failure/vrt.hh"
#include "runner.hh"
#include "sim/system.hh"
#include "trace/cpu_gen.hh"

using namespace memcon;
using namespace memcon::core;

namespace
{

enum class Layer
{
    Off,      //!< resilience disabled (trusting baseline)
    On,       //!< demotion + fallback, no scrub
    OnScrub,  //!< demotion + fallback + idle-row re-scrub
};

const char *
layerName(Layer layer)
{
    switch (layer) {
    case Layer::Off:
        return "resilience off";
    case Layer::On:
        return "resilience on";
    case Layer::OnScrub:
        return "on + scrub";
    }
    return "?";
}

bench::Metrics
runOne(double transient_rate, Layer layer, std::uint64_t seed, bool quick)
{
    dram::Geometry geom;
    geom.rowsPerBank = 64; // 512 rows
    auto timing = dram::TimingParams::ddr3_1600(dram::Density::Gb8, TimeMs{16.0});

    // The AVATAR hazard, time-compressed: cells toggle on the same
    // scale the run covers, so certifications go stale mid-run. The
    // VRT population and injector draw decorrelated sub-seeds from
    // the task seed.
    failure::VrtParams vrt_params;
    vrt_params.vrtCellsPerRow = 0.05;
    vrt_params.dwellHighMs = 0.6;
    vrt_params.dwellLowMs = 0.4;
    vrt_params.seed = hashMix64(seed ^ 0x5e711e5ce);
    failure::VrtPopulation vrt(vrt_params, geom.totalRows());

    failure::FaultInjectorConfig inj_cfg;
    inj_cfg.transientPerRowPerMs = transient_rate;
    inj_cfg.transientDoubleBitFraction = 0.1;
    inj_cfg.seed = hashMix64(seed ^ 0x1faf11);
    failure::FaultInjector injector(inj_cfg, geom.totalRows());
    injector.attachVrt(&vrt);

    OnlineMemconConfig om_cfg;
    om_cfg.quantum = usToTicks(20.0);
    om_cfg.testIdle = usToTicks(10.0);
    om_cfg.retargetPeriod = usToTicks(10.0);
    om_cfg.testEngine.slots = 16;
    om_cfg.resilience.enabled = layer != Layer::Off;
    om_cfg.resilience.retestBackoff = usToTicks(20.0);
    om_cfg.resilience.fallbackHold = usToTicks(60.0);
    // Sized so a full pass over the LO set takes ~1 ms: enough to
    // close the idle-row window without crowding certification out
    // of the test slots.
    om_cfg.resilience.scrubPeriod =
        layer == Layer::OnScrub ? usToTicks(60.0) : Tick{};
    om_cfg.resilience.scrubRowsPerSweep = 8;
    // The injector decodes demand reads, demand writes restore rows,
    // and test verdicts consult its latent state: a row holding
    // unsurfaced corruption fails its (re-)certification.
    ClosedLoop loop(geom, timing, om_cfg, injector);
    const OnlineMemcon &om = loop.memcon();

    trace::CpuAccessStream stream(
        trace::CpuPersona::byName("perlbench"), hashMix64(seed ^ 0xc02e));
    sim::SimpleCore core(0, std::move(stream), loop.controller(), 0,
                         geom.totalBlocks());

    const Tick horizon = msToTicks(quick ? 0.5 : 2.0);
    const Tick sample_period = usToTicks(40.0);
    Tick next_sample = sample_period;
    std::uint64_t samples = 0, latent_sum = 0, latent_peak = 0;
    sim::CycleDriver driver;
    driver.afterTick = [&](Tick now) {
        for (unsigned k = 0; k < 5; ++k)
            core.tick(now);
        if (now >= next_sample) {
            next_sample += sample_period;
            std::uint64_t latent = 0;
            for (std::uint64_t r = 0; r < geom.totalRows(); ++r)
                if (om.isLoRef(RowId{r}) &&
                    injector.hasLatentFault(RowId{r}, now, true))
                    ++latent;
            ++samples;
            latent_sum += latent;
            latent_peak = std::max(latent_peak, latent);
        }
        return true;
    };
    loop.runUntil(horizon, driver);

    return bench::Metrics{
        {"lo_fraction", om.loRefFraction()},
        {"reduction", om.emergentReduction()},
        {"corrected", om.stats().value("ecc.corrected")},
        {"uncorrectable", om.stats().value("ecc.uncorrectable")},
        {"fallbacks", om.stats().value("fallback.entries")},
        {"pinned", static_cast<double>(om.pinnedRows())},
        {"scrub_failed", om.stats().value("scrub.failed")},
        {"avg_latent_lo_rows",
         samples ? static_cast<double>(latent_sum) / samples : 0.0},
        {"peak_latent_lo_rows", static_cast<double>(latent_peak)},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    bench::SweepOptions opts = bench::parseSweepArgs(argc, argv);
    bench::banner("Ablation: fault injection vs. graceful degradation",
                  "undetected corruption on LO-REF rows under VRT + "
                  "transient upsets");
    note("512-row module, 2 ms simulated, VRT cells toggling on the "
         "run's timescale plus a swept transient-upset rate. 'latent "
         "LO rows' = rows serving demand at LO-REF while holding a "
         "fault no read has surfaced (sampled every 40 us).");

    const std::vector<double> rates = {0.0, 0.1, 0.4};
    const std::vector<Layer> layers = {Layer::Off, Layer::On,
                                       Layer::OnScrub};
    bench::SweepRunner runner("abl_fault_resilience", opts);
    for (double rate : rates) {
        for (Layer layer : layers) {
            runner.add(strprintf("rate%.1f/%s", rate, layerName(layer)),
                       [rate, layer](const bench::TaskContext &ctx) {
                           return runOne(rate, layer, ctx.seed,
                                         ctx.quick);
                       });
        }
    }
    runner.run();

    TextTable t;
    t.header({"upsets/row/ms", "config", "LO-REF", "reduction",
              "corr", "uncorr", "fallbacks", "pinned", "scrub fails",
              "latent LO rows (avg/peak)"});
    std::size_t idx = 0;
    for (double rate : rates) {
        for (Layer layer : layers) {
            const bench::PointResult &o = runner.results()[idx++];
            t.row({TextTable::num(rate, 1), layerName(layer),
                   TextTable::pct(o.metric("lo_fraction"), 1),
                   TextTable::pct(o.metric("reduction"), 1),
                   TextTable::num(o.metric("corrected"), 0),
                   TextTable::num(o.metric("uncorrectable"), 0),
                   TextTable::num(o.metric("fallbacks"), 0),
                   TextTable::num(o.metric("pinned"), 0),
                   TextTable::num(o.metric("scrub_failed"), 0),
                   TextTable::num(o.metric("avg_latent_lo_rows"), 2) +
                       " / " +
                       TextTable::num(o.metric("peak_latent_lo_rows"),
                                      0)});
        }
    }
    std::printf("%s", t.render().c_str());
    note("With the layer off, ECC events are counted but nothing acts "
         "on them: latent corruption rides at LO-REF until a write "
         "happens by. The layer converts every corrected error into "
         "an immediate demotion and every uncorrectable into a "
         "blanket-HI-REF fallback; the scrub additionally catches "
         "rows whose certification went stale while idle.");
    runner.finish();
    return 0;
}
