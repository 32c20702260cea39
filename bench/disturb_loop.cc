#include "disturb_loop.hh"

#include <algorithm>
#include <map>

#include "common/logging.hh"
#include "common/random.hh"
#include "core/closed_loop.hh"
#include "failure/disturb.hh"
#include "failure/injector.hh"
#include "sim/system.hh"
#include "trace/cpu_gen.hh"

namespace memcon::bench
{

namespace
{

/**
 * Per-persona operating point. The access rate tops out near 12/us
 * empirically: one DDR3 bank sustains ~20 ACTs/us, but the bank also
 * carries benign demand and lowest-priority test reads - much above
 * 12/us the queue stays occupied, the test engine starves, no row
 * ever reaches LO-REF, and the run measures nothing.
 *
 * The threshold distribution is scaled per persona so the hard floor
 * sits between that persona's HI- and LO-window accumulations: the
 * personas concentrate very different charge rates on their best
 * victim (a sandwiched double-sided victim collects both aggressors'
 * full rate; a fuzzed pattern dilutes its rate across aggressors and
 * amplitude hits), and what the runs isolate is the *window ratio*,
 * not the absolute threshold scale.
 */
struct PersonaTuning
{
    double actsPerUs;
    std::uint64_t medianThreshold;
    std::uint64_t minThreshold;
};

PersonaTuning
disturbTuning(trace::HammerKind kind)
{
    switch (kind) {
    case trace::HammerKind::SingleSided:
        return {12.0, 3000, 1700}; // victims ~6/us: HI 1.5k, LO 6k
    case trace::HammerKind::DoubleSided:
        return {10.0, 3500, 2600}; // center 10/us: HI 2.5k, LO 10k
    case trace::HammerKind::ManySided:
        return {12.0, 3000, 1700}; // interior ~6/us: HI 1.5k, LO 6k
    case trace::HammerKind::Fuzzed:
        return {12.0, 2500, 1200}; // best ~3.5/us: HI .9k, LO 3.5k
    }
    return {12.0, 3000, 1700};
}

} // namespace

Metrics
runDisturbLoop(trace::HammerKind kind, bool lo_ref_enabled,
               std::uint64_t alert_threshold, std::uint64_t seed,
               bool quick, const std::vector<std::string> &report)
{
    dram::Geometry geom;
    geom.rowsPerBank = 64; // 512 rows
    auto timing =
        dram::TimingParams::ddr3_1600(dram::Density::Gb8, TimeMs{16.0});
    const dram::AddressMap map = dram::AddressMap::blocked(3, 6);

    const PersonaTuning tune = disturbTuning(kind);
    failure::DisturbParams dp;
    dp.hiWindowMs = 0.25;
    dp.loWindowMs = 1.0;
    dp.medianThreshold = tune.medianThreshold;
    dp.minThreshold = tune.minThreshold;
    dp.seed = hashMix64(seed ^ 0xd157);
    failure::DisturbModel disturb(dp, &map, geom.totalRows());

    failure::FaultInjectorConfig inj_cfg;
    inj_cfg.transientPerRowPerMs = 0.0;
    inj_cfg.seed = hashMix64(seed ^ 0x1faf11);
    failure::FaultInjector injector(inj_cfg, geom.totalRows());
    injector.attachDisturb(&disturb);

    core::OnlineMemconConfig om_cfg;
    om_cfg.quantum = usToTicks(20.0);
    om_cfg.testIdle = usToTicks(10.0);
    om_cfg.retargetPeriod = usToTicks(10.0);
    om_cfg.testEngine.slots = 16;
    om_cfg.addressMap = map;
    om_cfg.loRefEnabled = lo_ref_enabled;
    om_cfg.resilience.enabled = true;
    om_cfg.resilience.retestBackoff = usToTicks(20.0);
    om_cfg.resilience.fallbackHold = usToTicks(60.0);
    if (alert_threshold != 0) {
        om_cfg.disturbGuard.enabled = true;
        om_cfg.disturbGuard.actAlertThreshold = alert_threshold;
        om_cfg.disturbGuard.crossingWindow = usToTicks(200.0);
        om_cfg.disturbGuard.bankCrossingLimit = 64;
        om_cfg.disturbGuard.bankDegradeHold = usToTicks(100.0);
    }
    core::ClosedLoop loop(geom, timing, om_cfg, injector);
    sim::MemoryController &mc = loop.controller();
    const core::OnlineMemcon &om = loop.memcon();

    // Benign demand traffic is confined to the lower half of every
    // bank's rows (RoBaRaCoCh keeps the per-bank row coordinate in
    // the address high bits, so a block span caps it). The upper half
    // is never written - exactly the population the ascending RO
    // sweep promotes to LO-REF first, and where the attacker aims:
    // cold rows are the ones that hold their relaxed interval.
    const std::uint64_t benign_rows = geom.rowsPerBank / 2;
    const std::uint64_t benign_blocks =
        benign_rows * geom.banks * geom.columnsPerRow;
    trace::CpuAccessStream benign(
        trace::CpuPersona::byName("perlbench"), hashMix64(seed ^ 0xc02e));
    sim::SimpleCore core(0, std::move(benign), mc, 0, benign_blocks);

    trace::HammerSpec hs;
    hs.kind = kind;
    hs.bank = 0;
    hs.sides = 4;
    hs.actsPerUs = tune.actsPerUs;
    hs.horizonMs = quick ? 0.5 : 2.0;
    hs.rowLo = benign_rows;
    hs.seed = hashMix64(seed ^ 0xa66);
    trace::HammerStream hammer(hs, map, geom.totalRows());

    const Tick horizon = msToTicks(hs.horizonMs);
    const Tick sample_period = usToTicks(40.0);
    Tick next_sample = sample_period;
    std::uint64_t samples = 0, latent_sum = 0, latent_peak = 0;
    bool held = false;
    sim::Request held_req;
    sim::CycleDriver driver;
    driver.beforeTick = [&](Tick now) {
        // Drain due aggressor accesses as demand reads; a full
        // controller queue holds the access and retries next cycle.
        Tick at{};
        std::uint64_t row = 0;
        while (true) {
            if (!held) {
                if (!hammer.peek(&at, &row) || at > now)
                    break;
                hammer.pop();
                held_req = sim::Request{};
                held_req.type = sim::Request::Type::Read;
                held_req.addr =
                    geom.compose(geom.rowFromFlatIndex(RowId{row}));
                held = true;
            }
            if (!mc.enqueue(sim::Request{held_req}, now))
                break;
            held = false;
        }
    };
    driver.afterTick = [&](Tick now) {
        for (unsigned k = 0; k < 5; ++k)
            core.tick(now);
        if (now >= next_sample) {
            next_sample += sample_period;
            std::uint64_t latent = 0;
            for (std::uint64_t r = 0; r < geom.totalRows(); ++r)
                if (om.isLoRef(RowId{r}) &&
                    disturb.hasLatentFlip(RowId{r}))
                    ++latent;
            ++samples;
            latent_sum += latent;
            latent_peak = std::max(latent_peak, latent);
        }
        return true;
    };
    loop.runUntil(horizon, driver);

    const std::map<std::string, double> all = {
        {"flips", static_cast<double>(disturb.flipsRecorded())},
        {"flips_single", disturb.stats().value("flips.single")},
        {"flips_double", disturb.stats().value("flips.double")},
        {"corrected", om.stats().value("ecc.corrected")},
        {"uncorrectable", om.stats().value("ecc.uncorrectable")},
        {"victim_refreshes", static_cast<double>(om.victimRefreshes())},
        {"tests", static_cast<double>(om.testsStarted())},
        {"crossings", static_cast<double>(om.disturbGuard().crossings())},
        {"bank_degrades", om.stats().value("disturb.bankDegrades")},
        {"pinned", static_cast<double>(om.pinnedRows())},
        {"lo_fraction", om.loRefFraction()},
        {"reduction", om.emergentReduction()},
        {"avg_latent_lo_rows",
         samples ? static_cast<double>(latent_sum) / samples : 0.0},
        {"peak_latent_lo_rows", static_cast<double>(latent_peak)},
    };
    Metrics out;
    for (const std::string &name : report) {
        auto it = all.find(name);
        fatal_if(it == all.end(), "unknown disturb metric '%s'",
                 name.c_str());
        out.push_back({name, it->second});
    }
    return out;
}

} // namespace memcon::bench
