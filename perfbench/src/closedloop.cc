/**
 * @file
 * Workload `closedloop`: the fully wired cycle-domain module of
 * abl_disturb_loref's LO+guard arm. A SimpleCore running a CpuPersona
 * and a fuzzed HammerStream attacker share one MemoryController;
 * OnlineMemcon runs with resilience and DisturbGuard on; the
 * DisturbModel and FaultInjector are chained on the ACT, write and
 * ECC observers; and the loop is driven cycle by cycle from here.
 *
 * The module (disturb thresholds, injector) and the attacker's fuzzed
 * pattern are fixed - fuzzed patterns differ several-fold in the work
 * they cause, which would swamp the measurement - and the seed drives
 * the benign CPU stream. An epoch is 10 us of module time;
 * refresh_reduction is OnlineMemcon's emergent reduction averaged over
 * the epochs. Per-cycle spans are sampled: one cycle in 16 is timed
 * end to end and stands for 16.
 */

#include <memory>

#include "bench.hh"
#include "common/random.hh"
#include "core/online_memcon.hh"
#include "failure/disturb.hh"
#include "failure/injector.hh"
#include "sim/controller.hh"
#include "sim/core.hh"
#include "trace/cpu_gen.hh"
#include "trace/hammer.hh"

namespace perfbench
{

namespace
{

using namespace memcon;

/**
 * One module and everything wired to it. Observers capture the
 * module by pointer, so it lives on the heap and never moves.
 */
struct Module
{
    Module(std::uint64_t seed, double horizon_ms)
    {
        geom.rowsPerBank = 64; // 512 rows
        failure::DisturbParams dp;
        dp.hiWindowMs = 0.25;
        dp.loWindowMs = 1.0;
        dp.medianThreshold = 2500;
        dp.minThreshold = 1200;
        dp.seed = 0xd157; // the module's thresholds are fixed
        disturb = std::make_unique<failure::DisturbModel>(dp, &map,
                                                          geom.totalRows());
        failure::FaultInjectorConfig inj;
        inj.transientPerRowPerMs = 0.0;
        inj.seed = 0x1faf11;
        injector =
            std::make_unique<failure::FaultInjector>(inj, geom.totalRows());
        injector->attachDisturb(disturb.get());

        sim::ControllerConfig mc_cfg;
        core::OnlineMemcon::installObserver(mc_cfg, slot);
        mc_cfg.eccProbe = [this](std::uint64_t addr, Tick t) {
            Span s(tr, injectorK);
            const RowId row = rowOf(addr);
            return injector->onRead(row, t, slot && slot->isLoRef(row));
        };
        auto inner_error = mc_cfg.errorObserver;
        mc_cfg.errorObserver = [this, inner_error](std::uint64_t addr,
                                                   dram::EccStatus st,
                                                   Tick t) {
            Span s(tr, observeK);
            inner_error(addr, st, t);
        };
        auto inner_write = mc_cfg.writeObserver;
        mc_cfg.writeObserver = [this, inner_write](std::uint64_t addr,
                                                   Tick t) {
            ++writes;
            {
                Span s(tr, injectorK);
                injector->onRowRestored(rowOf(addr), t);
            }
            Span s(tr, observeK);
            inner_write(addr, t);
        };
        auto inner_act = mc_cfg.activateObserver;
        mc_cfg.activateObserver = [this, inner_act](std::uint64_t addr,
                                                    Tick t) {
            ++acts;
            {
                Span s(tr, disturbK);
                disturb->onActivate(rowOf(addr), t);
            }
            Span s(tr, observeK);
            inner_act(addr, t);
        };
        mc = std::make_unique<sim::MemoryController>(geom, timing, mc_cfg);

        core::OnlineMemconConfig om_cfg;
        om_cfg.quantum = usToTicks(20.0);
        om_cfg.testIdle = usToTicks(10.0);
        om_cfg.retargetPeriod = usToTicks(10.0);
        om_cfg.testEngine.slots = 16;
        om_cfg.testEngine.wordsPerRow = 64;
        om_cfg.addressMap = map;
        om_cfg.resilience.enabled = true;
        om_cfg.resilience.retestBackoff = usToTicks(20.0);
        om_cfg.resilience.fallbackHold = usToTicks(60.0);
        om_cfg.disturbGuard.enabled = true;
        om_cfg.disturbGuard.actAlertThreshold = 256;
        om_cfg.disturbGuard.crossingWindow = usToTicks(200.0);
        om_cfg.disturbGuard.bankCrossingLimit = 64;
        om_cfg.disturbGuard.bankDegradeHold = usToTicks(100.0);
        om_cfg.victimRefresher = [this](RowId victim, Tick t) {
            Span s(tr, disturbK);
            disturb->onVictimRefreshed(victim, t);
        };
        om = std::make_unique<core::OnlineMemcon>(
            geom, *mc, om_cfg, [this](RowId row) {
                Span s(tr, injectorK);
                return injector->hasLatentFault(row, now, true);
            });
        slot = om.get();
        disturb->setLoRefQuery([this](RowId row) { return slot->isLoRef(row); });

        // Benign demand stays in the lower half of every bank; the
        // attacker hammers bank 0's never-written upper half.
        const std::uint64_t benign_rows = geom.rowsPerBank / 2;
        trace::CpuAccessStream benign(trace::CpuPersona::byName("perlbench"),
                                      hashMix64(seed ^ 0xc02e));
        core = std::make_unique<sim::SimpleCore>(
            0, std::move(benign), *mc, 0,
            benign_rows * geom.banks * geom.columnsPerRow);
        trace::HammerSpec hs;
        hs.kind = trace::HammerKind::Fuzzed;
        hs.bank = 0;
        hs.sides = 4;
        hs.actsPerUs = 12.0;
        hs.horizonMs = horizon_ms;
        hs.rowLo = benign_rows;
        hs.seed = hashMix64(0xa66); // one fixed fuzzed pattern
        hammer = std::make_unique<trace::HammerStream>(hs, map,
                                                       geom.totalRows());
    }

    Module(const Module &) = delete;
    Module &operator=(const Module &) = delete;

    RowId rowOf(std::uint64_t addr) const
    {
        return geom.flatRowIndex(geom.decompose(addr));
    }

    /** Advance one DRAM cycle. */
    void
    step()
    {
        now += timing.tCk;
        {
            // Drain due aggressor accesses as demand reads; a full
            // queue holds the access and retries next cycle.
            Span s(tr, hammerK);
            Tick at{};
            std::uint64_t row = 0;
            while (true) {
                if (!held) {
                    if (!hammer->peek(&at, &row) || at > now)
                        break;
                    hammer->pop();
                    heldReq = sim::Request{};
                    heldReq.type = sim::Request::Type::Read;
                    heldReq.addr =
                        geom.compose(geom.rowFromFlatIndex(RowId{row}));
                    held = true;
                }
                Span e(tr, enqueueK);
                if (!mc->enqueue(sim::Request{heldReq}, now))
                    break;
                held = false;
            }
        }
        {
            Span s(tr, ctrlK);
            mc->tick(now);
        }
        {
            Span s(tr, onlineK);
            om->tick(now);
        }
        {
            // 4 GHz core, 800 MHz DRAM clock.
            Span s(tr, coreK);
            for (unsigned k = 0; k < 5; ++k)
                core->tick(now);
        }
    }

    /** Point every span at `t` (null: untraced). */
    void
    attach(Tracer *t)
    {
        tr = t;
        if (!t)
            return;
        cycleK = t->kind("bench.cycle", 16);
        hammerK = t->kind("trace.hammer");
        enqueueK = t->kind("sim.controller.enqueue");
        ctrlK = t->kind("sim.controller.tick");
        onlineK = t->kind("core.online.tick");
        coreK = t->kind("sim.core.tick");
        observeK = t->kind("core.online.observe");
        disturbK = t->kind("failure.disturb");
        injectorK = t->kind("failure.injector");
    }

    dram::Geometry geom;
    dram::TimingParams timing =
        dram::TimingParams::ddr3_1600(dram::Density::Gb8, TimeMs{16.0});
    dram::AddressMap map = dram::AddressMap::blocked(3, 6);
    std::unique_ptr<failure::DisturbModel> disturb;
    std::unique_ptr<failure::FaultInjector> injector;
    Tick now{};
    core::OnlineMemcon *slot = nullptr;
    std::unique_ptr<sim::MemoryController> mc;
    std::unique_ptr<core::OnlineMemcon> om;
    std::unique_ptr<sim::SimpleCore> core;
    std::unique_ptr<trace::HammerStream> hammer;
    bool held = false;
    sim::Request heldReq;

    std::uint64_t writes = 0;
    std::uint64_t acts = 0;

    Tracer *tr = nullptr;
    int cycleK = -1, hammerK = -1, enqueueK = -1, ctrlK = -1, onlineK = -1,
        coreK = -1, observeK = -1, disturbK = -1, injectorK = -1;
};

class ClosedLoop : public Workload
{
  public:
    explicit ClosedLoop(const Options &o)
        : opts(o), horizonMs(o.tiny ? 0.2 : 6.0)
    {
    }

    void
    setup() override
    {
        pending = std::make_unique<Module>(opts.seed, horizonMs);
    }

    void release() override { pending.reset(); }

    PassResult
    runPass(Tracer *tr) override
    {
        std::unique_ptr<Module> m = std::move(pending);
        m->attach(tr);
        const Tick horizon = msToTicks(horizonMs);
        const Tick window = usToTicks(10.0);
        Tick next_window = window;
        std::uint64_t idle_ticks = 0, cycles = 0;
        double reduction_sum = 0.0;

        PassResult out;
        const double t0 = hostNow();
        double t_epoch = t0;
        while (m->now < horizon) {
            {
                Span c(tr, m->cycleK);
                m->step();
            }
            ++cycles;
            if (tr && m->mc->idle())
                ++idle_ticks;
            if (m->now >= next_window) {
                next_window += window;
                const double t = hostNow();
                out.epochsS.push_back(t - t_epoch);
                t_epoch = t;
                checkPartition(*m);
                reduction_sum += m->om->emergentReduction();
            }
        }
        out.seconds = hostNow() - t0;
        checkPartition(*m);

        const StatGroup &mcs = m->mc->stats();
        const core::OnlineMemcon &om = *m->om;
        Digest d;
        d.add("fingerprint", static_cast<std::uint64_t>(om.stateFingerprint()));
        d.add("tests", om.testsStarted());
        d.add("passed", om.testsPassed());
        d.add("failed", om.testsFailed());
        d.add("aborted", om.testsAborted());
        d.add("demotions", om.demotions());
        d.add("victimRefreshes", om.victimRefreshes());
        d.add("pinned", om.pinnedRows());
        d.add("reduction", om.emergentReduction());
        d.add("flips", m->disturb->flipsRecorded());
        d.add("retired", static_cast<std::uint64_t>(m->core->retiredInsts()));
        d.add("controller", mcs.dump());
        out.digest = d.hex();

        const double completed =
            mcs.value("completed.read") + mcs.value("completed.write");
        const double refused = mcs.value("queueFull");
        out.work["sim_us_per_s"] = horizonMs * 1e3;
        out.work["replay_events_per_s"] = static_cast<double>(m->writes);
        out.work["applied_events_per_s"] = completed;
        out.work["rows_per_s"] = static_cast<double>(m->acts);
        // Averaged over the epochs: the refresh saved over the run.
        out.outcomes["refresh_reduction"] =
            reduction_sum / static_cast<double>(out.epochsS.size());
        out.outcomes["drop_frac"] = refused / (refused + completed);

        if (tr) {
            out.layers["sim.core.tick_s"] = tr->selfS("sim.core.tick");
            out.layers["trace.hammer_s"] = tr->selfS("trace.hammer");
            out.layers["sim.controller.tick_s"] =
                tr->selfS("sim.controller.tick") +
                tr->selfS("sim.controller.enqueue");
            out.layers["core.online.tick_s"] = tr->selfS("core.online.tick");
            out.layers["core.online.observe_s"] =
                tr->selfS("core.online.observe");
            out.layers["failure.disturb_s"] = tr->selfS("failure.disturb");
            out.layers["failure.injector_s"] = tr->selfS("failure.injector");
            out.layers["sim.controller.reads"] = mcs.value("completed.read");
            out.layers["sim.controller.writes"] =
                mcs.value("completed.write");
            out.layers["sim.controller.acts"] = mcs.value("act");
            out.layers["sim.controller.refreshes"] = mcs.value("refresh");
            out.layers["sim.controller.enqueue_rejects"] = refused;
            out.layers["sim.controller.idle_tick_frac"] =
                static_cast<double>(idle_ticks) / static_cast<double>(cycles);
            out.layers["core.online.tests_started"] =
                static_cast<double>(om.testsStarted());
            out.layers["core.online.tests_passed"] =
                static_cast<double>(om.testsPassed());
            out.layers["core.online.tests_aborted"] =
                static_cast<double>(om.testsAborted());
            out.layers["core.online.victim_refreshes"] =
                static_cast<double>(om.victimRefreshes());
            out.layers["core.online.demotions"] =
                static_cast<double>(om.demotions());
            out.layers["core.online.test_pass_ratio"] =
                om.testsStarted() == 0
                    ? 0.0
                    : static_cast<double>(om.testsPassed()) /
                          static_cast<double>(om.testsStarted());
            out.layers["failure.disturb.flips"] =
                static_cast<double>(m->disturb->flipsRecorded());
        }
        return out;
    }

    double
    restartS() override
    {
        // A fresh module through its first five PRIL quanta.
        const double t0 = hostNow();
        Module m(opts.seed, horizonMs);
        const Tick until = usToTicks(100.0);
        while (m.now < until)
            m.step();
        return hostNow() - t0;
    }

  private:
    /** The partition invariant: a pinned row is never LO-REF. */
    void
    checkPartition(const Module &m)
    {
        for (std::uint64_t r = 0; r < m.geom.totalRows(); ++r) {
            if (m.om->isPinned(RowId{r}) && m.om->isLoRef(RowId{r})) {
                violations.push_back("row " + std::to_string(r) +
                                     " is pinned and LO-REF");
                return;
            }
        }
    }

    Options opts;
    double horizonMs;
    std::unique_ptr<Module> pending;
};

} // namespace

std::unique_ptr<Workload>
makeClosedLoop(const Options &opts)
{
    return std::make_unique<ClosedLoop>(opts);
}

} // namespace perfbench
