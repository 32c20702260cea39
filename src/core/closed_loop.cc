#include "core/closed_loop.hh"

#include "common/logging.hh"
#include "common/state_io.hh"

namespace memcon::core
{

namespace
{

/** The disturb guard's victim refreshes reset the model's counters. */
OnlineMemconConfig
withVictimRefresher(OnlineMemconConfig cfg, failure::DisturbModel *disturb)
{
    if (disturb) {
        fatal_if(static_cast<bool>(cfg.victimRefresher),
                 "a disturb model supplies the victim refresher");
        cfg.victimRefresher = [disturb](RowId victim, Tick now) {
            disturb->onVictimRefreshed(victim, now);
        };
    }
    return cfg;
}

} // namespace

ClosedLoop::ClosedLoop(const dram::Geometry &geometry,
                       const dram::TimingParams &timing,
                       const OnlineMemconConfig &config,
                       OnlineMemcon::RowFailureOracle oracle,
                       sim::ControllerConfig base)
    : geom(geometry), tck(timing.tCk),
      mc(geometry, timing, wireController(std::move(base), nullptr)),
      om(geometry, mc, config, std::move(oracle))
{
    observer = &om;
}

ClosedLoop::ClosedLoop(const dram::Geometry &geometry,
                       const dram::TimingParams &timing,
                       const OnlineMemconConfig &config,
                       failure::FaultInjector &injector)
    : geom(geometry), tck(timing.tCk),
      mc(geometry, timing, wireController({}, &injector)),
      om(geometry, mc, withVictimRefresher(config, injector.disturb()),
         // A row holding corruption no read has surfaced fails its
         // (re-)certification.
         [this, &injector](RowId row) {
             return injector.hasLatentFault(row, current, true);
         })
{
    observer = &om;
    if (failure::DisturbModel *disturb = injector.disturb())
        disturb->setLoRefQuery(
            [this](RowId row) { return om.isLoRef(row); });
}

sim::ControllerConfig
ClosedLoop::wireController(sim::ControllerConfig cfg,
                           failure::FaultInjector *injector)
{
    OnlineMemcon::installObserver(cfg, observer);
    if (!injector)
        return cfg;

    cfg.eccProbe = [this, injector](std::uint64_t addr, Tick now) {
        const RowId row = rowOf(addr);
        return injector->onRead(row, now, om.isLoRef(row));
    };
    // A demand write rewrites the row's content: the injector's
    // restore runs ahead of MEMCON's write observer.
    auto inner_write = std::move(cfg.writeObserver);
    cfg.writeObserver = [this, injector,
                         inner_write](std::uint64_t addr, Tick now) {
        injector->onRowRestored(rowOf(addr), now);
        inner_write(addr, now);
    };
    // Every ACT the controller issues - demand, test and the guard's
    // own victim refreshes alike - disturbs its neighbors.
    if (failure::DisturbModel *disturb = injector->disturb()) {
        auto inner_act = std::move(cfg.activateObserver);
        cfg.activateObserver = [this, disturb,
                                inner_act](std::uint64_t addr, Tick now) {
            disturb->onActivate(rowOf(addr), now);
            inner_act(addr, now);
        };
    }
    return cfg;
}

RowId
ClosedLoop::rowOf(std::uint64_t addr) const
{
    return geom.flatRowIndex(geom.decompose(addr));
}

void
ClosedLoop::saveState(StateWriter &out) const
{
    out.line("loop");
    out.tick("now", current);
    mc.saveState(out);
    om.saveState(out);
}

void
ClosedLoop::loadState(StateReader &in)
{
    in.line("loop");
    current = in.tick("now");
    mc.loadState(in);
    om.loadState(in);
}

} // namespace memcon::core
