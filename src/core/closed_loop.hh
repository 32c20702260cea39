/**
 * @file
 * The closed loop, assembled once: a sim::MemoryController and the
 * OnlineMemcon that observes and re-targets it (paper §3, §6.1).
 *
 * The controller reports every demand write, ACT and ECC verdict to
 * the OnlineMemcon; the OnlineMemcon tests rows through the
 * controller's request queue and re-targets its refresh cadence.
 * ClosedLoop owns both halves and installs that wiring, so a bench,
 * test or service tenant only supplies the configuration and drives
 * the loop.
 *
 * ClosedLoop also owns time advance: runUntil() moves the loop to a
 * horizon through sim::runCycles, simulating only the cycles in which
 * the controller, MEMCON or the caller's CycleDriver can act (DESIGN
 * "Time advance"). tick() remains for callers that step one cycle at
 * a time; each component's cached bound makes its idle ticks O(1).
 *
 * An optional failure::FaultInjector turns the loop into a fault
 * experiment. The injector then
 *  - decodes every demand read (the controller's ECC probe, with the
 *    row's current LO-REF state),
 *  - has every demand write restore the row, ahead of MEMCON's own
 *    write observer,
 *  - decides test verdicts: a row fails its test while it holds a
 *    latent fault at LO-REF.
 * When a DisturbModel is attached to the injector, every ACT also
 * charges the model (ahead of MEMCON's ACT observer), the model reads
 * the loop's LO-REF set, and the disturb guard's victim refreshes
 * reset the model's counters.
 */

#ifndef MEMCON_CORE_CLOSED_LOOP_HH
#define MEMCON_CORE_CLOSED_LOOP_HH

#include <algorithm>

#include "core/online_memcon.hh"
#include "failure/injector.hh"
#include "sim/controller.hh"
#include "sim/cycle_loop.hh"

namespace memcon
{
class StateReader;
class StateWriter;
} // namespace memcon

namespace memcon::core
{

class ClosedLoop
{
  public:
    /**
     * @param oracle  decides whether a tested row fails at LO-REF
     *                (none: every test passes)
     * @param base    controller knobs; its eccProbe is kept, and its
     *                write, ACT and error observers are replaced
     */
    ClosedLoop(const dram::Geometry &geometry,
               const dram::TimingParams &timing,
               const OnlineMemconConfig &config,
               OnlineMemcon::RowFailureOracle oracle = {},
               sim::ControllerConfig base = {});

    /**
     * A fault experiment: `injector` (and its attached sources) must
     * outlive the loop, and a disturb model attached to it must not
     * see ACTs after the loop is gone.
     */
    ClosedLoop(const dram::Geometry &geometry,
               const dram::TimingParams &timing,
               const OnlineMemconConfig &config,
               failure::FaultInjector &injector);

    ClosedLoop(const ClosedLoop &) = delete;
    ClosedLoop &operator=(const ClosedLoop &) = delete;

    /** Advance one DRAM cycle: the controller, then MEMCON. */
    void
    tick(Tick now)
    {
        current = now;
        mc.tick(now);
        om.tick(now);
    }

    /**
     * Advance from the last tick reached, one tCK at a time, until
     * the loop reaches `end` (the first cycle at or after it); each
     * cycle runs driver.beforeTick, the controller, MEMCON, then
     * driver.afterTick. Cycles in which no one can act are skipped
     * and credited in bulk.
     *
     * @return the last tick reached
     */
    Tick
    runUntil(Tick end, const sim::CycleDriver &driver)
    {
        current = sim::runCycles(*this, driver, current, end, tck);
        return current;
    }

    /** The last tick simulated or skipped. */
    Tick lastTick() const { return current; }

    /** The earliest tick after `now` at which the controller or
     * MEMCON can act. */
    Tick
    nextEventTick(Tick now)
    {
        // MEMCON acting next cycle makes the controller's bound moot.
        const Tick memcon_next = om.nextEventTick(now);
        if (memcon_next <= now + tck)
            return memcon_next;
        return std::min(memcon_next, mc.nextEventTick(now));
    }

    /** Credit `cycles` idle cycles after `now` to both halves. */
    void
    skipCycles(Tick now, std::uint64_t cycles)
    {
        mc.skipCycles(now, cycles);
        om.skipCycles(cycles);
    }

    /**
     * Save the loop's tick, the controller and MEMCON as state record
     * lines (common/state_io.hh); loadState restores them into a loop
     * built with the same geometry, timing and config. A fault
     * injector's own state is not part of the loop's.
     */
    void saveState(StateWriter &out) const;
    void loadState(StateReader &in);

    sim::MemoryController &controller() { return mc; }
    const sim::MemoryController &controller() const { return mc; }
    OnlineMemcon &memcon() { return om; }
    const OnlineMemcon &memcon() const { return om; }

  private:
    sim::ControllerConfig wireController(sim::ControllerConfig cfg,
                                         failure::FaultInjector *injector);
    RowId rowOf(std::uint64_t addr) const;

    dram::Geometry geom;
    Tick tck;       //!< the DRAM clock period the loop advances by
    Tick current{}; //!< the tick being simulated; the oracle reads it
    OnlineMemcon *observer = nullptr; //!< set once `om` is built
    sim::MemoryController mc;
    OnlineMemcon om;
};

} // namespace memcon::core

#endif // MEMCON_CORE_CLOSED_LOOP_HH
