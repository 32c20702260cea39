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
 * tick().
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

#include "core/online_memcon.hh"
#include "failure/injector.hh"
#include "sim/controller.hh"

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

    sim::MemoryController &controller() { return mc; }
    const sim::MemoryController &controller() const { return mc; }
    OnlineMemcon &memcon() { return om; }
    const OnlineMemcon &memcon() const { return om; }

  private:
    sim::ControllerConfig wireController(sim::ControllerConfig cfg,
                                         failure::FaultInjector *injector);
    RowId rowOf(std::uint64_t addr) const;

    dram::Geometry geom;
    Tick current{}; //!< the tick being simulated; the oracle reads it
    OnlineMemcon *observer = nullptr; //!< set once `om` is built
    sim::MemoryController mc;
    OnlineMemcon om;
};

} // namespace memcon::core

#endif // MEMCON_CORE_CLOSED_LOOP_HH
