/**
 * @file
 * Next-event time advance for the cycle domain.
 *
 * A cycle-domain model - a bare MemoryController, or core::ClosedLoop's
 * controller plus OnlineMemcon - advances on the DRAM clock grid, one
 * tick() per tCK. Most of those cycles change nothing: the controller
 * waits on a timing constraint, MEMCON waits for a quantum boundary or
 * a test's read-back time, a tenant waits for its next write. Each
 * component therefore reports a conservative nextEventTick(now): no
 * tick() before it can do more than idle bookkeeping. runCycles()
 * simulates the cycle on the grid at or after the minimum of those
 * bounds and skips the cycles in between.
 *
 * A skipped cycle is one every participant proved idle, so skipping it
 * changes no state - except the counters that count cycles. Those are
 * credited in bulk (skipCycles): the controller's write-drain
 * hysteresis, its queueFull refusals of a requester that stays
 * blocked, a throttled tenant's throttle time. Every digest and stats
 * dump is therefore byte-identical to ticking every cycle.
 */

#ifndef MEMCON_SIM_CYCLE_LOOP_HH
#define MEMCON_SIM_CYCLE_LOOP_HH

#include <algorithm>
#include <cstdint>
#include <functional>

#include "common/units.hh"

namespace memcon::sim
{

/** The caller's share of a cycle-domain run; every member may be
 * left empty. */
struct CycleDriver
{
    /** Work of cycle `now` ahead of the model's tick (e.g. producers
     * feeding the controller). */
    std::function<void(Tick now)> beforeTick;

    /** Work of cycle `now` after the model's tick (e.g. a core
     * consuming completions). Return false to end the run after this
     * cycle. */
    std::function<bool(Tick now)> afterTick;

    /**
     * Conservative earliest tick after `now` at which beforeTick or
     * afterTick could change any state, provided the model has no
     * event before it. Empty: every cycle is an event when either
     * hook is set, and none is when neither is.
     */
    std::function<Tick(Tick now)> nextEventTick;

    /** The `cycles` cycles after `now` were skipped: credit what the
     * driver counts per cycle. */
    std::function<void(Tick now, std::uint64_t cycles)> skipCycles;
};

/**
 * Advance `model` from `now` (the last tick simulated) on the grid
 * now + k * tck until the last tick reached is at or past `end`.
 * Only cycles in which the model or the driver can act are simulated;
 * the idle ones are credited through skipCycles.
 *
 * Model provides tick(Tick), nextEventTick(Tick) -> Tick (strictly
 * after its argument) and skipCycles(Tick now, std::uint64_t cycles).
 *
 * @return the last tick simulated or skipped
 */
template <typename Model>
Tick
runCycles(Model &model, const CycleDriver &driver, Tick now, Tick end,
          Tick tck)
{
    while (now < end) {
        now += tck;
        if (driver.beforeTick)
            driver.beforeTick(now);
        model.tick(now);
        if (driver.afterTick && !driver.afterTick(now))
            break;
        if (now >= end)
            break;
        Tick bound = kTickNever;
        if (driver.nextEventTick)
            bound = driver.nextEventTick(now);
        else if (driver.beforeTick || driver.afterTick)
            continue;
        if (bound <= now + tck)
            continue;
        bound = std::min(bound, model.nextEventTick(now));
        if (bound <= now + tck)
            continue;
        // Grid cycles strictly before the first one at or after the
        // bound are idle; never skip past the last cycle of the run.
        const std::uint64_t remaining = (end - now + tck - Tick{1}) / tck;
        const std::uint64_t idle =
            std::min((bound - now - Tick{1}) / tck, remaining);
        model.skipCycles(now, idle);
        if (driver.skipCycles)
            driver.skipCycles(now, idle);
        now += tck * idle;
    }
    return now;
}

} // namespace memcon::sim

#endif // MEMCON_SIM_CYCLE_LOOP_HH
