/**
 * @file
 * The overload governor: staged, bounded degradation for memcond.
 *
 * Mirrors the resilience ladder in core/resilience.hh (demote ->
 * backoff -> panic-fallback), but for *load* instead of errors. The
 * stages, in the order they engage:
 *
 *   Normal        -> full service
 *   ShedScans     -> background read-only scans and LO-REF re-scrub
 *                    top-ups pause (OnlineMemcon::setScansShed);
 *                    cheapest first, no tenant-visible effect
 *   StretchQuanta -> PRIL quanta stretch by a configured factor
 *                    (OnlineMemcon::setQuantumStretch): testing slows,
 *                    refresh reduction degrades gracefully
 *   ShedTenants   -> lowest-priority tenants are shed for the round;
 *                    their events are counted as shed drops, never
 *                    silently lost
 *
 * The governor only picks the stage; memcond's planner targets the
 * scan-shed and quantum-stretch knobs at the tenants whose demand
 * exceeds their quota, so an in-quota tenant co-located with an
 * antagonist keeps its full mechanism (and its refresh reduction).
 *
 * The input is one scalar per round: pressure = standing demand over
 * global apply budget. The governor escalates one stage per round
 * while pressure exceeds the enter threshold and de-escalates one
 * stage after `coolRounds` consecutive calm rounds (hysteresis: the
 * exit threshold sits below the entry threshold so the ladder cannot
 * flap). Pure integer/double state updated once per round in the
 * serial planning phase, so the stage sequence is deterministic and
 * run-length encodes cleanly into the snapshot.
 */

#ifndef MEMCON_SERVICE_GOVERNOR_HH
#define MEMCON_SERVICE_GOVERNOR_HH

#include <cstdint>

#include "common/logging.hh"

namespace memcon::service
{

enum class GovernorStage : unsigned
{
    Normal = 0,
    ShedScans = 1,
    StretchQuanta = 2,
    ShedTenants = 3,
};

const char *toString(GovernorStage stage);

struct GovernorConfig
{
    /** Escalate while pressure exceeds this. */
    double enterPressure = 1.0;

    /** A round below this counts toward de-escalation. */
    double exitPressure = 0.75;

    /** Calm rounds required before stepping one stage down. */
    unsigned coolRounds = 4;

    /** Quantum stretch factor applied at >= StretchQuanta. */
    unsigned quantumStretch = 4;
};

class OverloadGovernor
{
  public:
    explicit OverloadGovernor(const GovernorConfig &config);

    /** Feed one round's pressure; @return the stage for that round. */
    GovernorStage update(double pressure);

    GovernorStage stage() const { return current; }

    std::uint64_t escalations() const { return escalated; }
    std::uint64_t relaxations() const { return relaxed; }

    /** Re-seat the ladder from a service snapshot. */
    void restore(GovernorStage stage, unsigned calm_streak,
                 std::uint64_t escalations, std::uint64_t relaxations);

    const GovernorConfig &config() const { return cfg; }
    unsigned calmStreak() const { return calm; }

  private:
    GovernorConfig cfg;
    GovernorStage current = GovernorStage::Normal;
    unsigned calm = 0;
    std::uint64_t escalated = 0;
    std::uint64_t relaxed = 0;
};

} // namespace memcon::service

#endif // MEMCON_SERVICE_GOVERNOR_HH
