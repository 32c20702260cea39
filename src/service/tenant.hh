/**
 * @file
 * One tenant session in the memcond service: a private module
 * (geometry + cycle-accurate controller + OnlineMemcon) fed through a
 * bounded ingest ring by a trace-derived write stream.
 *
 * The session runs in fixed service rounds. Each round the service's
 * serial planner hands it a RoundDirectives (its admission grant, the
 * governor stage's shed/stretch knobs); the session then advances its
 * module through core::ClosedLoop::runUntil, moving due events from
 * the generator into the ring (producer side) and from the ring into
 * the controller (consumer side, paced by the grant). Only cycles in
 * which the producer, the consumer, the controller or MEMCON can act
 * are simulated; the rest are skipped with their throttle time and
 * queue refusals credited in bulk, so every counter reads as if each
 * cycle had run. Backpressure is explicit: a full ring makes the
 * producer hold its event and retry each cycle, dropping it -
 * counted, never silent - only once it is older than the drop
 * patience. The accounting identity
 *
 *   generated = applied + droppedBackpressure + droppedShed
 *             + ringBacklog + held
 *
 * holds at every round boundary and is what the reconciliation tests
 * assert.
 *
 * replayRound() is the crash-restore path: the round's recorded
 * applied events are pre-pushed into the ring and the same consumer
 * loop runs with the producer disabled. Because the consumer only
 * applies events once due (event tick <= now) and the controller's
 * acceptance is a deterministic function of replayed state, the
 * module re-reaches the exact pre-crash state; the per-tenant
 * OnlineMemcon fingerprint recorded in the snapshot is then checked
 * bit-for-bit.
 */

#ifndef MEMCON_SERVICE_TENANT_HH
#define MEMCON_SERVICE_TENANT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.hh"
#include "common/thread_pool.hh"
#include "common/units.hh"
#include "core/closed_loop.hh"
#include "core/online_memcon.hh"
#include "dram/organization.hh"
#include "dram/timing.hh"
#include "service/ingest_ring.hh"
#include "sim/controller.hh"
#include "trace/tenant_stream.hh"

namespace memcon::service
{

/** A tenant as declared to the service at session-open time. */
struct TenantSpec
{
    std::string name;

    /** Higher priorities survive the shed stage longer and win
     * leftover admission budget first. */
    unsigned priority = 1;

    /** Traffic time-compression (see trace::TenantTrafficConfig). */
    double rateScale = 1.0;

    /** Declared event quota per service round. */
    std::uint64_t quotaPerRound = 8;

    /**
     * Bank placement within the tenant's module: when non-empty, the
     * tenant's write traffic is confined to exactly these banks of
     * the runtime config's `memcon.addressMap`, spread round-robin
     * (see trace::TenantTrafficConfig). The tenant then owns
     * totalRows * |bankSet| / numShards rows - its proportional share
     * of the module. Empty keeps the whole-module default,
     * bit-identical to a spec without placement.
     */
    std::vector<unsigned> bankSet;

    /**
     * Antagonist mode: this tenant is a RowHammer attacker replaying
     * the given aggressor persona instead of the benign write
     * process (trace/hammer.hh). Its events flow through the same
     * ingest ring, quota, and admission machinery - co-running with
     * benign tenants is the point. The spec's bank/seed/horizon are
     * filled in by the session from the runtime config; `hammer.kind`
     * and `hammer.sides`/`hammer.actsPerUs` pick the attack.
     */
    bool hammerEnabled = false;
    trace::HammerSpec hammer;
};

/** Service-level knobs every session shares. */
struct TenantRuntimeConfig
{
    dram::Geometry geometry;
    dram::TimingParams timing =
        dram::TimingParams::ddr3_1600(dram::Density::Gb8, TimeMs{16.0});
    core::OnlineMemconConfig memcon;

    /** Ingest ring slots (rounded up to a power of two). */
    std::size_t ringCapacity = 64;

    /** Hold a backpressured event at most this long before dropping
     * (measured from when the producer first held it). */
    Tick dropPatience = usToTicks(40.0);

    /** Percent of rows whose content fails at LO-REF (oracle). */
    double failRowPercent = 10.0;

    /** Traffic horizon the generators must cover, in ms. */
    double horizonMs = 2.0;

    std::uint64_t seed = 1;
};

/** Per-round verdict + governor knobs, as the planner decided them. */
struct RoundDirectives
{
    bool scansShed = false;    //!< governor stage >= ShedScans
    unsigned quantumStretch = 1; //!< > 1 at stage >= StretchQuanta
    bool shed = false;         //!< governor dropped this tenant
    bool throttled = false;    //!< demand but zero grant this round
    std::uint64_t grant = 0;   //!< events this round may apply
};

/** What one round did, for the planner's next-round demand input. */
struct RoundReport
{
    std::uint64_t generated = 0; //!< events pulled from the stream
    std::uint64_t applied = 0;
    std::uint64_t backlog = 0;   //!< ring + held, after the round
};

class TenantSession
{
  public:
    TenantSession(const TenantSpec &spec, const TenantRuntimeConfig &rc,
                  std::size_t tenant_index);

    TenantSession(const TenantSession &) = delete;
    TenantSession &operator=(const TenantSession &) = delete;

    /**
     * Advance one live service round over (round_start, round_end].
     * @param token  optional watchdog cancel token, polled once per
     *               simulated cycle; cancellation unwinds with
     *               TaskCancelled.
     */
    RoundReport runRound(const RoundDirectives &directives,
                         Tick round_start, Tick round_end,
                         const CancelToken *token = nullptr);

    /**
     * Re-run a recorded round: `applied` (the journal's event list
     * for this tenant and round, in apply order) is pre-pushed into
     * the ring and the consumer replays it against the rebuilt module
     * state; the producer stays off. Panics if the ring cannot drain
     * the recorded events by round end - that means the snapshot and
     * the code disagree.
     */
    void replayRound(const RoundDirectives &directives, Tick round_start,
                     Tick round_end,
                     const std::vector<WriteEvent> &applied);

    const TenantSpec &spec() const { return tenantSpec; }

    // --- producer-side counters -------------------------------------
    std::uint64_t generatedCount() const { return generated; }
    std::uint64_t appliedCount() const { return applied; }
    std::uint64_t droppedBackpressure() const { return droppedBp; }
    std::uint64_t droppedShed() const { return droppedShedEv; }
    std::uint64_t throttledTicks() const { return throttledTk; }

    /** Events parked in the ring right now. */
    std::uint64_t ringBacklog() const { return ring.size(); }

    bool hasHeldEvent() const { return held; }
    const WriteEvent &heldEvent() const { return heldEv; }
    Tick heldSince() const { return holdSince; }

    /** Copy the ring's current contents, front to back (snapshot
     * residue capture; the events stay queued). */
    std::vector<WriteEvent> ringResidue() const { return ring.contents(); }

    /** The events this tenant applied in the last (re)run round, in
     * apply order - the journal's per-round record. */
    const std::vector<WriteEvent> &lastRoundApplied() const
    {
        return roundApplied;
    }

    /** p99 ingest-to-apply latency in sim ticks (0 if no samples). */
    double p99IngestTicks() const;

    // --- mechanism telemetry ----------------------------------------
    core::OnlineMemcon &memcon() { return loop.memcon(); }
    const core::OnlineMemcon &memcon() const { return loop.memcon(); }

    /** The module's controller (its stats count refused enqueues). */
    const sim::MemoryController &controller() const
    {
        return loop.controller();
    }
    std::uint32_t stateFingerprint() const
    {
        return loop.memcon().stateFingerprint();
    }

    /**
     * Canonical one-line metric digest for this tenant. Everything
     * the kill/resume test compares is in here; doubles print with
     * %.17g so the line is bit-exact across runs and thread counts.
     */
    std::string metricsLine() const;

    // --- crash-restore hooks ----------------------------------------
    /**
     * Re-seat the producer-side state from a service snapshot, after
     * the journal replay rebuilt the consumer side: fast-forwards the
     * generator to the recorded position, re-parks the recorded ring
     * residue and held event, and restores the drop/throttle
     * counters the replay (producer off) could not re-accumulate.
     */
    void restoreProducer(std::uint64_t generated_count,
                         std::uint64_t dropped_bp,
                         std::uint64_t dropped_shed,
                         std::uint64_t throttled_ticks,
                         const std::vector<WriteEvent> &residue,
                         bool has_held, const WriteEvent &held_event,
                         Tick hold_since);

  private:
    void applyDirectives(const RoundDirectives &directives);
    void produceCycle(Tick now, const RoundDirectives &directives);
    void consumeCycle(Tick now, std::uint64_t &budget_left);

    // Next-event bounds of the two sides (sim/cycle_loop.hh), and the
    // per-cycle counters an idle cycle still bumps.
    bool throttleAccrues(Tick now);
    Tick producerEventTick(Tick now, const RoundDirectives &directives);
    bool consumerRefused(Tick now, std::uint64_t budget_left) const;
    Tick consumerEventTick(Tick now, std::uint64_t budget_left) const;

    TenantSpec tenantSpec;
    TenantRuntimeConfig rc;
    dram::Geometry geom;
    dram::TimingParams timing;

    core::ClosedLoop loop;
    trace::TenantWriteStream stream;
    IngestRing ring;

    // Producer state.
    bool held = false;
    WriteEvent heldEv{};
    Tick holdSince{};
    std::uint64_t generated = 0;
    std::uint64_t droppedBp = 0;
    std::uint64_t droppedShedEv = 0;
    std::uint64_t throttledTk = 0;

    // Consumer state.
    std::uint64_t applied = 0;
    LogHistogram latency;
    std::vector<WriteEvent> roundApplied;
};

} // namespace memcon::service

#endif // MEMCON_SERVICE_TENANT_HH
