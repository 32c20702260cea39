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
 * Crash restore is a load, not a replay: saveState() writes the
 * session's complete state as state record lines (common/state_io.hh)
 * - the producer counters, ring residue and held event with the
 * OnlineMemcon fingerprint, the controller's queues, in-flight reads
 * and bank timing, OnlineMemcon's PRIL maps, queues, test slots,
 * resilience ladder and disturb guard, the ingest counters and latency
 * histogram, and the write stream's per-row cursor - and restore()
 * puts a freshly built session back into exactly that state,
 * simulating no cycle and drawing no event, then checks the restored
 * OnlineMemcon fingerprint against the recorded one.
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
#include "service/snapshot.hh"
#include "sim/controller.hh"
#include "trace/tenant_stream.hh"

namespace memcon::oracles
{
class JournalReplay;
} // namespace memcon::oracles

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
    // The test oracle that rebuilds sessions by replaying the applied
    // events of every round from round 0 (tests/oracles).
    friend class oracles::JournalReplay;

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

    /** The events this tenant applied in its last round, in apply
     * order. */
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

    // --- work counters -----------------------------------------------
    // Work this session object did, not state: a restored session
    // starts them at zero, and no snapshot or digest reads them.

    /** Cycles this session simulated (skipped cycles excluded). */
    std::uint64_t cyclesSimulated() const { return simulated; }

    /** Events the write stream drew since it was built or restored. */
    std::uint64_t streamEventsDrawn() const { return stream.eventsDrawn(); }

    // --- crash restore ------------------------------------------------
    /** The session's state record: its kTenantRecordTag line, then
     * the module's, the ingest and the stream's lines. */
    std::vector<std::string> saveState() const;

    /**
     * Put a freshly constructed session into the state `record` holds,
     * saved at the end of the round that ends at `round_end`. Throws
     * StateError on a malformed or inconsistent record, and
     * ServiceError naming the tenant and both values when the restored
     * OnlineMemcon fingerprint is not the recorded one; the session is
     * then unusable.
     */
    void restore(const std::vector<std::string> &record, Tick round_end);

  private:
    /** Read the record's tenant line into the producer side and the
     * ring; returns the recorded OnlineMemcon fingerprint. */
    std::uint32_t loadTenantLine(StateReader &in);

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

    std::uint64_t simulated = 0;
};

} // namespace memcon::service

#endif // MEMCON_SERVICE_TENANT_HH
