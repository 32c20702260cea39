/**
 * @file
 * memcond: the always-on multi-tenant MEMCON service host.
 *
 * One Memcond instance hosts N tenant sessions, each a private
 * cycle-accurate module (controller + OnlineMemcon) fed through a
 * bounded ingest ring (tenant.hh). Time advances in fixed service
 * rounds, each a three-phase step that follows the DESIGN.md §9
 * determinism contract:
 *
 *   1. serial plan, in tenant-index order: standing demand is read,
 *      the overload governor consumes one pressure scalar and picks
 *      the round's ladder stage, the shed set is chosen (lowest
 *      priority first), and the admission controller issues one
 *      typed verdict per tenant;
 *   2. parallel execute: every tenant runs its round on the thread
 *      pool - sessions share nothing, so any thread count yields the
 *      same bits;
 *   3. serial reduce, in tenant-index order: round reports are
 *      collected and the round's governor stage is recorded.
 *
 * Crash safety: every snapshotEveryRounds rounds the full service
 * state (governor and admission state, the stage history, and every
 * tenant's complete state record - service/snapshot.hh) is sealed to
 * disk via common/checkpoint's atomic-write discipline.
 * run(resume=true) loads the snapshot, restores every tenant in place
 * (no round is re-simulated), and refuses to continue unless every
 * restored tenant fingerprint matches the snapshot bit-for-bit.
 *
 * An optional hung-round watchdog reuses common/supervisor: tenant
 * round tasks register with a CancelToken and a stuck task unwinds
 * into a ServiceError naming the tenant (exit code
 * kWatchdogExitCode at the daemon layer).
 */

#ifndef MEMCON_SERVICE_MEMCOND_HH
#define MEMCON_SERVICE_MEMCOND_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/thread_pool.hh"
#include "service/admission.hh"
#include "service/governor.hh"
#include "service/snapshot.hh"
#include "service/tenant.hh"

namespace memcon::oracles
{
class JournalReplay;
} // namespace memcon::oracles

namespace memcon::service
{

struct MemcondConfig
{
    /** Artifact identity the snapshot fingerprint binds to. */
    std::string artifact = "memcond";

    std::uint64_t seed = 1;
    unsigned threads = 1;

    /** Service rounds to run. */
    std::uint64_t rounds = 48;

    /** Round length in ticks (must be a multiple of tCK). */
    Tick roundTicks = usToTicks(20.0);

    AdmissionConfig admission;
    GovernorConfig governor;

    /** Shared per-session runtime (geometry, mechanism config, ring
     * capacity, drop patience, oracle). horizonMs and seed are
     * derived by the host; leave them alone. */
    TenantRuntimeConfig tenant;

    /** Seal a service snapshot every N rounds; 0 disables. */
    std::uint64_t snapshotEveryRounds = 8;

    /** Snapshot file; empty disables snapshots (and resume). */
    std::string snapshotPath;

    /** Hung-round watchdog floor in ms; <= 0 disables it. */
    double supervisorTimeoutMs = 0.0;

    /** Invoked after each snapshot is durably on disk (the kill test
     * SIGKILLs itself in here). */
    std::function<void(std::uint64_t rounds_done)> snapshotHook;
};

class Memcond
{
    // The test oracle that rebuilds a service by replaying the applied
    // events of every round from round 0 (tests/oracles).
    friend class oracles::JournalReplay;

  public:
    /**
     * Opens one session per spec through the admission controller;
     * throws ServiceError if any tenant is refused (the error text
     * carries the admission reason).
     */
    Memcond(const MemcondConfig &config, std::vector<TenantSpec> specs);
    ~Memcond();

    Memcond(const Memcond &) = delete;
    Memcond &operator=(const Memcond &) = delete;

    /**
     * Run the service to cfg.rounds. With resume=true the snapshot
     * at cfg.snapshotPath is loaded and restored first, and execution
     * continues from the recorded round; throws ServiceError (or
     * ckpt::FingerprintMismatch) if the snapshot is missing,
     * malformed, from a different configuration, or the restored
     * state does not match its recorded fingerprints.
     */
    void run(bool resume = false);

    std::uint64_t roundsDone() const { return done; }
    // memcon:shard_scope - table size is fixed after construction
    std::size_t tenantCount() const { return sessions.size(); }
    // memcon:shard_scope - read-only view, callers use it quiescently
    const TenantSession &tenant(std::size_t i) const { return *sessions[i]; }

    GovernorStage stage() const { return governor.stage(); }
    const std::vector<GovernorStage> &stageHistory() const
    {
        return stages;
    }

    const AdmissionController &admissionController() const
    {
        return admission;
    }
    const OverloadGovernor &overloadGovernor() const { return governor; }

    /** Canonical per-tenant metric lines, in tenant order. */
    std::vector<std::string> metricsLines() const;

    /** CRC32 over the joined metric lines, as 8 hex digits - the
     * kill/resume comparison value. */
    std::string digest() const;

    /** Per-tenant telemetry as a StatGroup ("svc.<name>"): offered,
     * applied, drops, throttle time, p99 ingest latency, refresh
     * reduction, test overhead. */
    StatGroup tenantTelemetry(std::size_t i) const;

    /** The snapshot the service would seal right now. */
    ServiceSnapshot snapshotState() const;

    /** True once run(resume=true) restored state from disk. */
    bool resumed() const { return didResume; }

  private:
    void planRound(std::uint64_t round, std::vector<RoundDirectives> *out);
    void runRounds();
    void restoreSnapshot(const ServiceSnapshot &snap);
    ckpt::CampaignFingerprint fingerprint() const;

    MemcondConfig cfg;
    std::vector<TenantSpec> specs;

    AdmissionController admission;
    OverloadGovernor governor;
    // One session per tenant; inside a round worker i touches only
    // *sessions[i], and the table is resized only while no worker is
    // in flight.
    // memcon:shard_local
    std::vector<std::unique_ptr<TenantSession>> sessions;
    ThreadPool pool;

    std::uint64_t done = 0;
    bool didResume = false;
    std::vector<std::uint64_t> lastOffered; //!< per tenant, last round
    std::vector<GovernorStage> stages;      //!< one per completed round
};

} // namespace memcon::service

#endif // MEMCON_SERVICE_MEMCOND_HH
