/**
 * @file
 * memcond demo: the always-on multi-tenant MEMCON service.
 *
 * Hosts four tenants on one service - three polite ones and one
 * antagonist offering ~8x its quota - and walks the service-mode
 * machinery end to end:
 *
 *   - per-tenant ingest rings with explicit backpressure (drops are
 *     counted, never silent),
 *   - admission control: quota-first grants isolate the in-quota
 *     tenants from the antagonist's excess demand,
 *   - the staged overload governor (shed scans -> stretch quanta ->
 *     shed tenants) escalating under pressure and cooling back down,
 *   - crash-safe snapshots: the run seals a CRC-sealed snapshot every
 *     8 rounds, and a second service instance then resumes from disk
 *     by restoring every tenant's saved state - the demo checks the
 *     resumed digest is bit-identical to the live one.
 *
 * Build and run:
 *   cmake --preset default && cmake --build --preset default
 *   ./build/examples/memcond_demo
 */

#include <cstdio>
#include <cstdlib>

#include "common/supervisor.hh"
#include "service/memcond.hh"

using namespace memcon;

namespace
{

service::MemcondConfig
demoConfig()
{
    service::MemcondConfig cfg;
    cfg.seed = 7;
    cfg.threads = 2;
    cfg.rounds = 40;
    cfg.roundTicks = usToTicks(20.0);

    cfg.admission.globalBudgetPerRound = 24;
    cfg.admission.maxGrantPerRound = 16;

    cfg.governor.coolRounds = 3;

    cfg.tenant.geometry.rowsPerBank = 16; // 128 rows per tenant
    cfg.tenant.ringCapacity = 64;
    cfg.tenant.memcon.quantum = usToTicks(50.0);
    cfg.tenant.memcon.testIdle = usToTicks(20.0);
    cfg.tenant.memcon.retargetPeriod = usToTicks(25.0);
    cfg.tenant.memcon.testEngine.slots = 4;
    cfg.tenant.memcon.testEngine.wordsPerRow = 8;

    cfg.snapshotEveryRounds = 8;
    cfg.snapshotPath = "memcond_demo.snapshot";
    return cfg;
}

/** A tenant with the default 8-event quota. */
service::TenantSpec
tenant(const char *name, unsigned priority, double rate_scale = 1.0)
{
    service::TenantSpec spec;
    spec.name = name;
    spec.priority = priority;
    spec.rateScale = rate_scale;
    return spec;
}

std::vector<service::TenantSpec>
demoTenants()
{
    return {
        tenant("alice", 2),
        tenant("bob", 2),
        tenant("carol", 1),
        tenant("mallory", 1, 8.0), // the antagonist: ~8x its quota
    };
}

void
printStageTimeline(const std::vector<service::GovernorStage> &stages)
{
    std::printf("governor timeline:\n");
    std::size_t start = 0;
    for (std::size_t r = 1; r <= stages.size(); ++r) {
        if (r == stages.size() || stages[r] != stages[start]) {
            std::printf("  rounds %3zu-%-3zu %s\n", start, r - 1,
                        service::toString(stages[start]));
            start = r;
        }
    }
}

} // namespace

int
main()
{
    std::vector<service::TenantSpec> tenants = demoTenants();

    std::printf("== live service: %zu tenants, 40 rounds ==\n",
                tenants.size());
    service::Memcond live(demoConfig(), tenants);
    try {
        live.run();
    } catch (const service::ServiceError &e) {
        std::fprintf(stderr, "service failed: %s\n", e.what());
        // A watchdog cancellation surfaces as a ServiceError; the
        // daemon exits with the documented symbolic code.
        std::fprintf(stderr, "exiting with %s (%d)\n",
                     kWatchdogExitCodeName, kWatchdogExitCode);
        return kWatchdogExitCode;
    }

    printStageTimeline(live.stageHistory());

    std::printf("\nper-tenant telemetry:\n");
    for (std::size_t i = 0; i < live.tenantCount(); ++i)
        std::printf("%s\n", live.tenantTelemetry(i).dump().c_str());

    std::printf("admission verdicts: admit=%llu throttle=%llu "
                "reject=%llu\n",
                (unsigned long long)
                    live.admissionController().admitCount(),
                (unsigned long long)
                    live.admissionController().throttleCount(),
                (unsigned long long)
                    live.admissionController().rejectCount());

    const std::string live_digest = live.digest();
    std::printf("\nlive digest:    %s\n", live_digest.c_str());

    // Crash-restore: a second instance restores everything from the
    // sealed snapshot and must land on the same bits.
    std::printf("== resuming a second instance from the snapshot ==\n");
    service::Memcond restored(demoConfig(), tenants);
    try {
        restored.run(/*resume=*/true);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "resume failed: %s\n", e.what());
        return 1;
    }
    const std::string resumed_digest = restored.digest();
    std::printf("resumed digest: %s\n", resumed_digest.c_str());

    if (live_digest != resumed_digest) {
        std::fprintf(stderr, "DIGEST MISMATCH - crash restore broke\n");
        return 1;
    }
    std::printf("digests match: the resumed service is bit-identical\n");
    std::remove("memcond_demo.snapshot");
    return 0;
}
