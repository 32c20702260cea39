/**
 * @file
 * Subprocess testbed for the memcond kill/resume tests.
 *
 * Runs a small oversubscribed multi-tenant service (the same shape
 * test_service.cc uses in-process) with fault hooks driven from
 * outside:
 *
 *   --tenants N         tenant count; tenant 0 is the in-quota focus,
 *                       the last tenant is an 8x antagonist
 *   --rounds R          service rounds
 *   --snapshot PATH     seal a service snapshot here
 *   --snapshot-every E  snapshot cadence in rounds
 *   --kill-at K         SIGKILL this process the instant the snapshot
 *                       for round K is durable on disk (the kill/
 *                       resume test: die mid-service, then --resume
 *                       must reproduce the uninterrupted digest)
 *   --resume            load the snapshot, restore every tenant from
 *                       it, and continue to --rounds
 *   --oracle            rebuild the service at the snapshot's round
 *                       the retired way instead - journal a live run
 *                       to that round in-process and replay it from
 *                       round 0 (tests/oracles/journal_replay.hh) -
 *                       require every rebuilt tenant to save exactly
 *                       the snapshot's state lines, then continue to
 *                       --rounds
 *
 * Prints "DIGEST <8 hex> resumed=<rounds>" so the tests compare
 * service outcomes across process boundaries. Service-mode failures
 * (malformed snapshot, restore divergence) exit 1 with the typed
 * error's text on stderr; a watchdog cancellation exits with the
 * symbolic kWatchdogExitCode like a real daemon would.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "common/checkpoint.hh"
#include "common/logging.hh"
#include "common/supervisor.hh"
#include "oracles/journal_replay.hh"
#include "service/memcond.hh"

using namespace memcon;
using namespace memcon::service;

int
main(int argc, char **argv)
{
    unsigned tenants = 4, threads = 1;
    std::uint64_t seed = 1, rounds = 16, snapshot_every = 4;
    long kill_at = -1;
    bool resume = false, oracle = false;
    std::string snapshot_path;

    for (int i = 1; i < argc; ++i) {
        auto value = [&]() -> const char * {
            fatal_if(i + 1 >= argc, "missing value after '%s'", argv[i]);
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--tenants") == 0)
            tenants = static_cast<unsigned>(std::strtoul(value(), nullptr, 10));
        else if (std::strcmp(argv[i], "--threads") == 0)
            threads = static_cast<unsigned>(std::strtoul(value(), nullptr, 10));
        else if (std::strcmp(argv[i], "--seed") == 0)
            seed = std::strtoull(value(), nullptr, 10);
        else if (std::strcmp(argv[i], "--rounds") == 0)
            rounds = std::strtoull(value(), nullptr, 10);
        else if (std::strcmp(argv[i], "--snapshot") == 0)
            snapshot_path = value();
        else if (std::strcmp(argv[i], "--snapshot-every") == 0)
            snapshot_every = std::strtoull(value(), nullptr, 10);
        else if (std::strcmp(argv[i], "--kill-at") == 0)
            kill_at = std::strtol(value(), nullptr, 10);
        else if (std::strcmp(argv[i], "--resume") == 0)
            resume = true;
        else if (std::strcmp(argv[i], "--oracle") == 0)
            oracle = true;
        else
            fatal("unknown argument '%s'", argv[i]);
    }
    fatal_if(tenants < 2, "the testbed mix needs at least 2 tenants");

    MemcondConfig cfg;
    cfg.seed = seed;
    cfg.threads = threads;
    cfg.rounds = rounds;
    cfg.roundTicks = usToTicks(20.0);
    // Oversubscribed: quotas sum to 8N against a 5N budget, so the
    // antagonist exercises the whole governor ladder and the journal
    // records shed rounds, stretch rounds, and throttles - the resume
    // path has to reproduce all of it.
    cfg.admission.globalBudgetPerRound = 5ull * tenants;
    cfg.admission.maxGrantPerRound = 8;
    cfg.governor.coolRounds = 3;
    cfg.tenant.geometry.rowsPerBank = 16;
    cfg.tenant.ringCapacity = 32;
    cfg.tenant.memcon.quantum = usToTicks(50.0);
    cfg.tenant.memcon.testIdle = usToTicks(20.0);
    cfg.tenant.memcon.retargetPeriod = usToTicks(25.0);
    cfg.tenant.memcon.testEngine.slots = 4;
    cfg.tenant.memcon.testEngine.wordsPerRow = 8;
    cfg.snapshotPath = snapshot_path;
    cfg.snapshotEveryRounds = snapshot_every;
    if (kill_at >= 0)
        cfg.snapshotHook = [kill_at](std::uint64_t rounds_done) {
            // Called with the snapshot already durable, so the death
            // point is deterministic in snapshot content no matter
            // how the scheduler interleaved the tenant tasks.
            if (rounds_done == static_cast<std::uint64_t>(kill_at))
                std::raise(SIGKILL);
        };

    std::vector<TenantSpec> specs;
    for (unsigned i = 0; i < tenants; ++i) {
        TenantSpec t;
        t.name = "t" + std::to_string(i);
        t.quotaPerRound = 8;
        const bool antagonist = i == tenants - 1;
        t.priority = antagonist ? 1 : 2;
        t.rateScale = antagonist ? 8.0 : 1.0;
        specs.push_back(t);
    }

    try {
        if (oracle) {
            const ServiceSnapshot snap = loadServiceSnapshot(snapshot_path);
            MemcondConfig plain = cfg;
            plain.snapshotPath.clear();
            plain.snapshotHook = nullptr;
            const oracles::Recording rec = oracles::JournalReplay::record(
                plain, specs, snap.roundsDone, snapshot_path + ".journal");
            if (encodeServiceSnapshot(rec.snapshot) !=
                encodeServiceSnapshot(snap)) {
                std::fprintf(stderr, "oracle: the in-process recording "
                                     "disagrees with the snapshot\n");
                return 1;
            }
            Memcond svc(plain, specs);
            oracles::JournalReplay::replay(svc, rec.journal, snap);
            for (std::size_t i = 0; i < svc.tenantCount(); ++i) {
                if (svc.tenant(i).saveState() != snap.tenants[i]) {
                    std::fprintf(stderr,
                                 "oracle: tenant %zu replays to another "
                                 "state than its snapshot record\n",
                                 i);
                    return 1;
                }
            }
            oracles::JournalReplay::run(svc);
            std::printf("DIGEST %s resumed=%llu\n", svc.digest().c_str(),
                        (unsigned long long)snap.roundsDone);
            return 0;
        }
        std::uint64_t resumed_rounds = 0;
        if (resume)
            resumed_rounds = loadServiceSnapshot(snapshot_path).roundsDone;
        Memcond svc(cfg, specs);
        svc.run(resume);
        std::printf("DIGEST %s resumed=%llu\n", svc.digest().c_str(),
                    (unsigned long long)resumed_rounds);
        return 0;
    } catch (const ckpt::FingerprintMismatch &e) {
        std::fprintf(stderr, "snapshot rejected: %s\n", e.what());
        return 1;
    } catch (const ServiceError &e) {
        const bool hung =
            std::string(e.what()).find("watchdog") != std::string::npos;
        std::fprintf(stderr, "service failed%s: %s\n",
                     hung ? " (hung round)" : " (snapshot/restore)",
                     e.what());
        return hung ? kWatchdogExitCode : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "unexpected failure: %s\n", e.what());
        return 2;
    }
}
