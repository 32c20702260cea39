/**
 * @file
 * Workload `memcond`: service::Memcond hosting four tenants - three
 * in quota and one antagonist offering ~8x its quota - on half the
 * processors, at most four worker threads. The service seals a
 * snapshot every two rounds (under the benchmark's work directory);
 * an epoch is the host time
 * between successive snapshot hooks. After the run a fresh Memcond
 * resumes from the final snapshot with run(resume=true), which
 * replays the whole ingest journal and must land on the same digest.
 * refresh_reduction is the in-quota tenants' emergent reduction read
 * at every snapshot and averaged: the refresh they saved over the run.
 */

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <thread>

#include "bench.hh"
#include "common/random.hh"
#include "service/memcond.hh"
#include "service/snapshot.hh"

/**
 * Snapshots are sealed with write + fsync + rename. The benchmark
 * keeps its files inside its own directory, which may sit on a disk;
 * this no-op fsync gives the snapshot the cost it has on tmpfs, so
 * epoch times measure the serializer and not the disk. It overrides
 * libc's for this binary only.
 */
extern "C" int
fsync(int)
{
    return 0;
}

namespace perfbench
{

namespace
{

using namespace memcon;

/** The in-quota tenants, listed first; refresh_reduction is theirs. */
constexpr std::size_t kFocusTenants = 3;

class Memcond : public Workload
{
  public:
    explicit Memcond(const Options &o) : opts(o)
    {
        const std::string stem = o.workdir + "/memcond-" +
                                 std::to_string(::getpid());
        cfg.seed = hashMix64(o.seed ^ 0x5e41ce);
        // Half the processors: a round waits for its slowest worker,
        // so a worker sharing its processor with the host's other
        // work would set the pace.
        cfg.threads = std::clamp(std::thread::hardware_concurrency() / 2, 1u, 4u);
        cfg.rounds = o.tiny ? 16 : 256;
        cfg.roundTicks = usToTicks(20.0);
        cfg.admission.globalBudgetPerRound = 24;
        cfg.admission.maxGrantPerRound = 16;
        cfg.governor.coolRounds = 3;
        cfg.tenant.geometry.rowsPerBank = 64; // 512 rows per tenant
        cfg.tenant.ringCapacity = 64;
        cfg.tenant.memcon.quantum = usToTicks(50.0);
        cfg.tenant.memcon.testIdle = usToTicks(20.0);
        cfg.tenant.memcon.retargetPeriod = usToTicks(25.0);
        cfg.tenant.memcon.testEngine.slots = 4;
        cfg.tenant.memcon.testEngine.wordsPerRow = 8;
        cfg.snapshotEveryRounds = 2;
        cfg.snapshotPath = stem + ".snapshot";
        cfg.snapshotHook = [this](std::uint64_t) {
            hookTimes.push_back(hostNow());
            // Between rounds: the workers are idle.
            for (std::size_t i = 0; hooked && i < kFocusTenants; ++i)
                focusReductions.push_back(
                    hooked->tenant(i).memcon().emergentReduction());
        };
        finalPath = stem + ".final";
        auto tenant = [](const char *name, unsigned priority,
                         double rate_scale) {
            service::TenantSpec t;
            t.name = name;
            t.priority = priority;
            t.rateScale = rate_scale;
            t.quotaPerRound = 8;
            return t;
        };
        specs = {tenant("alice", 2, 1.0), tenant("bob", 2, 1.0),
                 tenant("carol", 1, 1.0),
                 tenant("mallory", 1, 8.0)}; // ~8x its quota
    }

    ~Memcond() override
    {
        std::remove(cfg.snapshotPath.c_str());
        std::remove(finalPath.c_str());
    }

    Memcond(const Memcond &) = delete;
    Memcond &operator=(const Memcond &) = delete;

    void
    setup() override
    {
        pending = std::make_unique<service::Memcond>(cfg, specs);
    }

    void release() override { pending.reset(); }

    PassResult
    runPass(Tracer *tr) override
    {
        std::unique_ptr<service::Memcond> live = std::move(pending);
        const int run_k = tr ? tr->kind("service.run") : -1;
        const int resume_k = tr ? tr->kind("service.resume") : -1;

        PassResult out;
        hookTimes.clear();
        focusReductions.clear();
        hooked = live.get();
        const double t0 = hostNow();
        {
            Span s(tr, run_k);
            live->run();
        }
        out.seconds = hostNow() - t0;
        hooked = nullptr;
        double prev = t0;
        for (double t : hookTimes) {
            out.epochsS.push_back(t - prev);
            prev = t;
        }

        std::uint64_t generated = 0, applied = 0, bp = 0, shed = 0,
                      throttled = 0, tests = 0;
        double p99 = 0.0;
        for (std::size_t i = 0; i < live->tenantCount(); ++i) {
            const service::TenantSession &t = live->tenant(i);
            const std::uint64_t accounted =
                t.appliedCount() + t.droppedBackpressure() + t.droppedShed() +
                t.ringBacklog() + (t.hasHeldEvent() ? 1 : 0);
            if (t.generatedCount() != accounted)
                violations.push_back(t.spec().name +
                                     ": generated != applied + drops + "
                                     "backlog + held");
            generated += t.generatedCount();
            applied += t.appliedCount();
            bp += t.droppedBackpressure();
            shed += t.droppedShed();
            throttled += t.throttledTicks();
            tests += t.memcon().testsStarted();
            p99 = std::max(p99, t.p99IngestTicks());
        }
        unsigned max_stage = 0;
        for (service::GovernorStage s : live->stageHistory())
            max_stage = std::max(max_stage, static_cast<unsigned>(s));
        const std::string live_digest = live->digest();

        // Resume a fresh service from the final snapshot.
        double resume_s = 0.0;
        const double r0 = hostNow();
        try {
            Span s(tr, resume_k);
            service::Memcond resumed(cfg, specs);
            resumed.run(/*resume=*/true);
            resume_s = hostNow() - r0;
            if (resumed.digest() != live_digest)
                violations.push_back("resumed digest " + resumed.digest() +
                                     " != live " + live_digest);
        } catch (const std::exception &e) {
            violations.push_back(std::string("resume failed: ") + e.what());
            resume_s = hostNow() - r0;
        }

        Digest d;
        d.add("service", live_digest);
        d.add("escalations", live->overloadGovernor().escalations());
        d.add("maxStage", static_cast<std::uint64_t>(max_stage));
        out.digest = d.hex();

        const double sim_us =
            ticksToMs(cfg.roundTicks).value() * 1e3 *
            static_cast<double>(cfg.rounds);
        out.work["applied_events_per_s"] = static_cast<double>(applied);
        out.work["sim_us_per_s"] = sim_us;
        out.work["rows_per_s"] = static_cast<double>(tests);
        out.timed["replay_events_per_s"] =
            static_cast<double>(applied) / resume_s;
        out.timed["resume_s"] = resume_s;
        // Averaged over the run: the refresh the focus tenants saved.
        out.outcomes["refresh_reduction"] =
            std::accumulate(focusReductions.begin(), focusReductions.end(),
                            0.0) /
            static_cast<double>(std::max<std::size_t>(1, focusReductions.size()));
        out.outcomes["drop_frac"] =
            static_cast<double>(bp + shed) / static_cast<double>(generated);

        if (tr) {
            // The final state, saved and loaded once more on the side
            // so the serializer and parser are timed on their own.
            const service::ServiceSnapshot snap = live->snapshotState();
            const double s0 = hostNow();
            service::saveServiceSnapshot(finalPath, snap);
            const double s1 = hostNow();
            service::loadServiceSnapshot(finalPath);
            const double s2 = hostNow();
            out.layers["service.epoch_s"] =
                out.epochsS.empty()
                    ? 0.0
                    : out.seconds / static_cast<double>(out.epochsS.size());
            out.layers["service.snapshot_save_s"] = s1 - s0;
            out.layers["service.snapshot_load_s"] = s2 - s1;
            out.layers["service.snapshot_bytes"] = static_cast<double>(
                service::encodeServiceSnapshot(snap).size());
            out.layers["service.replay_s"] =
                std::max(0.0, resume_s - (s2 - s1));
            out.layers["service.generated"] = static_cast<double>(generated);
            out.layers["service.applied"] = static_cast<double>(applied);
            out.layers["service.dropped_bp"] = static_cast<double>(bp);
            out.layers["service.dropped_shed"] = static_cast<double>(shed);
            out.layers["service.throttled_ticks"] =
                static_cast<double>(throttled);
            out.layers["service.escalations"] =
                static_cast<double>(live->overloadGovernor().escalations());
            out.layers["service.max_stage"] = static_cast<double>(max_stage);
            out.layers["service.p99_ingest_ticks"] = p99;
            out.layers["service.apply_ratio"] =
                static_cast<double>(applied) / static_cast<double>(generated);
        }
        return out;
    }

    double restartS() override { return 0.0; } // resume_s is per pass

  private:
    Options opts;
    service::MemcondConfig cfg;
    std::vector<service::TenantSpec> specs;
    std::string finalPath;
    std::vector<double> hookTimes;
    std::unique_ptr<service::Memcond> pending;
    service::Memcond *hooked = nullptr; //!< the service run() is on
    std::vector<double> focusReductions; //!< per tenant per snapshot
};

} // namespace

std::unique_ptr<Workload>
makeMemcond(const Options &opts)
{
    return std::make_unique<Memcond>(opts);
}

} // namespace perfbench
