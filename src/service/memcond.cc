#include "service/memcond.hh"

#include <chrono>
#include <future>
#include <numeric>
#include <optional>

#include "common/checkpoint.hh"
#include "common/logging.hh"
#include "common/state_io.hh"
#include "common/supervisor.hh"

namespace memcon::service
{

namespace
{

bool
stageAtLeast(GovernorStage stage, GovernorStage floor)
{
    return static_cast<unsigned>(stage) >= static_cast<unsigned>(floor);
}

} // namespace

// memcon:shard_scope - builds the session table before any worker runs
Memcond::Memcond(const MemcondConfig &config, std::vector<TenantSpec> ts)
    : cfg(config),
      specs(std::move(ts)),
      admission(config.admission),
      governor(config.governor),
      pool(std::max(1u, config.threads))
{
    fatal_if(specs.empty(), "memcond needs at least one tenant");
    fatal_if(cfg.rounds == 0, "memcond needs at least one round");
    fatal_if(cfg.roundTicks.value() % cfg.tenant.timing.tCk.value() != 0,
             "round length must be a whole number of DRAM cycles");

    // The traffic horizon must outlast the service (with margin, so
    // the generators never dry up mid-round).
    cfg.tenant.seed = cfg.seed;
    cfg.tenant.horizonMs =
        ticksToMs(cfg.roundTicks).value() *
            static_cast<double>(cfg.rounds) * 1.25 +
        0.05;

    sessions.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        Verdict v = admission.openSession(specs[i].name,
                                          specs[i].quotaPerRound);
        if (v.kind != VerdictKind::Admit)
            throw ServiceError("tenant '" + specs[i].name +
                               "' refused admission: " + v.reason);
        sessions.push_back(
            std::make_unique<TenantSession>(specs[i], cfg.tenant, i));
    }
    lastOffered.assign(specs.size(), 0);
}

Memcond::~Memcond() = default;

ckpt::CampaignFingerprint
Memcond::fingerprint() const
{
    // Everything that shapes the deterministic run goes into the
    // label CRC; a snapshot from any differently-configured service
    // is rejected before any tenant is restored.
    std::string labels;
    for (const TenantSpec &t : specs) {
        labels += strprintf("tenant=%s prio=%u rate=%.17g quota=%llu",
                            t.name.c_str(), t.priority, t.rateScale,
                            (unsigned long long)t.quotaPerRound);
        // Bank placement reshapes the tenant's whole event stream, so
        // it gates snapshot compatibility like any other spec field.
        for (unsigned b : t.bankSet)
            labels += strprintf(" bank=%u", b);
        labels += "\n";
    }
    const TenantRuntimeConfig &rt = cfg.tenant;
    labels += strprintf(
        "geom=%ux%ux%ux%llu ring=%zu patience=%llu fail=%.17g\n",
        rt.geometry.channels, rt.geometry.ranks, rt.geometry.banks,
        (unsigned long long)rt.geometry.rowsPerBank, rt.ringCapacity,
        (unsigned long long)rt.dropPatience.value(), rt.failRowPercent);
    labels += strprintf(
        "mech q=%llu idle=%llu retarget=%llu slots=%zu words=%zu "
        "map=%s\n",
        (unsigned long long)rt.memcon.quantum.value(),
        (unsigned long long)rt.memcon.testIdle.value(),
        (unsigned long long)rt.memcon.retargetPeriod.value(),
        rt.memcon.testEngine.slots, rt.memcon.testEngine.wordsPerRow,
        rt.memcon.addressMap.name().c_str());
    labels += strprintf(
        "admission budget=%llu maxq=%llu maxg=%llu\n",
        (unsigned long long)cfg.admission.globalBudgetPerRound,
        (unsigned long long)cfg.admission.maxQuotaPerRound,
        (unsigned long long)cfg.admission.maxGrantPerRound);
    labels += strprintf("governor enter=%.17g exit=%.17g cool=%u "
                        "stretch=%u\n",
                        cfg.governor.enterPressure,
                        cfg.governor.exitPressure, cfg.governor.coolRounds,
                        cfg.governor.quantumStretch);
    labels += strprintf("rounds=%llu roundTicks=%llu",
                        (unsigned long long)cfg.rounds,
                        (unsigned long long)cfg.roundTicks.value());

    ckpt::CampaignFingerprint fp;
    fp.artifact = cfg.artifact;
    fp.campaignSeed = cfg.seed;
    fp.pointCount = specs.size();
    fp.quick = false;
    fp.labelsCrc = ckpt::crc32(labels);
    return fp;
}

// memcon:shard_scope - serial phase between parallel rounds
void
Memcond::planRound(std::uint64_t round, std::vector<RoundDirectives> *out)
{
    const std::size_t n = sessions.size();
    std::vector<TenantDemand> demands(n);
    std::uint64_t standing = 0;
    for (std::size_t i = 0; i < n; ++i) {
        demands[i].backlog =
            sessions[i]->ringBacklog() +
            (sessions[i]->hasHeldEvent() ? 1 : 0);
        demands[i].lastOffered = lastOffered[i];
        demands[i].quota = specs[i].quotaPerRound;
        demands[i].priority = specs[i].priority;
        standing += demands[i].backlog + demands[i].lastOffered;
    }

    const double pressure =
        static_cast<double>(standing) /
        static_cast<double>(cfg.admission.globalBudgetPerRound);
    const GovernorStage stage = governor.update(pressure);

    if (stage == GovernorStage::ShedTenants) {
        // Shed lowest priority first (ties: highest index first)
        // until the surviving quotas fit the budget; never shed the
        // last survivor.
        std::vector<std::size_t> order(n);
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::stable_sort(order.begin(), order.end(),
                         [this](std::size_t a, std::size_t b) {
                             if (specs[a].priority != specs[b].priority)
                                 return specs[a].priority <
                                        specs[b].priority;
                             return a > b;
                         });
        std::uint64_t surviving_quota = 0;
        for (std::size_t i = 0; i < n; ++i)
            surviving_quota += specs[i].quotaPerRound;
        std::size_t survivors = n;
        for (std::size_t i : order) {
            if (surviving_quota <= cfg.admission.globalBudgetPerRound ||
                survivors == 1)
                break;
            demands[i].shed = true;
            surviving_quota -= specs[i].quotaPerRound;
            --survivors;
        }
    }

    const Tick round_end = cfg.roundTicks * (round + 1);
    std::vector<Verdict> verdicts = admission.planRound(demands, round_end);

    out->assign(n, RoundDirectives{});
    for (std::size_t i = 0; i < n; ++i) {
        RoundDirectives &d = (*out)[i];
        // The scan-shed and quantum-stretch stages target the
        // tenants actually driving the pressure (demand above
        // quota); an in-quota tenant co-located with an antagonist
        // keeps its full mechanism, which is what preserves its
        // refresh reduction.
        const bool over_quota =
            demands[i].backlog + demands[i].lastOffered >
            demands[i].quota;
        d.scansShed =
            stageAtLeast(stage, GovernorStage::ShedScans) && over_quota;
        d.quantumStretch =
            stageAtLeast(stage, GovernorStage::StretchQuanta) &&
                    over_quota
                ? cfg.governor.quantumStretch
                : 1;
        d.shed = verdicts[i].kind == VerdictKind::Reject;
        d.throttled = verdicts[i].kind == VerdictKind::Throttle;
        d.grant = verdicts[i].grant;
    }
}

// memcon:shard_scope - hands sessions[i] to worker i; the table
// itself is never resized while workers are in flight
void
Memcond::runRounds()
{
    const std::size_t n = sessions.size();

    std::optional<Supervisor> watchdog;
    if (cfg.supervisorTimeoutMs > 0) {
        SupervisorConfig scfg;
        scfg.floorTimeoutMs = cfg.supervisorTimeoutMs;
        watchdog.emplace(scfg, (cfg.rounds - done) * n);
    }

    for (std::uint64_t r = done; r < cfg.rounds; ++r) {
        std::vector<RoundDirectives> dirs;
        planRound(r, &dirs);

        const Tick start = cfg.roundTicks * r;
        const Tick end = cfg.roundTicks * (r + 1);

        std::vector<RoundReport> reports(n);
        std::vector<std::future<void>> futures;
        futures.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            futures.push_back(pool.submit([this, &dirs, &reports,
                                           &watchdog, i, r, n, start,
                                           end] {
                const std::size_t task = r * n + i;
                CancelToken token;
                if (watchdog)
                    watchdog->beginTask(task, specs[i].name, 1, token);
                // Wall time here is supervision-only: it feeds the
                // watchdog's adaptive deadline, never a metric.
                // lint:allow(wall-clock)
                const auto t0 = std::chrono::steady_clock::now();
                try {
                    reports[i] = sessions[i]->runRound(
                        dirs[i], start, end, watchdog ? &token : nullptr);
                } catch (...) {
                    if (watchdog)
                        watchdog->endTask(task, false, 0.0);
                    throw;
                }
                if (watchdog) {
                    // lint:allow(wall-clock) - supervision only.
                    const auto t1 = std::chrono::steady_clock::now();
                    watchdog->endTask(
                        task, true,
                        std::chrono::duration<double, std::milli>(t1 - t0)
                            .count());
                }
            }));
        }

        for (std::size_t i = 0; i < n; ++i) {
            try {
                futures[i].get();
            } catch (const TaskCancelled &) {
                throw ServiceError(strprintf(
                    "tenant '%s' hung in round %llu and was cancelled "
                    "by the watchdog: %s",
                    specs[i].name.c_str(), (unsigned long long)r,
                    watchdog ? watchdog->failureReason().c_str()
                             : "no supervisor"));
            }
        }

        // Serial reduce, tenant order: next-round demand, stage history.
        for (std::size_t i = 0; i < n; ++i)
            lastOffered[i] = reports[i].generated;
        stages.push_back(governor.stage());
        ++done;

        if (!cfg.snapshotPath.empty() && cfg.snapshotEveryRounds != 0 &&
            done % cfg.snapshotEveryRounds == 0) {
            saveServiceSnapshot(cfg.snapshotPath, snapshotState());
            if (cfg.snapshotHook)
                cfg.snapshotHook(done);
        }
    }
}

// memcon:shard_scope - single-threaded resume path
void
Memcond::restoreSnapshot(const ServiceSnapshot &snap)
{
    // The label CRC covers every tenant's name in order, so a renamed
    // or reordered tenant set is refused here, before any record is
    // read; each restore then checks its tenant's fingerprint.
    ckpt::requireFingerprintMatch(snap.fingerprint, fingerprint());
    if (snap.roundsDone > cfg.rounds)
        throw ServiceError(strprintf(
            "snapshot is at round %llu, past the service's %llu rounds",
            (unsigned long long)snap.roundsDone,
            (unsigned long long)cfg.rounds));

    for (std::size_t i = 0; i < sessions.size(); ++i) {
        try {
            sessions[i]->restore(snap.tenants[i],
                                 cfg.roundTicks * snap.roundsDone);
        } catch (const StateError &e) {
            throw ServiceError(strprintf("tenant '%s' does not restore: %s",
                                         specs[i].name.c_str(), e.what()));
        }
    }
    lastOffered = snap.lastOffered;

    governor.restore(snap.stage, snap.calmStreak, snap.escalations,
                     snap.relaxations);
    admission.restoreCounters(snap.admits, snap.throttles, snap.rejects);

    stages.clear();
    for (const StageRun &run : snap.stageRuns)
        stages.insert(stages.end(), run.rounds, run.stage);
    done = snap.roundsDone;
    didResume = true;
}

void
Memcond::run(bool resume)
{
    panic_if(done != 0 || didResume, "Memcond::run() is one-shot");
    if (resume) {
        if (cfg.snapshotPath.empty())
            throw ServiceError("resume requested but the service has no "
                               "snapshot path");
        restoreSnapshot(loadServiceSnapshot(cfg.snapshotPath));
    }
    runRounds();
}

// memcon:shard_scope - quiescent-only (between rounds)
ServiceSnapshot
Memcond::snapshotState() const
{
    ServiceSnapshot s;
    s.fingerprint = fingerprint();
    s.roundsDone = done;
    s.stage = governor.stage();
    s.calmStreak = governor.calmStreak();
    s.escalations = governor.escalations();
    s.relaxations = governor.relaxations();
    s.admits = admission.admitCount();
    s.throttles = admission.throttleCount();
    s.rejects = admission.rejectCount();

    s.lastOffered = lastOffered;
    s.tenants.reserve(sessions.size());
    for (const auto &ses : sessions)
        s.tenants.push_back(ses->saveState());
    for (GovernorStage stage : stages) {
        if (s.stageRuns.empty() || s.stageRuns.back().stage != stage)
            s.stageRuns.push_back(StageRun{stage, 0});
        ++s.stageRuns.back().rounds;
    }
    return s;
}

// memcon:shard_scope - quiescent-only (between rounds)
std::vector<std::string>
Memcond::metricsLines() const
{
    std::vector<std::string> lines;
    lines.reserve(sessions.size());
    for (const auto &ses : sessions)
        lines.push_back(ses->metricsLine());
    return lines;
}

std::string
Memcond::digest() const
{
    std::string joined;
    for (const std::string &line : metricsLines())
        joined += line + "\n";
    return strprintf("%08x", ckpt::crc32(joined));
}

// memcon:shard_scope - quiescent-only (between rounds)
StatGroup
Memcond::tenantTelemetry(std::size_t i) const
{
    const TenantSession &ses = *sessions[i];
    StatGroup g("svc." + specs[i].name);
    g.set("offered", static_cast<double>(ses.generatedCount()));
    g.set("applied", static_cast<double>(ses.appliedCount()));
    g.set("drops.backpressure",
          static_cast<double>(ses.droppedBackpressure()));
    g.set("drops.shed", static_cast<double>(ses.droppedShed()));
    g.set("throttle.ticks", static_cast<double>(ses.throttledTicks()));
    g.set("backlog", static_cast<double>(ses.ringBacklog() +
                                         (ses.hasHeldEvent() ? 1 : 0)));
    g.set("latency.p99.ticks", ses.p99IngestTicks());
    g.set("refresh.reduction", ses.memcon().emergentReduction());
    g.set("lo.fraction", ses.memcon().loRefFraction());
    g.set("tests.started",
          static_cast<double>(ses.memcon().testsStarted()));
    g.set("tests.aborted",
          static_cast<double>(ses.memcon().testsAborted()));
    return g;
}

} // namespace memcon::service
