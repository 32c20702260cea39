/**
 * @file
 * Tests for the memcond service mode (DESIGN.md §16): the SPSC ingest
 * ring (including a real cross-thread stress for TSan), admission
 * verdicts, the overload governor's ladder and hysteresis, whole-
 * service determinism across thread counts, the accounting identity,
 * antagonist isolation, snapshot round-trips, and crash-safe resume -
 * in-process (a snapshot hook that throws simulates the crash) and
 * across a real SIGKILL via the service_testbed subprocess, each
 * checked against the round-0 journal replay oracle
 * (tests/oracles/journal_replay.hh) - and the bounded cost of resume.
 *
 * Suite names carry the "IngestRing"/"Memcond" prefixes the tsan
 * ctest preset filters on, so all of this also runs under
 * ThreadSanitizer.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>

#include <gtest/gtest.h>

#include "common/checkpoint.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "dram/address_map.hh"
#include "oracles/journal_replay.hh"
#include "service/memcond.hh"

using namespace memcon;
using namespace memcon::service;

namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Unique scratch path per test so parallel ctest runs don't race. */
std::string
scratch(const std::string &stem)
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return std::string("service_") + info->test_suite_name() + "_" +
           info->name() + "_" + stem;
}

/** Consume the head if there is one: the peek/popFront pair the
 * service's apply loop uses. */
bool
tryPop(IngestRing &ring, WriteEvent *out)
{
    if (!ring.peek(out))
        return false;
    ring.popFront();
    return true;
}

/**
 * A small oversubscribed service: 128-row modules, 20 us rounds,
 * 8-event quotas against a 20-event global budget, grants capped at
 * the quota (which is what makes the focus tenant's service identical
 * to its solo run).
 */
MemcondConfig
smallConfig(std::uint64_t seed, unsigned threads,
            std::uint64_t rounds = 12)
{
    MemcondConfig cfg;
    cfg.seed = seed;
    cfg.threads = threads;
    cfg.rounds = rounds;
    cfg.roundTicks = usToTicks(20.0);
    cfg.admission.globalBudgetPerRound = 20;
    cfg.admission.maxGrantPerRound = 8;
    cfg.governor.coolRounds = 3;
    cfg.tenant.geometry.rowsPerBank = 16;
    cfg.tenant.ringCapacity = 32;
    cfg.tenant.memcon.quantum = usToTicks(50.0);
    cfg.tenant.memcon.testIdle = usToTicks(20.0);
    cfg.tenant.memcon.retargetPeriod = usToTicks(25.0);
    cfg.tenant.memcon.testEngine.slots = 4;
    cfg.tenant.memcon.testEngine.wordsPerRow = 8;
    return cfg;
}

/** A tenant with the default 8-event quota. */
TenantSpec
tenant(const char *name, unsigned priority, double rate_scale = 1.0)
{
    TenantSpec spec;
    spec.name = name;
    spec.priority = priority;
    spec.rateScale = rate_scale;
    return spec;
}

/** focus + calm (in quota, priority 2), meek + mallory (priority 1);
 *  mallory offers `antag_rate` times its quota. */
std::vector<TenantSpec>
fourTenants(double antag_rate = 6.0)
{
    return {tenant("focus", 2), tenant("calm", 2), tenant("meek", 1),
            tenant("mallory", 1, antag_rate)};
}

/** generated == applied + drops + backlog + held, per tenant. */
void
expectAccountingIdentity(const Memcond &svc)
{
    for (std::size_t i = 0; i < svc.tenantCount(); ++i) {
        const TenantSession &t = svc.tenant(i);
        const std::uint64_t backlog =
            t.ringBacklog() + (t.hasHeldEvent() ? 1 : 0);
        EXPECT_EQ(t.generatedCount(),
                  t.appliedCount() + t.droppedBackpressure() +
                      t.droppedShed() + backlog)
            << "tenant " << t.spec().name;
    }
}

/** Two state records, compared line by line so a failure names the
 *  component that differs. */
void
expectSameState(const std::vector<std::string> &found,
                const std::vector<std::string> &expected)
{
    ASSERT_EQ(found.size(), expected.size());
    for (std::size_t i = 0; i < found.size(); ++i)
        EXPECT_EQ(found[i], expected[i]) << "state line " << i;
}

} // namespace

// ---------------------------------------------------------------------
// The SPSC ingest ring.
// ---------------------------------------------------------------------

TEST(IngestRing, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(IngestRing(1).capacity(), 1u);
    EXPECT_EQ(IngestRing(5).capacity(), 8u);
    EXPECT_EQ(IngestRing(64).capacity(), 64u);
    EXPECT_EQ(IngestRing(65).capacity(), 128u);
}

TEST(IngestRing, FifoOrderAndExplicitBackpressure)
{
    IngestRing ring(4);
    EXPECT_TRUE(ring.empty());
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(ring.tryPush({Tick{i * 10}, i}), PushResult::Ok);
    // Full is a verdict, not an exception or a silent drop.
    EXPECT_EQ(ring.tryPush({Tick{99}, 99}), PushResult::Full);
    EXPECT_EQ(ring.size(), 4u);

    // contents() sees the queued events front to back.
    std::vector<WriteEvent> seen = ring.contents();
    ASSERT_EQ(seen.size(), 4u);
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(seen[i].row, i);

    // peek exposes the head without consuming; popFront consumes it.
    WriteEvent ev;
    ASSERT_TRUE(ring.peek(&ev));
    EXPECT_EQ(ev.row, 0u);
    ASSERT_TRUE(ring.peek(&ev));
    EXPECT_EQ(ev.row, 0u);
    ring.popFront();
    ASSERT_TRUE(tryPop(ring, &ev));
    EXPECT_EQ(ev.row, 1u);

    // Space freed by pops is reusable (the indices are free-running).
    EXPECT_EQ(ring.tryPush({Tick{40}, 4}), PushResult::Ok);
    std::uint64_t expect = 2;
    while (tryPop(ring, &ev))
        EXPECT_EQ(ev.row, expect++);
    EXPECT_EQ(expect, 5u);
    EXPECT_FALSE(ring.peek(&ev));
}

TEST(IngestRing, SpscCrossThreadStressKeepsOrder)
{
    // Real concurrency for TSan: one producer thread, one consumer
    // thread, a deliberately tiny ring so both sides hit their wait
    // loops constantly.
    constexpr std::uint64_t kEvents = 20000;
    IngestRing ring(8);

    std::thread producer([&ring] {
        for (std::uint64_t i = 0; i < kEvents; ++i) {
            WriteEvent ev{Tick{i}, i};
            while (ring.tryPush(ev) == PushResult::Full)
                std::this_thread::yield();
        }
    });

    std::uint64_t next = 0;
    while (next < kEvents) {
        WriteEvent ev;
        if (!tryPop(ring, &ev)) {
            std::this_thread::yield();
            continue;
        }
        ASSERT_EQ(ev.row, next);
        ASSERT_EQ(ev.at, Tick{next});
        ++next;
    }
    producer.join();
    EXPECT_TRUE(ring.empty());
}

// ---------------------------------------------------------------------
// Admission control: typed verdicts.
// ---------------------------------------------------------------------

TEST(MemcondAdmission, OpenSessionRejectionsCarryReasons)
{
    AdmissionConfig cfg;
    cfg.maxSessions = 2;
    cfg.maxQuotaPerRound = 16;
    AdmissionController ac(cfg);

    EXPECT_EQ(ac.openSession("a", 8).kind, VerdictKind::Admit);

    Verdict zero = ac.openSession("b", 0);
    EXPECT_EQ(zero.kind, VerdictKind::Reject);
    EXPECT_NE(zero.reason.find("zero"), std::string::npos);

    Verdict greedy = ac.openSession("b", 17);
    EXPECT_EQ(greedy.kind, VerdictKind::Reject);
    EXPECT_NE(greedy.reason.find("cap"), std::string::npos);

    EXPECT_EQ(ac.openSession("b", 8).kind, VerdictKind::Admit);
    Verdict full = ac.openSession("c", 8);
    EXPECT_EQ(full.kind, VerdictKind::Reject);
    EXPECT_NE(full.reason.find("full"), std::string::npos);
    EXPECT_NE(full.reason.find("c"), std::string::npos);

    EXPECT_EQ(ac.activeSessions(), 2u);
    EXPECT_EQ(ac.admitCount(), 2u);
    EXPECT_EQ(ac.rejectCount(), 3u);
}

TEST(MemcondAdmission, QuotaFirstIsolatesInQuotaDemand)
{
    AdmissionConfig cfg;
    cfg.globalBudgetPerRound = 12;
    cfg.maxGrantPerRound = 0; // no per-tenant ceiling
    AdmissionController ac(cfg);

    // Tenant 0 wants 4 (in quota); tenant 1 wants 100 (way over its
    // quota of 8). Quota-first: 0 gets all 4, 1 gets its quota 8,
    // leftover 0.
    std::vector<TenantDemand> d(2);
    d[0] = {.backlog = 1, .lastOffered = 3, .quota = 8, .priority = 1};
    d[1] = {.backlog = 60, .lastOffered = 40, .quota = 8, .priority = 2};
    std::vector<Verdict> v = ac.planRound(d, usToTicks(20.0));
    ASSERT_EQ(v.size(), 2u);
    EXPECT_EQ(v[0].kind, VerdictKind::Admit);
    EXPECT_EQ(v[0].grant, 4u);
    EXPECT_EQ(v[1].kind, VerdictKind::Admit);
    EXPECT_EQ(v[1].grant, 8u);
}

TEST(MemcondAdmission, LeftoverBudgetFollowsPriorityThenIndex)
{
    AdmissionConfig cfg;
    cfg.globalBudgetPerRound = 30;
    AdmissionController ac(cfg);

    // Quotas cover 8+8+8 = 24; 6 left over. The priority-3 tenant
    // (index 2) absorbs all of it despite the index-order tie breaker
    // favoring earlier tenants at equal priority.
    std::vector<TenantDemand> d(3);
    d[0] = {.backlog = 10, .lastOffered = 0, .quota = 8, .priority = 1};
    d[1] = {.backlog = 10, .lastOffered = 0, .quota = 8, .priority = 1};
    d[2] = {.backlog = 20, .lastOffered = 0, .quota = 8, .priority = 3};
    std::vector<Verdict> v = ac.planRound(d, usToTicks(20.0));
    EXPECT_EQ(v[0].grant, 8u);
    EXPECT_EQ(v[1].grant, 8u);
    EXPECT_EQ(v[2].grant, 14u);

    // Equal priorities: leftover goes to the lower index.
    AdmissionController ac2(cfg);
    d[2].priority = 1;
    v = ac2.planRound(d, usToTicks(20.0));
    EXPECT_EQ(v[0].grant, 10u);
    EXPECT_EQ(v[1].grant, 10u);
    EXPECT_EQ(v[2].grant, 10u);
}

TEST(MemcondAdmission, ThrottleAndRejectVerdictsAreExplicit)
{
    AdmissionConfig cfg;
    cfg.globalBudgetPerRound = 8;
    AdmissionController ac(cfg);

    // Tenant 0's quota swallows the whole budget; tenant 1 has
    // demand, gets nothing, and must see Throttle with a concrete
    // retry tick - not a zero-grant Admit it can't distinguish.
    // Tenant 2 is shed: Reject, with the governor named.
    const Tick round_end = usToTicks(40.0);
    std::vector<TenantDemand> d(3);
    d[0] = {.backlog = 8, .lastOffered = 0, .quota = 8, .priority = 2};
    d[1] = {.backlog = 5, .lastOffered = 0, .quota = 8, .priority = 1};
    d[2] = {.backlog = 5, .lastOffered = 0, .quota = 8, .priority = 1,
            .shed = true};
    std::vector<Verdict> v = ac.planRound(d, round_end);
    EXPECT_EQ(v[0].kind, VerdictKind::Admit);
    EXPECT_EQ(v[0].grant, 8u);
    EXPECT_EQ(v[1].kind, VerdictKind::Throttle);
    EXPECT_EQ(v[1].retryAfter, round_end);
    EXPECT_EQ(v[2].kind, VerdictKind::Reject);
    EXPECT_NE(v[2].reason.find("governor"), std::string::npos);

    // A tenant with no demand at all is an Admit{0}, not a throttle:
    // production resumes immediately next round (no deadlock).
    std::vector<TenantDemand> idle(1);
    idle[0] = {.backlog = 0, .lastOffered = 0, .quota = 8, .priority = 1};
    EXPECT_EQ(ac.planRound(idle, round_end)[0].kind, VerdictKind::Admit);

    EXPECT_EQ(ac.admitCount(), 2u);
    EXPECT_EQ(ac.throttleCount(), 1u);
    EXPECT_EQ(ac.rejectCount(), 1u);
}

// ---------------------------------------------------------------------
// The overload governor's ladder.
// ---------------------------------------------------------------------

TEST(MemcondGovernor, EscalatesOneStagePerRoundInDocumentedOrder)
{
    OverloadGovernor g{GovernorConfig{}};
    EXPECT_EQ(g.stage(), GovernorStage::Normal);
    EXPECT_EQ(g.update(2.0), GovernorStage::ShedScans);
    EXPECT_EQ(g.update(2.0), GovernorStage::StretchQuanta);
    EXPECT_EQ(g.update(2.0), GovernorStage::ShedTenants);
    // The ladder is bounded: no stage beyond ShedTenants.
    EXPECT_EQ(g.update(50.0), GovernorStage::ShedTenants);
    EXPECT_EQ(g.escalations(), 3u);

    EXPECT_STREQ(toString(GovernorStage::Normal), "normal");
    EXPECT_STREQ(toString(GovernorStage::ShedScans), "shed-scans");
    EXPECT_STREQ(toString(GovernorStage::StretchQuanta),
                 "stretch-quanta");
    EXPECT_STREQ(toString(GovernorStage::ShedTenants), "shed-tenants");
}

TEST(MemcondGovernor, HysteresisRequiresSustainedCalm)
{
    GovernorConfig cfg;
    cfg.coolRounds = 3;
    OverloadGovernor g(cfg);
    g.update(2.0);
    g.update(2.0);
    ASSERT_EQ(g.stage(), GovernorStage::StretchQuanta);

    // Two calm rounds, then a round inside the hysteresis band
    // (exit 0.75 <= p <= enter 1.0): the streak resets, no step down.
    EXPECT_EQ(g.update(0.1), GovernorStage::StretchQuanta);
    EXPECT_EQ(g.update(0.1), GovernorStage::StretchQuanta);
    EXPECT_EQ(g.update(0.9), GovernorStage::StretchQuanta);
    EXPECT_EQ(g.calmStreak(), 0u);

    // Three consecutive calm rounds step down exactly one stage.
    g.update(0.1);
    g.update(0.1);
    EXPECT_EQ(g.update(0.1), GovernorStage::ShedScans);
    EXPECT_EQ(g.relaxations(), 1u);

    // Restore re-seats the whole ladder.
    g.restore(GovernorStage::ShedTenants, 2, 7, 4);
    EXPECT_EQ(g.stage(), GovernorStage::ShedTenants);
    EXPECT_EQ(g.calmStreak(), 2u);
    EXPECT_EQ(g.escalations(), 7u);
    EXPECT_EQ(g.relaxations(), 4u);
}

// ---------------------------------------------------------------------
// Whole-service behavior.
// ---------------------------------------------------------------------

TEST(MemcondService, RefusedTenantThrowsWithAdmissionReason)
{
    MemcondConfig cfg = smallConfig(5, 1);
    cfg.admission.maxSessions = 2;
    try {
        Memcond svc(cfg, fourTenants());
        FAIL() << "admission should have refused tenant 3 of 4";
    } catch (const ServiceError &e) {
        EXPECT_NE(std::string(e.what()).find("refused admission"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("meek"), std::string::npos);
    }
}

TEST(MemcondService, DigestIsBitIdenticalAcrossThreadCounts)
{
    Memcond one(smallConfig(5, 1), fourTenants());
    one.run();
    Memcond four(smallConfig(5, 4), fourTenants());
    four.run();

    EXPECT_EQ(one.digest(), four.digest());
    EXPECT_EQ(one.metricsLines(), four.metricsLines());
    EXPECT_EQ(one.stageHistory(), four.stageHistory());
    EXPECT_EQ(one.stageHistory().size(), 12u);
}

TEST(MemcondService, TenantFingerprintsMatchAcrossThreadCounts)
{
    // Regression for the PRIL flat-set migration (DESIGN.md §19):
    // per-tenant mechanism fingerprints - which serialize PRIL state
    // including write-buffer membership - must not depend on the
    // worker thread count. Each tenant's event sequence is identical
    // either way; the fingerprint serialization must be a function of
    // that state alone.
    Memcond one(smallConfig(9, 1), fourTenants());
    one.run();
    ServiceSnapshot snap_one = one.snapshotState();

    Memcond eight(smallConfig(9, 8), fourTenants());
    eight.run();
    ServiceSnapshot snap_eight = eight.snapshotState();

    ASSERT_EQ(snap_one.tenants.size(), snap_eight.tenants.size());
    for (std::size_t i = 0; i < snap_one.tenants.size(); ++i)
        EXPECT_EQ(snap_one.tenants[i].fingerprint,
                  snap_eight.tenants[i].fingerprint)
            << "tenant " << snap_one.tenants[i].name;

    // The stronger form: an 8-thread service restores a snapshot the
    // 1-thread service wrote. replaySnapshot() refuses the resume
    // unless every rebuilt tenant fingerprint matches the snapshot
    // bit-for-bit, so a clean run(true) IS the assertion.
    std::string path = scratch("snap_xthread.txt");
    saveServiceSnapshot(path, snap_one);
    MemcondConfig cfg8 = smallConfig(9, 8);
    cfg8.snapshotPath = path;
    Memcond resumed(cfg8, fourTenants());
    resumed.run(true);
    EXPECT_TRUE(resumed.resumed());
    EXPECT_EQ(resumed.digest(), one.digest());
    std::remove(path.c_str());
}

TEST(MemcondService, AccountingIdentityAndLadderUnderOverload)
{
    Memcond svc(smallConfig(5, 2, 16), fourTenants());
    svc.run();

    expectAccountingIdentity(svc);

    // The antagonist drove the ladder to tenant shedding, and its
    // losses are explicit shed drops - never silent.
    GovernorStage max_stage = GovernorStage::Normal;
    for (GovernorStage s : svc.stageHistory())
        max_stage = std::max(max_stage, s);
    EXPECT_EQ(max_stage, GovernorStage::ShedTenants);
    EXPECT_GT(svc.overloadGovernor().escalations(), 0u);
    EXPECT_GT(svc.tenant(3).droppedShed(), 0u);

    // The in-quota, priority-2 tenants are never the ones shed.
    EXPECT_EQ(svc.tenant(0).droppedShed(), 0u);
    EXPECT_EQ(svc.tenant(1).droppedShed(), 0u);

    // Telemetry mirrors the counters it claims to export.
    StatGroup g = svc.tenantTelemetry(3);
    EXPECT_DOUBLE_EQ(g.value("offered"),
                     static_cast<double>(svc.tenant(3).generatedCount()));
    EXPECT_DOUBLE_EQ(g.value("drops.shed"),
                     static_cast<double>(svc.tenant(3).droppedShed()));
    EXPECT_DOUBLE_EQ(g.value("applied"),
                     static_cast<double>(svc.tenant(3).appliedCount()));

    // Verdict counters reconcile with the rounds planned: one verdict
    // per tenant per round (openSession admits add 4 more).
    const std::uint64_t verdicts = svc.admissionController().admitCount() +
                                   svc.admissionController().throttleCount() +
                                   svc.admissionController().rejectCount();
    EXPECT_EQ(verdicts, 16u * 4u + 4u);
}

TEST(MemcondService, BankPlacedTenantsWriteOnlyTheirBanks)
{
    // Tenants declare bank sets over the module's 8-bank map: every
    // event the service journal records for a placed tenant must land
    // in a declared bank, the placement must be deterministic across
    // thread counts, and the accounting identity still holds.
    const dram::AddressMap map = dram::AddressMap::paperDdr3_8bank();
    auto placedSpecs = [] {
        std::vector<TenantSpec> specs = fourTenants();
        specs[0].bankSet = {0, 1};
        specs[3].bankSet = {6, 7}; // the antagonist, fenced off
        return specs;
    };
    MemcondConfig cfg = smallConfig(7, 1);
    cfg.tenant.memcon.addressMap = map;
    Memcond svc(cfg, placedSpecs());
    svc.run();
    expectAccountingIdentity(svc);

    const oracles::Recording rec = oracles::JournalReplay::record(
        cfg, placedSpecs(), cfg.rounds, scratch("journal.snap"));
    std::uint64_t focus_events = 0;
    for (const auto &round : rec.journal) {
        for (const WriteEvent &e : round[0].applied) {
            EXPECT_LT(map.shardOf(e.row), 2u) << "row " << e.row;
            ++focus_events;
        }
        for (const WriteEvent &e : round[3].applied)
            EXPECT_GE(map.shardOf(e.row), 6u) << "row " << e.row;
    }
    EXPECT_GT(focus_events, 0u);

    MemcondConfig cfg4 = smallConfig(7, 4);
    cfg4.tenant.memcon.addressMap = map;
    Memcond par(cfg4, placedSpecs());
    par.run();
    EXPECT_EQ(par.digest(), svc.digest());
}

TEST(MemcondService, InQuotaTenantIsIsolatedFromAntagonist)
{
    // Solo reference: the focus tenant alone. Same service seed, so
    // its traffic is identical in the co-located run (tenant seeds
    // derive from the tenant index).
    Memcond solo(smallConfig(5, 1, 16), {tenant("focus", 2)});
    solo.run();
    Memcond coloc(smallConfig(5, 1, 16), fourTenants(8.0));
    coloc.run();

    const double solo_red = solo.tenant(0).memcon().emergentReduction();
    const double coloc_red = coloc.tenant(0).memcon().emergentReduction();
    ASSERT_GT(solo_red, 0.0);
    // The acceptance bound is 5%; quota-first admission plus
    // offender-targeted governor stages actually make it exact.
    EXPECT_NEAR(coloc_red, solo_red, 0.05 * solo_red);
    EXPECT_EQ(coloc.tenant(0).droppedShed(), 0u);
}

TEST(MemcondService, GenerousWatchdogDoesNotPerturbTheRun)
{
    Memcond plain(smallConfig(5, 2), fourTenants());
    plain.run();

    MemcondConfig cfg = smallConfig(5, 2);
    cfg.supervisorTimeoutMs = 30000.0;
    Memcond watched(cfg, fourTenants());
    watched.run();

    // Supervision is wall-clock-only bookkeeping; the simulated
    // outcome must be bit-identical with and without it.
    EXPECT_EQ(watched.digest(), plain.digest());
}

TEST(MemcondService, TightWatchdogCancelsAMostlyIdleRound)
{
    // A near-silent tenant over a 1 ms round: the module only
    // refreshes, so the round simulates a few hundred of its 800k
    // cycles. The cancel token is polled on every simulated cycle, so
    // a cancelled token still unwinds the round at once.
    TenantRuntimeConfig rc;
    rc.geometry.rowsPerBank = 16;
    rc.memcon.quantum = msToTicks(10.0); // no quantum ends in the round
    rc.horizonMs = 1.0;
    TenantSpec idle;
    idle.name = "idle";
    idle.rateScale = 1e-4;
    RoundDirectives dirs;
    dirs.grant = 8;

    TenantSession cancelled(idle, rc, 0);
    CancelToken token;
    token.requestCancel();
    EXPECT_THROW(cancelled.runRound(dirs, Tick{}, msToTicks(1.0), &token),
                 TaskCancelled);

    // With a live token the round runs to its end: the next round
    // starts where it stopped.
    TenantSession live(idle, rc, 0);
    CancelToken quiet;
    EXPECT_NO_THROW(live.runRound(dirs, Tick{}, msToTicks(1.0), &quiet));
    EXPECT_NO_THROW(
        live.runRound(dirs, msToTicks(1.0), msToTicks(2.0), &quiet));
}

// ---------------------------------------------------------------------
// Snapshots: round trip, strictness, in-process crash resume.
// ---------------------------------------------------------------------

TEST(MemcondSnapshot, EncodeDecodeRoundTripsTheLiveService)
{
    MemcondConfig cfg = smallConfig(5, 2);
    Memcond svc(cfg, fourTenants());
    svc.run();

    ServiceSnapshot snap = svc.snapshotState();
    EXPECT_EQ(snap.roundsDone, cfg.rounds);
    std::uint64_t history = 0;
    for (const StageRun &run : snap.stageRuns)
        history += run.rounds;
    EXPECT_EQ(history, cfg.rounds);

    const std::string encoded = encodeServiceSnapshot(snap);
    ServiceSnapshot back = decodeServiceSnapshot(encoded);
    // Decode(encode()) is the identity: re-encoding yields the same
    // bytes, which covers every field including the state lines.
    EXPECT_EQ(encodeServiceSnapshot(back), encoded);
    EXPECT_TRUE(back.fingerprint.matches(snap.fingerprint));
    EXPECT_EQ(back.roundsDone, snap.roundsDone);
    ASSERT_EQ(back.tenants.size(), 4u);
    EXPECT_EQ(back.tenants[3].name, "mallory");
    EXPECT_EQ(back.tenants[3].droppedShed,
              svc.tenant(3).droppedShed());
}

TEST(MemcondSnapshot, SaveLoadRoundTripsThroughDisk)
{
    std::string path = scratch("snap.txt");
    MemcondConfig cfg = smallConfig(7, 1, 6);
    Memcond svc(cfg, fourTenants());
    svc.run();

    ServiceSnapshot snap = svc.snapshotState();
    saveServiceSnapshot(path, snap);
    ServiceSnapshot back = loadServiceSnapshot(path);
    EXPECT_EQ(encodeServiceSnapshot(back), encodeServiceSnapshot(snap));

    EXPECT_THROW(loadServiceSnapshot(path + ".does_not_exist"),
                 ServiceError);
    std::remove(path.c_str());
}

namespace
{

/** The in-process stand-in for SIGKILL: thrown from the snapshot
 *  hook, it unwinds run() the instant a snapshot is durable. */
struct SimulatedCrash
{
};

} // namespace

TEST(MemcondSnapshot, InProcessCrashResumesToIdenticalDigest)
{
    std::string path = scratch("snap.txt");

    // Uninterrupted reference (no snapshots; the path is not part of
    // the fingerprint, so the resumed run below is comparable).
    Memcond ref(smallConfig(5, 2), fourTenants());
    ref.run();

    // "Crash" the moment the round-8 snapshot hits the disk.
    MemcondConfig cfg = smallConfig(5, 2);
    cfg.snapshotPath = path;
    cfg.snapshotEveryRounds = 4;
    cfg.snapshotHook = [](std::uint64_t rounds_done) {
        if (rounds_done == 8)
            throw SimulatedCrash{};
    };
    {
        Memcond dying(cfg, fourTenants());
        EXPECT_THROW(dying.run(), SimulatedCrash);
        EXPECT_EQ(dying.roundsDone(), 8u);
    }
    const ServiceSnapshot at8 = loadServiceSnapshot(path);

    // Resume from the snapshot: restores round 8 in place, then runs
    // the remaining 4 live.
    cfg.snapshotHook = nullptr;
    Memcond resumed(cfg, fourTenants());
    resumed.run(true);
    EXPECT_TRUE(resumed.resumed());
    EXPECT_EQ(resumed.roundsDone(), 12u);
    EXPECT_EQ(resumed.digest(), ref.digest());
    EXPECT_EQ(resumed.metricsLines(), ref.metricsLines());
    EXPECT_EQ(resumed.stageHistory(), ref.stageHistory());
    expectAccountingIdentity(resumed);
    // The full state, not just what the digest reads: at round 12 the
    // resumed service saves the uninterrupted one's bytes.
    EXPECT_EQ(encodeServiceSnapshot(resumed.snapshotState()),
              encodeServiceSnapshot(ref.snapshotState()));

    // The round-0 journal replay oracle reaches the same round-8
    // state along the retired path, and the same digest at round 12.
    const oracles::Recording rec = oracles::JournalReplay::record(
        smallConfig(5, 2), fourTenants(), 8, scratch("journal.snap"));
    EXPECT_EQ(encodeServiceSnapshot(rec.snapshot), encodeServiceSnapshot(at8));
    Memcond replayed(smallConfig(5, 2), fourTenants());
    oracles::JournalReplay::replay(replayed, rec.journal, at8);
    for (std::size_t i = 0; i < replayed.tenantCount(); ++i)
        expectSameState(replayed.tenant(i).saveState(), at8.tenants[i].state);
    oracles::JournalReplay::run(replayed);
    EXPECT_EQ(replayed.digest(), ref.digest());
    std::remove(path.c_str());
}

TEST(MemcondSnapshot, RestoredTenantsSaveTheRecordTheyCameFrom)
{
    // Restore then save is the identity, field by field: a service
    // resumed at its last round re-encodes the snapshot it loaded.
    std::string path = scratch("snap.txt");
    MemcondConfig cfg = smallConfig(11, 2, 10);
    cfg.snapshotPath = path;
    cfg.snapshotEveryRounds = 10;
    Memcond live(cfg, fourTenants(8.0));
    live.run();
    const std::string written = slurp(path);

    Memcond resumed(cfg, fourTenants(8.0));
    resumed.run(true);
    EXPECT_TRUE(resumed.resumed());
    EXPECT_EQ(encodeServiceSnapshot(resumed.snapshotState()), written);
    EXPECT_EQ(resumed.digest(), live.digest());
    std::remove(path.c_str());
}

namespace
{

/** An in-quota RowHammer tenant against DisturbGuard on an 8-bank map
 * (16 rows a bank), next to a benign one: bank 0 degrades while the
 * read-only scan's tests are still passing there, so its blocked
 * promotions and demoted LO rows pile up in its recovery list. */
MemcondConfig
guardedConfig(std::uint64_t rounds)
{
    MemcondConfig cfg = smallConfig(11, 2, rounds);
    cfg.tenant.memcon.addressMap = dram::AddressMap::blocked(3, 4);
    cfg.tenant.memcon.disturbGuard.enabled = true;
    cfg.tenant.memcon.disturbGuard.actAlertThreshold = 4;
    cfg.tenant.memcon.disturbGuard.crossingWindow = usToTicks(100.0);
    cfg.tenant.memcon.disturbGuard.bankCrossingLimit = 2;
    cfg.tenant.memcon.disturbGuard.bankDegradeHold = usToTicks(100.0);
    return cfg;
}

std::vector<TenantSpec>
guardedTenants()
{
    TenantSpec hammer = tenant("hammer", 2);
    hammer.hammerEnabled = true;
    hammer.hammer.kind = trace::HammerKind::DoubleSided;
    hammer.hammer.actsPerUs = 0.4; // the 8-event quota per 20 us round
    return {tenant("focus", 2), hammer};
}

/** The longest per-bank recovery list any tenant's state holds in the
 *  snapshot file at `path` (the counts of its `bankrec=` pairs). */
std::uint64_t
longestBankRecovery(const std::string &path)
{
    std::uint64_t longest = 0;
    for (const TenantSnapshotRecord &t : loadServiceSnapshot(path).tenants)
        for (const std::string &line : t.state) {
            const std::size_t key = line.find(" bankrec=");
            if (key == std::string::npos)
                continue;
            std::istringstream pairs(
                line.substr(key + 9, line.find(' ', key + 1) - key - 9));
            std::string pair;
            while (std::getline(pairs, pair, ','))
                longest = std::max<std::uint64_t>(
                    longest, std::stoull(pair.substr(pair.find(':') + 1)));
        }
    return longest;
}

} // namespace

TEST(MemcondSnapshot, LongBankRecoveryListsRestore)
{
    // A snapshot taken while a degraded bank's recovery list holds
    // more rows than the map has banks restores, saves the record it
    // came from, and resumes to the uninterrupted run's state.
    const std::uint64_t banks = 8;
    const std::uint64_t rounds = 48;
    const std::string path = scratch("snap.txt");
    MemcondConfig cfg = guardedConfig(rounds);
    cfg.snapshotPath = path;
    cfg.snapshotEveryRounds = 1;
    std::uint64_t crash_round = 0;
    cfg.snapshotHook = [&](std::uint64_t rounds_done) {
        if (longestBankRecovery(path) > banks) {
            crash_round = rounds_done;
            throw SimulatedCrash{};
        }
    };
    {
        Memcond dying(cfg, guardedTenants());
        EXPECT_THROW(dying.run(), SimulatedCrash);
    }
    ASSERT_GT(crash_round, 0u) << "no bank recovery list outgrew the map";

    cfg.snapshotHook = nullptr;
    Memcond ref(guardedConfig(rounds), guardedTenants());
    ref.run();
    Memcond resumed(cfg, guardedTenants());
    resumed.run(true);
    EXPECT_TRUE(resumed.resumed());
    EXPECT_EQ(resumed.digest(), ref.digest());
    EXPECT_EQ(encodeServiceSnapshot(resumed.snapshotState()),
              encodeServiceSnapshot(ref.snapshotState()));

    // Restore then save is the identity at the crash round: a service
    // that ends there re-encodes the snapshot it loads. Its shorter
    // traffic horizon draws the same events up to that round.
    MemcondConfig last = guardedConfig(crash_round);
    last.snapshotPath = path;
    last.snapshotEveryRounds = crash_round;
    Memcond live(last, guardedTenants());
    live.run();
    ASSERT_GT(longestBankRecovery(path), banks);
    const std::string written = slurp(path);
    Memcond restored(last, guardedTenants());
    restored.run(true);
    EXPECT_EQ(encodeServiceSnapshot(restored.snapshotState()), written);
    EXPECT_EQ(restored.digest(), live.digest());
    std::remove(path.c_str());
}

TEST(MemcondSnapshot, ForeignTenantStateIsRefusedTyped)
{
    // A well-formed snapshot whose tenant records were swapped: each
    // restores cleanly as a record, but not as the tenant it lands on.
    std::string path = scratch("snap.txt");
    MemcondConfig cfg = smallConfig(5, 1, 6);
    cfg.snapshotPath = path;
    cfg.snapshotEveryRounds = 6;
    Memcond live(cfg, fourTenants());
    live.run();
    ServiceSnapshot snap = loadServiceSnapshot(path);
    std::swap(snap.tenants[0].state, snap.tenants[1].state);
    saveServiceSnapshot(path, snap);
    Memcond resumed(cfg, fourTenants());
    EXPECT_THROW(resumed.run(true), ServiceError);
    std::remove(path.c_str());
}

TEST(MemcondSnapshot, ResumeRefusesAForeignConfiguration)
{
    std::string path = scratch("snap.txt");
    MemcondConfig cfg = smallConfig(5, 1, 8);
    cfg.snapshotPath = path;
    cfg.snapshotEveryRounds = 4;
    Memcond svc(cfg, fourTenants());
    svc.run();

    // Same tenants, different service seed: the fingerprint gate must
    // refuse before any tenant is restored, naming both sides.
    MemcondConfig other = smallConfig(6, 1, 8);
    other.snapshotPath = path;
    try {
        Memcond wrong(other, fourTenants());
        wrong.run(true);
        FAIL() << "resume accepted a snapshot from another service";
    } catch (const ckpt::FingerprintMismatch &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(e.found.describe()), std::string::npos);
        EXPECT_NE(what.find(e.expected.describe()), std::string::npos);
    }

    // Resume without a snapshot path is a typed refusal too.
    MemcondConfig pathless = smallConfig(5, 1, 8);
    Memcond nowhere(pathless, fourTenants());
    EXPECT_THROW(nowhere.run(true), ServiceError);
    std::remove(path.c_str());
}

TEST(MemcondResume, CostStaysFlatFrom256To4096Rounds)
{
    // Resume is a load and a restore: after 256 and after 4096 rounds
    // it simulates no cycle and draws no stream event, and the
    // snapshot does not grow with the rounds behind it. Shown by
    // counts; no wall clock is read.
    const std::vector<TenantSpec> specs = {tenant("focus", 2),
                                           tenant("mallory", 1, 6.0)};
    // Snapshot bytes without the run-length stage history, every 256
    // rounds of the 4096-round run.
    std::vector<std::size_t> state_bytes;
    for (std::uint64_t rounds : {256u, 4096u}) {
        SCOPED_TRACE(strprintf("rounds=%llu", (unsigned long long)rounds));
        const std::string path = scratch(strprintf("r%llu.snap",
                                                   (unsigned long long)rounds));
        MemcondConfig cfg = smallConfig(5, 2, rounds);
        cfg.snapshotPath = path;
        cfg.snapshotEveryRounds = 256;
        Memcond *hooked = nullptr;
        cfg.snapshotHook = [&hooked, &state_bytes, rounds](std::uint64_t) {
            if (rounds != 4096)
                return;
            const ServiceSnapshot snap = hooked->snapshotState();
            std::size_t history = 0;
            for (const StageRun &run : snap.stageRuns)
                history += strprintf("%u:%llu,", (unsigned)run.stage,
                                     (unsigned long long)run.rounds)
                               .size();
            state_bytes.push_back(encodeServiceSnapshot(snap).size() -
                                  history);
        };
        Memcond live(cfg, specs);
        hooked = &live;
        live.run();
        for (std::size_t i = 0; i < live.tenantCount(); ++i) {
            EXPECT_GT(live.tenant(i).cyclesSimulated(), rounds);
            EXPECT_GT(live.tenant(i).streamEventsDrawn(), 0u);
        }

        cfg.snapshotHook = nullptr;
        Memcond resumed(cfg, specs);
        resumed.run(true); // at its last round: the restore alone
        ASSERT_TRUE(resumed.resumed());
        EXPECT_EQ(resumed.roundsDone(), rounds);
        EXPECT_EQ(resumed.digest(), live.digest());
        for (std::size_t i = 0; i < resumed.tenantCount(); ++i) {
            EXPECT_EQ(resumed.tenant(i).cyclesSimulated(), 0u);
            EXPECT_EQ(resumed.tenant(i).streamEventsDrawn(), 0u);
        }
        std::remove(path.c_str());
    }

    // The record's size is a function of the state - queue lengths,
    // the times each stream has drawn ahead within its merge window,
    // digits of counters - so it moves from snapshot to snapshot but
    // has no trend: the late snapshots are no larger than the early
    // ones allow. A log of rounds would have grown eight-fold here.
    ASSERT_EQ(state_bytes.size(), 16u);
    const std::size_t early =
        *std::max_element(state_bytes.begin(), state_bytes.begin() + 4);
    const std::size_t late =
        *std::max_element(state_bytes.begin() + 8, state_bytes.end());
    EXPECT_LT(static_cast<double>(late), 1.5 * static_cast<double>(early))
        << "rounds 256-1024 peak " << early << " B, rounds 2304-4096 peak "
        << late << " B";
}

// ---------------------------------------------------------------------
// Subprocess: a real SIGKILL mid-service, resumed bit-identically.
// ---------------------------------------------------------------------

namespace
{

struct RunResult
{
    int status = -1;
    std::string out;
    std::string err;

    bool exitedWith(int code) const
    {
        return WIFEXITED(status) && WEXITSTATUS(status) == code;
    }

    bool killedBy(int sig) const
    {
        // std::system() goes through the shell, which reports a
        // signal-killed child as exit code 128+sig.
        return (WIFSIGNALED(status) && WTERMSIG(status) == sig) ||
               (WIFEXITED(status) && WEXITSTATUS(status) == 128 + sig);
    }
};

RunResult
runTestbed(const std::string &args)
{
    static int invocation = 0;
    std::string tag = scratch(strprintf("io%d", invocation++));
    std::string out_path = tag + ".out", err_path = tag + ".err";
    std::string cmd = std::string(MEMCON_SERVICE_TESTBED) + " " + args +
                      " > " + out_path + " 2> " + err_path;
    RunResult r;
    r.status = std::system(cmd.c_str());
    r.out = slurp(out_path);
    r.err = slurp(err_path);
    std::remove(out_path.c_str());
    std::remove(err_path.c_str());
    return r;
}

std::string
digestOf(const RunResult &r)
{
    std::size_t pos = r.out.find("DIGEST ");
    EXPECT_NE(pos, std::string::npos)
        << "no DIGEST line in testbed output:\n"
        << r.out;
    if (pos == std::string::npos)
        return "";
    return r.out.substr(pos + 7, 8);
}

std::size_t
resumedOf(const RunResult &r)
{
    std::size_t pos = r.out.find("resumed=");
    EXPECT_NE(pos, std::string::npos);
    if (pos == std::string::npos)
        return 0;
    return static_cast<std::size_t>(
        std::strtoul(r.out.c_str() + pos + 8, nullptr, 10));
}

/**
 * SIGKILL the testbed the instant its round-`kill_at` snapshot is
 * durable, resume it, and hold the resumed digest to both the
 * uninterrupted run and the round-0 journal replay oracle, and the
 * resumed run's final snapshot to the uninterrupted run's, byte for
 * byte.
 */
void
killResumeAt(unsigned threads, unsigned kill_at, unsigned every)
{
    SCOPED_TRACE(strprintf("threads=%u kill_at=%u", threads, kill_at));
    std::string snap =
        scratch(strprintf("t%u_k%u.snap", threads, kill_at));
    const std::string shape =
        strprintf("--tenants 4 --threads %u --seed 23 --rounds 16 "
                  "--snapshot-every %u --snapshot %s",
                  threads, every, snap.c_str());

    // Uninterrupted reference digest and snapshots (single-threaded on
    // purpose: the §9 contract says thread count cannot matter, and
    // the resumed multi-threaded run below is held to it).
    const std::string ref_snap =
        scratch(strprintf("t%u_k%u_ref.snap", threads, kill_at));
    RunResult ref = runTestbed(
        strprintf("--tenants 4 --threads 1 --seed 23 --rounds 16 "
                  "--snapshot-every %u --snapshot %s",
                  every, ref_snap.c_str()));
    ASSERT_TRUE(ref.exitedWith(0)) << ref.err;

    RunResult killed =
        runTestbed(shape + strprintf(" --kill-at %u", kill_at));
    ASSERT_TRUE(killed.killedBy(SIGKILL)) << "status=" << killed.status;

    // The snapshot the kill left behind decodes cleanly...
    ServiceSnapshot on_disk = loadServiceSnapshot(snap);
    EXPECT_EQ(on_disk.roundsDone, kill_at);
    EXPECT_EQ(on_disk.tenants.size(), 4u);

    // ...the retired path - replaying a journal of the same run from
    // round 0 - rebuilds tenants that save exactly the snapshot's
    // state lines and lands on the uninterrupted digest...
    RunResult replayed = runTestbed(shape + " --oracle");
    EXPECT_TRUE(replayed.exitedWith(0)) << replayed.err;
    EXPECT_EQ(resumedOf(replayed), kill_at);
    EXPECT_EQ(digestOf(replayed), digestOf(ref));

    // ...and so does the resumed service, which restores the snapshot
    // in place (and then overwrites it as it runs on).
    RunResult resumed = runTestbed(shape + " --resume");
    EXPECT_TRUE(resumed.exitedWith(0)) << resumed.err;
    EXPECT_EQ(resumedOf(resumed), kill_at);
    EXPECT_EQ(digestOf(resumed), digestOf(ref));
    const std::string ref_final = slurp(ref_snap);
    EXPECT_FALSE(ref_final.empty());
    EXPECT_EQ(slurp(snap), ref_final);
    std::remove(snap.c_str());
    std::remove(ref_snap.c_str());
}

/** Kill rounds drawn from a fixed seed, so a failure reproduces. */
std::vector<unsigned>
seededKillRounds(std::uint64_t seed, unsigned count)
{
    Rng rng(seed);
    std::vector<unsigned> rounds;
    while (rounds.size() < count) {
        const unsigned r = 1 + static_cast<unsigned>(rng.uniformInt(15));
        if (std::find(rounds.begin(), rounds.end(), r) == rounds.end())
            rounds.push_back(r);
    }
    return rounds;
}

} // namespace

TEST(MemcondKillResume, SingleThreadDigestSurvivesSigkill)
{
    killResumeAt(1, 8, 4);
}

TEST(MemcondKillResume, EightThreadsDigestSurvivesSigkill)
{
    killResumeAt(8, 8, 4);
}

TEST(MemcondKillResume, SeededRandomRoundsSurviveSigkill)
{
    // A snapshot every round, killed at rounds drawn from a seed: the
    // restore must hold at any round boundary, not only at round 8.
    for (unsigned threads : {1u, 8u})
        for (unsigned kill_at : seededKillRounds(0x5161c0 + threads, 3))
            killResumeAt(threads, kill_at, 1);
}

TEST(MemcondKillResume, TamperedSnapshotIsRefusedOnResume)
{
    std::string snap = scratch("tamper.snap");
    RunResult killed = runTestbed(
        strprintf("--tenants 4 --threads 2 --seed 23 --rounds 16 "
                  "--snapshot-every 4 --snapshot %s --kill-at 8",
                  snap.c_str()));
    ASSERT_TRUE(killed.killedBy(SIGKILL));

    // Flip one byte mid-file: the resume must fail with the typed
    // error surfaced on stderr, not limp on from damaged state.
    std::string content = slurp(snap);
    ASSERT_GT(content.size(), 100u);
    content[content.size() / 2] ^= 0x01;
    {
        std::ofstream out(snap, std::ios::binary | std::ios::trunc);
        out << content;
    }
    RunResult resumed = runTestbed(
        strprintf("--tenants 4 --threads 2 --seed 23 --rounds 16 "
                  "--snapshot-every 4 --snapshot %s --resume",
                  snap.c_str()));
    EXPECT_TRUE(resumed.exitedWith(1)) << "status=" << resumed.status;
    EXPECT_NE(resumed.err.find("snapshot"), std::string::npos)
        << resumed.err;
    std::remove(snap.c_str());
}
