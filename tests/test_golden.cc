/**
 * @file
 * Golden-value regression suite: pins the key reproduced numbers the
 * benches print against the paper's reference values, with explicit
 * tolerances, so a refactor cannot silently drift the reproduction.
 *
 * Exact pins (the appendix arithmetic falls out of the cost model to
 * the nanosecond/millisecond):
 *  - Table 3 / Figure 6 test latencies: 1068 ns (Read&Compare),
 *    1602 ns (Copy&Compare); refresh op 39 ns.
 *  - Section 4 MinWriteInterval: 560/864 ms (64 ms LO-REF), 480 ms
 *    (128 ms), 448 ms (256 ms).
 *  - The 75% upper-bound reduction (16 ms vs 64 ms).
 *
 * Banded pins (stochastic reproductions; the band states the paper's
 * range plus the model's observed spread):
 *  - Figure 14 refresh reduction (paper: 64.7%-74.5%).
 *  - Figure 17 LO-REF time coverage (paper: ~95% average).
 *  - Figure 15 shape: refresh reduction speeds the system up, more
 *    at higher chip density.
 *
 * Exact pins of the Figure 4 block tester: each SPEC persona's
 * failing rows and visible failing bits at content epoch 0 on the
 * fixed 1024-row module perfbench `detect` tests.
 *
 * Exact pins of the cycle domain (Golden.CycleDomain*): memcond
 * digests and tenant controller stats of several service
 * configurations, and one injector+disturb closed loop, recorded from
 * a build that ticked every component on every DRAM cycle.
 */

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/checkpoint.hh"
#include "common/random.hh"
#include "core/closed_loop.hh"
#include "core/cost_model.hh"
#include "core/engine.hh"
#include "dram/address_map.hh"
#include "failure/disturb.hh"
#include "failure/injector.hh"
#include "failure/content.hh"
#include "failure/model.hh"
#include "failure/tester.hh"
#include "service/memcond.hh"
#include "sim/system.hh"
#include "trace/app_model.hh"
#include "trace/cpu_gen.hh"
#include "trace/hammer.hh"

#include "closed_loop_rigs.hh"

using namespace memcon;
using namespace memcon::core;

TEST(Golden, AppendixPerOperationLatencies)
{
    CostModel cm;
    EXPECT_NEAR(cm.refreshOpNs(), 39.0, 1e-9);
    EXPECT_NEAR(cm.testCostNs(TestMode::ReadAndCompare), 1068.0, 1e-9);
    EXPECT_NEAR(cm.testCostNs(TestMode::CopyAndCompare), 1602.0, 1e-9);
}

TEST(Golden, MinWriteIntervalMatchesSection4)
{
    struct Case
    {
        double loRefMs;
        TestMode mode;
        double expectMs;
    };
    const Case cases[] = {
        {64.0, TestMode::ReadAndCompare, 560.0},
        {64.0, TestMode::CopyAndCompare, 864.0},
        {128.0, TestMode::ReadAndCompare, 480.0},
        {256.0, TestMode::ReadAndCompare, 448.0},
    };
    for (const Case &c : cases) {
        CostModelConfig cfg;
        cfg.loRefMs = c.loRefMs;
        CostModel m(cfg);
        EXPECT_NEAR(m.minWriteIntervalMs(c.mode).value(), c.expectMs,
                    1e-9)
            << "loRef=" << c.loRefMs;
    }
}

TEST(Golden, UpperBoundReductionIs75Percent)
{
    MemconEngine engine({});
    EXPECT_NEAR(engine.upperBoundReduction(), 0.75, 1e-12);
}

namespace
{

MemconResult
runPersona(const std::string &name, double cil_ms)
{
    trace::AppPersona p = trace::AppPersona::byName(name);
    MemconConfig cfg;
    cfg.quantumMs = TimeMs{cil_ms};
    return MemconEngine(cfg).runOnApp(p);
}

} // namespace

TEST(Golden, Fig14RefreshReductionWithinPaperBand)
{
    // Paper Figure 14: 64.7%-74.5% across the Table 1 apps at CIL
    // 512-2048 ms. Three representative personas at CIL 1024; the
    // band below allows the model's spread but a drift out of
    // [0.55, 0.75] would no longer reproduce the figure.
    double sum = 0.0;
    for (const char *name : {"ACBrotherHood", "AdobePhotoshop",
                             "Netflix"}) {
        double red = runPersona(name, 1024.0).reduction();
        EXPECT_GE(red, 0.55) << name;
        EXPECT_LE(red, 0.75) << name; // cannot exceed the upper bound
        sum += red;
    }
    // The average must sit in the paper's reported range.
    EXPECT_GE(sum / 3.0, 0.60);
}

TEST(Golden, Fig14ShardedEightBankReproducesFlatRunExactly)
{
    // The headline Figure 14 scenario, replayed through the paper's
    // 8-bank module map: per-bank sharding is an implementation
    // detail, so the reduction and the test overhead must come out
    // bit-identical to the flat run - not merely within the band.
    // The equality is only guaranteed while no shared resource binds
    // in the flat run (independent per-page trajectories), so those
    // preconditions are asserted rather than assumed.
    const MemconResult flat = runPersona("ACBrotherHood", 1024.0);
    ASSERT_EQ(flat.bufferDrops, 0u);
    ASSERT_EQ(flat.testsSkippedBudget, 0u);
    ASSERT_EQ(flat.testsDeferredBudget, 0u);

    trace::AppPersona p = trace::AppPersona::byName("ACBrotherHood");
    MemconConfig cfg;
    cfg.quantumMs = TimeMs{1024.0};
    cfg.addressMap = dram::AddressMap::paperDdr3_8bank();
    cfg.shardThreads = 2;
    const MemconResult sharded = MemconEngine(cfg).runOnApp(p);

    ASSERT_EQ(sharded.shards.size(), 8u);
    EXPECT_EQ(sharded.refreshOpsMemcon, flat.refreshOpsMemcon);
    EXPECT_EQ(sharded.refreshOpsBaseline, flat.refreshOpsBaseline);
    EXPECT_EQ(sharded.reduction(), flat.reduction());
    EXPECT_EQ(sharded.hiTimeMs, flat.hiTimeMs);
    EXPECT_EQ(sharded.loTimeMs, flat.loTimeMs);
    EXPECT_EQ(sharded.testsRun, flat.testsRun);
    EXPECT_EQ(sharded.testTimeNs, flat.testTimeNs);
    EXPECT_EQ(sharded.testTimeOverBaselineRefresh(),
              flat.testTimeOverBaselineRefresh());
    EXPECT_EQ(sharded.writes, flat.writes);
}

TEST(Golden, Fig17LoRefCoverageNear95Percent)
{
    double sum = 0.0;
    for (const char *name : {"ACBrotherHood", "AdobePhotoshop",
                             "Netflix"}) {
        double cov = runPersona(name, 1024.0).loCoverage();
        EXPECT_GE(cov, 0.85) << name;
        EXPECT_LE(cov, 1.0) << name;
        sum += cov;
    }
    EXPECT_GE(sum / 3.0, 0.90); // paper: ~95% on average
}

TEST(Golden, Fig15RefreshReductionSpeedsUpAndScalesWithDensity)
{
    // One workload, small instruction budget: enough to pin the
    // direction (75% refresh reduction helps) and the density trend
    // (32 Gb tRFC hurts the baseline more than 8 Gb) without the
    // full Figure 15 sweep.
    std::vector<trace::CpuPersona> mix = {
        trace::CpuPersona::byName("perlbench")};
    auto speedup = [&](dram::Density d) {
        sim::SystemConfig base;
        base.density = d;
        base.seed = 7;
        sim::SystemConfig fast = base;
        fast.refreshReduction = 0.75;
        double b = sim::System(base, mix).run(30000).ipcSum();
        double f = sim::System(fast, mix).run(30000).ipcSum();
        return f / b;
    };
    double s8 = speedup(dram::Density::Gb8);
    double s32 = speedup(dram::Density::Gb32);
    EXPECT_GT(s8, 1.0);
    EXPECT_GT(s32, s8);
}

TEST(Golden, Fig04BlockVerdictsPerPersonaAtEpoch0)
{
    struct Case
    {
        const char *persona;
        std::uint64_t rowsFailing;
        std::uint64_t failingBits;
    };
    const Case cases[] = {
        {"perlbench", 5, 5},   {"bzip2", 14, 14},
        {"gcc", 14, 14},       {"mcf", 14, 14},
        {"zeusmp", 36, 36},    {"cactusADM", 24, 25},
        {"gobmk", 17, 17},     {"namd", 32, 32},
        {"soplex", 29, 30},    {"dealII", 32, 33},
        {"calculix", 38, 38},  {"hmmer", 40, 43},
        {"libquantum", 32, 33}, {"GemsFDTD", 47, 47},
        {"h264ref", 38, 39},   {"tonto", 51, 51},
        {"omnetpp", 47, 47},   {"lbm", 57, 57},
        {"xalancbmk", 56, 58}, {"astar", 68, 70},
    };
    const std::vector<failure::ContentPersona> suite =
        failure::ContentPersona::specSuite();
    ASSERT_EQ(suite.size(), std::size(cases));

    failure::FailureModelParams params;
    params.nominalIntervalMs = 328.0;
    params.seed = 2017;
    params.redundantColumns = 0;
    params.remappedColumns = 0;
    failure::FailureModel model(params, 1 << 10, 1 << 16);
    failure::DramTester tester(model);
    for (std::size_t i = 0; i < suite.size(); ++i) {
        ASSERT_EQ(suite[i].name, std::string(cases[i].persona));
        failure::TestResult block = tester.testWithContentBlock(
            failure::ProgramContent(suite[i], 0), 328.0);
        EXPECT_EQ(block.rowsTested, 1024u) << cases[i].persona;
        EXPECT_EQ(block.rowsFailing, cases[i].rowsFailing)
            << cases[i].persona;
        EXPECT_EQ(block.failingBits, cases[i].failingBits)
            << cases[i].persona;
    }
}

// ---------------------------------------------------------------------
// Cycle-domain pins: the memcond digests and one injector+disturb
// closed loop. The values were recorded from a build that ticked every
// component once per DRAM cycle; any change to how the cycle domain
// advances time must reproduce them exactly.
// ---------------------------------------------------------------------

namespace
{

/** perfbench `memcond`'s service, cut to `rounds` rounds: three
 *  tenants in quota plus an antagonist offering ~8x its quota. */
service::MemcondConfig
perfbenchMemcondConfig(std::uint64_t rounds)
{
    service::MemcondConfig cfg;
    cfg.seed = hashMix64(1 ^ 0x5e41ce);
    cfg.threads = 2;
    cfg.rounds = rounds;
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
    return cfg;
}

service::TenantSpec
tenantSpec(const char *name, unsigned priority, double rate_scale)
{
    service::TenantSpec t;
    t.name = name;
    t.priority = priority;
    t.rateScale = rate_scale;
    t.quotaPerRound = 8;
    return t;
}

std::vector<service::TenantSpec>
perfbenchMemcondTenants()
{
    return {tenantSpec("alice", 2, 1.0), tenantSpec("bob", 2, 1.0),
            tenantSpec("carol", 1, 1.0), tenantSpec("mallory", 1, 8.0)};
}

/** The oversubscribed 128-row service of test_service's overload
 *  and placement tests. */
service::MemcondConfig
smallServiceConfig(std::uint64_t seed, std::uint64_t rounds)
{
    service::MemcondConfig cfg;
    cfg.seed = seed;
    cfg.threads = 2;
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

std::vector<service::TenantSpec>
smallServiceTenants()
{
    return {tenantSpec("focus", 2, 1.0), tenantSpec("calm", 2, 1.0),
            tenantSpec("meek", 1, 1.0), tenantSpec("mallory", 1, 8.0)};
}

std::string
runDigest(const service::MemcondConfig &cfg,
          const std::vector<service::TenantSpec> &specs)
{
    service::Memcond svc(cfg, specs);
    svc.run();
    return svc.digest();
}

/** CRC of every tenant controller's stats dump, in tenant order: the
 *  queueFull refusals the digest does not cover. */
std::uint32_t
controllerDumpsCrc(const service::Memcond &svc)
{
    std::string dumps;
    for (std::size_t i = 0; i < svc.tenantCount(); ++i)
        dumps += svc.tenant(i).controller().stats().dump();
    return ckpt::crc32(dumps);
}

/** Thrown from a snapshot hook: unwinds run() once a snapshot is
 *  durable, like a crash between rounds. */
struct CrashAfterSnapshot
{
};

} // namespace

TEST(Golden, CycleDomainPerfbenchMemcondSixteenRounds)
{
    service::Memcond svc(perfbenchMemcondConfig(16),
                         perfbenchMemcondTenants());
    svc.run();
    EXPECT_EQ(svc.digest(), "f617c12d");
    EXPECT_EQ(controllerDumpsCrc(svc), 3180395432u);
}

TEST(Golden, CycleDomainOverloadLadder)
{
    // Tenant shedding and backpressure drops: the config of
    // MemcondService.AccountingIdentityAndLadderUnderOverload.
    service::Memcond svc(smallServiceConfig(5, 16), smallServiceTenants());
    svc.run();
    EXPECT_EQ(svc.digest(), "a47584b4");
    EXPECT_EQ(controllerDumpsCrc(svc), 314847391u);
}

TEST(Golden, CycleDomainThrottledTenant)
{
    // A 10-event budget throttles the antagonist (zero grant with
    // demand): its throttle time accrues on cycles nothing else
    // happens in.
    service::MemcondConfig cfg = smallServiceConfig(5, 16);
    cfg.admission.globalBudgetPerRound = 10;
    std::vector<service::TenantSpec> specs = smallServiceTenants();
    specs[3].rateScale = 3.0;
    service::Memcond svc(cfg, specs);
    svc.run();
    EXPECT_GT(svc.tenant(3).throttledTicks(), 0u);
    EXPECT_EQ(svc.digest(), "6c361c2d");
    EXPECT_EQ(controllerDumpsCrc(svc), 3935920533u);
}

TEST(Golden, CycleDomainSaturatedWriteQueue)
{
    // One tenant offering 80x its rate with a 64-event grant: its
    // consumer applies an event every cycle until the controller's
    // write queue fills, then waits on the refusals.
    service::MemcondConfig cfg = smallServiceConfig(3, 8);
    cfg.admission.globalBudgetPerRound = 128;
    cfg.admission.maxGrantPerRound = 64;
    cfg.tenant.ringCapacity = 64;
    service::TenantSpec burst = tenantSpec("burst", 2, 80.0);
    burst.quotaPerRound = 64;
    service::Memcond svc(cfg, {burst});
    svc.run();
    EXPECT_GT(svc.tenant(0).controller().stats().value("queueFull"), 0.0);
    EXPECT_EQ(svc.digest(), "30e1e499");
    EXPECT_EQ(controllerDumpsCrc(svc), 2752430137u);
}

TEST(Golden, CycleDomainBankPlacedTenants)
{
    service::MemcondConfig cfg = smallServiceConfig(7, 12);
    cfg.tenant.memcon.addressMap = dram::AddressMap::paperDdr3_8bank();
    std::vector<service::TenantSpec> specs = smallServiceTenants();
    specs[0].bankSet = {0, 1};
    specs[3].bankSet = {6, 7};
    EXPECT_EQ(runDigest(cfg, specs), "67740e8d");
}

TEST(Golden, CycleDomainHammerAntagonistWithGuardAndScrub)
{
    // A RowHammer tenant against DisturbGuard (victim refreshes, bank
    // degradation and recovery) and the idle-row re-scrub.
    service::MemcondConfig cfg = smallServiceConfig(11, 16);
    cfg.tenant.memcon.addressMap = dram::AddressMap::blocked(3, 4);
    cfg.tenant.memcon.disturbGuard.enabled = true;
    cfg.tenant.memcon.disturbGuard.actAlertThreshold = 16;
    cfg.tenant.memcon.disturbGuard.crossingWindow = usToTicks(40.0);
    cfg.tenant.memcon.disturbGuard.bankCrossingLimit = 6;
    cfg.tenant.memcon.disturbGuard.bankDegradeHold = usToTicks(30.0);
    cfg.tenant.memcon.resilience.scrubPeriod = usToTicks(30.0);
    std::vector<service::TenantSpec> specs = smallServiceTenants();
    specs[3].hammerEnabled = true;
    specs[3].hammer.kind = trace::HammerKind::DoubleSided;
    specs[3].hammer.actsPerUs = 8.0;
    EXPECT_EQ(runDigest(cfg, specs), "641b5bac");
}

TEST(Golden, CycleDomainMidRunResume)
{
    // Crash right after the round-8 snapshot, then resume: the journal
    // replay rebuilds 8 rounds and the last 8 run live.
    const std::string path = "golden_cycle_domain_resume.snapshot";
    service::MemcondConfig cfg = perfbenchMemcondConfig(16);
    cfg.snapshotPath = path;
    cfg.snapshotEveryRounds = 4;
    cfg.snapshotHook = [](std::uint64_t rounds_done) {
        if (rounds_done == 8)
            throw CrashAfterSnapshot{};
    };
    {
        service::Memcond dying(cfg, perfbenchMemcondTenants());
        EXPECT_THROW(dying.run(), CrashAfterSnapshot);
    }
    cfg.snapshotHook = nullptr;
    service::Memcond resumed(cfg, perfbenchMemcondTenants());
    resumed.run(true);
    EXPECT_TRUE(resumed.resumed());
    EXPECT_EQ(resumed.digest(), "f617c12d");
    EXPECT_EQ(controllerDumpsCrc(resumed), 3180395432u);
    std::remove(path.c_str());
}

TEST(Golden, CycleDomainInjectorDisturbClosedLoop)
{
    rigs::InjectorDisturbRig rig;
    rig.loop->runUntil(msToTicks(0.6), rig.driver());
    const std::string dump = rig.loop->controller().stats().dump();
    EXPECT_EQ(ckpt::crc32(dump), 3767951983u) << dump;
    EXPECT_EQ(rig.loop->memcon().stateFingerprint(), 1892245545u);
    EXPECT_EQ(rig.disturb->flipsRecorded(), 2u);
}
