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
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cost_model.hh"
#include "core/engine.hh"
#include "failure/content.hh"
#include "failure/model.hh"
#include "failure/tester.hh"
#include "sim/system.hh"
#include "trace/app_model.hh"
#include "trace/cpu_gen.hh"

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
