/**
 * @file
 * Integration tests across modules: the full MEMCON stack (failure
 * model + content + PRIL + engine), the policy comparison ordering
 * of Section 6.3, and the cycle-simulator experiments that back
 * Figures 15/16 and Table 3 - all at reduced scale.
 */

#include <gtest/gtest.h>

#include "core/engine.hh"
#include "core/policies.hh"
#include "failure/content.hh"
#include "failure/model.hh"
#include "failure/tester.hh"
#include "oracles/row_fractions.hh"
#include "sim/system.hh"
#include "trace/analyzer.hh"

namespace memcon
{
namespace
{

using core::MemconConfig;
using core::MemconEngine;
using core::MemconResult;
using core::TestMode;

/**
 * Wire the failure model and per-page program content into an
 * engine oracle: page p maps to logical row p, its content epoch
 * advances with every write.
 */
MemconEngine::FailureOracle
makeOracle(const failure::FailureModel &model,
           const failure::ContentPersona &persona, double lo_ref_ms)
{
    return [&model, persona, lo_ref_ms](std::uint64_t page,
                                        std::uint64_t write_count) {
        failure::ProgramContent content(persona, write_count);
        return model.logicalRowFails(RowId{page % model.numRows()},
                                     content, lo_ref_ms);
    };
}

TEST(FullStack, MemconWithRealFailureModel)
{
    failure::FailureModelParams params;
    params.nominalIntervalMs = 64.0; // failures manifest at LO-REF
    params.seed = 21;
    failure::FailureModel model(params, 1 << 11, 1 << 16);

    MemconConfig cfg;
    cfg.quantumMs = TimeMs{1024.0};
    MemconEngine engine(cfg);
    trace::AppPersona app = trace::AppPersona::byName("AdobePremiere");
    auto oracle = makeOracle(
        model, failure::ContentPersona::byName("gcc"), cfg.loRefMs);

    MemconResult r = engine.runOnApp(app, oracle);
    // Some rows fail with their content and stay protected...
    EXPECT_GT(r.testsFailed, 0u);
    // ...but most content passes, so the reduction stays large.
    EXPECT_GT(r.reduction(), 0.5);
    EXPECT_LT(r.reduction(), engine.upperBoundReduction());
    EXPECT_EQ(r.testsRun, r.testsPassed + r.testsFailed);
}

TEST(FullStack, FailureAwareReductionBelowFailureFree)
{
    failure::FailureModelParams params;
    params.nominalIntervalMs = 64.0;
    // Exaggerate the failure population so mitigation is visible.
    params.vulnerableCellsPerRow = 1.5;
    failure::FailureModel model(params, 1 << 11, 1 << 16);

    MemconConfig cfg;
    MemconEngine engine(cfg);
    trace::AppPersona app = trace::AppPersona::byName("FinalCutPro");

    MemconResult clean = engine.runOnApp(app);
    MemconResult faulty = engine.runOnApp(
        app, makeOracle(model, failure::ContentPersona::byName("astar"),
                        cfg.loRefMs));
    EXPECT_LT(faulty.reduction(), clean.reduction());
    EXPECT_GT(faulty.testsFailed, 0u);
}

TEST(FullStack, RaidrRefreshesMoreRowsAggressivelyThanMemcon)
{
    // Section 6.3: RAIDR pins every possibly-failing row (any
    // content) at HI-REF; MEMCON only pins rows whose *current*
    // content fails, so MEMCON's reduction is at least RAIDR's.
    failure::FailureModelParams params;
    params.nominalIntervalMs = 64.0;
    failure::FailureModel model(params, 1 << 12, 1 << 16);

    double hi_frac = oracles::worstCaseRowFraction(model, 64.0);
    // The profile matches the calibrated ALL-FAIL fraction.
    EXPECT_NEAR(hi_frac, 0.135, 0.02);

    core::RefreshPolicy raidr = core::raidrPolicy(hi_frac, 16.0, 64.0,
                                                  16.0);
    MemconConfig cfg;
    MemconEngine engine(cfg);
    trace::AppPersona app = trace::AppPersona::byName("Netflix");
    MemconResult memcon = engine.runOnApp(
        app, makeOracle(model, failure::ContentPersona::byName("gcc"),
                        cfg.loRefMs));

    EXPECT_GT(memcon.reduction(), raidr.reduction);
    // And both sit below the ideal 64 ms policy.
    core::RefreshPolicy ideal = core::fixedRefreshPolicy(64.0, 16.0);
    EXPECT_LT(memcon.reduction(), ideal.reduction);
    EXPECT_LT(raidr.reduction, ideal.reduction);
}

TEST(FullStack, ReliabilityInvariantWithRealModel)
{
    // Section 8's invariant checked against the genuine failure
    // model: whenever a row sits at LO-REF, its *current* content
    // passes at LO-REF.
    failure::FailureModelParams params;
    params.nominalIntervalMs = 64.0;
    params.vulnerableCellsPerRow = 1.0;
    failure::FailureModel model(params, 1 << 10, 1 << 16);
    failure::ContentPersona persona =
        failure::ContentPersona::byName("omnetpp");

    MemconConfig cfg;
    cfg.quantumMs = TimeMs{200.0};
    MemconEngine engine(cfg);

    std::vector<std::vector<TimeMs>> writes(1 << 10);
    Rng rng(5);
    for (auto &w : writes) {
        double t = rng.uniform(0.0, 400.0);
        while (t < 5000.0) {
            w.push_back(TimeMs{t});
            t += rng.pareto(5.0, 0.5);
        }
    }

    auto oracle = makeOracle(model, persona, cfg.loRefMs);
    std::uint64_t lo_grants = 0;
    engine.run(writes, 5000.0, oracle,
               [&](std::uint64_t page, double, bool to_lo,
                   std::uint64_t wc) {
                   if (!to_lo)
                       return;
                   ++lo_grants;
                   // The invariant: content at this write count
                   // passes at LO-REF.
                   ASSERT_FALSE(oracle(page, wc));
               });
    EXPECT_GT(lo_grants, 0u);
}

TEST(FullStack, ContentChangeCanFlipTestOutcome)
{
    // A row whose content fails now may pass after being rewritten -
    // the core reason MEMCON beats all-content profiling.
    failure::FailureModelParams params;
    params.nominalIntervalMs = 64.0;
    params.vulnerableCellsPerRow = 2.0;
    failure::FailureModel model(params, 1 << 10, 1 << 16);
    failure::ContentPersona persona =
        failure::ContentPersona::byName("astar");

    unsigned flips = 0;
    for (std::uint64_t row = 0; row < 512; ++row) {
        bool prev = model.logicalRowFails(
            RowId{row}, failure::ProgramContent(persona, 0), 64.0);
        bool next = model.logicalRowFails(
            RowId{row}, failure::ProgramContent(persona, 1), 64.0);
        flips += prev != next;
    }
    EXPECT_GT(flips, 0u);
}

TEST(SimIntegration, PolicyOrderingInSpeedup)
{
    // Figure 16's ordering at reduced scale: 16 ms baseline <=
    // 32 ms <= RAIDR <= MEMCON <= ideal 64 ms.
    std::vector<trace::CpuPersona> mix{trace::CpuPersona::byName("lbm")};
    auto ipc_at = [&](double reduction) {
        sim::SystemConfig cfg;
        cfg.cores = 1;
        cfg.density = dram::Density::Gb32;
        cfg.refreshReduction = reduction;
        cfg.seed = 7;
        return sim::System(cfg, mix).run(150000).ipc[0];
    };
    double base = ipc_at(0.0);
    double ms32 = ipc_at(core::fixedRefreshPolicy(32.0, 16.0).reduction);
    double raidr =
        ipc_at(core::raidrPolicy(0.16, 16.0, 64.0, 16.0).reduction);
    double memcon = ipc_at(core::memconPolicy(0.70).reduction);
    double ideal = ipc_at(core::fixedRefreshPolicy(64.0, 16.0).reduction);

    EXPECT_LT(base, ms32);
    EXPECT_LE(ms32, raidr * 1.005);
    EXPECT_LE(raidr, memcon * 1.005);
    EXPECT_LE(memcon, ideal * 1.005);
    // MEMCON lands within a few percent of the ideal (Section 6.3).
    EXPECT_GT(memcon / ideal, 0.95);
}

TEST(SimIntegration, MultiCoreSpeedupExceedsSingleCore)
{
    // Figure 15: the 4-core system gains more from refresh reduction
    // than the single-core one (more demand contends with refresh).
    auto speedup = [&](unsigned cores) {
        std::vector<trace::CpuPersona> mix(
            cores, trace::CpuPersona::byName("lbm"));
        sim::SystemConfig base;
        base.cores = cores;
        base.density = dram::Density::Gb32;
        base.seed = 11;
        sim::SystemConfig fast = base;
        fast.refreshReduction = 0.75;
        double b = sim::System(base, mix).run(120000).ipcSum();
        double f = sim::System(fast, mix).run(120000).ipcSum();
        return f / b;
    };
    double s1 = speedup(1);
    double s4 = speedup(4);
    EXPECT_GT(s1, 1.0);
    EXPECT_GT(s4, s1 * 0.98); // allow noise; typically strictly more
}

TEST(SimIntegration, TestTrafficOverheadOrdering)
{
    // Table 3: overhead grows with the concurrent-test count and
    // stays small in absolute terms.
    std::vector<trace::CpuPersona> mix{trace::CpuPersona::byName("soplex")};
    auto ipc_with_tests = [&](unsigned tests) {
        sim::SystemConfig cfg;
        cfg.cores = 1;
        cfg.refreshReduction = 0.75;
        cfg.concurrentTests = tests;
        cfg.seed = 13;
        return sim::System(cfg, mix).run(150000).ipc[0];
    };
    double none = ipc_with_tests(0);
    double some = ipc_with_tests(256);
    double many = ipc_with_tests(1024);
    EXPECT_LE(many, some * 1.005);
    EXPECT_LE(some, none * 1.005);
    EXPECT_LT(none / many - 1.0, 0.10);
}

TEST(FullStack, AnalyzerAndEngineAgreeOnLongIntervalOpportunity)
{
    // Consistency across layers: an app whose intervals hold more
    // long-interval time must also achieve at least as much refresh
    // reduction, comparing two contrasting personas.
    trace::AppPersona heavy = trace::AppPersona::byName("Netflix");
    trace::AppPersona light = trace::AppPersona::byName("BlurMotion");

    double t_heavy =
        trace::analyzeApp(heavy).timeFractionAtLeast(TimeMs{2048.0});
    double t_light =
        trace::analyzeApp(light).timeFractionAtLeast(TimeMs{2048.0});
    ASSERT_GT(t_heavy, t_light);

    MemconEngine engine{MemconConfig{}};
    double r_heavy = engine.runOnApp(heavy).reduction();
    double r_light = engine.runOnApp(light).reduction();
    EXPECT_GT(r_heavy, r_light);
}

} // namespace
} // namespace memcon
