/**
 * @file
 * Sharded-vs-flat equivalence suite (DESIGN.md §17): the bank-sharded
 * engine must reproduce the flat engine's metrics and per-page end
 * state exactly when nothing couples the banks (no buffer drops, no
 * budget starvation), must produce bit-identical results for any
 * shardThreads, and must keep per-bank resources sized to the bank -
 * a 1-page bank beside a 2^20-page bank neither over-allocates its
 * tracker nor loses its test budget to the big bank. The campaign
 * digest test extends test_parallel's SweepRunner harness: the same
 * digest for shardThreads 1/2/8 under the 64-bank map.
 */

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "core/engine.hh"
#include "dram/address_map.hh"
#include "runner.hh"
#include "trace/app_model.hh"

namespace memcon::core
{
namespace
{

/**
 * A randomized trace with timestamp collisions across pages and on
 * quantum boundaries - the same stress shape test_engine_equiv uses
 * to pin the flat paths against each other.
 */
std::vector<std::vector<TimeMs>>
collidingTrace(std::uint64_t seed, std::size_t pages, double duration_ms)
{
    Rng rng(seed);
    const double grid = duration_ms / 64.0;
    std::vector<std::vector<TimeMs>> writes(pages);
    for (auto &w : writes) {
        const std::size_t n = rng.uniformInt(6);
        for (std::size_t i = 0; i < n; ++i)
            w.push_back(TimeMs{static_cast<double>(rng.uniformInt(64)) *
                               grid});
        std::sort(w.begin(), w.end());
    }
    return writes;
}

/**
 * Exact equality on every digest-surface metric that is meaningful
 * across shardings. trackerStorageBytes is per-bank hardware and
 * legitimately differs between a flat and an 8-bank run, so it is
 * compared only when `same_sharding`.
 */
void
expectSameMetrics(const MemconResult &a, const MemconResult &b,
                  bool same_sharding)
{
    EXPECT_EQ(a.durationMs, b.durationMs);
    EXPECT_EQ(a.pages, b.pages);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.refreshOpsBaseline, b.refreshOpsBaseline);
    EXPECT_EQ(a.refreshOpsMemcon, b.refreshOpsMemcon);
    EXPECT_EQ(a.testsRun, b.testsRun);
    EXPECT_EQ(a.testsPassed, b.testsPassed);
    EXPECT_EQ(a.testsFailed, b.testsFailed);
    EXPECT_EQ(a.testsSkippedBudget, b.testsSkippedBudget);
    EXPECT_EQ(a.testsCorrect, b.testsCorrect);
    EXPECT_EQ(a.testsMispredicted, b.testsMispredicted);
    EXPECT_EQ(a.hiTimeMs, b.hiTimeMs);
    EXPECT_EQ(a.loTimeMs, b.loTimeMs);
    EXPECT_EQ(a.bufferDrops, b.bufferDrops);
    EXPECT_EQ(a.silentWritesSkipped, b.silentWritesSkipped);
    EXPECT_EQ(a.scrubTests, b.scrubTests);
    EXPECT_EQ(a.scrubDemotions, b.scrubDemotions);
    EXPECT_EQ(a.testTimeNs, b.testTimeNs);
    EXPECT_EQ(a.refreshTimeMemconNs, b.refreshTimeMemconNs);
    EXPECT_EQ(a.refreshTimeBaselineNs, b.refreshTimeBaselineNs);
    EXPECT_EQ(a.acts, b.acts);
    if (same_sharding) {
        EXPECT_EQ(a.trackerStorageBytes, b.trackerStorageBytes);
    }
}

/**
 * The per-shard ACT counters must reduce exactly to the total, and the
 * total must satisfy the analytic identity acts = writes + 2 * (PRIL
 * tests + scrub tests). Per shard only the write/test floor is
 * checkable (scrubTests has no per-shard breakdown); the excess over
 * that floor is exactly the shard's scrub activity, so it must be even.
 */
void
expectActsConsistent(const MemconResult &r)
{
    std::uint64_t total = 0;
    for (const MemconResult::ShardBreakdown &s : r.shards) {
        const std::uint64_t floor = s.writes + 2 * s.testsRun;
        EXPECT_GE(s.acts, floor);
        EXPECT_EQ((s.acts - floor) % 2, 0u)
            << "shard ACT excess is not a whole number of scrub tests";
        total += s.acts;
    }
    EXPECT_EQ(total, r.acts);
    EXPECT_EQ(r.acts, r.writes + 2 * (r.testsRun + r.scrubTests));
}

void
expectSamePageEnd(const MemconResult &a, const MemconResult &b)
{
    ASSERT_EQ(a.pageEnd.size(), b.pageEnd.size());
    for (std::size_t p = 0; p < a.pageEnd.size(); ++p) {
        if (a.pageEnd[p] != b.pageEnd[p]) {
            // One divergence names the page; don't spam hundreds.
            ADD_FAILURE()
                << "page " << p << " end state diverges: writeCount "
                << a.pageEnd[p].writeCount << " vs "
                << b.pageEnd[p].writeCount << ", atLoRef "
                << a.pageEnd[p].atLoRef << " vs " << b.pageEnd[p].atLoRef
                << ", hi " << a.pageEnd[p].hiTimeMs << " vs "
                << b.pageEnd[p].hiTimeMs << ", lo "
                << a.pageEnd[p].loTimeMs << " vs "
                << b.pageEnd[p].loTimeMs;
            return;
        }
    }
}

MemconConfig
equivConfig()
{
    MemconConfig cfg;
    cfg.hiRefMs = 16.0;
    cfg.loRefMs = 64.0;
    cfg.quantumMs = TimeMs{100.0};
    cfg.scrubPeriodMs = 300.0; // exercise the per-shard scrub wheels
    cfg.silentWriteFraction = 0.2;
    cfg.detectSilentWrites = true; // exercise the global-id hash
    cfg.capturePageEndState = true;
    return cfg;
}

} // namespace

TEST(ShardEquiv, EightBankMatchesFlatExactly)
{
    // Per-page trajectories are independent whenever no shared
    // resource binds, so partitioning the pages across banks must
    // change nothing: every metric and every page's closing state is
    // bit-identical to the flat run. The oracle keys on the global
    // page id - a local-id leak through the sharding would flip
    // verdicts and fail loudly here.
    auto oracle = [](std::uint64_t page, std::uint64_t wc) {
        return (page * 31 + wc) % 11 == 0;
    };
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        const auto writes = collidingTrace(seed, 512, 2000.0);

        MemconConfig flat = equivConfig();
        const MemconResult base =
            MemconEngine(flat).run(writes, 2000.0, oracle);
        ASSERT_EQ(base.bufferDrops, 0u);
        ASSERT_EQ(base.testsSkippedBudget, 0u);
        ASSERT_EQ(base.testsDeferredBudget, 0u);
        ASSERT_EQ(base.shards.size(), 1u);

        MemconConfig sharded = equivConfig();
        sharded.addressMap = dram::AddressMap::paperDdr3_8bank();
        for (unsigned threads : {1u, 4u}) {
            sharded.shardThreads = threads;
            const MemconResult r =
                MemconEngine(sharded).run(writes, 2000.0, oracle);
            ASSERT_EQ(r.bufferDrops, 0u);
            ASSERT_EQ(r.shards.size(), 8u);
            expectSameMetrics(base, r, /*same_sharding=*/false);
            expectSamePageEnd(base, r);
            expectActsConsistent(r);
        }
    }
}

TEST(ShardEquiv, ShardThreadCountsAreBitIdentical)
{
    // Same sharding, different worker counts: the shard-order
    // reduction makes scheduling invisible, down to the per-bank
    // tracker bytes and the instrumentation-free digest surface.
    const auto writes = collidingTrace(11, 2048, 3000.0);
    MemconConfig cfg = equivConfig();
    cfg.addressMap = dram::AddressMap::zenDdr4_64bank();

    cfg.shardThreads = 1;
    const MemconResult r1 = MemconEngine(cfg).run(writes, 3000.0);
    cfg.shardThreads = 2;
    const MemconResult r2 = MemconEngine(cfg).run(writes, 3000.0);
    cfg.shardThreads = 8;
    const MemconResult r8 = MemconEngine(cfg).run(writes, 3000.0);

    ASSERT_EQ(r1.shards.size(), 64u);
    expectSameMetrics(r1, r2, /*same_sharding=*/true);
    expectSameMetrics(r1, r8, /*same_sharding=*/true);
    expectSamePageEnd(r1, r2);
    expectSamePageEnd(r1, r8);
    expectActsConsistent(r1);
    expectActsConsistent(r8);
    // Same sharding, different worker counts: the per-shard ACT rows
    // themselves must be bit-identical, not just their sum - this is
    // the counter the TSan job watches for cross-shard races.
    for (std::size_t s = 0; s < r1.shards.size(); ++s)
        EXPECT_EQ(r1.shards[s].acts, r8.shards[s].acts) << "shard " << s;
}

TEST(ShardEquiv, CampaignDigestsBitIdenticalAcross1_2_8ShardThreads)
{
    // test_parallel's SweepRunner harness, extended one level down:
    // each campaign point is itself a sharded 64-bank engine run, and
    // the campaign digest must not see the worker count.
    auto digestWith = [](unsigned shard_threads) {
        bench::SweepOptions opts;
        opts.threads = 2;
        opts.campaignSeed = 42;
        opts.writeJson = false;
        bench::SweepRunner runner("test_shard_sweep", opts);

        trace::AppPersona base = trace::AppPersona::table1Suite()[0];
        base.pages = 1500;
        base.durationSec = 20.0;
        for (double cil : {512.0, 1024.0}) {
            for (int rep = 0; rep < 2; ++rep) {
                runner.add(
                    "cil" + std::to_string(static_cast<int>(cil)) +
                        "/rep" + std::to_string(rep),
                    [base, cil,
                     shard_threads](const bench::TaskContext &ctx) {
                        trace::AppPersona p = base;
                        p.seed = ctx.seed;
                        MemconConfig cfg;
                        cfg.quantumMs = TimeMs{cil};
                        cfg.addressMap =
                            dram::AddressMap::zenDdr4_64bank();
                        cfg.shardThreads = shard_threads;
                        MemconResult r = MemconEngine(cfg).runOnApp(p);
                        return bench::Metrics{
                            {"reduction", r.reduction()},
                            {"coverage", r.loCoverage()},
                            {"tests", static_cast<double>(r.testsRun)},
                        };
                    });
            }
        }
        return bench::resultsDigest(runner.run());
    };

    const std::string d1 = digestWith(1);
    const std::string d2 = digestWith(2);
    const std::string d8 = digestWith(8);
    EXPECT_FALSE(d1.empty());
    EXPECT_EQ(d1, d2);
    EXPECT_EQ(d1, d8);
}

TEST(ShardEquiv, SkewedBankPopulationsKeepResourcesLocal)
{
    // Regression for per-shard scratch sizing: blocked(1, 20) over
    // 2^20 + 1 pages puts a single page in bank 1 next to 2^20 pages
    // in bank 0. The 1-page bank's tracker must size to its one page
    // (bitmaps + buffer bytes, not the global 4000-entry buffer), and
    // its test budget must be its own: bank 0 overflows its quantum
    // budget while bank 1 still tests its lone page.
    const std::uint64_t big = std::uint64_t{1} << 20;
    std::vector<std::vector<TimeMs>> writes(big + 1);
    for (std::uint64_t p = 0; p < 3000; ++p)
        writes[p].push_back(TimeMs{50.0});
    writes[big].push_back(TimeMs{50.0});

    MemconConfig cfg;
    cfg.quantumMs = TimeMs{100.0}; // budget 1600 < 3000 candidates
    cfg.addressMap = dram::AddressMap::blocked(1, 20);
    cfg.shardThreads = 2;
    const MemconResult r = MemconEngine(cfg).run(writes, 400.0);

    ASSERT_EQ(r.shards.size(), 2u);
    EXPECT_EQ(r.shards[0].pages, big);
    EXPECT_EQ(r.shards[1].pages, 1u);

    // Bank 0 has more candidates than one quantum's budget...
    EXPECT_GT(r.testsSkippedBudget, 0u);
    // ...but bank 1 is not starved by it.
    EXPECT_EQ(r.shards[1].testsRun, 1u);

    // The 1-page bank's tracker: two 1-bit write maps plus two
    // 1-entry buffers at 5 modelled bytes - nowhere near the 40 KB a
    // population-blind 4000-entry buffer would claim.
    EXPECT_LE(r.shards[1].trackerStorageBytes, 64u);
    EXPECT_EQ(r.bufferDrops, 0u);
}

TEST(ShardEquiv, EmptyBanksAreHarmless)
{
    // Fewer pages than banks: the empty banks contribute empty
    // breakdown rows and nothing else; the run equals the flat one.
    const auto writes = collidingTrace(5, 5, 1000.0);
    MemconConfig flat = equivConfig();
    flat.scrubPeriodMs = 0.0;
    const MemconResult base = MemconEngine(flat).run(writes, 1000.0);

    MemconConfig sharded = flat;
    sharded.addressMap = dram::AddressMap::paper4ch8bank();
    sharded.shardThreads = 4;
    const MemconResult r = MemconEngine(sharded).run(writes, 1000.0);

    ASSERT_EQ(r.shards.size(), 32u);
    std::uint64_t covered = 0;
    for (const MemconResult::ShardBreakdown &s : r.shards)
        covered += s.pages;
    EXPECT_EQ(covered, 5u);
    expectSameMetrics(base, r, /*same_sharding=*/false);
    expectSamePageEnd(base, r);
}

TEST(ShardEquiv, ObserversRejectShardedRuns)
{
    MemconConfig cfg;
    cfg.addressMap = dram::AddressMap::paperDdr3_8bank();
    MemconEngine eng(cfg);
    std::vector<std::vector<TimeMs>> writes(16);
    auto observer = [](std::uint64_t, double, bool, std::uint64_t) {};
    EXPECT_DEATH(eng.run(writes, 1000.0, {}, observer),
                 "identity address map");
}

} // namespace memcon::core
