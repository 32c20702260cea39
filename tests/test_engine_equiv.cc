/**
 * @file
 * Bit-identity proofs for the engine hot path (DESIGN.md §11): the
 * k-way merge + deadline-wheel + SoA engine must reproduce the seed
 * materialize-then-sort engine (oracles::runReference, in
 * tests/oracles) field-for-field on every metric and emit the
 * same transition sequence, on traces engineered to stress the
 * tie-break (duplicate timestamps within and across pages, writes on
 * quantum boundaries, budget-starved scrub backlogs). Plus property
 * tests for the two data structures against naive references, and
 * regression tests for the test-budget rounding fix.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/deadline_wheel.hh"
#include "common/kway_merge.hh"
#include "common/random.hh"
#include "core/engine.hh"
#include "oracles/reference_engine.hh"
#include "trace/app_model.hh"

namespace memcon::core
{
namespace
{

/**
 * A randomized trace with deliberate timestamp collisions: times are
 * drawn from a coarse grid, so duplicates occur within a page,
 * across pages, and exactly on quantum boundaries - the cases where
 * only the (time, page, in-page-index) tie-break keeps the event
 * order (and therefore the float accumulation order) well-defined.
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

/** Exact (not approximate) comparison of every metric the digest
 *  surface contains; the hot-path instrumentation counters are
 *  outside the contract and deliberately not compared. */
void
expectSameResult(const MemconResult &a, const MemconResult &b)
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
    EXPECT_EQ(a.trackerStorageBytes, b.trackerStorageBytes);
    EXPECT_EQ(a.silentWritesSkipped, b.silentWritesSkipped);
    EXPECT_EQ(a.scrubTests, b.scrubTests);
    EXPECT_EQ(a.scrubDemotions, b.scrubDemotions);
    EXPECT_EQ(a.acts, b.acts);
    EXPECT_EQ(a.testTimeNs, b.testTimeNs);
    EXPECT_EQ(a.refreshTimeMemconNs, b.refreshTimeMemconNs);
    EXPECT_EQ(a.refreshTimeBaselineNs, b.refreshTimeBaselineNs);
}

struct Transition
{
    std::uint64_t page;
    double time;
    bool toLo;
    std::uint64_t writeCount;

    bool operator==(const Transition &o) const
    {
        return page == o.page && time == o.time && toLo == o.toLo &&
               writeCount == o.writeCount;
    }
};

/** Run one config on the engine and the reference oracle and demand
 *  identical metrics and an identical transition sequence. */
void
expectPathsAgree(const MemconConfig &cfg,
                 const std::vector<std::vector<TimeMs>> &writes,
                 double duration_ms,
                 const MemconEngine::FailureOracle &oracle,
                 const MemconEngine::TimedFailureOracle &timed = {})
{
    std::vector<Transition> log_ref;
    std::vector<Transition> log_stream;
    auto observe = [](std::vector<Transition> &log) {
        return [&log](std::uint64_t page, double t, bool to_lo,
                      std::uint64_t wc) {
            log.push_back({page, t, to_lo, wc});
        };
    };

    MemconResult ref = oracles::runReference(
        cfg, writes, duration_ms, oracle, observe(log_ref), timed);
    MemconResult stream = MemconEngine(cfg).run(
        writes, duration_ms, oracle, observe(log_stream), timed);

    expectSameResult(ref, stream);
    ASSERT_EQ(log_ref.size(), log_stream.size());
    for (std::size_t i = 0; i < log_ref.size(); ++i)
        EXPECT_TRUE(log_ref[i] == log_stream[i])
            << "transition " << i << " diverges (page " << log_ref[i].page
            << " vs " << log_stream[i].page << ")";
}

MemconEngine::FailureOracle
hashOracle()
{
    return [](std::uint64_t page, std::uint64_t wc) {
        return hashMix64(page * 131 + wc * 7) % 5 == 0;
    };
}

class EngineEquiv : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(EngineEquiv, StreamingMatchesReference)
{
    const auto writes = collidingTrace(GetParam(), 48, 2000.0);

    MemconConfig base;
    base.quantumMs = TimeMs{100.0};
    base.writeBufferCapacity = 1000;
    base.testSlotsPer64ms = 1024;
    expectPathsAgree(base, writes, 2000.0, hashOracle());

    // Scrub with ample budget: the wheel replaces a full page scan.
    MemconConfig scrub = base;
    scrub.scrubPeriodMs = 300.0;
    expectPathsAgree(scrub, writes, 2000.0, hashOracle());

    // Budget-starved scrub: three tests per quantum against a
    // standing backlog, so the wheel's re-push-at-now+1 tail churn
    // and the reference engine's scan must starve identically.
    MemconConfig scarce = base;
    scarce.quantumMs = TimeMs{96.0};
    scarce.testSlotsPer64ms = 2; // llround(2 * 96 / 64) = 3
    scarce.scrubPeriodMs = 200.0;
    expectPathsAgree(scarce, writes, 2000.0, hashOracle());

    // Silent-write detection consumes one hash draw per write; the
    // draw sequence is keyed on (page, write count), not event
    // order, so both engines must skip the same writes.
    MemconConfig silent = base;
    silent.silentWriteFraction = 0.4;
    silent.detectSilentWrites = true;
    expectPathsAgree(silent, writes, 2000.0, hashOracle());

    // Tiny write buffer: PRIL drops must happen in the same order.
    MemconConfig drops = base;
    drops.writeBufferCapacity = 8;
    expectPathsAgree(drops, writes, 2000.0, hashOracle());
}

TEST_P(EngineEquiv, TimedOracleScrubMatches)
{
    const auto writes = collidingTrace(GetParam() + 100, 40, 2000.0);
    MemconConfig cfg;
    cfg.quantumMs = TimeMs{100.0};
    cfg.writeBufferCapacity = 1000;
    cfg.testSlotsPer64ms = 1024;
    cfg.scrubPeriodMs = 250.0;
    // VRT-style drift: whether a row fails depends on when it is
    // tested, so any divergence in *test times* (not just counts)
    // between the engines cascades into different demotions.
    auto timed = [](std::uint64_t page, std::uint64_t wc, double t) {
        return hashMix64(page * 977 + wc * 13 +
                         static_cast<std::uint64_t>(t / 400.0)) %
                   7 ==
               0;
    };
    expectPathsAgree(cfg, writes, 2000.0, {}, timed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineEquiv,
                         ::testing::Values(11, 12, 13, 14));

/** Parametrized by index into AppPersona::table1Suite(). */
class EngineEquivApp : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(EngineEquivApp, RunOnAppStreamingMatchesReference)
{
    // runOnApp generates each page's writes lazily through
    // trace::PageWriteStream; the oracle materializes
    // PageWriteProcess::writeTimes(). Same persona, same metrics.
    trace::AppPersona persona = trace::AppPersona::table1Suite()[GetParam()];
    SCOPED_TRACE(persona.name);
    persona.pages = 400;
    persona.durationSec = 120.0;

    MemconConfig cfg;
    cfg.scrubPeriodMs = 4096.0;
    MemconResult ref =
        oracles::runReferenceOnApp(cfg, persona, hashOracle());
    MemconResult stream =
        MemconEngine(cfg).runOnApp(persona, hashOracle());
    expectSameResult(ref, stream);
    EXPECT_GT(stream.writes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Table1, EngineEquivApp,
    ::testing::Range<std::size_t>(0,
                                  trace::AppPersona::table1Suite().size()));

// --------------------------------------------------------------------
// Test-budget rounding (regression: the budget used to be silently
// truncated toward zero, so e.g. 1.5 tests/quantum became 1).
// --------------------------------------------------------------------

TEST(EngineBudget, RoundsToNearestInsteadOfTruncating)
{
    MemconConfig cfg;
    cfg.quantumMs = TimeMs{96.0};
    cfg.testSlotsPer64ms = 1; // 1 * 96 / 64 = 1.5 -> budget 2, not 1
    // Two pages idle after a single write each become PRIL
    // candidates in the same quantum; under the truncated budget one
    // of them was skipped.
    std::vector<std::vector<TimeMs>> writes{{TimeMs{10.0}},
                                            {TimeMs{10.0}}};
    MemconResult r = MemconEngine(cfg).run(writes, 960.0);
    EXPECT_EQ(r.testsSkippedBudget, 0u);
    EXPECT_GE(r.testsRun, 2u);
}

TEST(EngineBudget, ZeroBudgetIsFatal)
{
    MemconConfig cfg;
    cfg.quantumMs = TimeMs{16.0};
    cfg.testSlotsPer64ms = 1; // llround(1 * 16 / 64) == 0
    EXPECT_EXIT(MemconEngine eng(cfg), ::testing::ExitedWithCode(1),
                "rounds to zero");
}

// --------------------------------------------------------------------
// Input validation: unsorted per-page vectors would silently change
// the merge tie-break, so they must die loudly.
// --------------------------------------------------------------------

TEST(EngineValidation, UnsortedWriteVectorPanics)
{
    MemconConfig cfg;
    MemconEngine eng(cfg);
    std::vector<std::vector<TimeMs>> bad{{TimeMs{60.0}, TimeMs{40.0}}};
    EXPECT_DEATH(eng.run(bad, 1000.0), "unsorted per-page");
}

TEST(EngineValidation, NegativeWriteTimePanics)
{
    MemconConfig cfg;
    MemconEngine eng(cfg);
    std::vector<std::vector<TimeMs>> bad{{TimeMs{-1.0}}};
    EXPECT_DEATH(eng.run(bad, 1000.0), "negative write time");
}

// --------------------------------------------------------------------
// KWayMerge against the order the seed engine materialized: events
// appended source-major, then std::stable_sort by time only.
// --------------------------------------------------------------------

struct VecStream
{
    std::vector<double> times;
    std::size_t i = 0;

    bool next(double &out)
    {
        if (i >= times.size())
            return false;
        out = times[i++];
        return true;
    }
};

TEST(KWayMergeTest, ReproducesStableSortOrder)
{
    for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        Rng rng(seed);
        const std::size_t sources = 1 + rng.uniformInt(60);
        const double horizon = 900.0;
        std::vector<VecStream> streams(sources);
        struct Ev
        {
            double time;
            std::uint32_t source;
        };
        std::vector<Ev> expected;
        for (std::uint32_t s = 0; s < sources; ++s) {
            const std::size_t n = rng.uniformInt(8);
            auto &t = streams[s].times;
            for (std::size_t i = 0; i < n; ++i)
                t.push_back(static_cast<double>(rng.uniformInt(40)) *
                            25.0); // grid: heavy cross-source ties
            std::sort(t.begin(), t.end());
            for (double v : t)
                if (v < horizon)
                    expected.push_back({v, s});
        }
        // Source-major append + stable sort by time = the seed order.
        std::stable_sort(expected.begin(), expected.end(),
                         [](const Ev &a, const Ev &b) {
                             return a.time < b.time;
                         });

        // A window that does not divide the grid stresses the float
        // bucketing correction.
        KWayMerge<VecStream> merge(std::move(streams), horizon, 93.0, 93.0);
        std::vector<Ev> got;
        while (!merge.empty()) {
            auto item = merge.pop();
            got.push_back({item.time, item.source});
        }
        ASSERT_EQ(got.size(), expected.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].time, expected[i].time) << "at " << i;
            EXPECT_EQ(got[i].source, expected[i].source) << "at " << i;
        }
    }
}

/** A merge's output and the window sizes it staged with. */
struct MergeRun
{
    std::vector<std::pair<double, std::uint32_t>> order;
    double minWindowSeen = 0.0;
    double maxWindowSeen = 0.0;
    double finalWindow = 0.0;
    std::size_t peakLiveSources = 0;
};

MergeRun
runMerge(std::vector<VecStream> streams, double horizon, double min_window,
         double max_window)
{
    KWayMerge<VecStream> merge(std::move(streams), horizon, min_window,
                               max_window);
    MergeRun run;
    run.minWindowSeen = run.maxWindowSeen = merge.windowMs();
    while (!merge.empty()) {
        const auto item = merge.pop();
        run.order.emplace_back(item.time, item.source);
        run.minWindowSeen = std::min(run.minWindowSeen, merge.windowMs());
        run.maxWindowSeen = std::max(run.maxWindowSeen, merge.windowMs());
    }
    run.finalWindow = merge.windowMs();
    run.peakLiveSources = merge.peakLiveSources();
    return run;
}

/** The seed order: source-major append, stable sort by time. */
std::vector<std::pair<double, std::uint32_t>>
stableSortReference(const std::vector<VecStream> &streams, double horizon)
{
    std::vector<std::pair<double, std::uint32_t>> ref;
    for (std::uint32_t s = 0; s < streams.size(); ++s)
        for (double t : streams[s].times)
            if (t < horizon)
                ref.emplace_back(t, s);
    std::stable_sort(ref.begin(), ref.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    return ref;
}

/**
 * Per-source write bursts: each burst starts on a 0.25 ms grid, so
 * sources tie exactly, and its writes follow 1 us apart, so a bucket
 * of a batch holds many sources' bursts at once.
 */
void
addBursts(Rng &rng, VecStream &stream, double from, double to,
          std::size_t bursts, std::size_t burst_len)
{
    const auto slots = static_cast<std::uint64_t>((to - from) / 0.25);
    for (std::size_t b = 0; b < bursts; ++b) {
        const double start =
            from + 0.25 * static_cast<double>(rng.uniformInt(slots));
        const std::size_t len = 1 + rng.uniformInt(burst_len);
        for (std::size_t i = 0; i < len; ++i)
            stream.times.push_back(start + 0.001 * static_cast<double>(i));
    }
    std::sort(stream.times.begin(), stream.times.end());
}

TEST(KWayMergeTest, ThousandsOfBurstySourcesMatchStableSort)
{
    // Batches of thousands of events with exact cross-source ties:
    // the bucket pass, crowded buckets and window steering all run.
    for (std::uint64_t seed : {11u, 12u, 13u}) {
        Rng rng(seed);
        std::vector<VecStream> streams(3000);
        for (VecStream &s : streams)
            addBursts(rng, s, 0.0, 400.0, 1 + rng.uniformInt(6), 12);
        const double horizon = 390.0; // cuts some bursts short
        const auto ref = stableSortReference(streams, horizon);
        const MergeRun run = runMerge(streams, horizon, 0.5, 64.0);
        ASSERT_EQ(run.order.size(), ref.size()) << "seed " << seed;
        EXPECT_GT(ref.size(), 20000u);
        // Each live source counts once, however the window stages it.
        EXPECT_LE(run.peakLiveSources, streams.size()) << "seed " << seed;
        for (std::size_t i = 0; i < ref.size(); ++i)
            ASSERT_EQ(run.order[i], ref[i])
                << "seed " << seed << " event " << i;
    }
}

TEST(KWayMergeTest, WindowShrinksToFloorAndGrowsBackToCap)
{
    // A dense head (about 16k events per ms) stages far more than the
    // target at the first window, so the window halves to its floor;
    // the sparse tail then doubles it back to its cap.
    Rng rng(21);
    std::vector<VecStream> streams(4000);
    for (VecStream &s : streams) {
        addBursts(rng, s, 0.0, 16.0, 8, 16);
        for (double t = 16.0 + rng.uniform(0.0, 400.0); t < 3000.0;
             t += rng.uniform(100.0, 400.0))
            s.times.push_back(t);
    }
    const double horizon = 3000.0;
    const auto ref = stableSortReference(streams, horizon);
    const MergeRun run = runMerge(streams, horizon, 1.0, 64.0);
    ASSERT_EQ(run.order.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(run.order[i], ref[i]) << "event " << i;
    EXPECT_EQ(run.minWindowSeen, 1.0);
    EXPECT_EQ(run.maxWindowSeen, 64.0);
    EXPECT_EQ(run.finalWindow, 64.0);
}

TEST(KWayMergeTest, EqualBoundsKeepOneFixedWindow)
{
    // min == max: the dense head that resizes an adaptive merge must
    // leave a fixed window alone, and the order is the same.
    Rng rng(31);
    std::vector<VecStream> streams(2000);
    for (VecStream &s : streams) {
        addBursts(rng, s, 0.0, 16.0, 8, 16);
        addBursts(rng, s, 16.0, 500.0, 2, 4);
    }
    const double horizon = 500.0;
    const auto ref = stableSortReference(streams, horizon);
    const MergeRun fixed = runMerge(streams, horizon, 7.0, 7.0);
    EXPECT_EQ(fixed.minWindowSeen, 7.0);
    EXPECT_EQ(fixed.maxWindowSeen, 7.0);
    ASSERT_EQ(fixed.order, ref);
    EXPECT_EQ(runMerge(streams, horizon, 0.25, 7.0).order, ref);
}

TEST(KWayMergeTest, UnsortedStreamPanics)
{
    std::vector<VecStream> streams(1);
    streams[0].times = {50.0, 20.0};
    KWayMerge<VecStream> merge(std::move(streams), 1000.0, 100.0, 100.0);
    EXPECT_DEATH(while (!merge.empty()) merge.pop(),
                 "unsorted write stream");
}

// --------------------------------------------------------------------
// DeadlineWheel against a naive reference: a flat list re-scanned on
// every pop, the exact pattern the wheel exists to replace.
// --------------------------------------------------------------------

TEST(DeadlineWheelTest, MatchesNaiveScanReference)
{
    Rng rng(99);
    DeadlineWheel<int> wheel;
    struct Pending
    {
        std::int64_t epoch;
        int value;
    };
    std::vector<Pending> model; // push order
    std::int64_t now = 0;
    int next_value = 0;

    for (int step = 0; step < 400; ++step) {
        const std::size_t pushes = rng.uniformInt(4);
        for (std::size_t i = 0; i < pushes; ++i) {
            // The previous popDue left the cursor at now + 1, so
            // that is the earliest legal epoch.
            const std::int64_t epoch =
                now + 1 + static_cast<std::int64_t>(rng.uniformInt(11));
            wheel.push(epoch, next_value);
            model.push_back({epoch, next_value});
            ++next_value;
        }
        ASSERT_EQ(wheel.size(), model.size());
        if (!model.empty()) {
            std::int64_t naive_min = model.front().epoch;
            for (const Pending &p : model)
                naive_min = std::min(naive_min, p.epoch);
            EXPECT_EQ(wheel.nextEpoch(), naive_min);
        }

        now += static_cast<std::int64_t>(rng.uniformInt(6));
        std::vector<int> got;
        wheel.popDue(now, got);
        // Naive reference: stable-sort the pending list by epoch
        // (stable = FIFO within a bucket) and take everything due.
        std::vector<Pending> sorted = model;
        std::stable_sort(sorted.begin(), sorted.end(),
                         [](const Pending &a, const Pending &b) {
                             return a.epoch < b.epoch;
                         });
        std::vector<int> want;
        for (const Pending &p : sorted)
            if (p.epoch <= now)
                want.push_back(p.value);
        ASSERT_EQ(got, want);
        std::erase_if(model, [now](const Pending &p) {
            return p.epoch <= now;
        });
    }
}

TEST(DeadlineWheelTest, PushIntoThePastPanics)
{
    DeadlineWheel<int> wheel;
    wheel.push(5, 1);
    std::vector<int> out;
    wheel.popDue(5, out); // cursor is now 6
    ASSERT_EQ(out.size(), 1u);
    EXPECT_DEATH(wheel.push(3, 2), "into the past");
    EXPECT_DEATH(wheel.push(-1, 2), "negative wheel epoch");
}

TEST(DeadlineWheelTest, BucketCountTracksDistinctEpochs)
{
    DeadlineWheel<int> wheel;
    wheel.push(2, 1);
    wheel.push(2, 2);
    wheel.push(7, 3);
    EXPECT_EQ(wheel.bucketCount(), 2u);
    EXPECT_EQ(wheel.nextEpoch(), 2);
    std::vector<int> out;
    wheel.popDue(4, out);
    EXPECT_EQ(out, (std::vector<int>{1, 2}));
    EXPECT_EQ(wheel.bucketCount(), 1u);
    EXPECT_EQ(wheel.nextEpoch(), 7);
}

} // namespace
} // namespace memcon::core
