/**
 * @file
 * The determinism contract of the parallel experiment runner, and the
 * thread pool underneath it.
 *
 * The load-bearing property: a sweep campaign reduces to byte-for-byte
 * identical metrics for any thread count, because every task's random
 * stream is a pure function of (campaign seed, task index) and the
 * reduction happens in task-index order. These tests run the same
 * campaign 1-, 2-, and 8-wide and compare canonical digests.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "common/thread_pool.hh"
#include "core/engine.hh"
#include "runner.hh"
#include "trace/app_model.hh"

using namespace memcon;
using namespace memcon::bench;

namespace
{

/** A sweep of real MemconEngine runs, small enough for a unit test. */
SweepRunner
makeEngineSweep(unsigned threads, std::uint64_t campaign_seed)
{
    SweepOptions opts;
    opts.threads = threads;
    opts.campaignSeed = campaign_seed;
    opts.writeJson = false;
    SweepRunner runner("test_engine_sweep", opts);

    trace::AppPersona base = trace::AppPersona::table1Suite()[0];
    base.pages = 1500;
    base.durationSec = 30.0;
    for (double cil : {512.0, 1024.0}) {
        for (int rep = 0; rep < 3; ++rep) {
            runner.add(
                "cil" + std::to_string(static_cast<int>(cil)) + "/rep" +
                    std::to_string(rep),
                [base, cil](const TaskContext &ctx) {
                    trace::AppPersona p = base;
                    p.seed = ctx.seed;
                    core::MemconConfig cfg;
                    cfg.quantumMs = TimeMs{cil};
                    core::MemconEngine engine(cfg);
                    core::MemconResult r = engine.runOnApp(p);
                    return Metrics{
                        {"reduction", r.reduction()},
                        {"coverage", r.loCoverage()},
                        {"tests", static_cast<double>(r.testsRun)},
                    };
                });
        }
    }
    return runner;
}

} // namespace

TEST(ThreadPool, RunsEveryTask)
{
    std::atomic<int> ran{0};
    {
        // The destructor completes every submitted task.
        ThreadPool pool(4);
        for (int i = 0; i < 100; ++i)
            pool.submit([&ran] { ++ran; });
    }
    EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, ResultsReduceInSubmissionOrder)
{
    // Tasks finish in roughly reverse submission order (later tasks
    // sleep less); the caller still reduces in submission order by
    // walking its futures.
    ThreadPool pool(4);
    const int n = 8;
    std::vector<int> results(n, -1);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < n; ++i)
        futures.push_back(pool.submit([i, &results] {
            std::this_thread::sleep_for(
                std::chrono::milliseconds((8 - i) * 3));
            results[i] = i;
        }));
    for (int i = 0; i < n; ++i) {
        futures[i].get();
        EXPECT_EQ(results[i], i);
    }
}

TEST(ThreadPool, PropagatesTaskExceptionsThroughFutures)
{
    ThreadPool pool(2);
    std::future<void> bad =
        pool.submit([] { throw std::runtime_error("task failed"); });
    std::future<void> good = pool.submit([] {});
    EXPECT_THROW(bad.get(), std::runtime_error);
    EXPECT_NO_THROW(good.get());
    // The pool survives a throwing task.
    std::atomic<int> ran{0};
    pool.submit([&ran] { ++ran; }).get();
    EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, SurvivesExceptionStormOnBoundedQueue)
{
    // Regression: a storm of throwing tasks through a tiny bounded
    // queue must neither deadlock the producer (stuck notFull wait)
    // nor poison the workers - later submissions still run, and
    // every failure still surfaces through its own future.
    ThreadPool pool(2, /*queue_capacity=*/2);
    std::vector<std::future<void>> failures;
    for (int i = 0; i < 200; ++i)
        failures.push_back(pool.submit(
            [] { throw std::runtime_error("storm"); }));
    std::atomic<int> ran{0};
    std::vector<std::future<void>> survivors;
    for (int i = 0; i < 50; ++i)
        survivors.push_back(pool.submit([&ran] { ++ran; }));
    for (auto &f : failures)
        EXPECT_THROW(f.get(), std::runtime_error);
    for (auto &f : survivors)
        EXPECT_NO_THROW(f.get());
    EXPECT_EQ(ran.load(), 50);
    // Mixed storms keep the interleaving honest.
    std::atomic<int> mixed{0};
    std::vector<std::future<void>> both;
    for (int i = 0; i < 100; ++i) {
        if (i % 3 == 0)
            both.push_back(pool.submit(
                [] { throw std::runtime_error("again"); }));
        else
            both.push_back(pool.submit([&mixed] { ++mixed; }));
    }
    int threw = 0;
    for (auto &f : both) {
        try {
            f.get();
        } catch (const std::runtime_error &) {
            ++threw;
        }
    }
    EXPECT_EQ(threw, 34);
    EXPECT_EQ(mixed.load(), 66);
}

TEST(ThreadPool, CancelTokenUnwindsAsTaskCancelled)
{
    // TaskCancelled must flow through a future like any exception,
    // and remain catchable as its concrete type (the campaign layer
    // distinguishes "abandoned" from "failed" by it).
    ThreadPool pool(1);
    CancelToken token;
    token.requestCancel();
    std::future<void> f =
        pool.submit([token] { token.throwIfCancelled(); });
    EXPECT_THROW(f.get(), TaskCancelled);
    // An unraised token is inert.
    CancelToken calm;
    EXPECT_NO_THROW(
        pool.submit([calm] { calm.throwIfCancelled(); }).get());
}

TEST(ThreadPool, ShutdownCompletesQueuedWork)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(1, /*queue_capacity=*/64);
        pool.submit([&ran] {
            std::this_thread::sleep_for(std::chrono::milliseconds(30));
            ++ran;
        });
        for (int i = 0; i < 32; ++i)
            pool.submit([&ran] { ++ran; });
        // Destructor must drain the still-queued tasks, not drop them.
    }
    EXPECT_EQ(ran.load(), 33);
}

TEST(ThreadPool, BoundedQueueBlocksProducerWithoutDeadlock)
{
    ThreadPool pool(1, /*queue_capacity=*/2);
    std::atomic<int> ran{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 10; ++i)
        futures.push_back(pool.submit([&ran] {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            ++ran;
        }));
    for (auto &f : futures)
        f.get();
    EXPECT_EQ(ran.load(), 10);
}

TEST(ThreadPool, ZeroThreadsClampsToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.threadCount(), 1u);
    std::atomic<int> ran{0};
    pool.submit([&ran] { ++ran; }).get();
    EXPECT_EQ(ran.load(), 1);
}

TEST(TaskSeed, DerivationIsPinned)
{
    // Golden values: changing the derivation silently re-seeds every
    // campaign, which would invalidate all recorded BENCH_*.json
    // trajectories - so it is pinned here.
    EXPECT_EQ(deriveTaskSeed(42, 0), 0x7408e0ecfc32712cULL);
    EXPECT_EQ(deriveTaskSeed(42, 1), 0xa896a6ec2e9e9232ULL);
    EXPECT_EQ(deriveTaskSeed(7, 3), 0xbd1b9ad5433b45e5ULL);
}

TEST(TaskSeed, DistinctAcrossIndicesAndCampaigns)
{
    std::vector<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 1000; ++i)
        seen.push_back(deriveTaskSeed(42, i));
    for (std::uint64_t c = 1000; c < 1100; ++c)
        seen.push_back(deriveTaskSeed(c, 0));
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST(SweepRunner, TaskSeedsAreCampaignDerived)
{
    SweepOptions opts;
    opts.threads = 2;
    opts.campaignSeed = 99;
    opts.writeJson = false;
    SweepRunner runner("test_seeds", opts);
    for (int i = 0; i < 5; ++i)
        runner.add("p" + std::to_string(i), [](const TaskContext &ctx) {
            return Metrics{
                {"seed", static_cast<double>(ctx.seed >> 16)}};
        });
    runner.run();
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(runner.metric(i, "seed"),
                  static_cast<double>(deriveTaskSeed(99, i) >> 16));
}

TEST(SweepRunner, ReducesInTaskIndexOrderRegardlessOfCompletion)
{
    SweepOptions opts;
    opts.threads = 8;
    opts.writeJson = false;
    SweepRunner runner("test_order", opts);
    const int n = 8;
    for (int i = 0; i < n; ++i)
        runner.add("point" + std::to_string(i),
                   [i, n](const TaskContext &) {
                       std::this_thread::sleep_for(
                           std::chrono::milliseconds((n - i) * 3));
                       return Metrics{{"index", static_cast<double>(i)}};
                   });
    const std::vector<PointResult> &results = runner.run();
    ASSERT_EQ(results.size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        EXPECT_EQ(results[i].label, "point" + std::to_string(i));
        EXPECT_EQ(results[i].metric("index"), static_cast<double>(i));
    }
}

TEST(SweepRunner, PropagatesLowestIndexTaskFailure)
{
    SweepOptions opts;
    opts.threads = 4;
    opts.writeJson = false;
    SweepRunner runner("test_throw", opts);
    runner.add("ok", [](const TaskContext &) { return Metrics{}; });
    runner.add("boom", [](const TaskContext &) -> Metrics {
        throw std::runtime_error("sweep point failed");
    });
    runner.add("ok2", [](const TaskContext &) { return Metrics{}; });
    EXPECT_THROW(runner.run(), std::runtime_error);
}

TEST(SweepRunner, EngineSweepBitIdenticalAcross1_2_8Threads)
{
    SweepRunner t1 = makeEngineSweep(1, 42);
    SweepRunner t2 = makeEngineSweep(2, 42);
    SweepRunner t8 = makeEngineSweep(8, 42);
    std::string d1 = resultsDigest(t1.run());
    std::string d2 = resultsDigest(t2.run());
    std::string d8 = resultsDigest(t8.run());
    EXPECT_FALSE(d1.empty());
    EXPECT_EQ(d1, d2);
    EXPECT_EQ(d1, d8);
}

TEST(SweepRunner, CampaignSeedChangesTheMetrics)
{
    std::string a = resultsDigest(makeEngineSweep(2, 42).run());
    std::string b = resultsDigest(makeEngineSweep(2, 43).run());
    EXPECT_NE(a, b);
}
