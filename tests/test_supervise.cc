/**
 * @file
 * Tests for the crash-safe campaign supervisor (DESIGN.md §15):
 * CRC32/atomic-write primitives, checkpoint round-trips, fuzzed
 * truncation of artifacts (checkpoint damage is the SealedFile suite
 * in test_robustness.cc), checkpointed resume
 * (in-process and across a SIGKILL via the campaign_testbed
 * subprocess), graceful SIGTERM shutdown, and the hung-task watchdog.
 *
 * The suite names deliberately carry the "SweepRunner" prefix so the
 * tsan ctest preset (filter "ThreadPool|SweepRunner") runs all of
 * this under ThreadSanitizer as well.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>

#include <gtest/gtest.h>

#include "runner.hh"

#include "common/checkpoint.hh"
#include "common/logging.hh"
#include "common/supervisor.hh"
#include "common/thread_pool.hh"

using namespace memcon;
using namespace memcon::bench;

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

void
spew(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
}

/** Unique scratch path per test so parallel ctest runs don't race. */
std::string
scratch(const std::string &stem)
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return std::string("supervise_") + info->test_suite_name() + "_" +
           info->name() + "_" + stem;
}

struct RunResult
{
    int status = -1; //!< raw wait status from std::system()
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

/** Run the campaign testbed binary with the given arguments. */
RunResult
runTestbed(const std::string &args)
{
    static int invocation = 0;
    std::string tag = scratch(strprintf("io%d", invocation++));
    std::string out_path = tag + ".out", err_path = tag + ".err";
    std::string cmd = std::string(MEMCON_TESTBED) + " " + args + " > " +
                      out_path + " 2> " + err_path;
    RunResult r;
    r.status = std::system(cmd.c_str());
    r.out = slurp(out_path);
    r.err = slurp(err_path);
    std::remove(out_path.c_str());
    std::remove(err_path.c_str());
    return r;
}

/** Extract the "DIGEST <8 hex> resumed=<n>" line the testbed prints. */
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

ckpt::CampaignFingerprint
testFingerprint()
{
    ckpt::CampaignFingerprint fp;
    fp.artifact = "unit_test";
    fp.campaignSeed = 7;
    fp.pointCount = 3;
    fp.quick = true;
    fp.labelsCrc = 0x12345678u;
    return fp;
}

/** A small runner campaign whose tasks count their executions. */
SweepRunner
makeCountingCampaign(SweepOptions opts, std::atomic<int> *executions)
{
    opts.writeJson = false;
    SweepRunner runner("supervise_unit", std::move(opts));
    for (std::size_t p = 0; p < 8; ++p) {
        runner.add(strprintf("point%zu", p),
                   [executions](const TaskContext &ctx) -> Metrics {
            if (executions)
                executions->fetch_add(1);
            double v = static_cast<double>(ctx.seed % 1000003) / 7.0;
            return {{"value", v}, {"third", v / 3.0}};
        });
    }
    return runner;
}

} // namespace

// ---------------------------------------------------------------------
// Primitives: CRC32 and the atomic write helper.
// ---------------------------------------------------------------------

TEST(SweepRunnerCheckpoint, Crc32MatchesKnownVectors)
{
    // The standard check value for the reflected 0xEDB88320 CRC-32.
    EXPECT_EQ(ckpt::crc32(std::string("123456789")), 0xCBF43926u);
    EXPECT_EQ(ckpt::crc32(std::string("")), 0x00000000u);
    // Incremental == one-shot.
    std::string s = "The quick brown fox jumps over the lazy dog";
    std::uint32_t once = ckpt::crc32(s);
    std::uint32_t split =
        ckpt::crc32(s.data() + 10, s.size() - 10,
                    ckpt::crc32(s.data(), 10, 0));
    EXPECT_EQ(once, split);
}

TEST(SweepRunnerCheckpoint, WordCrcIsOneCrcOverLittleEndianWords)
{
    // Across several buffer flushes, and for the empty sequence.
    std::string bytes;
    ckpt::WordCrc words;
    EXPECT_EQ(words.value(), ckpt::crc32(bytes));
    for (std::uint64_t i = 0; i < 300; ++i) {
        const std::uint64_t v = i * 0x9E3779B97F4A7C15ull;
        words.add(v);
        for (int b = 0; b < 8; ++b)
            bytes.push_back(static_cast<char>(v >> (8 * b)));
        if (i % 97 == 0) {
            EXPECT_EQ(words.value(), ckpt::crc32(bytes)) << i;
        }
    }
    EXPECT_EQ(words.value(), ckpt::crc32(bytes));
}

TEST(SweepRunnerCheckpoint, AtomicWriteCreatesAndReplaces)
{
    std::string path = scratch("file.txt");
    ASSERT_TRUE(ckpt::atomicWriteFile(path, "first\n"));
    EXPECT_EQ(slurp(path), "first\n");
    ASSERT_TRUE(ckpt::atomicWriteFile(path, "second\n"));
    EXPECT_EQ(slurp(path), "second\n");
    std::remove(path.c_str());
}

TEST(SweepRunnerCheckpoint, AtomicWriteReportsFailure)
{
    std::string error;
    EXPECT_FALSE(ckpt::atomicWriteFile(
        "no_such_directory_xyz/file.txt", "content", &error));
    EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------
// Checkpoint format: round trip, strict rejection of damage.
// ---------------------------------------------------------------------

TEST(SweepRunnerCheckpoint, RoundTripsRecordsAndFingerprint)
{
    std::string path = scratch("ck.txt");
    ckpt::CampaignFingerprint fp = testFingerprint();
    {
        ckpt::CheckpointWriter writer(path, fp);
        writer.append({0, "alpha=1;beta=0.5;"});
        writer.append({2, "alpha=2.25;"});
        EXPECT_EQ(writer.recordCount(), 2u);
    }
    ckpt::LoadedCheckpoint loaded;
    std::string reason;
    ASSERT_TRUE(ckpt::loadCheckpoint(path, &loaded, &reason)) << reason;
    EXPECT_TRUE(loaded.fingerprint.matches(fp));
    ASSERT_EQ(loaded.records.size(), 2u);
    EXPECT_EQ(loaded.records[0].index, 0u);
    EXPECT_EQ(loaded.records[0].metrics, "alpha=1;beta=0.5;");
    EXPECT_EQ(loaded.records[1].index, 2u);
    EXPECT_EQ(loaded.records[1].metrics, "alpha=2.25;");
    std::remove(path.c_str());
}

TEST(SweepRunnerCheckpoint, ArtifactTruncationAtEveryByteIsRejected)
{
    // Build a representative artifact body + footer and fuzz every
    // prefix: only the complete file may validate.
    std::string body = "{\n  \"artifact\": \"t\",\n  \"points\": [\n"
                       "    {\"label\": \"a\", \"metrics\": {\"m\": 1}}\n"
                       "  ],\n";
    std::string full = body + ckpt::artifactFooter(body);
    ASSERT_TRUE(ckpt::validateArtifactJson(full, nullptr));
    for (std::size_t len = 0; len < full.size(); ++len) {
        std::string reason;
        EXPECT_FALSE(
            ckpt::validateArtifactJson(full.substr(0, len), &reason))
            << "truncation to " << len << " of " << full.size()
            << " bytes was accepted";
    }
    // A corrupted interior byte must break it too.
    std::string damaged = full;
    damaged[2] = 'X';
    EXPECT_FALSE(ckpt::validateArtifactJson(damaged, nullptr));
}

TEST(SweepRunnerCheckpoint, MetricsLineRoundTripsExactly)
{
    Metrics metrics = {{"sum", 1.0 / 3.0},
                       {"tiny", 4.9406564584124654e-324},
                       {"neg", -12345.678901234567},
                       {"zero", 0.0},
                       {"big", 1.7976931348623157e308}};
    Metrics back = parseMetricsLine(metricsLine(metrics));
    ASSERT_EQ(back.size(), metrics.size());
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        EXPECT_EQ(back[i].name, metrics[i].name);
        // Bit-exact, not approximately equal: %.17g round-trips.
        EXPECT_EQ(back[i].value, metrics[i].value);
    }
}

// ---------------------------------------------------------------------
// In-process resume on a real SweepRunner campaign.
// ---------------------------------------------------------------------

TEST(SweepRunnerResume, ResumeExecutesOnlyMissingTasks)
{
    std::string ck_full = scratch("full.ck");
    std::string ck_part = scratch("part.ck");

    // Uninterrupted reference campaign, checkpointing as it goes.
    std::atomic<int> executions{0};
    SweepOptions opts;
    opts.threads = 2;
    opts.checkpointPath = ck_full;
    SweepRunner ref = makeCountingCampaign(opts, &executions);
    std::string ref_digest = resultsDigest(ref.run());
    EXPECT_EQ(executions.load(), 8);
    EXPECT_EQ(ref.tasksResumed(), 0u);

    // Forge the "crashed" checkpoint: the same campaign with only the
    // first 3 records survived.
    ckpt::LoadedCheckpoint full;
    std::string reason;
    ASSERT_TRUE(ckpt::loadCheckpoint(ck_full, &full, &reason)) << reason;
    ASSERT_GE(full.records.size(), 3u);
    full.records.resize(3);
    ckpt::CheckpointWriter(ck_part, full.fingerprint, full.records);

    // Resume: exactly the 5 missing tasks execute, digest identical.
    std::atomic<int> resumed_execs{0};
    SweepOptions ropts;
    ropts.threads = 2;
    ropts.resumePath = ck_part;
    SweepRunner res = makeCountingCampaign(ropts, &resumed_execs);
    std::string res_digest = resultsDigest(res.run());
    EXPECT_EQ(resumed_execs.load(), 5);
    EXPECT_EQ(res.tasksResumed(), 3u);
    EXPECT_EQ(res_digest, ref_digest);

    // The resumed-into checkpoint is complete: resuming again runs 0
    // tasks and still reproduces the digest.
    std::atomic<int> third_execs{0};
    SweepOptions topts;
    topts.threads = 1;
    topts.resumePath = ck_part;
    SweepRunner third = makeCountingCampaign(topts, &third_execs);
    EXPECT_EQ(resultsDigest(third.run()), ref_digest);
    EXPECT_EQ(third_execs.load(), 0);
    EXPECT_EQ(third.tasksResumed(), 8u);

    std::remove(ck_full.c_str());
    std::remove(ck_part.c_str());
}

TEST(SweepRunnerResume, FingerprintMismatchIsFatal)
{
    std::string ck = scratch("wrongseed.ck");
    {
        std::atomic<int> execs{0};
        SweepOptions opts;
        opts.threads = 1;
        opts.campaignSeed = 1;
        opts.checkpointPath = ck;
        SweepRunner runner = makeCountingCampaign(opts, &execs);
        runner.run();
    }
    // Same points, different campaign seed: resuming must refuse.
    SweepOptions opts;
    opts.threads = 1;
    opts.campaignSeed = 2;
    opts.resumePath = ck;
    EXPECT_EXIT(
        {
            SweepRunner runner = makeCountingCampaign(opts, nullptr);
            runner.run();
        },
        ::testing::ExitedWithCode(1), "different campaign");
    std::remove(ck.c_str());
}

TEST(SweepRunnerResume, CorruptCheckpointIsFatal)
{
    std::string ck = scratch("corrupt.ck");
    spew(ck, "MEMCON-CKPT v2 but this is not sealed\n");
    SweepOptions opts;
    opts.threads = 1;
    opts.resumePath = ck;
    EXPECT_EXIT(
        {
            SweepRunner runner = makeCountingCampaign(opts, nullptr);
            runner.run();
        },
        ::testing::ExitedWithCode(1), "cannot resume");
    std::remove(ck.c_str());
}

// ---------------------------------------------------------------------
// Supervisor unit behavior (in-process).
// ---------------------------------------------------------------------

TEST(SweepRunnerWatchdog, CancelsOverdueTaskAndReportsPosition)
{
    SupervisorConfig cfg;
    cfg.floorTimeoutMs = 20.0;
    cfg.pollIntervalMs = 2.0;
    Supervisor sup(cfg, 4);

    CancelToken token;
    sup.beginTask(2, "slowpoke", 0, token);
    // The monitor must raise the token shortly after the 20 ms
    // deadline; allow generous slack for sanitizer builds.
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(10);
    while (!token.cancelRequested() &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_TRUE(token.cancelRequested());
    EXPECT_GE(sup.timeoutsObserved(), 1u);
    EXPECT_FALSE(sup.campaignFailed());
    sup.endTask(2, false, 0.0);
}

TEST(SweepRunnerWatchdog, DeadlineAdaptsToMedianCompletedTask)
{
    SupervisorConfig cfg;
    cfg.floorTimeoutMs = 10.0;
    cfg.medianMultiplier = 8.0;
    Supervisor sup(cfg, 8);
    EXPECT_DOUBLE_EQ(sup.currentDeadlineMs(), 10.0);

    // Median of {4} is 4; 8 x 4 = 32 > floor.
    sup.beginTask(0, "a", 0, CancelToken{});
    sup.endTask(0, true, 4.0);
    EXPECT_DOUBLE_EQ(sup.currentDeadlineMs(), 32.0);

    // Median of {1, 4} (upper) is 4; unchanged. Of {1, 1, 4} it's 1,
    // which would be 8 - below the floor, so the floor holds.
    sup.beginTask(1, "b", 0, CancelToken{});
    sup.endTask(1, true, 1.0);
    EXPECT_DOUBLE_EQ(sup.currentDeadlineMs(), 32.0);
    sup.beginTask(2, "c", 0, CancelToken{});
    sup.endTask(2, true, 1.0);
    EXPECT_DOUBLE_EQ(sup.currentDeadlineMs(), 10.0);
}

TEST(SweepRunnerWatchdog, ExhaustionFailsTheCampaign)
{
    SupervisorConfig cfg;
    cfg.floorTimeoutMs = 10.0;
    cfg.maxAttempts = 3;
    Supervisor sup(cfg, 16);
    EXPECT_FALSE(sup.campaignFailed());
    sup.reportExhausted(7, "stuck_point");
    EXPECT_TRUE(sup.campaignFailed());
    EXPECT_NE(sup.failureReason().find("task 7"), std::string::npos);
    EXPECT_NE(sup.failureReason().find("3 attempts"), std::string::npos);
}

TEST(SweepRunnerWatchdog, TokenThrowIsTaskCancelled)
{
    CancelToken token;
    EXPECT_NO_THROW(token.throwIfCancelled());
    token.requestCancel();
    EXPECT_THROW(token.throwIfCancelled(), TaskCancelled);
}

// ---------------------------------------------------------------------
// Subprocess: watchdog policy end to end via the campaign testbed.
// ---------------------------------------------------------------------

TEST(SweepRunnerWatchdog, ExitCodeIsTheSharedNamedConstant)
{
    // Every layer that surfaces a watchdog failure (the campaign
    // runner, the service daemon) names kWatchdogExitCode from
    // common/supervisor.hh instead of re-hardcoding 76; the runner's
    // alias must stay bound to it.
    EXPECT_EQ(kWatchdogExitCode, 76);
    EXPECT_EQ(kExitWatchdog, kWatchdogExitCode);
    EXPECT_STREQ(kWatchdogExitCodeName, "kWatchdogExitCode");
}

TEST(SweepRunnerWatchdog, HungTaskExhaustsRetriesAndExits76)
{
    RunResult r = runTestbed("--quick --threads 4 --seed 11 --no-json "
                             "--hang-task 3 --task-timeout-ms 100 "
                             "--task-retries 1");
    EXPECT_TRUE(r.exitedWith(kExitWatchdog))
        << "status=" << r.status << "\nstderr:\n"
        << r.err;
    EXPECT_NE(r.err.find("watchdog"), std::string::npos) << r.err;
    EXPECT_NE(r.err.find("task 3"), std::string::npos) << r.err;
    EXPECT_NE(r.err.find("2 attempts"), std::string::npos) << r.err;
    // The exit code is reported symbolically, by its constant's name.
    EXPECT_NE(r.err.find(kWatchdogExitCodeName), std::string::npos)
        << r.err;
}

TEST(SweepRunnerWatchdog, RequeueAfterTransientHangSucceeds)
{
    RunResult ref = runTestbed("--quick --threads 1 --seed 11 "
                               "--no-json --digest");
    ASSERT_TRUE(ref.exitedWith(0)) << ref.err;

    // The hang clears after one abandoned attempt; the requeued
    // attempt reuses the same derived seed, so the digest must match
    // an undisturbed campaign exactly.
    RunResult r = runTestbed("--quick --threads 4 --seed 11 --no-json "
                             "--digest --hang-task 3 --hang-attempts 1 "
                             "--task-timeout-ms 100 --task-retries 2");
    EXPECT_TRUE(r.exitedWith(0)) << "status=" << r.status
                                 << "\nstderr:\n"
                                 << r.err;
    EXPECT_NE(r.err.find("requeueing"), std::string::npos) << r.err;
    EXPECT_EQ(digestOf(r), digestOf(ref));
}

// ---------------------------------------------------------------------
// Subprocess: SIGKILL mid-campaign, then resume, digest-identical.
// ---------------------------------------------------------------------

namespace
{

void
killResumeAt(unsigned threads)
{
    std::string ck = scratch(strprintf("t%u.ck", threads));
    RunResult ref = runTestbed("--quick --threads 1 --seed 23 "
                               "--no-json --digest");
    ASSERT_TRUE(ref.exitedWith(0)) << ref.err;

    // Die by SIGKILL the moment the 5th checkpoint record is durable.
    RunResult killed = runTestbed(
        strprintf("--quick --threads %u --seed 23 --no-json "
                  "--checkpoint %s --kill-after 5",
                  threads, ck.c_str()));
    ASSERT_TRUE(killed.killedBy(SIGKILL)) << "status=" << killed.status;

    // The checkpoint the kill left behind is complete and valid...
    std::string reason;
    ASSERT_TRUE(ckpt::loadCheckpoint(ck, nullptr, &reason)) << reason;
    ckpt::LoadedCheckpoint loaded;
    ASSERT_TRUE(ckpt::loadCheckpoint(ck, &loaded, &reason)) << reason;
    EXPECT_EQ(loaded.records.size(), 5u);

    // ...and the resumed campaign replays those 5 tasks and lands on
    // the uninterrupted digest bit for bit.
    RunResult resumed = runTestbed(
        strprintf("--quick --threads %u --seed 23 --no-json --digest "
                  "--resume %s",
                  threads, ck.c_str()));
    EXPECT_TRUE(resumed.exitedWith(0)) << resumed.err;
    EXPECT_EQ(resumedOf(resumed), 5u);
    EXPECT_EQ(digestOf(resumed), digestOf(ref));
    std::remove(ck.c_str());
}

} // namespace

TEST(SweepRunnerKillResume, SingleThreadDigestSurvivesSigkill)
{
    killResumeAt(1);
}

TEST(SweepRunnerKillResume, EightThreadsDigestSurvivesSigkill)
{
    killResumeAt(8);
}

TEST(SweepRunnerKillResume, SigtermDrainsFlushesAndExits75)
{
    std::string ck = scratch("term.ck");
    RunResult ref = runTestbed("--quick --threads 1 --seed 31 "
                               "--no-json --digest");
    ASSERT_TRUE(ref.exitedWith(0)) << ref.err;

    RunResult stopped = runTestbed(
        strprintf("--quick --threads 4 --seed 31 --no-json "
                  "--checkpoint %s --raise-stop 4",
                  ck.c_str()));
    EXPECT_TRUE(stopped.exitedWith(kExitInterrupted))
        << "status=" << stopped.status << "\nstderr:\n"
        << stopped.err;
    EXPECT_NE(stopped.err.find("interrupted by signal"),
              std::string::npos)
        << stopped.err;
    EXPECT_NE(stopped.err.find("--resume"), std::string::npos)
        << stopped.err;

    // Graceful shutdown drained in-flight tasks: the checkpoint holds
    // at least the 4 records that triggered the stop, all durable.
    ckpt::LoadedCheckpoint loaded;
    std::string reason;
    ASSERT_TRUE(ckpt::loadCheckpoint(ck, &loaded, &reason)) << reason;
    EXPECT_GE(loaded.records.size(), 4u);
    EXPECT_LT(loaded.records.size(), 16u);

    RunResult resumed = runTestbed(
        strprintf("--quick --threads 2 --seed 31 --no-json --digest "
                  "--resume %s",
                  ck.c_str()));
    EXPECT_TRUE(resumed.exitedWith(0)) << resumed.err;
    EXPECT_EQ(digestOf(resumed), digestOf(ref));
    std::remove(ck.c_str());
}

// ---------------------------------------------------------------------
// Subprocess: the --validate entry point.
// ---------------------------------------------------------------------

TEST(SweepRunnerKillResume, ValidateFlagChecksArtifactsAndCheckpoints)
{
    std::string ck = scratch("v.ck");
    std::string json = scratch("v.json");
    RunResult run = runTestbed(
        strprintf("--quick --threads 2 --seed 5 --checkpoint %s "
                  "--json %s",
                  ck.c_str(), json.c_str()));
    ASSERT_TRUE(run.exitedWith(0)) << run.err;

    EXPECT_TRUE(runTestbed("--validate " + ck).exitedWith(0));
    EXPECT_TRUE(runTestbed("--validate " + json).exitedWith(0));

    // Truncate each: the validator must reject with the documented
    // invalid-artifact exit code.
    std::string full_ck = slurp(ck), full_json = slurp(json);
    spew(ck, full_ck.substr(0, full_ck.size() / 2));
    spew(json, full_json.substr(0, full_json.size() - 3));
    EXPECT_TRUE(
        runTestbed("--validate " + ck).exitedWith(kExitInvalidArtifact));
    EXPECT_TRUE(runTestbed("--validate " + json)
                    .exitedWith(kExitInvalidArtifact));
    EXPECT_TRUE(runTestbed("--validate no_such_file.json")
                    .exitedWith(kExitInvalidArtifact));
    std::remove(ck.c_str());
    std::remove(json.c_str());
}
