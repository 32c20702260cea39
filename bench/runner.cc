#include "runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "common/checkpoint.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/supervisor.hh"
#include "common/thread_pool.hh"

namespace memcon::bench
{

namespace
{

[[noreturn]] void
usage(const char *argv0, int exit_code)
{
    std::printf(
        "usage: %s [options]\n"
        "  --threads N           worker threads (default: hardware\n"
        "                        concurrency; results are bit-identical\n"
        "                        for any N)\n"
        "  --seed S              campaign seed (default 42); every task\n"
        "                        seed is derived from it\n"
        "  --quick               tiny configuration (smoke tests)\n"
        "  --repeat N            run the sweep N times and report\n"
        "                        per-point wall-clock medians (metrics\n"
        "                        must not change across repeats)\n"
        "  --json PATH           write the machine-readable results to\n"
        "                        PATH (default BENCH_<artifact>.json)\n"
        "  --no-json             skip the JSON emitter\n"
        "  --digest-out PATH     write the one-line metrics digest to\n"
        "                        PATH, for cross-run comparison (e.g.\n"
        "                        native vs MEMCON_FORCE_SCALAR=1)\n"
        "  --checkpoint PATH     record each completed task to PATH so\n"
        "                        a killed campaign can be resumed\n"
        "  --resume PATH         resume a campaign from its checkpoint;\n"
        "                        replayed tasks are not re-run and the\n"
        "                        final metrics are bit-identical to an\n"
        "                        uninterrupted run\n"
        "  --task-timeout-ms N   arm the hung-task watchdog: a task\n"
        "                        over its deadline (max of N and 8x the\n"
        "                        median completed-task wall clock) is\n"
        "                        abandoned and requeued\n"
        "  --task-retries N      requeues granted per abandoned task\n"
        "                        (default 2) before the campaign fails\n"
        "  --address-map NAME    dram::AddressMap preset for benches\n"
        "                        that shard by bank (e.g. identity,\n"
        "                        paper-ddr3-8bank, zen-ddr4-64bank);\n"
        "                        empty keeps the bench's default\n"
        "  --validate PATH       check a BENCH_*.json or checkpoint for\n"
        "                        torn/corrupt content and exit\n"
        "  --help                this text\n"
        "exit codes: 0 ok, 1 fatal, %d usage, %d invalid artifact,\n"
        "            %d interrupted (checkpoint flushed, resumable),\n"
        "            %d watchdog gave up on a hung task\n",
        argv0, kExitUsage, kExitInvalidArtifact, kExitInterrupted,
        kExitWatchdog);
    std::exit(exit_code);
}

const char *
requireValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        fatal("missing value after '%s'", argv[i]);
    return argv[++i];
}

/** Shortest decimal form that round-trips a double (for JSON). */
std::string
jsonNumber(double v)
{
    return strprintf("%.17g", v);
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strprintf("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

/** --validate: classify the file by its magic and check it. */
[[noreturn]] void
validateAndExit(const char *path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "%s: cannot open\n", path);
        std::exit(kExitInvalidArtifact);
    }
    std::string magic(11, '\0');
    in.read(magic.data(), static_cast<std::streamsize>(magic.size()));
    magic.resize(static_cast<std::size_t>(in.gcount()));
    in.close();

    const bool is_ckpt = magic.rfind("MEMCON-CKPT", 0) == 0;
    std::string reason;
    const bool ok = is_ckpt
                        ? ckpt::loadCheckpoint(path, nullptr, &reason)
                        : ckpt::validateArtifactFile(path, &reason);
    if (ok) {
        std::printf("%s: valid %s\n", path,
                    is_ckpt ? "checkpoint" : "artifact");
        std::exit(0);
    }
    std::fprintf(stderr, "%s: INVALID %s: %s\n", path,
                 is_ckpt ? "checkpoint" : "artifact", reason.c_str());
    std::exit(kExitInvalidArtifact);
}

/**
 * Campaign interrupt flag. The handler only sets it; the runner's
 * task wrappers poll it to stop admission, and run() turns it into a
 * drained, checkpoint-flushed kExitInterrupted exit. A lock-free
 * std::atomic<int> is both async-signal-safe (the store is a single
 * instruction, no locks) and a proper cross-thread synchronisation
 * point for the worker threads that poll it — volatile sig_atomic_t
 * would only cover the signal-vs-interrupted-thread half.
 */
std::atomic<int> g_signal{0};
static_assert(std::atomic<int>::is_always_lock_free,
              "signal handler needs a lock-free store");

extern "C" void
campaignSignalHandler(int sig)
{
    g_signal.store(sig, std::memory_order_relaxed);
}

/** Installs SIGINT/SIGTERM graceful-shutdown handlers for the span
 *  of a campaign; restores the previous handlers on scope exit. */
class ScopedCampaignSignals
{
  public:
    ScopedCampaignSignals()
    {
        struct sigaction sa;
        std::memset(&sa, 0, sizeof(sa));
        sa.sa_handler = campaignSignalHandler;
        sigemptyset(&sa.sa_mask);
        sa.sa_flags = SA_RESTART;
        sigaction(SIGINT, &sa, &oldInt);
        sigaction(SIGTERM, &sa, &oldTerm);
    }

    ~ScopedCampaignSignals()
    {
        sigaction(SIGINT, &oldInt, nullptr);
        sigaction(SIGTERM, &oldTerm, nullptr);
    }

  private:
    struct sigaction oldInt, oldTerm;
};

} // namespace

SweepOptions
parseSweepArgs(int argc, char **argv)
{
    SweepOptions opts;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--threads") == 0) {
            opts.threads = static_cast<unsigned>(
                std::strtoul(requireValue(argc, argv, i), nullptr, 10));
        } else if (std::strcmp(arg, "--seed") == 0) {
            opts.campaignSeed =
                std::strtoull(requireValue(argc, argv, i), nullptr, 10);
        } else if (std::strcmp(arg, "--quick") == 0) {
            opts.quick = true;
        } else if (std::strcmp(arg, "--repeat") == 0) {
            opts.repeat = static_cast<unsigned>(
                std::strtoul(requireValue(argc, argv, i), nullptr, 10));
            fatal_if(opts.repeat == 0, "--repeat must be >= 1");
        } else if (std::strcmp(arg, "--json") == 0) {
            opts.jsonPath = requireValue(argc, argv, i);
        } else if (std::strcmp(arg, "--no-json") == 0) {
            opts.writeJson = false;
        } else if (std::strcmp(arg, "--digest-out") == 0) {
            opts.digestOutPath = requireValue(argc, argv, i);
        } else if (std::strcmp(arg, "--checkpoint") == 0) {
            opts.checkpointPath = requireValue(argc, argv, i);
        } else if (std::strcmp(arg, "--resume") == 0) {
            opts.resumePath = requireValue(argc, argv, i);
        } else if (std::strcmp(arg, "--task-timeout-ms") == 0) {
            opts.taskTimeoutMs =
                std::strtod(requireValue(argc, argv, i), nullptr);
            fatal_if(opts.taskTimeoutMs <= 0.0,
                     "--task-timeout-ms must be > 0");
        } else if (std::strcmp(arg, "--address-map") == 0) {
            opts.addressMap = requireValue(argc, argv, i);
        } else if (std::strcmp(arg, "--task-retries") == 0) {
            opts.taskRetries = static_cast<unsigned>(
                std::strtoul(requireValue(argc, argv, i), nullptr, 10));
        } else if (std::strcmp(arg, "--validate") == 0) {
            validateAndExit(requireValue(argc, argv, i));
        } else if (std::strcmp(arg, "--help") == 0) {
            usage(argv[0], 0);
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n", arg);
            usage(argv[0], kExitUsage);
        }
    }
    return opts;
}

double
PointResult::metric(const std::string &name) const
{
    for (const Metric &m : metrics)
        if (m.name == name)
            return m.value;
    fatal("point '%s' has no metric '%s'", label.c_str(), name.c_str());
}

std::string
metricsLine(const Metrics &metrics)
{
    std::string out;
    for (const Metric &m : metrics) {
        out += m.name;
        out += '=';
        out += jsonNumber(m.value);
        out += ';';
    }
    return out;
}

Metrics
parseMetricsLine(const std::string &line)
{
    Metrics out;
    std::size_t pos = 0;
    while (pos < line.size()) {
        std::size_t semi = line.find(';', pos);
        fatal_if(semi == std::string::npos,
                 "malformed metrics record '%s'", line.c_str());
        std::string item = line.substr(pos, semi - pos);
        // The value (%.17g) never contains '=', so the last '=' is
        // the separator even if a metric name ever carried one.
        std::size_t eq = item.rfind('=');
        fatal_if(eq == std::string::npos,
                 "malformed metrics item '%s'", item.c_str());
        const char *value = item.c_str() + eq + 1;
        char *end = nullptr;
        double v = std::strtod(value, &end);
        fatal_if(end == value || *end != '\0',
                 "malformed metric value in '%s'", item.c_str());
        out.push_back(Metric{item.substr(0, eq), v});
        pos = semi + 1;
    }
    return out;
}

std::string
resultsDigest(const std::vector<PointResult> &results)
{
    std::string out;
    for (const PointResult &r : results) {
        out += r.label;
        out += '|';
        out += metricsLine(r.metrics);
        out += '\n';
    }
    return out;
}

SweepRunner::SweepRunner(std::string artifact_name, SweepOptions options)
    : artifact(std::move(artifact_name)), opts(std::move(options))
{
}

void
SweepRunner::add(std::string label,
                 std::function<Metrics(const TaskContext &)> fn)
{
    fatal_if(executed, "cannot add points after run()");
    points.push_back(SweepPoint{std::move(label), std::move(fn)});
}

const std::vector<PointResult> &
SweepRunner::run()
{
    if (executed)
        return reduced;
    executed = true;

    const bool checkpointing =
        !opts.checkpointPath.empty() || !opts.resumePath.empty();
    fatal_if(checkpointing && opts.repeat != 1,
             "--repeat is incompatible with --checkpoint/--resume");

    resolvedThreads = opts.threads;
    if (resolvedThreads == 0) {
        resolvedThreads = std::thread::hardware_concurrency();
        if (resolvedThreads == 0)
            resolvedThreads = 1;
    }

    // The fingerprint that binds checkpoints to this campaign. Thread
    // count is absent on purpose: §9 makes it metrics-irrelevant, so
    // interrupt at 8 threads and resume at 1 freely.
    ckpt::CampaignFingerprint fp;
    fp.artifact = artifact;
    fp.campaignSeed = opts.campaignSeed;
    fp.pointCount = points.size();
    fp.quick = opts.quick;
    {
        std::string joined;
        for (const SweepPoint &p : points) {
            joined += p.label;
            joined += '\n';
        }
        fp.labelsCrc = ckpt::crc32(joined);
    }

    reduced.assign(points.size(), PointResult{});
    pointWall.assign(points.size(), 0.0);
    std::vector<char> have(points.size(), 0);
    std::vector<ckpt::TaskRecord> carried;

    if (!opts.resumePath.empty()) {
        ckpt::LoadedCheckpoint loaded;
        std::string reason;
        fatal_if(!ckpt::loadCheckpoint(opts.resumePath, &loaded, &reason),
                 "cannot resume from '%s': %s", opts.resumePath.c_str(),
                 reason.c_str());
        try {
            ckpt::requireFingerprintMatch(loaded.fingerprint, fp);
        } catch (const ckpt::FingerprintMismatch &e) {
            fatal("checkpoint '%s' belongs to a different campaign: %s",
                  opts.resumePath.c_str(), e.what());
        }
        for (const ckpt::TaskRecord &rec : loaded.records) {
            fatal_if(rec.index >= points.size(),
                     "checkpoint record for task %llu out of range",
                     static_cast<unsigned long long>(rec.index));
            if (have[rec.index])
                continue;
            reduced[rec.index].label = points[rec.index].label;
            reduced[rec.index].metrics = parseMetricsLine(rec.metrics);
            have[rec.index] = 1;
            carried.push_back(rec);
            ++resumedCount;
        }
    }

    std::unique_ptr<ckpt::CheckpointWriter> writer;
    std::mutex ckpt_mutex;
    if (checkpointing) {
        const std::string &path = !opts.checkpointPath.empty()
                                      ? opts.checkpointPath
                                      : opts.resumePath;
        writer = std::make_unique<ckpt::CheckpointWriter>(
            path, fp, std::move(carried));
    }

    std::unique_ptr<Supervisor> sup;
    if (opts.taskTimeoutMs > 0.0) {
        SupervisorConfig scfg;
        scfg.floorTimeoutMs = opts.taskTimeoutMs;
        scfg.maxAttempts = 1 + opts.taskRetries;
        sup = std::make_unique<Supervisor>(scfg, points.size());
    }

    std::printf("  campaign: seed=%llu threads=%u points=%zu repeats=%u%s\n",
                static_cast<unsigned long long>(opts.campaignSeed),
                resolvedThreads, points.size(), opts.repeat,
                opts.quick ? " quick" : "");
    if (resumedCount > 0)
        std::printf("  resume: replayed %zu/%zu tasks from %s\n",
                    resumedCount, points.size(), opts.resumePath.c_str());
    if (sup)
        std::printf("  watchdog: task deadline >= %.0f ms, %u attempts "
                    "per task\n",
                    opts.taskTimeoutMs, 1 + opts.taskRetries);

    ScopedCampaignSignals signal_guard;
    g_signal = 0;

    std::string first_digest;
    std::vector<std::vector<double>> wall_samples(
        points.size(), std::vector<double>(opts.repeat, 0.0));
    std::vector<std::future<void>> futures;
    futures.reserve(points.size());
    Supervisor *supervisor = sup.get();
    ckpt::CheckpointWriter *ckpt_writer = writer.get();
    bool stopped_early = false;

    // lint:allow(wall-clock) - wallClockSeconds is reporting-only
    auto start = std::chrono::steady_clock::now();
    {
        ThreadPool pool(resolvedThreads);
        // Repeats run back to back on the same pool; each re-executes
        // every point with the same derived seed, so any metric drift
        // across repeats is a determinism bug and is fatal below.
        for (unsigned rep = 0; rep < opts.repeat; ++rep) {
            std::vector<PointResult> batch(points.size());
            // Tasks replayed from the checkpoint are already reduced;
            // seed their slots so the digest covers the whole sweep.
            for (std::size_t i = 0; i < points.size(); ++i)
                if (have[i])
                    batch[i] = reduced[i];
            futures.clear();
            for (std::size_t i = 0; i < points.size(); ++i) {
                if (have[i])
                    continue;
                // Each task writes only its own slot; the per-task
                // seed is a pure function of (campaign seed, index),
                // so the reduced vector is invariant under thread
                // count and completion order. Admission stops as soon
                // as a shutdown signal or a watchdog campaign failure
                // is observed; in-flight tasks drain normally.
                futures.push_back(pool.submit([this, i, rep, &batch,
                                               &wall_samples, supervisor,
                                               ckpt_writer,
                                               &ckpt_mutex] {
                    const unsigned max_attempts =
                        supervisor ? 1 + opts.taskRetries : 1;
                    for (unsigned attempt = 0; attempt < max_attempts;
                         ++attempt) {
                        if (g_signal ||
                            (supervisor && supervisor->campaignFailed()))
                            return;
                        TaskContext ctx;
                        ctx.seed = deriveTaskSeed(opts.campaignSeed, i);
                        ctx.index = i;
                        ctx.quick = opts.quick;
                        // lint:allow(wall-clock) - timing only
                        auto t0 = std::chrono::steady_clock::now();
                        if (supervisor)
                            supervisor->beginTask(i, points[i].label,
                                                  attempt, ctx.token);
                        try {
                            batch[i].label = points[i].label;
                            batch[i].metrics = points[i].run(ctx);
                            double wall =
                                std::chrono::duration<double>(
                                    // lint:allow(wall-clock)
                                    std::chrono::steady_clock::now() - t0)
                                    .count();
                            if (supervisor)
                                supervisor->endTask(i, true,
                                                    wall * 1000.0);
                            wall_samples[i][rep] = wall;
                            if (ckpt_writer) {
                                std::lock_guard<std::mutex> lock(
                                    ckpt_mutex);
                                ckpt_writer->append(
                                    {i, metricsLine(batch[i].metrics)});
                                if (opts.checkpointHook)
                                    opts.checkpointHook(
                                        ckpt_writer->recordCount());
                            }
                            return;
                        } catch (const TaskCancelled &) {
                            if (!supervisor)
                                throw;
                            supervisor->endTask(i, false, 0.0);
                            if (attempt + 1 < max_attempts)
                                warn("task %zu ('%s') abandoned on "
                                     "attempt %u/%u; requeueing",
                                     i, points[i].label.c_str(),
                                     attempt + 1, max_attempts);
                        } catch (...) {
                            if (supervisor)
                                supervisor->endTask(i, false, 0.0);
                            throw;
                        }
                    }
                    supervisor->reportExhausted(i, points[i].label);
                }));
            }
            // Join every task before unwinding: a thrown point must
            // not destroy this repeat's slots while later tasks are
            // still writing into them. The failure propagated is the
            // lowest-index one, independent of completion order.
            std::exception_ptr first_failure;
            for (std::future<void> &f : futures) {
                try {
                    f.get();
                } catch (...) {
                    if (!first_failure)
                        first_failure = std::current_exception();
                }
            }
            if (first_failure)
                std::rethrow_exception(first_failure);
            if (g_signal || (supervisor && supervisor->campaignFailed())) {
                stopped_early = true;
                break;
            }
            if (rep == 0) {
                reduced = std::move(batch);
                first_digest = resultsDigest(reduced);
            } else {
                fatal_if(resultsDigest(batch) != first_digest,
                         "repeat %u changed the metrics digest - the "
                         "bench is nondeterministic",
                         rep);
            }
        }
    }
    // lint:allow(wall-clock) - never feeds metrics or seeds
    wallClockSeconds = std::chrono::duration<double>(
                           // lint:allow(wall-clock)
                           std::chrono::steady_clock::now() - start)
                           .count();

    // Join the watchdog before any exit path so no monitor thread can
    // outlive the campaign (TSan-visible thread leak otherwise).
    bool watchdog_failed = false;
    std::string watchdog_reason;
    if (sup) {
        watchdog_failed = sup->campaignFailed();
        watchdog_reason = sup->failureReason();
        sup.reset();
    }
    if (watchdog_failed) {
        std::size_t done = 0;
        if (writer)
            done = writer->recordCount();
        std::fflush(stdout);
        std::fprintf(stderr,
                     "campaign failed by watchdog: %s "
                     "(%zu/%zu tasks checkpointed); exiting with "
                     "%s (%d)\n",
                     watchdog_reason.c_str(), done, points.size(),
                     kWatchdogExitCodeName, kExitWatchdog);
        std::exit(kExitWatchdog);
    }
    if (stopped_early) {
        std::fflush(stdout);
        if (writer)
            std::fprintf(stderr,
                         "campaign interrupted by signal %d: %zu/%zu "
                         "tasks checkpointed to %s; resume with "
                         "--resume %s\n",
                         static_cast<int>(g_signal),
                         writer->recordCount(), points.size(),
                         writer->filePath().c_str(),
                         writer->filePath().c_str());
        else
            std::fprintf(stderr,
                         "campaign interrupted by signal %d "
                         "(no --checkpoint given, progress lost)\n",
                         static_cast<int>(g_signal));
        std::exit(kExitInterrupted);
    }

    for (std::size_t i = 0; i < points.size(); ++i) {
        std::vector<double> &s = wall_samples[i];
        std::sort(s.begin(), s.end());
        pointWall[i] = s[s.size() / 2];
    }
    return reduced;
}

const std::vector<PointResult> &
SweepRunner::results() const
{
    fatal_if(!executed, "results() before run()");
    return reduced;
}

double
SweepRunner::pointWallSeconds(std::size_t point_index) const
{
    fatal_if(!executed, "pointWallSeconds() before run()");
    fatal_if(point_index >= pointWall.size(),
             "point index %zu out of range", point_index);
    return pointWall[point_index];
}

double
SweepRunner::metric(std::size_t point_index, const std::string &name) const
{
    fatal_if(!executed, "metric() before run()");
    fatal_if(point_index >= reduced.size(), "point index %zu out of range",
             point_index);
    return reduced[point_index].metric(name);
}

void
SweepRunner::finish() const
{
    fatal_if(!executed, "finish() before run()");

    if (!opts.digestOutPath.empty()) {
        std::ofstream dout(opts.digestOutPath,
                           std::ios::binary | std::ios::trunc);
        fatal_if(!dout, "cannot write digest to %s",
                 opts.digestOutPath.c_str());
        dout << resultsDigest(reduced) << '\n';
    }

    if (!opts.writeJson)
        return;

    std::string path = opts.jsonPath.empty()
                           ? "BENCH_" + artifact + ".json"
                           : opts.jsonPath;

    std::string out;
    out += "{\n";
    out += "  \"artifact\": \"" + jsonEscape(artifact) + "\",\n";
    out += "  \"campaign_seed\": " +
           strprintf("%llu",
                     static_cast<unsigned long long>(opts.campaignSeed)) +
           ",\n";
    out += "  \"threads\": " + strprintf("%u", resolvedThreads) + ",\n";
    out += std::string("  \"quick\": ") +
           (opts.quick ? "true" : "false") + ",\n";
    out += "  \"repeats\": " + strprintf("%u", opts.repeat) + ",\n";
    out += "  \"points_total\": " + strprintf("%zu", reduced.size()) +
           ",\n";
    out += "  \"tasks_resumed\": " + strprintf("%zu", resumedCount) +
           ",\n";
    out += "  \"wall_clock_seconds\": " + jsonNumber(wallClockSeconds) +
           ",\n";
    out += "  \"points\": [\n";
    for (std::size_t i = 0; i < reduced.size(); ++i) {
        const PointResult &r = reduced[i];
        out += "    {\"label\": \"" + jsonEscape(r.label) +
               "\", \"wall_seconds\": " + jsonNumber(pointWall[i]) +
               ", \"metrics\": {";
        for (std::size_t m = 0; m < r.metrics.size(); ++m) {
            if (m)
                out += ", ";
            out += '"' + jsonEscape(r.metrics[m].name) +
                   "\": " + jsonNumber(r.metrics[m].value);
        }
        out += "}}";
        out += (i + 1 < reduced.size() ? "," : "");
        out += '\n';
    }
    out += "  ],\n";

    // Atomic write + checksum footer: a reader either sees the whole
    // artifact (footer validates) or, after a crash, the previous one
    // - never a torn file that parses as valid (DESIGN.md §15).
    std::string error;
    if (!ckpt::atomicWriteFile(path, out + ckpt::artifactFooter(out),
                               &error)) {
        std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                     error.c_str());
        return;
    }
    std::printf("  wrote %s (%.2f s wall, %u threads)\n", path.c_str(),
                wallClockSeconds, resolvedThreads);
}

} // namespace memcon::bench
