/**
 * @file
 * Hot-path microbench for the MEMCON engine: the streaming k-way
 * merge + deadline-wheel path on synthetic traces and one Table 1
 * persona. Emits BENCH_micro_engine_ops.json so the events/sec,
 * per-quantum cost, and peak-memory trajectory of the engine is
 * tracked across revisions.
 *
 * Every metric in the digest is a deterministic counter (writes,
 * quanta, heap pushes, wheel pops, estimated peak event bytes);
 * wall-clock enters only through the runner's per-point wall_seconds
 * (median across --repeat), which stays outside the digest, so
 * --repeat N never trips the repeat-invariance check.
 *
 * Run with --repeat 5 when comparing numbers across PRs.
 */

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bench_util.hh"
#include "common/random.hh"
#include "common/simd.hh"
#include "common/table.hh"
#include "core/engine.hh"
#include "runner.hh"
#include "trace/app_model.hh"

using namespace memcon;
using namespace memcon::core;

namespace
{

/**
 * A 100k-page synthetic trace: every page gets one write at a
 * hash-derived time, so the event stream is maximally wide (many
 * pages) and shallow (one event per page) - the regime where a
 * per-quantum full page scan or O(W) event materialization would
 * dominate.
 */
std::vector<std::vector<TimeMs>>
syntheticTrace(std::uint64_t seed, std::size_t pages, double duration_ms)
{
    std::vector<std::vector<TimeMs>> writes(pages);
    for (std::size_t p = 0; p < pages; ++p) {
        Rng rng(deriveTaskSeed(seed, p));
        writes[p].push_back(TimeMs{rng.uniform(0.0, duration_ms)});
    }
    return writes;
}

/** The deterministic counters every point reports. */
bench::Metrics
counters(const MemconConfig &cfg, const MemconResult &r)
{
    double quanta =
        r.durationMs > 0.0 ? r.durationMs / cfg.quantumMs.value() : 0.0;
    // Peak resident estimate of the event plumbing: one 16-byte heap
    // node per concurrently live stream.
    double event_bytes = static_cast<double>(r.peakLiveStreams) * 16.0;
    return bench::Metrics{
        {"writes", static_cast<double>(r.writes)},
        {"quanta", quanta},
        {"tests_run", static_cast<double>(r.testsRun)},
        {"scrub_tests", static_cast<double>(r.scrubTests)},
        {"heap_pushes", static_cast<double>(r.heapPushes)},
        {"wheel_pops", static_cast<double>(r.wheelPops)},
        {"peak_live_streams", static_cast<double>(r.peakLiveStreams)},
        {"est_peak_event_bytes", event_bytes},
    };
}

MemconConfig
scrubbyConfig()
{
    MemconConfig cfg;
    cfg.quantumMs = TimeMs{64.0};
    // Budget and period chosen so the steady-state scrub demand
    // (~pages / scrub_epochs per quantum) fits inside the test
    // budget: the wheel then stays O(due) per quantum instead of
    // churning a budget-starved backlog (which degrades to an
    // O(pages) scan per quantum).
    cfg.testSlotsPer64ms = 4096;
    cfg.scrubPeriodMs = 16384.0;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::SweepOptions opts = bench::parseSweepArgs(argc, argv);
    bench::banner("micro_engine_ops", "streaming engine hot path");
    note("Every metric is a deterministic counter; only the wall "
         "clock varies between runs.");
    note(strprintf("kernel set: %s%s (MEMCON_FORCE_SCALAR pins scalar)",
                   simd::activeKernelSetName(),
                   simd::scalarForced() ? " [forced]" : ""));

    const std::size_t pages = 100000; // the headline trace width
    const double duration_ms = opts.quick ? 20000.0 : 60000.0;
    const std::size_t scale_pages = pages / 4;

    bench::SweepRunner runner("micro_engine_ops", opts);

    // Traces are pre-generated outside the timed lambdas, so the wall
    // clock prices only the engine.
    const std::uint64_t trace_seed = deriveTaskSeed(opts.campaignSeed, 0);
    const auto trace_full = syntheticTrace(trace_seed, pages, duration_ms);
    const auto trace_quarter =
        syntheticTrace(trace_seed, scale_pages, duration_ms);

    // (a) headline: full mechanism (PRIL + scrub) on 100k pages.
    runner.add("headline", [&trace_full,
                            duration_ms](const bench::TaskContext &) {
        MemconConfig cfg = scrubbyConfig();
        return counters(cfg, MemconEngine(cfg).run(trace_full, duration_ms));
    });

    // (b) merge only: scrub off, long quantum - prices the k-way
    // merge with no wheel work.
    runner.add("merge_only", [&trace_full,
                              duration_ms](const bench::TaskContext &) {
        MemconConfig cfg;
        cfg.quantumMs = TimeMs{1024.0};
        return counters(cfg, MemconEngine(cfg).run(trace_full, duration_ms));
    });

    // (c) scrub scaling: the headline config at pages/4 - the wheel
    // keeps per-quantum cost proportional to due entries, not pages.
    runner.add("scaled_down", [&trace_quarter,
                               duration_ms](const bench::TaskContext &) {
        MemconConfig cfg = scrubbyConfig();
        return counters(cfg,
                        MemconEngine(cfg).run(trace_quarter, duration_ms));
    });

    // (d) runOnApp: per-page write generators streamed into the merge.
    runner.add("app", [=](const bench::TaskContext &) {
        trace::AppPersona persona = trace::AppPersona::table1Suite()[0];
        persona.seed = trace_seed;
        if (opts.quick) {
            persona.pages = 4000;
            persona.durationSec = 60.0;
        }
        MemconConfig cfg;
        return counters(cfg, MemconEngine(cfg).runOnApp(persona));
    });

    const std::vector<bench::PointResult> &results = runner.run();

    TextTable table;
    table.header({"scenario", "events", "events/sec", "ns/quantum",
                  "est peak event MB"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const bench::PointResult &r = results[i];
        double wall = runner.pointWallSeconds(i);
        double events = r.metric("writes");
        double quanta = r.metric("quanta");
        table.row({r.label, TextTable::num(events, 0),
                   wall > 0.0 ? TextTable::num(events / wall, 0) : "-",
                   quanta > 0.0
                       ? TextTable::num(wall * 1e9 / quanta, 0)
                       : "-",
                   TextTable::num(
                       r.metric("est_peak_event_bytes") / 1048576.0,
                       2)});
    }
    std::printf("%s", table.render().c_str());

    note(strprintf(
        "per-quantum cost at 100k vs 25k pages: %.0f ns vs %.0f ns "
        "(wheel scales with due entries)",
        runner.pointWallSeconds(0) * 1e9 / results[0].metric("quanta"),
        runner.pointWallSeconds(2) * 1e9 / results[2].metric("quanta")));
    runner.finish();
    return 0;
}
