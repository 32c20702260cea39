/**
 * @file
 * Workload `campaign`: MemconEngine::runOnApp over the 12 Table 1
 * personas with scrub on and the quickstart oracle (logicalRowFails
 * on ProgramContent whose epoch is the page's write count), then the
 * same personas at a scaled footprint - 16x the pages over 1/16 of
 * the duration (at least 4 s), so per-page engine state outgrows L2
 * while every trace still spans several PRIL quanta. Each persona
 * runs a quarter of its Table 1 duration: the pass then takes a few
 * seconds, and a run repeats it often enough for its floor to hold.
 *
 * The Table 1 personas keep their own seeds, as recorded traces
 * would, and the scaled ones derive theirs from them: reseeding them
 * moves the engine's peak memory by a fifth, which would swamp the
 * measurement. The benchmark seed picks the SPEC content the module
 * holds, and with it every test verdict.
 *
 * An epoch is the host time the engine takes to replay one PRIL
 * quantum of simulated time. The clock is read from the transition
 * observer when a transition's time crosses a quantum boundary; the
 * time since the previous reading is split evenly over the quanta it
 * covers, so every quantum of every persona is one sample.
 */

#include <algorithm>
#include <cmath>
#include <memory>

#include "bench.hh"
#include "common/random.hh"
#include "core/engine.hh"
#include "failure/content.hh"
#include "failure/model.hh"
#include "trace/app_model.hh"

namespace perfbench
{

namespace
{

using namespace memcon;

class Campaign : public Workload
{
  public:
    explicit Campaign(const Options &o) : opts(o)
    {
        config.scrubPeriodMs = 8192.0;
    }

    void
    setup() override
    {
        paper.clear();
        scaled.clear();
        std::vector<trace::AppPersona> suite =
            trace::AppPersona::table1Suite();
        if (opts.tiny)
            suite.resize(2);
        for (trace::AppPersona p : suite) {
            p.durationSec /= opts.tiny ? 32.0 : 4.0;
            paper.push_back(p);
            trace::AppPersona s = p;
            s.seed = hashMix64(p.seed ^ 0x9e3779b97f4a7c15ull);
            const std::uint64_t scale = opts.tiny ? 2 : 16;
            s.name += "/x" + std::to_string(scale);
            s.pages = p.pages * scale;
            s.durationSec = std::max(p.durationSec / 16.0,
                                     opts.tiny ? 2.0 : 4.0);
            scaled.push_back(s);
        }
        module = buildModule();
        for (std::uint64_t r = 0; r < module->numRows(); ++r)
            module->cellsOfRow(RowId{r});
        const std::vector<failure::ContentPersona> spec =
            failure::ContentPersona::specSuite();
        data = spec[hashMix64(opts.seed) % spec.size()];
        engine = std::make_unique<core::MemconEngine>(config);
    }

    void
    release() override
    {
        engine.reset();
        module.reset();
    }

    PassResult
    runPass(Tracer *tr) override
    {
        const int engine_k = tr ? tr->kind("core.engine") : -1;
        const int oracle_k = tr ? tr->kind("failure.oracle", 16) : -1;
        const int observer_k = tr ? tr->kind("bench.observer", 16) : -1;

        PassResult out;
        const double quantum_ms = config.quantumMs.value();
        double epoch_index = 0.0;
        double t_epoch = 0.0;
        std::uint64_t transitions = 0;
        auto oracle = [&](std::uint64_t page, std::uint64_t write_count) {
            Span s(tr, oracle_k);
            failure::ProgramContent content(data, write_count);
            return module->logicalRowFails(RowId{page % module->numRows()},
                                           content, config.loRefMs);
        };
        // Split the host time since the last clocked boundary evenly
        // over the quanta it covers, so every quantum is one sample.
        auto clock_quanta = [&](double quantum_index) {
            const double t = hostNow();
            const double n = quantum_index - epoch_index;
            for (double k = 0; k < n; ++k)
                out.epochsS.push_back((t - t_epoch) / n);
            t_epoch = t;
            epoch_index = quantum_index;
        };
        auto observer = [&](std::uint64_t, double time_ms, bool,
                            std::uint64_t) {
            Span s(tr, observer_k);
            ++transitions;
            const double q = std::floor(time_ms / quantum_ms);
            if (q > epoch_index)
                clock_quanta(q);
        };

        Digest digest;
        double writes = 0.0, pages = 0.0, sim_us = 0.0;
        double base_ops = 0.0, memcon_ops = 0.0, drops = 0.0;
        double tests = 0.0, tests_correct = 0.0, scrubs = 0.0;
        double deferred = 0.0, heap_pushes = 0.0, wheel_pops = 0.0;
        double peak_streams = 0.0;
        const double upper = engine->upperBoundReduction();

        for (const std::vector<trace::AppPersona> *set : {&paper, &scaled}) {
            for (const trace::AppPersona &p : *set) {
                const double t0 = hostNow();
                t_epoch = t0;
                epoch_index = 0.0;
                core::MemconResult r;
                {
                    Span s(tr, engine_k);
                    r = engine->runOnApp(p, oracle, observer);
                }
                clock_quanta(std::ceil(r.durationMs / quantum_ms));
                out.seconds += hostNow() - t0;

                if (r.testsRun != r.testsPassed + r.testsFailed)
                    violations.push_back(p.name + ": tests_run != passed + "
                                                  "failed");
                if (r.reduction() > upper + 1e-12)
                    violations.push_back(p.name + ": reduction above "
                                                  "1 - hiRef/loRef");

                digest.add(p.name + ".writes", r.writes);
                digest.add(p.name + ".tests", r.testsRun);
                digest.add(p.name + ".passed", r.testsPassed);
                digest.add(p.name + ".correct", r.testsCorrect);
                digest.add(p.name + ".skipped", r.testsSkippedBudget);
                digest.add(p.name + ".drops", r.bufferDrops);
                digest.add(p.name + ".scrubs", r.scrubTests);
                digest.add(p.name + ".scrubDemotions", r.scrubDemotions);
                digest.add(p.name + ".refreshOps", r.refreshOpsMemcon);
                digest.add(p.name + ".loTimeMs", r.loTimeMs);

                writes += static_cast<double>(r.writes);
                pages += static_cast<double>(r.pages);
                sim_us += r.durationMs * 1e3;
                drops += static_cast<double>(r.bufferDrops);
                tests += static_cast<double>(r.testsRun);
                tests_correct += static_cast<double>(r.testsCorrect);
                scrubs += static_cast<double>(r.scrubTests);
                deferred += static_cast<double>(r.testsDeferredBudget);
                heap_pushes += static_cast<double>(r.heapPushes);
                wheel_pops += static_cast<double>(r.wheelPops);
                peak_streams = std::max(
                    peak_streams, static_cast<double>(r.peakLiveStreams));
                if (set == &paper) {
                    base_ops += r.refreshOpsBaseline;
                    memcon_ops += r.refreshOpsMemcon;
                }
            }
        }
        digest.add("transitions", transitions);
        out.digest = digest.hex();

        out.work["replay_events_per_s"] = writes;
        out.work["sim_us_per_s"] = sim_us;
        out.work["applied_events_per_s"] = static_cast<double>(transitions);
        out.work["rows_per_s"] = pages;
        out.outcomes["refresh_reduction"] = 1.0 - memcon_ops / base_ops;
        out.outcomes["drop_frac"] = drops / writes;

        if (tr) {
            out.layers["core.engine.self_s"] = tr->selfS("core.engine");
            out.layers["failure.oracle_s"] = tr->selfS("failure.oracle");
            out.layers["failure.oracle.calls"] =
                static_cast<double>(tr->calls("failure.oracle"));
            out.layers["core.engine.writes"] = writes;
            out.layers["core.engine.tests_run"] = tests;
            out.layers["core.engine.scrub_tests"] = scrubs;
            out.layers["core.engine.tests_deferred"] = deferred;
            out.layers["core.engine.heap_pushes"] = heap_pushes;
            out.layers["core.engine.wheel_pops"] = wheel_pops;
            out.layers["core.engine.peak_live_streams"] = peak_streams;
            out.layers["core.engine.transitions"] =
                static_cast<double>(transitions);
            out.layers["core.pril.buffer_drops"] = drops;
            out.layers["core.pril.useful_test_ratio"] =
                tests == 0.0 ? 0.0 : tests_correct / tests;
        }
        return out;
    }

    double
    restartS() override
    {
        // From nothing to the first persona's result: a fresh module
        // (populations built lazily, as a user would), engine, replay.
        const double t0 = hostNow();
        std::unique_ptr<failure::FailureModel> m = buildModule();
        core::MemconEngine e(config);
        const failure::ContentPersona d = data;
        e.runOnApp(paper.front(),
                   [&](std::uint64_t page, std::uint64_t write_count) {
                       failure::ProgramContent content(d, write_count);
                       return m->logicalRowFails(
                           RowId{page % m->numRows()}, content,
                           config.loRefMs);
                   });
        return hostNow() - t0;
    }

  private:
    std::unique_ptr<failure::FailureModel>
    buildModule() const
    {
        failure::FailureModelParams fm;
        fm.nominalIntervalMs = config.loRefMs;
        fm.seed = 42; // the module under test, as in the quickstart
        return std::make_unique<failure::FailureModel>(fm, 1 << 12, 1 << 16);
    }

    Options opts;
    core::MemconConfig config;
    std::vector<trace::AppPersona> paper, scaled;
    std::unique_ptr<failure::FailureModel> module;
    failure::ContentPersona data;
    std::unique_ptr<core::MemconEngine> engine;
};

} // namespace

std::unique_ptr<Workload>
makeCampaign(const Options &opts)
{
    return std::make_unique<Campaign>(opts);
}

} // namespace perfbench
