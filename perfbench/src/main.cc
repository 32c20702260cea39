/**
 * @file
 * memcon_perfbench: one workload of the repo benchmark per
 * invocation.
 *
 *   memcon_perfbench --workload campaign|closedloop|memcond|detect
 *                    --seed N --seconds S --trace 0|1
 *                    [--size full|tiny] [--workdir DIR]
 *
 * Prints a header line, a digest line and, last, the result object
 * {"correct", "attempted", "failed", "metrics"}: the end-to-end
 * metrics with --trace 0, the per-layer metrics with --trace 1.
 * Exits 1 when a correctness gate fails.
 */

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hh"
#include "common/simd.hh"

using namespace perfbench;

namespace
{

/** End-to-end metrics, in print order, with their units. */
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"refresh_reduction", "ratio"},
    {"replay_events_per_s", "1/s"},
    {"sim_us_per_s", "us/s"},
    {"applied_events_per_s", "1/s"},
    {"epoch_p50_ms", "ms"},
    {"epoch_p90_ms", "ms"},
    {"resume_s", "s"},
    {"drop_frac", "ratio"},
    {"rows_per_s", "1/s"},
};

std::string
layerUnit(const std::string &name)
{
    auto ends = [&](const char *suffix) {
        const std::size_t n = std::strlen(suffix);
        return name.size() >= n &&
               name.compare(name.size() - n, n, suffix) == 0;
    };
    if (ends("_s"))
        return "s";
    if (ends("_ratio") || ends("_frac"))
        return "ratio";
    if (ends("_bytes") || ends("bytes_compared"))
        return "bytes";
    if (ends("_ticks"))
        return "ticks";
    if (ends("max_stage"))
        return "stage";
    return "count";
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "memcon_perfbench: %s\n"
                 "usage: memcon_perfbench --workload W --seed N "
                 "--seconds S --trace 0|1 [--size full|tiny] "
                 "[--workdir DIR]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        if (a == "--workload") {
            o.workload = v;
            have_workload = true;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (a == "--seconds") {
            o.seconds = std::atof(v.c_str());
        } else if (a == "--trace") {
            o.trace = v == "1";
        } else if (a == "--size") {
            if (v != "full" && v != "tiny")
                usage("--size must be full or tiny");
            o.tiny = v == "tiny";
        } else if (a == "--workdir") {
            o.workdir = v;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    return o;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
metricsJson(const std::vector<std::pair<std::string, double>> &values,
            const std::vector<std::string> &units)
{
    std::string out = "{";
    for (std::size_t i = 0; i < values.size(); ++i) {
        out += (i ? ", " : "") + jsonString(values[i].first) +
               ": {\"value\": " + jsonNumber(values[i].second) +
               ", \"unit\": " + jsonString(units[i]) + "}";
    }
    return out + "}";
}

const char *const kWorkloads[] = {"campaign", "closedloop", "memcond",
                                   "detect"};

/** Set-ups timed before every pass. */
constexpr std::size_t kSetupsPerPass = 40;

std::unique_ptr<Workload>
makeWorkload(const Options &opts)
{
    if (opts.workload == "campaign")
        return makeCampaign(opts);
    if (opts.workload == "closedloop")
        return makeClosedLoop(opts);
    if (opts.workload == "memcond")
        return makeMemcond(opts);
    if (opts.workload == "detect")
        return makeDetect(opts);
    usage(("unknown workload " + opts.workload).c_str());
}

/**
 * The layer metrics of every other workload, from one traced pass of
 * each at the tiny size, so that a traced run times every layer it
 * names. Their correctness violations are appended to `violations`.
 */
std::map<std::string, double>
otherLayers(const Options &opts, std::vector<std::string> *violations)
{
    std::map<std::string, double> out;
    for (const char *name : kWorkloads) {
        if (opts.workload == name)
            continue;
        Options o = opts;
        o.workload = name;
        o.tiny = true;
        std::unique_ptr<Workload> w = makeWorkload(o);
        w->setup();
        Tracer t;
        const PassResult r = w->runPass(&t);
        out.insert(r.layers.begin(), r.layers.end());
        for (const auto &[k, v] : w->extraLayers())
            out[k] = v;
        for (const std::string &v : w->violations)
            violations->push_back(std::string(name) + " (tiny): " + v);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    std::unique_ptr<Workload> w = makeWorkload(opts);

    char host[256] = {};
    gethostname(host, sizeof host - 1);
    std::printf("{\"header\": {\"workload\": %s, \"seed\": %llu, "
                "\"trace\": %d, \"size\": %s, \"nproc\": %u, "
                "\"compiler\": %s, \"build_type\": %s, "
                "\"kernel_set\": %s, \"hostname\": %s}}\n",
                jsonString(opts.workload).c_str(),
                static_cast<unsigned long long>(opts.seed),
                opts.trace ? 1 : 0, opts.tiny ? "\"tiny\"" : "\"full\"",
                std::thread::hardware_concurrency(),
                jsonString(PERFBENCH_CXX_ID).c_str(),
                jsonString(PERFBENCH_BUILD_TYPE).c_str(),
                jsonString(memcon::simd::activeKernelSetName()).c_str(),
                jsonString(host).c_str());
    std::fflush(stdout);

    // Set-up, several times before every pass; the last build is what
    // the pass uses, and tearing down the previous one is not timed.
    // Load on the host only ever slows a set-up down, and it comes and
    // goes over a run, so setup_s is the fastest of them all, as the
    // epoch floors are. It is a warm re-setup, not the process's first.
    std::vector<double> setups;
    auto set_up = [&](std::size_t count) {
        for (std::size_t n = 0; n < count; ++n) {
            w->release();
            const double t0 = hostNow();
            w->setup();
            setups.push_back(hostNow() - t0);
        }
    };

    // Passes until the budget is spent. The traced run alternates
    // untraced and traced passes. Restarts are timed between passes
    // for the same reason set-ups are.
    Tracer tracer;
    const int pass_k = tracer.kind("bench.pass");
    std::vector<PassResult> plain, traced;
    std::vector<double> restarts;
    std::string first_digest;
    const unsigned min_each = 2;
    const double t_start = hostNow();
    for (unsigned i = 0;; ++i) {
        const bool do_trace = opts.trace && i % 2 == 1;
        for (int k = 0; k < 2 && !opts.trace && i > 0; ++k)
            restarts.push_back(w->restartS());
        set_up(kSetupsPerPass);
        if (do_trace)
            tracer.resetStats();
        PassResult r;
        {
            // The root of every traced pass's spans, so the span file
            // shows each pass even where all else is sampled.
            Tracer *t = do_trace ? &tracer : nullptr;
            Span s(t, pass_k);
            r = w->runPass(t);
        }
        if (first_digest.empty())
            first_digest = r.digest;
        else if (r.digest != first_digest)
            w->violations.push_back(
                "pass " + std::to_string(i) + (do_trace ? " (traced)" : "") +
                " digest " + r.digest + " differs from pass 0's " +
                first_digest);
        (do_trace ? traced : plain).push_back(std::move(r));
        const bool enough = plain.size() >= min_each &&
                            (!opts.trace || traced.size() >= min_each);
        if (enough && hostNow() - t_start >= opts.seconds)
            break;
    }

    // A test of the gate's reporting: a violation, on request.
    if (std::getenv("PERFBENCH_FORCE_VIOLATION"))
        w->violations.push_back("forced by PERFBENCH_FORCE_VIOLATION");

    // Every pass does the same epochs; keep each epoch's fastest time
    // over the untraced passes (the floor). Passes that differ in their
    // epochs fail the run, which still reports the first pass's times.
    bool same_epochs = true;
    for (const PassResult &p : plain)
        same_epochs &= p.epochsS.size() == plain.front().epochsS.size();
    double floor_s = plain.front().seconds;
    std::vector<double> epochs = plain.front().epochsS;
    if (same_epochs)
        epochs = floorEpochs(plain, &floor_s);
    else
        w->violations.push_back("passes differ in their epoch count");
    std::size_t attempted = 0;
    for (const PassResult &p : plain)
        attempted += p.epochsS.size();
    for (const PassResult &p : traced)
        attempted += p.epochsS.size();
    std::fprintf(stderr,
                 "perfbench: %s seed=%llu passes=%zu traced=%zu "
                 "epochs=%zu floor=%.4f s setups=%zu\n",
                 opts.workload.c_str(),
                 static_cast<unsigned long long>(opts.seed), plain.size(),
                 traced.size(), epochs.size(), floor_s, setups.size());

    std::vector<std::pair<std::string, double>> values;
    std::vector<std::string> units;
    if (!opts.trace) {
        // The best pass: the shortest time, the highest rate.
        auto bestTimed = [&](const std::string &name) {
            std::vector<double> v;
            for (const PassResult &p : plain) {
                auto it = p.timed.find(name);
                if (it != p.timed.end())
                    v.push_back(it->second);
            }
            if (v.empty())
                return -1.0;
            const bool rate = name.ends_with("_per_s");
            return rate ? *std::max_element(v.begin(), v.end())
                        : *std::min_element(v.begin(), v.end());
        };
        const std::map<std::string, double> &work = plain.front().work;
        for (const auto &[name, unit] : kEndToEnd) {
            double v = 0.0;
            if (name == "setup_s") {
                v = *std::min_element(setups.begin(), setups.end());
            } else if (name == "peak_rss_mb") {
                v = peakRssMb();
            } else if (name == "epoch_p50_ms") {
                v = quantile(epochs, 0.5) * 1e3;
            } else if (name == "epoch_p90_ms") {
                v = quantile(epochs, 0.9) * 1e3;
            } else if (auto it = work.find(name); it != work.end()) {
                v = it->second / floor_s;
            } else if (double t = bestTimed(name); t >= 0.0) {
                v = t;
            } else if (name == "resume_s") {
                // Likewise the fastest of the restarts.
                while (restarts.size() < 6)
                    restarts.push_back(w->restartS());
                v = *std::min_element(restarts.begin(), restarts.end());
            } else {
                auto it = plain.front().outcomes.find(name);
                if (it == plain.front().outcomes.end())
                    w->violations.push_back("workload reported no " + name);
                else
                    v = it->second;
            }
            values.emplace_back(name, v);
            units.push_back(unit);
        }
    } else {
        std::map<std::string, double> sums;
        for (const PassResult &p : traced)
            for (const auto &[k, v] : p.layers)
                sums[k] += v;
        for (auto &[k, v] : sums)
            v /= static_cast<double>(traced.size());
        for (const auto &[k, v] : w->extraLayers())
            sums[k] = v;
        std::vector<double> ps, ts;
        for (const PassResult &p : plain)
            ps.push_back(p.seconds);
        for (const PassResult &p : traced)
            ts.push_back(p.seconds);
        sums["bench.trace_overhead_frac"] = median(ts) / median(ps) - 1.0;
        sums["bench.epoch_samples"] = static_cast<double>(epochs.size());
        // A layer this workload does not exercise is read from the
        // tiny pass of the workload that does.
        sums.merge(otherLayers(opts, &w->violations));
        for (const std::string &name : layerMetricNames()) {
            auto it = sums.find(name);
            if (it == sums.end())
                w->violations.push_back("no workload reported " + name);
            values.emplace_back(name, it == sums.end() ? 0.0 : it->second);
            units.push_back(layerUnit(name));
        }
        tracer.writeChromeTrace(opts.workdir + "/spans-" + opts.workload +
                                ".json");
    }

    std::printf("{\"digest\": %s, \"workload\": %s, \"seed\": %llu}\n",
                jsonString(first_digest).c_str(),
                jsonString(opts.workload).c_str(),
                static_cast<unsigned long long>(opts.seed));
    for (const std::string &v : w->violations)
        std::fprintf(stderr, "perfbench: CORRECTNESS VIOLATION: %s\n",
                     v.c_str());
    const bool correct = w->violations.empty();
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false", attempted, w->violations.size(),
                metricsJson(values, units).c_str());
    return correct ? 0 : 1;
}
