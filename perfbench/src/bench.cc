#include "bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace perfbench
{

double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double pos = q * static_cast<double>(samples.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double
peakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::vector<double>
floorEpochs(const std::vector<PassResult> &passes, double *seconds)
{
    std::vector<double> floor = passes.front().epochsS;
    double outside = 0.0;
    for (std::size_t p = 0; p < passes.size(); ++p) {
        const std::vector<double> &e = passes[p].epochsS;
        double in_epochs = 0.0;
        for (std::size_t k = 0; k < floor.size(); ++k) {
            floor[k] = std::min(floor[k], e[k]);
            in_epochs += e[k];
        }
        const double rest = std::max(0.0, passes[p].seconds - in_epochs);
        outside = p == 0 ? rest : std::min(outside, rest);
    }
    double sum = outside;
    for (double t : floor)
        sum += t;
    *seconds = sum;
    return floor;
}

int
Tracer::kind(const std::string &name, unsigned stride)
{
    auto it = byName.find(name);
    if (it != byName.end())
        return it->second;
    KindStat k;
    k.name = name;
    k.stride = std::max(1u, stride);
    stats.push_back(k);
    const int id = static_cast<int>(stats.size() - 1);
    byName.emplace(name, id);
    return id;
}

void
Tracer::begin(int kind_id)
{
    KindStat &k = stats[kind_id];
    const bool parent_timed = stack.empty() || stack.back().timed;
    const double parent_weight = stack.empty() ? 1.0 : stack.back().weight;
    const bool timed = parent_timed && (k.seen++ % k.stride == 0);
    ++k.calls;
    stack.push_back(Frame{kind_id, timed, parent_weight * k.stride,
                          timed ? hostNow() : 0.0, 0.0});
}

void
Tracer::end()
{
    const Frame f = stack.back();
    stack.pop_back();
    if (!f.timed)
        return;
    const double now = hostNow();
    const double dur = now - f.start;
    KindStat &k = stats[f.kind];
    k.selfS += (dur - f.childS) * f.weight;
    if (!stack.empty())
        stack.back().childS += dur * k.stride;
    constexpr std::size_t kMaxRecords = 200000;
    if (f.weight == 1.0 && records.size() < kMaxRecords)
        records.push_back(Record{f.kind, f.start, now});
}

double
Tracer::selfS(const std::string &name) const
{
    auto it = byName.find(name);
    return it == byName.end() ? 0.0 : stats[it->second].selfS;
}

std::uint64_t
Tracer::calls(const std::string &name) const
{
    auto it = byName.find(name);
    return it == byName.end() ? 0 : stats[it->second].calls;
}

void
Tracer::resetStats()
{
    for (KindStat &k : stats) {
        k.selfS = 0.0;
        k.calls = 0;
        k.seen = 0;
    }
}

void
Tracer::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < records.size(); ++i) {
        const Record &r = records[i];
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f}\n",
                     i == 0 ? "" : ",", stats[r.kind].name.c_str(), 1,
                     (r.start - origin) * 1e6, (r.end - r.start) * 1e6);
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
}

void
Digest::mix(const std::string &text)
{
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
}

void
Digest::add(const std::string &key, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "=%.17g;", value);
    mix(key + buf);
}

void
Digest::add(const std::string &key, std::uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "=%" PRIu64 ";", value);
    mix(key + buf);
}

void
Digest::add(const std::string &key, const std::string &value)
{
    mix(key + "=" + value + ";");
}

const std::vector<std::string> &
layerMetricNames()
{
    static const std::vector<std::string> names = {
        // campaign: the analytic engine and its failure oracle.
        "core.engine.self_s",
        "core.engine.writes",
        "core.engine.tests_run",
        "core.engine.scrub_tests",
        "core.engine.tests_deferred",
        "core.engine.heap_pushes",
        "core.engine.wheel_pops",
        "core.engine.peak_live_streams",
        "core.engine.transitions",
        "core.pril.buffer_drops",
        "core.pril.useful_test_ratio",
        "failure.oracle_s",
        "failure.oracle.calls",
        // closedloop: the cycle-domain module.
        "sim.core.tick_s",
        "trace.hammer_s",
        "sim.controller.tick_s",
        "sim.controller.reads",
        "sim.controller.writes",
        "sim.controller.acts",
        "sim.controller.refreshes",
        "sim.controller.enqueue_rejects",
        "sim.controller.idle_tick_frac",
        "core.online.tick_s",
        "core.online.observe_s",
        "core.online.tests_started",
        "core.online.tests_passed",
        "core.online.tests_aborted",
        "core.online.victim_refreshes",
        "core.online.demotions",
        "core.online.test_pass_ratio",
        "failure.disturb_s",
        "failure.disturb.flips",
        "failure.injector_s",
        // memcond: the service host.
        "service.epoch_s",
        "service.snapshot_save_s",
        "service.snapshot_bytes",
        "service.snapshot_load_s",
        "service.replay_s",
        "service.generated",
        "service.applied",
        "service.dropped_bp",
        "service.dropped_shed",
        "service.throttled_ticks",
        "service.escalations",
        "service.max_stage",
        "service.p99_ingest_ticks",
        "service.apply_ratio",
        // detect: the tester and its kernels.
        "failure.model_build_s",
        "failure.tester.sparse_s",
        "failure.tester.block_s",
        "failure.tester.exhaustive_s",
        "failure.tester.rows",
        "failure.tester.rows_failing",
        "failure.tester.failing_bits",
        "common.simd.bytes_compared",
        // every workload: what tracing itself cost.
        "bench.trace_overhead_frac",
        "bench.epoch_samples",
    };
    return names;
}

std::string
Digest::hex() const
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
    return buf;
}

} // namespace perfbench
