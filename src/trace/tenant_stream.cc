#include "trace/tenant_stream.hh"

#include <algorithm>
#include <functional>

#include "common/logging.hh"
#include "common/state_io.hh"

namespace memcon::trace
{

AppPersona
TenantTrafficConfig::persona() const
{
    fatal_if(rows == 0, "tenant stream needs at least one row");
    fatal_if(rateScale <= 0.0, "rateScale must be positive");
    fatal_if(horizonMs <= 0.0, "horizonMs must be positive");

    // A compact, service-scale persona: the Table 1 shape (hot bursts,
    // Pareto-tailed cold gaps, a read-only residue) compressed so that
    // microsecond-scale service rounds see meaningful traffic. The
    // persona time axis is `rateScale` times the service axis; the
    // stream divides it back out, so durationSec must cover the
    // scaled horizon exactly.
    AppPersona p;
    p.name = "svc-tenant";
    p.type = "service";
    p.durationSec = horizonMs * rateScale / 1000.0;
    p.footprintGB = 0.0;
    p.threads = 1;
    p.pages = rows;
    p.readOnlyFraction = readOnlyFraction;
    p.hotFraction = hotFraction;
    p.burstLenMean = 4.0;
    p.burstGapMeanMs = 0.01;
    p.mediumXmMs = 0.05;
    p.mediumAlpha = 1.5;
    p.hotTailShare = 0.05;
    p.coldXmMs = 0.5;
    p.tailAlpha = 1.8;
    p.seed = seed;
    return p;
}

TenantWriteStream::TenantWriteStream(const TenantTrafficConfig &config)
    : cfg(config), personaState(config.persona()),
      horizon(config.horizonMs * config.rateScale)
{
    if (cfg.hammerEnabled) {
        // Antagonist tenant: the aggressor stream replaces the write
        // process entirely (it validates its own placement).
        hammer = std::make_unique<HammerStream>(
            cfg.hammer, cfg.addressMap,
            cfg.physicalRowLimit != 0 ? cfg.physicalRowLimit : cfg.rows);
        return;
    }
    if (!cfg.bankSet.empty()) {
        const std::uint64_t shards = cfg.addressMap.numShards();
        const std::uint64_t banks = cfg.bankSet.size();
        for (unsigned bank : cfg.bankSet)
            fatal_if(bank >= shards,
                     "tenant bank %u is outside the %llu-shard map '%s'",
                     bank, static_cast<unsigned long long>(shards),
                     cfg.addressMap.name().c_str());
        rowMap.resize(cfg.rows);
        for (std::uint64_t i = 0; i < cfg.rows; ++i) {
            const std::uint64_t physical = cfg.addressMap.pageOf(
                cfg.bankSet[i % banks], i / banks);
            fatal_if(cfg.physicalRowLimit != 0 &&
                         physical >= cfg.physicalRowLimit,
                     "tenant row %llu maps to physical row %llu past "
                     "the module's %llu rows",
                     static_cast<unsigned long long>(i),
                     static_cast<unsigned long long>(physical),
                     static_cast<unsigned long long>(
                         cfg.physicalRowLimit));
            rowMap[i] = physical;
        }
    }

    rows.reserve(cfg.rows);
    for (std::uint64_t row = 0; row < cfg.rows; ++row) {
        rows.emplace_back(personaState, row);
        draw(row, 0.0);
    }
}

void
TenantWriteStream::draw(std::uint64_t row, double last)
{
    double t;
    if (!rows[row].next(t))
        return;
    ++drawn;
    // A row running backwards would silently reorder ties.
    panic_if(t < last, "write time %g of row %llu runs back from %g", t,
             static_cast<unsigned long long>(row), last);
    // Nothing after a sorted row's first out-of-horizon time can be
    // inside it. PageWriteStream stops at its own durationMs, which
    // can differ from the horizon by an ulp, so cut here as well.
    if (t >= horizon)
        return;
    heap.emplace_back(t, row);
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
}

bool
TenantWriteStream::peek(Tick *at, std::uint64_t *row)
{
    if (hammer)
        return hammer->peek(at, row);
    if (heap.empty())
        return false;
    const auto [t, logical] = heap.front();
    // Persona ms -> service ms -> ticks. msToTicks() rounds, and a
    // monotone input stays monotone under a monotone rounding map, so
    // consumers see non-decreasing ticks.
    *at = msToTicks(t / cfg.rateScale);
    *row = rowMap.empty() ? logical : rowMap[logical];
    return true;
}

void
TenantWriteStream::pop()
{
    ++popped;
    if (hammer) {
        hammer->pop();
        return;
    }
    panic_if(heap.empty(), "pop() on an exhausted tenant stream");
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const auto [t, row] = heap.back();
    heap.pop_back();
    draw(row, t);
}

void
TenantWriteStream::saveState(StateWriter &out) const
{
    out.line("stream");
    out.u64("popped", popped);
    if (hammer)
        return; // an access is a pure function of its index
    // Per row: RNG words, burst position and done flag; each live
    // row's pending time follows in `times`, in row order. A finished
    // row draws nothing more, so it saves as zeros.
    std::vector<double> pending(rows.size(), -1.0); // -1: finished
    for (const auto &[t, row] : heap)
        pending[row] = t;
    std::vector<std::uint64_t> words;
    std::vector<double> times;
    words.reserve(rows.size() * 6);
    times.reserve(heap.size());
    for (std::uint64_t row = 0; row < rows.size(); ++row) {
        if (pending[row] < 0.0) {
            words.insert(words.end(), {0, 0, 0, 0, 0, 1});
            continue;
        }
        const PageWriteProcess::State st = rows[row].state().proc;
        words.insert(words.end(), {st.rng[0], st.rng[1], st.rng[2],
                                   st.rng[3], st.burstRemaining, 0});
        times.push_back(pending[row]);
    }
    out.tuples("rows", words, 6);
    out.reals("times", times);
}

void
TenantWriteStream::loadState(StateReader &in)
{
    in.line("stream");
    popped = in.u64("popped");
    if (hammer) {
        in.check(popped <= hammer->totalAccesses(),
                 "holds a hammer cursor past the stream's end");
        hammer->restoreCursor(popped);
        return;
    }
    const std::vector<std::uint64_t> words = in.tuples("rows", 6);
    const std::vector<double> times = in.reals("times");
    in.check(words.size() == cfg.rows * 6,
             "does not hold one write process per row");
    std::vector<PageWriteStream> rebuilt;
    std::vector<Pending> live;
    rebuilt.reserve(cfg.rows);
    for (std::uint64_t row = 0; row < cfg.rows; ++row) {
        const std::uint64_t *v = &words[row * 6];
        PageWriteStream gen(personaState, row);
        PageWriteStream::State st;
        st.done = v[5] != 0;
        in.check(v[5] <= 1, "holds a malformed write process");
        if (st.done) {
            in.check((v[0] | v[1] | v[2] | v[3] | v[4]) == 0,
                     "holds a finished row that carries state");
        } else {
            // A fresh read-only row is done before it draws anything.
            in.check(!gen.state().done,
                     "holds a live write process on a read-only row");
            // xoshiro never reaches the all-zero state.
            in.check((v[0] | v[1] | v[2] | v[3]) != 0,
                     "holds a live write process without state");
            in.check(live.size() < times.size(),
                     "holds fewer times than live rows");
            st.t = times[live.size()];
            in.check(st.t >= 0.0 && st.t < horizon,
                     "holds a write time outside the horizon");
            st.proc.rng = {v[0], v[1], v[2], v[3]};
            st.proc.burstRemaining = v[4];
            live.emplace_back(st.t, row);
        }
        gen.restore(st);
        rebuilt.push_back(std::move(gen));
    }
    in.check(live.size() == times.size(), "holds times no row claims");
    std::make_heap(live.begin(), live.end(), std::greater<>{});
    rows = std::move(rebuilt);
    heap = std::move(live);
    drawn = 0;
}

} // namespace memcon::trace
