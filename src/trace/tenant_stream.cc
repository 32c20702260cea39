#include "trace/tenant_stream.hh"

#include <algorithm>
#include <cmath>

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
    : cfg(config), personaState(config.persona())
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

    sources.reserve(cfg.rows);
    for (std::uint64_t row = 0; row < cfg.rows; ++row)
        sources.emplace_back(personaState, row);
    buildMerge();
}

void
TenantWriteStream::buildMerge()
{
    std::vector<SourceRef> refs;
    refs.reserve(sources.size());
    for (Source &src : sources)
        refs.push_back(SourceRef{&src});
    const double horizon = cfg.horizonMs * cfg.rateScale;
    // A fixed window: the times the merge draws ahead are saved
    // state, so they must not depend on the batches' history.
    const double window = std::max(horizon / 64.0, 0.01);
    merge = std::make_unique<KWayMerge<SourceRef>>(std::move(refs), horizon,
                                                   window, window);
}

void
TenantWriteStream::Source::push(double t)
{
    if (count == capacity) {
        // Grow, unrolling the ring to start at slot 0.
        auto grown = std::make_unique<double[]>(2 * capacity);
        for (std::uint32_t i = 0; i < count; ++i)
            grown[i] = at(i);
        spill = std::move(grown);
        capacity *= 2;
        head = 0;
    }
    double *slots = spill ? spill.get() : inlineRing;
    slots[(head + count) & (capacity - 1)] = t;
    ++count;
}

bool
TenantWriteStream::SourceRef::next(double &out_ms)
{
    if (src->pulled < src->count) {
        out_ms = src->at(src->pulled++);
        return true;
    }
    if (!src->gen.next(out_ms))
        return false;
    src->push(out_ms);
    ++src->pulled;
    ++src->drawn;
    return true;
}

bool
TenantWriteStream::peek(Tick *at, std::uint64_t *row)
{
    if (hammer)
        return hammer->peek(at, row);
    if (merge->empty())
        return false;
    const auto &item = merge->peek();
    // Persona ms -> service ms -> ticks. msToTicks() rounds, and a
    // monotone input stays monotone under a monotone rounding map, so
    // consumers see non-decreasing ticks.
    *at = msToTicks(item.time / cfg.rateScale);
    *row = rowMap.empty() ? item.source : rowMap[item.source];
    return true;
}

void
TenantWriteStream::pop()
{
    if (hammer) {
        hammer->pop();
        ++popped;
        return;
    }
    panic_if(merge->empty(), "pop() on an exhausted tenant stream");
    sources[merge->pop().source].consume();
    ++popped;
    // Stage the next event now rather than at the next peek(): what
    // the merge has drawn is then a function of the position alone,
    // so the saved cursor does not depend on whether the producer
    // peeked after its last pop.
    if (!merge->empty())
        merge->peek();
}

void
TenantWriteStream::saveState(StateWriter &out) const
{
    out.line("stream");
    out.u64("popped", popped);
    if (hammer)
        return; // an access is a pure function of its index
    // Per row: RNG words, burst position, done flag and how many
    // unconsumed times follow in `times`. A finished process draws
    // nothing more, so its RNG and burst save as zeros; a live one's
    // last draw is its last unconsumed time, so that is not repeated.
    std::vector<std::uint64_t> rows;
    std::vector<double> times;
    rows.reserve(sources.size() * 7);
    for (const Source &src : sources) {
        const PageWriteStream::State st = src.gen.state();
        if (st.done)
            rows.insert(rows.end(), {0, 0, 0, 0, 0, 1});
        else
            rows.insert(rows.end(), {st.proc.rng[0], st.proc.rng[1],
                                     st.proc.rng[2], st.proc.rng[3],
                                     st.proc.burstRemaining, 0});
        rows.push_back(src.count);
        for (std::uint32_t i = 0; i < src.count; ++i)
            times.push_back(src.at(i));
    }
    out.tuples("rows", rows, 7);
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
    const std::vector<std::uint64_t> rows = in.tuples("rows", 7);
    const std::vector<double> times = in.reals("times");
    in.check(rows.size() == cfg.rows * 7,
             "does not hold one write process per row");
    std::vector<Source> rebuilt;
    rebuilt.reserve(cfg.rows);
    std::size_t next_time = 0;
    for (std::uint64_t row = 0; row < cfg.rows; ++row) {
        const std::uint64_t *v = &rows[row * 7];
        const bool done = v[5] != 0;
        in.check(v[5] <= 1 && v[6] <= times.size() - next_time,
                 "holds a malformed write process");
        Source src(personaState, row);
        // A fresh read-only row is done before it draws anything.
        in.check(done || !src.gen.state().done,
                 "holds a live write process on a read-only row");
        for (std::uint64_t i = 0; i < v[6]; ++i, ++next_time) {
            const double t = times[next_time];
            in.check(std::isfinite(t) && t >= 0.0 &&
                         (i == 0 || times[next_time - 1] <= t),
                     "holds write times out of order");
            src.push(t);
        }
        PageWriteStream::State st;
        st.done = done;
        st.started = true;
        if (!done) {
            // xoshiro never reaches the all-zero state.
            in.check((v[0] | v[1] | v[2] | v[3]) != 0 && v[6] > 0,
                     "holds a live write process without state");
            st.proc.rng = {v[0], v[1], v[2], v[3]};
            st.proc.burstRemaining = v[4];
            st.t = src.at(src.count - 1);
        }
        src.gen.restore(st);
        rebuilt.push_back(std::move(src));
    }
    in.check(next_time == times.size(), "holds times no row claims");
    sources = std::move(rebuilt);
    buildMerge();
}

} // namespace memcon::trace
