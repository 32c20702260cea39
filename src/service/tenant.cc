#include "service/tenant.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/state_io.hh"

namespace memcon::service
{

namespace
{

/** Deterministic per-tenant traffic seed, decorrelated by index. */
std::uint64_t
tenantSeed(std::uint64_t service_seed, std::size_t tenant_index)
{
    return hashMix64(service_seed ^
                     (0x7e9a37u + std::uint64_t{tenant_index} * 0x9e3779b9u));
}

trace::TenantTrafficConfig
trafficConfig(const TenantSpec &spec, const TenantRuntimeConfig &rc,
              std::size_t tenant_index)
{
    trace::TenantTrafficConfig t;
    t.rows = rc.geometry.totalRows();
    t.rateScale = spec.rateScale;
    t.horizonMs = rc.horizonMs;
    t.seed = tenantSeed(rc.seed, tenant_index);
    if (!spec.bankSet.empty()) {
        // Confine the tenant to its declared banks: it owns its
        // proportional share of the module's rows, and the stream
        // emits the physical row each logical row lands on. The
        // placement must tile exactly - a module whose rows do not
        // divide evenly over the banks is a config error, not a
        // truncation.
        const std::uint64_t shards = rc.memcon.addressMap.numShards();
        const std::uint64_t total = rc.geometry.totalRows();
        fatal_if(total % shards != 0,
                 "tenant '%s': %llu module rows do not tile over the "
                 "%llu-bank map '%s'",
                 spec.name.c_str(),
                 static_cast<unsigned long long>(total),
                 static_cast<unsigned long long>(shards),
                 rc.memcon.addressMap.name().c_str());
        t.rows = total / shards * spec.bankSet.size();
        t.addressMap = rc.memcon.addressMap;
        t.bankSet = spec.bankSet;
        t.physicalRowLimit = total;
    }
    if (spec.hammerEnabled) {
        // Antagonist: the aggressor stream replaces the write process.
        // Bank, seed, and horizon come from the service runtime so the
        // attack is deterministic per tenant and stays inside the
        // module; a placed attacker hammers its first declared bank.
        t.hammerEnabled = true;
        t.hammer = spec.hammer;
        t.hammer.horizonMs = rc.horizonMs;
        t.hammer.seed = t.seed;
        t.addressMap = rc.memcon.addressMap;
        t.physicalRowLimit = rc.geometry.totalRows();
        if (!spec.bankSet.empty())
            t.hammer.bank = spec.bankSet.front();
    }
    return t;
}

core::OnlineMemcon::RowFailureOracle
failureOracle(const TenantRuntimeConfig &rc, std::size_t tenant_index)
{
    const std::uint64_t seed = tenantSeed(rc.seed, tenant_index) ^
                               0x0f1e2d3c4b5a6978ull;
    const std::uint64_t threshold =
        static_cast<std::uint64_t>(rc.failRowPercent * 100.0);
    return [seed, threshold](RowId row) {
        return hashMix64(seed ^ (row.value() * 0x9e3779b97f4a7c15ull)) %
                   10000 <
               threshold;
    };
}

} // namespace

TenantSession::TenantSession(const TenantSpec &spec,
                             const TenantRuntimeConfig &runtime,
                             std::size_t tenant_index)
    : tenantSpec(spec),
      rc(runtime),
      geom(runtime.geometry),
      timing(runtime.timing),
      loop(geom, timing, rc.memcon, failureOracle(runtime, tenant_index)),
      stream(trafficConfig(spec, runtime, tenant_index)),
      ring(runtime.ringCapacity)
{
}

void
TenantSession::applyDirectives(const RoundDirectives &directives)
{
    loop.memcon().setScansShed(directives.scansShed);
    loop.memcon().setQuantumStretch(directives.quantumStretch);
}

void
TenantSession::produceCycle(Tick now, const RoundDirectives &directives)
{
    Tick at{};
    std::uint64_t row = 0;

    if (directives.shed) {
        // The governor dropped this tenant for the round: everything
        // that becomes due is counted as a shed drop, held event
        // included. Nothing vanishes silently.
        if (held) {
            held = false;
            ++droppedShedEv;
        }
        while (stream.peek(&at, &row) && at <= now) {
            stream.pop();
            ++generated;
            ++droppedShedEv;
        }
        return;
    }

    if (directives.throttled) {
        // Back off until the verdict's retry-after (the round end):
        // nothing is pulled or pushed, and every cycle a due event
        // sat waiting is accounted as throttle time.
        if (throttleAccrues(now))
            throttledTk += static_cast<std::uint64_t>(timing.tCk.value());
        return;
    }

    // Normal production: move every due event into the ring. A Full
    // ring is explicit backpressure - hold the event and retry next
    // cycle, dropping it only once it has waited out the patience.
    while (true) {
        if (!held) {
            if (!stream.peek(&at, &row) || at > now)
                break;
            stream.pop();
            ++generated;
            heldEv = WriteEvent{at, row};
            held = true;
            holdSince = now;
        }
        if (ring.tryPush(heldEv) == PushResult::Ok) {
            held = false;
            continue;
        }
        if (now - holdSince > rc.dropPatience) {
            ++droppedBp;
            held = false;
            continue;
        }
        break; // keep holding; retry next cycle
    }
}

void
TenantSession::consumeCycle(Tick now, std::uint64_t &budget_left)
{
    // At most one apply per cycle. This is not a throughput limit in
    // practice (grants are far below the cycles per round); it is
    // what makes the journal replay oracle exact: a replayed event -
    // pre-pushed at round start instead of mid-round - can never
    // reach the controller on an earlier cycle than it did live,
    // because pops are paced one per cycle on both paths.
    if (budget_left == 0)
        return;

    WriteEvent ev;
    if (!ring.peek(&ev) || ev.at > now)
        return;

    sim::Request req;
    req.type = sim::Request::Type::Write;
    req.addr = geom.compose(geom.rowFromFlatIndex(RowId{ev.row}));
    if (!loop.controller().enqueue(std::move(req), now))
        return; // controller queue full; the event stays in the ring

    ring.popFront();
    --budget_left;
    ++applied;
    latency.add((now - ev.at).value());
    roundApplied.push_back(ev);
}

bool
TenantSession::throttleAccrues(Tick now)
{
    Tick at{};
    std::uint64_t row = 0;
    return held || (stream.peek(&at, &row) && at <= now);
}

Tick
TenantSession::producerEventTick(Tick now, const RoundDirectives &directives)
{
    Tick at{};
    std::uint64_t row = 0;
    const Tick head = stream.peek(&at, &row) ? at : kTickNever;
    if (directives.throttled)
        return throttleAccrues(now) ? kTickNever : head;
    if (directives.shed || !held)
        return head; // the next event to push or shed
    // A held event enters the ring once it has room; without room it
    // is dropped once it has outwaited the patience.
    if (ring.size() < ring.capacity())
        return now + Tick{1};
    return holdSince + rc.dropPatience + Tick{1};
}

bool
TenantSession::consumerRefused(Tick now, std::uint64_t budget_left) const
{
    WriteEvent ev;
    return budget_left > 0 && ring.peek(&ev) && ev.at <= now &&
           !loop.controller().accepts(sim::Request::Type::Write, false);
}

Tick
TenantSession::consumerEventTick(Tick now, std::uint64_t budget_left) const
{
    WriteEvent ev;
    if (budget_left == 0 || !ring.peek(&ev))
        return kTickNever;
    if (ev.at > now)
        return ev.at;
    // A due head applies next cycle, unless the controller refuses
    // it; then it retries at the controller's next event.
    return consumerRefused(now, budget_left) ? kTickNever : now + Tick{1};
}

RoundReport
TenantSession::runRound(const RoundDirectives &directives, Tick round_start,
                        Tick round_end, const CancelToken *token)
{
    panic_if(loop.lastTick() != round_start,
             "runRound: the module is at tick %llu, not at the round start",
             static_cast<unsigned long long>(loop.lastTick().value()));
    applyDirectives(directives);
    roundApplied.clear();

    const std::uint64_t gen0 = generated;
    const std::uint64_t app0 = applied;
    std::uint64_t budget = directives.grant;

    sim::CycleDriver driver;
    driver.beforeTick = [&](Tick now) {
        // One poll per simulated cycle: a mostly idle round simulates
        // few of its cycles.
        if (token)
            token->throwIfCancelled();
        ++simulated;
        produceCycle(now, directives);
        consumeCycle(now, budget);
    };
    driver.nextEventTick = [&](Tick now) {
        return std::min(producerEventTick(now, directives),
                        consumerEventTick(now, budget));
    };
    driver.skipCycles = [&](Tick now, std::uint64_t cycles) {
        if (directives.throttled && throttleAccrues(now))
            throttledTk +=
                cycles * static_cast<std::uint64_t>(timing.tCk.value());
        if (consumerRefused(now, budget))
            loop.controller().recordRefusals(cycles);
    };
    loop.runUntil(round_end, driver);

    RoundReport report;
    report.generated = generated - gen0;
    report.applied = applied - app0;
    report.backlog = ring.size() + (held ? 1 : 0);
    return report;
}

double
TenantSession::p99IngestTicks() const
{
    const std::uint64_t total = latency.totalCount();
    if (total == 0)
        return 0.0;
    const std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(0.99 * static_cast<double>(total)));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < latency.numBuckets(); ++i) {
        seen += latency.count(i);
        if (seen >= rank) {
            // Report the bucket's upper edge (conservative), except
            // for the overflow bucket whose upper edge is infinite.
            return i + 1 == latency.numBuckets() ? latency.bucketLow(i)
                                                 : latency.bucketHigh(i);
        }
    }
    return latency.bucketLow(latency.numBuckets() - 1);
}

std::string
TenantSession::metricsLine() const
{
    const core::OnlineMemcon &om = loop.memcon();
    return strprintf(
        "tenant=%s gen=%llu app=%llu dbp=%llu dsh=%llu thr=%llu "
        "backlog=%llu held=%d fp=%08x lo=%.17g red=%.17g "
        "tests=%llu/%llu/%llu/%llu dem=%llu pin=%llu p99=%.17g",
        tenantSpec.name.c_str(), (unsigned long long)generated,
        (unsigned long long)applied, (unsigned long long)droppedBp,
        (unsigned long long)droppedShedEv, (unsigned long long)throttledTk,
        (unsigned long long)(ring.size() + (held ? 1 : 0)), held ? 1 : 0,
        om.stateFingerprint(), om.loRefFraction(), om.emergentReduction(),
        (unsigned long long)om.testsStarted(),
        (unsigned long long)om.testsPassed(),
        (unsigned long long)om.testsFailed(),
        (unsigned long long)om.testsAborted(),
        (unsigned long long)om.demotions(),
        (unsigned long long)om.pinnedRows(), p99IngestTicks());
}

std::vector<std::string>
TenantSession::saveState() const
{
    StateWriter out;
    loop.saveState(out);
    out.line("ingest");
    out.u64("applied", applied);
    std::vector<std::uint64_t> counts;
    std::vector<double> weights;
    for (std::size_t i = 0; i < latency.numBuckets(); ++i) {
        counts.push_back(latency.count(i));
        weights.push_back(latency.weight(i));
    }
    out.tuples("lat", counts);
    out.reals("latw", weights);
    out.u64("n", latency.totalCount());
    out.f64("w", latency.totalWeight());
    stream.saveState(out);
    return std::move(out).take();
}

void
TenantSession::restore(const TenantSnapshotRecord &rec, Tick round_end)
{
    panic_if(generated != 0 || loop.lastTick() != Tick{},
             "restore() needs a freshly constructed session");
    StateReader in(rec.state);
    loop.loadState(in);
    in.check(loop.lastTick() == round_end,
             "holds a module that is not at its round's end");
    in.line("ingest");
    applied = in.u64("applied");
    std::vector<std::uint64_t> counts = in.tuples("lat");
    std::vector<double> weights = in.reals("latw");
    const std::uint64_t total = in.u64("n");
    const double total_weight = in.f64("w");
    std::uint64_t sum = 0;
    for (std::uint64_t c : counts)
        sum += c;
    in.check(counts.size() == latency.numBuckets() &&
                 weights.size() == latency.numBuckets() && sum == total,
             "holds a malformed latency histogram");
    latency.assign(std::move(counts), std::move(weights), total,
                   total_weight);
    stream.loadState(in);
    in.finish();

    in.check(stream.generated() == rec.generated,
             "holds a stream cursor at another event than its tenant line");
    generated = rec.generated;
    droppedBp = rec.droppedBackpressure;
    droppedShedEv = rec.droppedShed;
    throttledTk = rec.throttledTicks;
    for (const WriteEvent &ev : rec.residue)
        in.check(ring.tryPush(ev) == PushResult::Ok,
                 "holds more ring residue than the ring holds");
    held = rec.hasHeld;
    heldEv = rec.held;
    holdSince = rec.heldSince;
    for (const WriteEvent &ev : rec.residue)
        in.check(ev.row < geom.totalRows(), "holds a residue row past the "
                                            "module");
    in.check(!held || heldEv.row < geom.totalRows(),
             "holds a held row past the module");
    // The accounting identity holds at every round boundary.
    in.check(generated == applied + droppedBp + droppedShedEv +
                              rec.residue.size() + (held ? 1 : 0),
             "breaks generated = applied + drops + backlog + held");
}

} // namespace memcon::service
