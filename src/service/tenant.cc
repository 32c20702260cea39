#include "service/tenant.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

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
    out.line(kTenantRecordTag);
    out.u64("gen", generated);
    out.u64("dbp", droppedBp);
    out.u64("dsh", droppedShedEv);
    out.u64("thr", throttledTk);
    out.u64("fp", stateFingerprint());
    std::vector<std::uint64_t> residue;
    for (const WriteEvent &ev : ring.contents())
        residue.insert(residue.end(), {ev.at.value(), ev.row});
    out.tuples("ring", residue, 2);
    std::vector<std::uint64_t> held_event;
    if (held)
        held_event = {heldEv.at.value(), heldEv.row, holdSince.value()};
    out.tuples("held", held_event, 3);
    loop.saveState(out);
    out.line("ingest");
    out.u64("applied", applied);
    std::vector<std::uint64_t> counts;
    for (std::size_t i = 0; i < latency.numBuckets(); ++i)
        counts.push_back(latency.count(i));
    out.tuples("lat", counts);
    stream.saveState(out);
    return std::move(out).take();
}

std::uint32_t
TenantSession::loadTenantLine(StateReader &in)
{
    in.line(kTenantRecordTag);
    generated = in.u64("gen");
    droppedBp = in.u64("dbp");
    droppedShedEv = in.u64("dsh");
    throttledTk = in.u64("thr");
    const auto fingerprint =
        static_cast<std::uint32_t>(in.u64("fp", 1ull << 32));
    const std::vector<std::uint64_t> residue = in.tuples("ring", 2);
    for (std::size_t i = 0; i < residue.size(); i += 2)
        in.check(residue[i + 1] < geom.totalRows() &&
                     ring.tryPush({Tick{residue[i]}, residue[i + 1]}) ==
                         PushResult::Ok,
                 "holds ring residue past the module or the ring");
    const std::vector<std::uint64_t> ev = in.tuples("held", 3);
    in.check(ev.size() <= 3 && (ev.empty() || ev[1] < geom.totalRows()),
             "holds more than one held event, or one past the module");
    held = !ev.empty();
    if (held) {
        heldEv = WriteEvent{Tick{ev[0]}, ev[1]};
        holdSince = Tick{ev[2]};
    }
    return fingerprint;
}

void
TenantSession::restore(const std::vector<std::string> &record, Tick round_end)
{
    panic_if(generated != 0 || loop.lastTick() != Tick{},
             "restore() needs a freshly constructed session");
    StateReader in(record);
    const std::uint32_t expected = loadTenantLine(in);
    loop.loadState(in);
    in.check(loop.lastTick() == round_end,
             "holds a module that is not at its round's end");
    in.line("ingest");
    applied = in.u64("applied");
    // Every applied event added one latency sample of weight 1, so
    // the counts sum to applied and the weights follow from them.
    std::vector<std::uint64_t> counts = in.tuples("lat");
    in.check(counts.size() == latency.numBuckets() &&
                 std::accumulate(counts.begin(), counts.end(),
                                 std::uint64_t{0}) == applied,
             "holds a latency histogram that does not count the applied "
             "events");
    latency.assign(std::move(counts));
    stream.loadState(in);
    in.finish();

    in.check(stream.generated() == generated,
             "holds a stream cursor at another event than its tenant line");
    // The accounting identity holds at every round boundary.
    in.check(generated == applied + droppedBp + droppedShedEv +
                              ring.size() + (held ? 1 : 0),
             "breaks generated = applied + drops + backlog + held");

    // The gate: the restored mechanism must match the record bit for
    // bit, or the resume is refused with both sides named.
    const std::uint32_t found = stateFingerprint();
    if (found != expected)
        throw ServiceError(strprintf(
            "tenant '%s' diverged from its snapshot on restore: found "
            "fp=%08x, expected fp=%08x",
            tenantSpec.name.c_str(), found, expected));
}

} // namespace memcon::service
