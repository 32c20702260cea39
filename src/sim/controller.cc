#include "sim/controller.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/state_io.hh"

namespace memcon::sim
{

const MemoryController::CounterName MemoryController::kCounterNames[] = {
    {"act", &Counters::act},
    {"completed.read", &Counters::completedRead},
    {"completed.write", &Counters::completedWrite},
    {"ecc.corrected", &Counters::eccCorrected},
    {"ecc.uncorrectable", &Counters::eccUncorrectable},
    {"enq.read", &Counters::enqRead},
    {"enq.write", &Counters::enqWrite},
    {"queueFull", &Counters::queueFull},
    {"refresh", &Counters::refresh},
    {"rowConflict", &Counters::rowConflict},
    {"rowHit", &Counters::rowHit},
    {"rowMiss", &Counters::rowMiss},
    {"svc.read", &Counters::svcRead},
    {"svc.write", &Counters::svcWrite},
};

/** stats()'s name for Counters::readLatencyTicks. */
constexpr const char *kReadLatencyName = "readLatencyTicks";

void
MemoryController::ReadFifo::pushBack(Pending p)
{
    if (count == slots.size()) {
        std::vector<Pending> grown(std::max<std::size_t>(8, 2 * count));
        for (std::size_t i = 0; i < count; ++i)
            grown[i] = std::move(slots[(head + i) & (slots.size() - 1)]);
        slots = std::move(grown);
        head = 0;
    }
    slots[(head + count) & (slots.size() - 1)] = std::move(p);
    ++count;
}

void
MemoryController::ReadFifo::popFront()
{
    slots[head] = Pending{};
    head = (head + 1) & (slots.size() - 1);
    --count;
}

MemoryController::MemoryController(const dram::Geometry &geometry,
                                   const dram::TimingParams &timing,
                                   const ControllerConfig &config)
    : geom(geometry), params(timing), cfg(config), chan(geometry, timing)
{
    fatal_if(cfg.refreshReduction < 0.0 || cfg.refreshReduction >= 1.0,
             "refresh reduction must lie in [0, 1)");
    fatal_if(cfg.writeDrainLow > cfg.writeDrainHigh,
             "write drain low watermark above high watermark");
    fatal_if(cfg.writeDrainHigh > cfg.writeQueueCapacity,
             "write drain high watermark above queue capacity");

    double stretch = 1.0 / (1.0 - cfg.refreshReduction);
    effectiveTrefi = Tick{static_cast<std::uint64_t>(
        static_cast<double>(params.cyc(params.tREFI).value()) * stretch)};
    nextRefresh.assign(geom.ranks, effectiveTrefi);
}

void
MemoryController::setRefreshReduction(double reduction)
{
    fatal_if(reduction < 0.0 || reduction >= 1.0,
             "refresh reduction must lie in [0, 1)");
    cfg.refreshReduction = reduction;
    double stretch = 1.0 / (1.0 - reduction);
    effectiveTrefi = Tick{static_cast<std::uint64_t>(
        static_cast<double>(params.cyc(params.tREFI).value()) * stretch)};
    cachedNext = Tick{};
}

bool
MemoryController::accepts(Request::Type type, bool is_test) const
{
    const bool is_read = type == Request::Type::Read;
    std::size_t capacity =
        is_read ? cfg.readQueueCapacity : cfg.writeQueueCapacity;
    if (is_test)
        capacity = std::min(capacity, cfg.testAdmissionLimit);
    return (is_read ? readQueue : writeQueue).size() < capacity;
}

std::size_t
MemoryController::finishedSilentReads() const
{
    std::size_t n = 0;
    while (n < inflight.size() && inflight[n].silent() &&
           inflight[n].dataDone <= lastTick)
        ++n;
    return n;
}

MemoryController::Counters
MemoryController::foldedCounts() const
{
    Counters folded = counts;
    for (std::size_t i = 0, n = finishedSilentReads(); i < n; ++i)
        folded.credit(inflight[i]);
    return folded;
}

StatGroup
MemoryController::stats() const
{
    const Counters folded = foldedCounts();
    StatGroup group("mc");
    for (const CounterName &c : kCounterNames)
        if (folded.*c.field > 0)
            group.inc(c.name, folded.*c.field);
    if (folded.readLatencyTicks > 0.0)
        group.accum(kReadLatencyName, folded.readLatencyTicks);
    return group;
}

bool
MemoryController::enqueue(Request request, Tick now)
{
    if (!accepts(request.type, request.isTest)) {
        ++counts.queueFull;
        return false;
    }
    bool is_read = request.type == Request::Type::Read;
    bool is_test = request.isTest;
    std::uint64_t addr = request.addr;
    request.coords = geom.decompose(request.addr);
    request.arrival = now;
    RequestQueue &queue = is_read ? readQueue : writeQueue;
    queue.entries.push_back(std::move(request));
    if (!is_test)
        ++queue.demands;
    cachedNext = Tick{};
    ++(is_read ? counts.enqRead : counts.enqWrite);
    if (!is_read && !is_test && cfg.writeObserver)
        cfg.writeObserver(addr, now);
    return true;
}

bool
MemoryController::idle() const
{
    return readQueue.empty() && writeQueue.empty() &&
           finishedSilentReads() == inflight.size();
}

void
MemoryController::completeFinishedReads(Tick now)
{
    // Reads finish in issue order, so the finished ones are a prefix;
    // a silent one among them may have finished ticks ago.
    while (!inflight.empty() && inflight.front().dataDone <= now) {
        Pending done = std::move(inflight.front());
        inflight.popFront();
        counts.credit(done);
        if (!done.req.isTest && cfg.eccProbe) {
            dram::EccStatus st = cfg.eccProbe(done.req.addr, now);
            switch (st) {
            case dram::EccStatus::Ok:
                break;
            case dram::EccStatus::CorrectedData:
            case dram::EccStatus::CorrectedCheck:
                ++counts.eccCorrected;
                break;
            case dram::EccStatus::Uncorrectable:
                ++counts.eccUncorrectable;
                break;
            }
            if (st != dram::EccStatus::Ok && cfg.errorObserver)
                cfg.errorObserver(done.req.addr, st, now);
        }
        if (done.req.onComplete)
            done.req.onComplete(done.req);
    }
}

void
MemoryController::handleRefresh(Tick now)
{
    if (!cfg.refreshEnabled)
        return;
    for (unsigned rank = 0; rank < geom.ranks; ++rank) {
        if (now < nextRefresh[rank])
            continue;

        // Refresh is due: close any open bank, then issue REF.
        if (!chan.allBanksPrecharged(rank)) {
            for (unsigned b = 0; b < geom.banks; ++b) {
                if (chan.isRowOpen(rank, b) &&
                    chan.canIssue(dram::Command::Pre, rank, b, RowId{}, now)) {
                    chan.issue(dram::Command::Pre, rank, b, RowId{}, now);
                    return; // one command per tick
                }
            }
            return; // waiting for a PRE to become legal
        }
        if (chan.canIssue(dram::Command::Ref, rank, 0, RowId{}, now)) {
            chan.issue(dram::Command::Ref, rank, 0, RowId{}, now);
            ++counts.refresh;
            nextRefresh[rank] += effectiveTrefi;
            return;
        }
        return; // REF pending but not yet legal; hold the rank
    }
}

MemoryController::Candidate
MemoryController::pickCandidate(const RequestQueue &queue, Tick now) const
{
    // FR-FCFS with demand-over-test priority: the oldest demand row
    // hit wins; if none, the oldest demand request. Test traffic is
    // only chosen when no demand request exists in the queue, by the
    // same rule. A demand request older than the starvation threshold
    // bypasses row-hit preference, or streaming row hits could starve
    // a row miss forever. One pass, which stops once no later entry
    // can change the answer.
    Candidate pick;
    auto row_hit = [this](const Request &r) {
        return chan.isRowHit(r.coords.rank, r.coords.bank, r.coords.row);
    };
    std::size_t demands_left = queue.demands;
    int first_demand = -1;
    int first_test = -1;
    int test_hit = -1;
    int idx = 0;
    for (auto it = queue.entries.begin(); it != queue.entries.end();
         ++it, ++idx) {
        const Request &r = *it;
        if (!r.isTest) {
            --demands_left;
            if (first_demand < 0) {
                first_demand = idx;
                if (now - r.arrival > cfg.starvationThreshold) {
                    pick.index = idx; // aged out: serve in order
                    break;
                }
                // Until it ages out, row hits may overtake it.
                pick.changesAt =
                    r.arrival + cfg.starvationThreshold + Tick{1};
            }
            if (row_hit(r)) {
                pick.index = idx;
                break;
            }
            if (demands_left == 0)
                break; // no demand row hit: the oldest demand it is
        } else if (demands_left == 0) {
            // A queue without demand requests: tests by the same rule.
            if (first_test < 0)
                first_test = idx;
            if (row_hit(r)) {
                test_hit = idx;
                break;
            }
        }
    }
    if (pick.index < 0)
        pick.index = first_demand >= 0 ? first_demand
                     : test_hit >= 0  ? test_hit
                                      : first_test;
    if (pick.index < 0)
        return pick;

    const Request &req =
        queue.entries[static_cast<std::size_t>(pick.index)];
    const auto &c = req.coords;
    if (!chan.isRowOpen(c.rank, c.bank))
        pick.command = dram::Command::Act;
    else if (!chan.isRowHit(c.rank, c.bank, c.row))
        pick.command = dram::Command::Pre; // row conflict: close it
    else
        pick.command = req.type == Request::Type::Read ? dram::Command::Rd
                                                       : dram::Command::Wr;
    pick.issueAt = chan.earliestIssueTick(
        pick.command, c.rank, c.bank,
        pick.command == dram::Command::Pre ? RowId{} : c.row);
    return pick;
}

bool
MemoryController::serviceQueue(RequestQueue &queue, Tick now,
                               Tick &idle_bound)
{
    const Candidate pick = pickCandidate(queue, now);
    if (pick.index < 0)
        return false;
    if (pick.issueAt > now) {
        idle_bound = std::min(idle_bound, pick.eventTick());
        return false;
    }
    const dram::Command cmd = pick.command;
    Request &req = queue.entries[static_cast<std::size_t>(pick.index)];
    const auto &c = req.coords;
    const Tick data_done = chan.issue(
        cmd, c.rank, c.bank, cmd == dram::Command::Pre ? RowId{} : c.row,
        now);

    switch (cmd) {
    case dram::Command::Rd:
    case dram::Command::Wr: {
        const bool is_read = cmd == dram::Command::Rd;
        ++(is_read ? counts.svcRead : counts.svcWrite);
        ++counts.rowHit;
        if (!req.isTest)
            --queue.demands;
        if (is_read) {
            // One RD per tick and a fixed CL: issue order is
            // completion order.
            panic_if(!inflight.empty() && inflight.back().dataDone > data_done,
                     "a read issued at tick %llu finishes before the one "
                     "issued ahead of it",
                     static_cast<unsigned long long>(now.value()));
            inflight.pushBack({std::move(req), data_done});
        } else {
            ++counts.completedWrite;
        }
        queue.entries.erase(queue.entries.begin() + pick.index);
        break;
    }
    case dram::Command::Pre:
        ++counts.rowConflict;
        break;
    default: // ACT: the bank was closed
        ++counts.rowMiss;
        ++counts.act;
        if (cfg.activateObserver)
            cfg.activateObserver(req.addr, now);
        break;
    }
    return true;
}

bool
MemoryController::refreshDue(Tick now) const
{
    if (!cfg.refreshEnabled)
        return false;
    for (unsigned rank = 0; rank < geom.ranks; ++rank)
        if (now >= nextRefresh[rank])
            return true;
    return false;
}

bool
MemoryController::nextDrainState(bool draining) const
{
    // Write drain hysteresis.
    if (draining)
        return writeQueue.size() > cfg.writeDrainLow;
    return writeQueue.size() >= cfg.writeDrainHigh ||
           (readQueue.empty() && !writeQueue.empty());
}

void
MemoryController::advanceDrainState(std::uint64_t cycles)
{
    // With the queues frozen the per-tick update is one of keep, set,
    // clear or toggle; apply it `cycles` times in O(1).
    if (cycles == 0)
        return;
    const bool once = nextDrainState(drainingWrites);
    if (once == drainingWrites)
        return;
    if (nextDrainState(once) == once || cycles % 2 == 1)
        drainingWrites = once;
}

void
MemoryController::tick(Tick now)
{
    lastTick = now;
    if (now < cachedNext) {
        // A due refresh returns ahead of the hysteresis step.
        if (!refreshDue(now))
            advanceDrainState(1);
        return;
    }
    cachedNext = Tick{};
    completeFinishedReads(now);

    // Refresh has strict priority; when a refresh is in progress or
    // due for some rank, try to make progress on it first.
    if (refreshDue(now)) {
        handleRefresh(now);
        return;
    }
    drainingWrites = nextDrainState(drainingWrites);
    RequestQueue &first = drainingWrites ? writeQueue : readQueue;
    RequestQueue &second = drainingWrites ? readQueue : writeQueue;
    Tick first_event = kTickNever;
    Tick second_event = kTickNever;
    if (serviceQueue(first, now, first_event) ||
        serviceQueue(second, now, second_event))
        return;
    // Nothing issued: both picks stand, and their event ticks bound
    // the next tick that can act.
    cachedNext = drainingWrites ? eventBound(now, second_event, first_event)
                                : eventBound(now, first_event, second_event);
}

void
MemoryController::skipCycles(Tick now, std::uint64_t cycles)
{
    lastTick = now + params.tCk * cycles;
    // A due refresh returns from tick() ahead of the hysteresis step.
    if (!refreshDue(now))
        advanceDrainState(cycles);
}

Tick
MemoryController::nextEventTick(Tick now)
{
    if (cachedNext <= now)
        cachedNext =
            eventBound(now, pickCandidate(readQueue, now).eventTick(),
                       pickCandidate(writeQueue, now).eventTick());
    return cachedNext;
}

Tick
MemoryController::refreshActionTick(unsigned rank) const
{
    // handleRefresh closes the open banks one PRE at a time, then
    // issues REF.
    if (chan.allBanksPrecharged(rank))
        return chan.earliestIssueTick(dram::Command::Ref, rank, 0, RowId{});
    Tick earliest = kTickNever;
    for (unsigned b = 0; b < geom.banks; ++b)
        if (chan.isRowOpen(rank, b))
            earliest = std::min(earliest,
                                chan.earliestIssueTick(dram::Command::Pre,
                                                       rank, b, RowId{}));
    return earliest;
}

Tick
MemoryController::eventBound(Tick now, Tick read_event,
                             Tick write_event) const
{
    // The first read that is probed or called back; the silent ones
    // ahead of it are credited when it, or another event, comes.
    Tick next = kTickNever;
    for (std::size_t i = 0; i < inflight.size(); ++i) {
        if (!inflight[i].silent()) {
            next = inflight[i].dataDone;
            break;
        }
    }
    bool refresh_due = false;
    if (cfg.refreshEnabled) {
        // handleRefresh serves the lowest-numbered due rank; a rank
        // falling due is itself an event.
        for (unsigned rank = 0; rank < geom.ranks; ++rank) {
            if (now < nextRefresh[rank]) {
                next = std::min(next, nextRefresh[rank]);
            } else if (!refresh_due) {
                refresh_due = true;
                next = std::min(next, refreshActionTick(rank));
            }
        }
    }
    // A due refresh holds both queues until it is issued.
    if (!refresh_due)
        next = std::min({next, read_event, write_event});
    return std::max(next, now + Tick{1});
}

namespace
{

constexpr std::size_t kRequestArity = 5;

/** (type, addr, arrival, coreId + 1, isTest) of a plain-data request. */
void
appendRequest(std::vector<std::uint64_t> &out, const Request &r)
{
    panic_if(static_cast<bool>(r.onComplete),
             "a queued request with a completion callback cannot be "
             "saved");
    panic_if(r.coreId < -1, "request core id %d out of range", r.coreId);
    out.insert(out.end(),
               {r.type == Request::Type::Write ? 1u : 0u, r.addr,
                r.arrival.value(),
                static_cast<std::uint64_t>(r.coreId + 1),
                r.isTest ? 1u : 0u});
}

Request
requestFrom(const dram::Geometry &geom, const std::uint64_t *v,
            StateReader &in)
{
    in.check(v[0] <= 1 && v[4] <= 1 && v[3] <= 1u << 30 &&
                 v[1] < geom.capacityBytes() && v[1] % geom.blockBytes == 0,
             "holds a malformed request");
    Request r;
    r.type = v[0] != 0 ? Request::Type::Write : Request::Type::Read;
    r.addr = v[1];
    r.coords = geom.decompose(r.addr);
    r.arrival = Tick{v[2]};
    r.coreId = static_cast<int>(v[3]) - 1;
    r.isTest = v[4] != 0;
    return r;
}

} // namespace

void
MemoryController::saveState(StateWriter &out) const
{
    out.line("mc");
    out.flag("drain", drainingWrites);
    out.f64("red", cfg.refreshReduction);
    out.tick("trefi", effectiveTrefi);
    std::vector<std::uint64_t> next;
    for (Tick t : nextRefresh)
        next.push_back(t.value());
    out.tuples("next", next);

    std::vector<std::uint64_t> reads, writes, inflights;
    for (const Request &r : readQueue.entries)
        appendRequest(reads, r);
    for (const Request &r : writeQueue.entries)
        appendRequest(writes, r);
    // The silent reads stats() counts as finished are gone.
    for (std::size_t i = finishedSilentReads(); i < inflight.size(); ++i) {
        appendRequest(inflights, inflight[i].req);
        inflights.push_back(inflight[i].dataDone.value());
    }
    out.line("mcq");
    out.tuples("read", reads, kRequestArity);
    out.tuples("write", writes, kRequestArity);
    out.tuples("inflight", inflights, kRequestArity + 1);
    out.line("mcstats");
    const Counters folded = foldedCounts();
    for (const CounterName &c : kCounterNames)
        out.u64(c.name, folded.*c.field);
    out.f64(kReadLatencyName, folded.readLatencyTicks);
    chan.saveState(out);
}

void
MemoryController::loadState(StateReader &in)
{
    in.line("mc");
    drainingWrites = in.flag("drain");
    const double reduction = in.f64("red");
    in.check(reduction >= 0.0 && reduction < 1.0,
             "holds a refresh reduction outside [0, 1)");
    cfg.refreshReduction = reduction;
    effectiveTrefi = in.tick("trefi");
    in.check(effectiveTrefi > Tick{}, "holds a zero refresh interval");
    const std::vector<std::uint64_t> next = in.tuples("next");
    in.check(next.size() == nextRefresh.size(),
             "does not hold one refresh deadline per rank");
    for (std::size_t r = 0; r < next.size(); ++r)
        nextRefresh[r] = Tick{next[r]};

    in.line("mcq");
    auto load_queue = [&](const char *key, RequestQueue &queue,
                          std::size_t capacity) {
        const std::vector<std::uint64_t> v = in.tuples(key, kRequestArity);
        in.check(v.size() / kRequestArity <= capacity,
                 "holds a queue past its capacity");
        queue.entries.clear();
        queue.demands = 0;
        for (std::size_t i = 0; i < v.size(); i += kRequestArity) {
            queue.entries.push_back(requestFrom(geom, &v[i], in));
            queue.demands += queue.entries.back().isTest ? 0 : 1;
        }
    };
    load_queue("read", readQueue, cfg.readQueueCapacity);
    load_queue("write", writeQueue, cfg.writeQueueCapacity);
    const std::vector<std::uint64_t> v =
        in.tuples("inflight", kRequestArity + 1);
    in.check(v.size() / (kRequestArity + 1) <= cfg.readQueueCapacity,
             "holds more in-flight reads than the read queue holds");
    inflight.clear();
    for (std::size_t i = 0; i < v.size(); i += kRequestArity + 1) {
        const Tick done{v[i + kRequestArity]};
        // Issue order is completion order.
        in.check(inflight.empty() || inflight.back().dataDone <= done,
                 "holds in-flight reads out of issue order");
        inflight.pushBack({requestFrom(geom, &v[i], in), done});
    }
    lastTick = Tick{};
    cachedNext = Tick{}; // not saved: start it empty

    in.line("mcstats");
    for (const CounterName &c : kCounterNames)
        counts.*c.field = in.u64(c.name, 1ull << 53);
    counts.readLatencyTicks = in.f64(kReadLatencyName);
    in.check(std::isfinite(counts.readLatencyTicks) &&
                 !std::signbit(counts.readLatencyTicks),
             "holds a read latency sum that is not finite and "
             "non-negative");
    chan.loadState(in);
}

} // namespace memcon::sim
