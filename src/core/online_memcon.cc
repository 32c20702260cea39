#include "core/online_memcon.hh"

#include <algorithm>

#include "common/checkpoint.hh"
#include "common/logging.hh"
#include "common/state_io.hh"

namespace memcon::core
{

OnlineMemcon::OnlineMemcon(const dram::Geometry &geometry,
                           sim::MemoryController &controller,
                           const OnlineMemconConfig &config,
                           RowFailureOracle oracle_fn)
    : geom(geometry), mc(controller), cfg(config),
      oracle(std::move(oracle_fn)),
      pril(geometry.totalRows(), config.writeBufferCapacity),
      engine(config.testEngine), loRows(geometry.totalRows()),
      everWritten(geometry.totalRows()),
      resilience(config.resilience, geometry.totalRows(), statGroup),
      guard(config.disturbGuard, &cfg.addressMap, geometry.totalRows(),
            statGroup),
      nextQuantumEnd(config.quantum), nextRetarget(config.retargetPeriod)
{
    fatal_if(cfg.quantum == Tick{}, "quantum must be positive");
    fatal_if(cfg.testIdle == Tick{}, "test idle period must be positive");
    fatal_if(cfg.hiRefMs <= 0.0 || cfg.loRefMs <= cfg.hiRefMs,
             "need 0 < hiRefMs < loRefMs");
}

void
OnlineMemcon::installObserver(sim::ControllerConfig &cfg,
                              OnlineMemcon *&slot)
{
    cfg.writeObserver = [&slot](std::uint64_t addr, Tick now) {
        if (slot)
            slot->observeWrite(addr, now);
    };
    cfg.errorObserver = [&slot](std::uint64_t addr,
                                dram::EccStatus status, Tick now) {
        if (slot)
            slot->observeEccEvent(addr, status, now);
    };
    cfg.activateObserver = [&slot](std::uint64_t addr, Tick now) {
        if (slot)
            slot->observeActivate(addr, now);
    };
}

RowId
OnlineMemcon::rowOfAddr(std::uint64_t addr) const
{
    return geom.flatRowIndex(geom.decompose(addr));
}

void
OnlineMemcon::observeWrite(std::uint64_t addr, Tick now)
{
    (void)now;
    invalidateNextEvent();
    RowId row = rowOfAddr(addr);
    ++writeCount;
    everWritten.set(row.value());
    pril.onWrite(PageId{row.value()});

    abortTestOn(row);
    demoteRow(row, "demote.write");
}

void
OnlineMemcon::abortTestOn(RowId row)
{
    if (!engine.onWrite(row))
        return;
    // Abort the in-flight test: drop its traffic state too.
    auto it = std::find_if(activeTests.begin(), activeTests.end(),
                           [row](const ActiveTest &t) {
                               return t.row == row;
                           });
    panic_if(it == activeTests.end(),
             "engine had a session without traffic state");
    activeTests.erase(it);
}

void
OnlineMemcon::demoteRow(RowId row, const char *cause)
{
    if (!loRows.test(row.value()))
        return;
    loRows.clear(row.value());
    --loCount;
    ++demotionCount;
    statGroup.inc(cause);
}

void
OnlineMemcon::observeEccEvent(std::uint64_t addr,
                              dram::EccStatus status, Tick now)
{
    invalidateNextEvent();
    RowId row = rowOfAddr(addr);
    using EccAction = ResilienceManager::EccAction;
    switch (resilience.onEccEvent(row, status, loRows.test(row.value()),
                                  now)) {
    case EccAction::None:
        break;
    case EccAction::DemoteAndRetest:
    case EccAction::DemoteAndPin:
        // The certification is stale: the in-flight verdict (if any)
        // is worthless and the row must not stay at LO-REF.
        abortTestOn(row);
        demoteRow(row, "demote.corrected");
        break;
    case EccAction::Fallback:
        enterFallback(now);
        break;
    }
}

void
OnlineMemcon::observeActivate(std::uint64_t addr, Tick now)
{
    if (!cfg.disturbGuard.enabled)
        return;
    if (resilience.inFallback())
        return; // blanket HI-REF already bounds every victim's window
    invalidateNextEvent();
    RowId row = rowOfAddr(addr);
    auto crossing = guard.onActivate(row, now);
    if (!crossing)
        return;
    for (RowId victim : crossing->victims)
        victimRefreshQueue.push_back(victim);
    using EccAction = ResilienceManager::EccAction;
    for (RowId victim : crossing->escalations) {
        switch (resilience.onDisturbEscalation(
            victim, loRows.test(victim.value()), now)) {
        case EccAction::DemoteAndRetest:
        case EccAction::DemoteAndPin:
            // Per-victim refreshes are not keeping up: the row must
            // not sit at LO-REF while it is being hammered.
            abortTestOn(victim);
            demoteRow(victim, "demote.disturb");
            break;
        default:
            break;
        }
    }
    if (crossing->bankDegraded)
        degradeBank(crossing->bank, now);
}

void
OnlineMemcon::degradeBank(std::uint64_t bank, Tick now)
{
    (void)now;
    // Sustained hammering defeats per-victim refresh: the whole bank
    // falls back to HI-REF (its LO rows are demoted, promotions into
    // it are blocked) until the guard's hold expires quietly.
    std::vector<RowId> &recover = bankRecovery[bank];
    std::vector<RowId> demoted;
    loRows.visitSetBits([&](std::size_t row) {
        if (cfg.addressMap.shardOf(row) == bank)
            demoted.push_back(RowId{row});
    });
    for (RowId row : demoted) {
        abortTestOn(row);
        demoteRow(row, "demote.bankDegrade");
        recover.push_back(row);
    }
}

void
OnlineMemcon::enterFallback(Tick now)
{
    if (!resilience.armFallback(now))
        return; // already falling back; the hold was extended
    // Blanket HI-REF: every LO verdict is revoked, remembered, and
    // re-earned through a full re-certification once trust returns.
    // demoteRow clears the visited bit, which the visit contract
    // permits (words are snapshotted before their bits dispatch).
    loRows.visitSetBits([this](std::size_t row) {
        recoveryQueue.push_back(RowId{row});
        demoteRow(RowId{row}, "demote.fallback");
    });
    // Drain the test slots: verdicts in flight are no longer safe to
    // act on.
    std::vector<RowId> in_test = engine.rowsUnderTest();
    statGroup.inc("fallback.drained", in_test.size());
    for (RowId row : in_test)
        engine.onWrite(row);
    activeTests.clear();
    scrubQueue.clear();
    mc.setRefreshReduction(0.0);
}

std::size_t
OnlineMemcon::candidateSlotReserve() const
{
    return scrubQueue.empty() ? 0 : cfg.resilience.scrubReservedSlots;
}

void
OnlineMemcon::startCandidateTests(Tick now)
{
    // Scrub rides the leftover slots, so a reservation keeps a
    // write-heavy stream (candidate queue never empty) from starving
    // it outright.
    const std::size_t reserve = candidateSlotReserve();
    while (!pendingCandidates.empty() && engine.freeSlots() > reserve) {
        RowId row = pendingCandidates.front();
        // A write since candidacy disqualifies the row: PRIL would
        // have evicted it, but it may already sit in our queue (a
        // stale read-only candidate re-enters through PRIL later).
        // Pinned rows are never worth re-certifying.
        if (engine.isUnderTest(row) || loRows.test(row.value()) ||
            resilience.isPinned(row)) {
            pendingCandidates.pop_front();
            continue;
        }
        if (!beginRowTest(pendingCandidates, false, now))
            break;
    }
}

void
OnlineMemcon::startScrubTests(Tick now)
{
    // Scrub rides the same slot machinery as ordinary tests but
    // yields to PRIL's candidates (it runs after them and takes the
    // leftover slots). The row keeps its LO-REF state while the
    // re-certification is in flight; only a failure demotes it.
    while (!scrubQueue.empty() && engine.freeSlots() > 0) {
        RowId row = scrubQueue.front();
        // Demoted or re-queued since the sweep picked it: skip.
        if (!loRows.test(row.value()) || engine.isUnderTest(row)) {
            scrubQueue.pop_front();
            continue;
        }
        if (!beginRowTest(scrubQueue, true, now))
            break;
    }
}

bool
OnlineMemcon::beginRowTest(std::deque<RowId> &queue, bool is_scrub,
                           Tick now)
{
    const RowId row = queue.front();
    if (!engine.beginTest(row))
        return false; // reserve region exhausted (Copy&Compare): retry
    queue.pop_front();

    ActiveTest test;
    test.row = row;
    test.readbackAt = now + cfg.testIdle;
    test.requestsLeft = geom.columnsPerRow; // first read pass
    if (cfg.testEngine.mode == TestMode::CopyAndCompare)
        test.requestsLeft += geom.columnsPerRow; // copy writes
    test.isScrub = is_scrub;
    activeTests.push_back(test);
    return true;
}

sim::Request::Type
OnlineMemcon::pumpRequestType(const ActiveTest &test,
                              bool readback_phase) const
{
    const bool copy_write =
        cfg.testEngine.mode == TestMode::CopyAndCompare && !readback_phase &&
        test.requestsLeft <= geom.columnsPerRow;
    return copy_write ? sim::Request::Type::Write : sim::Request::Type::Read;
}

void
OnlineMemcon::pumpTestTraffic(Tick now)
{
    if (activeTests.empty())
        return;
    // A few requests per tick at most: the controller's admission
    // limit keeps headroom for demand traffic, so this bounds CPU
    // work rather than bandwidth.
    unsigned budget = 4;
    for (ActiveTest &test : activeTests) {
        if (budget == 0)
            return;
        bool readback_phase = now >= test.readbackAt;
        if (test.requestsLeft == 0) {
            if (!readback_phase)
                continue; // idling until read-back time
            // Schedule the read-back pass exactly once; `column`
            // keeps counting total requests (it addresses modulo the
            // row width), which is how completion detects that the
            // read-back pass also drained.
            test.requestsLeft = geom.columnsPerRow;
        }

        while (budget > 0 && test.requestsLeft > 0) {
            dram::Coordinates c = geom.rowFromFlatIndex(test.row);
            c.column = test.column % geom.columnsPerRow;
            sim::Request req;
            req.isTest = true;
            req.coreId = -1;
            req.addr = geom.compose(c);
            req.type = pumpRequestType(test, readback_phase);
            if (!mc.enqueue(std::move(req), now))
                return; // queue at the test admission limit
            --test.requestsLeft;
            ++test.column;
            --budget;
        }
    }
}

void
OnlineMemcon::pumpVictimRefreshes(Tick now)
{
    // A victim refresh is one out-of-band row activation: modeled as
    // a single test-priority read, so it pays for controller
    // bandwidth exactly like scrub traffic does. Bounded per tick for
    // the same CPU-work reason as pumpTestTraffic.
    unsigned budget = 4;
    while (budget > 0 && !victimRefreshQueue.empty()) {
        RowId victim = victimRefreshQueue.front();
        dram::Coordinates c = geom.rowFromFlatIndex(victim);
        c.column = 0;
        sim::Request req;
        req.isTest = true;
        req.coreId = -1;
        req.addr = geom.compose(c);
        req.type = sim::Request::Type::Read;
        if (!mc.enqueue(std::move(req), now))
            return; // queue at the test admission limit; retry next tick
        victimRefreshQueue.pop_front();
        ++victimRefreshCount;
        statGroup.inc("disturb.victimRefresh");
        if (cfg.victimRefresher)
            cfg.victimRefresher(victim, now);
        --budget;
    }
}

void
OnlineMemcon::completeDueTests(Tick now)
{
    unsigned total_requests =
        (cfg.testEngine.mode == TestMode::CopyAndCompare ? 3u : 2u) *
        geom.columnsPerRow;
    for (auto it = activeTests.begin(); it != activeTests.end();) {
        bool ready = now >= it->readbackAt && it->requestsLeft == 0 &&
                     it->column >= total_requests;
        if (!ready) {
            ++it;
            continue;
        }
        RowId row = it->row;
        bool is_scrub = it->isScrub;
        // The oracle stands in for the read-back compare: a row it
        // condemns reads back with at least one decayed cell.
        TestOutcome outcome =
            engine.completeTest(row, oracle && oracle(row));
        if (is_scrub) {
            // The row was LO throughout; a pass re-affirms it, a
            // failure means the certification went stale (VRT,
            // transient corruption) and the row drops to HI-REF.
            if (outcome == TestOutcome::Pass) {
                statGroup.inc("scrub.passed");
            } else if (outcome == TestOutcome::Fail) {
                statGroup.inc("scrub.failed");
                demoteRow(row, "demote.scrub");
            }
        } else if (outcome == TestOutcome::Pass && cfg.loRefEnabled &&
                   !resilience.isPinned(row) &&
                   !loRows.test(row.value())) {
            if (cfg.disturbGuard.enabled &&
                guard.bankDegraded(row, now)) {
                // The bank is under sustained hammering: the verdict
                // is sound but LO-REF is not safe there right now.
                // Re-certify once the bank recovers.
                statGroup.inc("disturb.promotionBlocked");
                bankRecovery[cfg.addressMap.shardOf(row.value())]
                    .push_back(row);
            } else {
                loRows.set(row.value());
                ++loCount;
            }
        }
        it = activeTests.erase(it);
    }
}

void
OnlineMemcon::setQuantumStretch(unsigned factor)
{
    fatal_if(factor == 0, "quantum stretch factor must be >= 1");
    stretchFactor = factor;
    invalidateNextEvent();
}

std::uint32_t
OnlineMemcon::stateFingerprint() const
{
    ckpt::WordCrc crc;
    crc.add(pril.stateFingerprint());
    crc.add(loCount);
    crc.add(quantaSeen);
    crc.add(writeCount);
    crc.add(demotionCount);
    crc.add(nextQuantumEnd.value());
    crc.add(nextRetarget.value());
    crc.add(engine.testsStarted());
    crc.add(engine.testsPassed());
    crc.add(engine.testsFailed());
    crc.add(engine.testsAborted());
    crc.add(shedScans ? 1 : 0);
    crc.add(stretchFactor);
    crc.add(roScanDone ? 1 : 0);
    crc.add(resilience.inFallback() ? 1 : 0);
    crc.add(resilience.pinnedRows());
    loRows.visitSetBits([&crc](std::size_t bit) { crc.add(bit); });
    crc.add(0xA5A5A5A5ull);
    everWritten.visitSetBits([&crc](std::size_t bit) { crc.add(bit); });
    crc.add(0x5A5A5A5Aull);
    for (const ActiveTest &t : activeTests) {
        crc.add(t.row.value());
        crc.add(t.readbackAt.value());
        crc.add(t.requestsLeft);
        crc.add(t.column);
        crc.add(t.isScrub ? 1 : 0);
    }
    crc.add(0xC3C3C3C3ull);
    for (RowId row : pendingCandidates)
        crc.add(row.value());
    crc.add(0x3C3C3C3Cull);
    for (RowId row : scrubQueue)
        crc.add(row.value());
    crc.add(0x55AA55AAull);
    for (RowId row : recoveryQueue)
        crc.add(row.value());
    if (cfg.disturbGuard.enabled) {
        // Mixed only when the guard is on, so fingerprints of
        // configurations that existed before the disturb subsystem
        // stay byte-identical.
        crc.add(0xD157A4B5ull);
        crc.add(victimRefreshCount);
        crc.add(guard.fingerprint());
        for (RowId row : victimRefreshQueue)
            crc.add(row.value());
        for (const auto &[bank, rows] : bankRecovery) {
            crc.add(bank);
            for (RowId row : rows)
                crc.add(row.value());
        }
    }
    return crc.value();
}

double
OnlineMemcon::loRefFraction() const
{
    return static_cast<double>(loCount) /
           static_cast<double>(geom.totalRows());
}

double
OnlineMemcon::emergentReduction() const
{
    return loRefFraction() * (1.0 - cfg.hiRefMs / cfg.loRefMs);
}

void
OnlineMemcon::tick(Tick now)
{
    if (now < cachedNext && !nextEventStale()) {
        skipCycles(1);
        return;
    }
    if (resilience.fallbackExpired(now)) {
        resilience.exitFallback();
        // Trust returns gradually: every formerly-LO row re-enters
        // the ordinary test pipeline and re-earns its verdict.
        for (RowId row : recoveryQueue)
            pendingCandidates.push_back(row);
        recoveryQueue.clear();
    }

    if (now >= nextQuantumEnd) {
        for (PageId page : pril.endQuantum())
            pendingCandidates.push_back(RowId{page.value()});
        nextQuantumEnd += cfg.quantum * std::uint64_t{stretchFactor};
        ++quantaSeen;
        if (!roScanDone && quantaSeen >= 2 && !shedScans) {
            // Read-only identification (Section 6.1): rows with no
            // write so far are background-tested; the slot budget
            // paces them behind PRIL's candidates. Fires once, at
            // the second quantum boundary - or, when the overload
            // governor shed scans over that boundary, at the first
            // boundary after the shed lifts.
            for (std::uint64_t r = 0; r < geom.totalRows(); ++r)
                if (!everWritten.test(r))
                    pendingCandidates.push_back(RowId{r});
            roScanDone = true;
        }
    }

    if (!resilience.inFallback()) {
        // Backoff re-tests of corrected-error rows jump the queue:
        // their refresh state is the one most in doubt.
        for (RowId row : resilience.dueRetests(now)) {
            if (!loRows.test(row.value()) && !engine.isUnderTest(row))
                pendingCandidates.push_front(row);
        }
        // Top up the sweep only once the previous batch drained: a
        // starved backlog must not grow without bound. A shed from
        // the overload governor pauses the top-up entirely.
        if (!shedScans && scrubQueue.empty() && resilience.scrubDue(now)) {
            auto under_test = [this](RowId r) {
                return engine.isUnderTest(r);
            };
            for (RowId row :
                 resilience.nextScrubRows(now, loRows, under_test))
                scrubQueue.push_back(row);
        }
        if (cfg.disturbGuard.enabled) {
            // Banks whose degradation hold expired quietly re-arm:
            // their demoted rows re-earn LO through ordinary tests.
            if (guard.anyBankDegraded()) {
                for (std::uint64_t bank : guard.recoveredBanks(now)) {
                    auto it = bankRecovery.find(bank);
                    if (it == bankRecovery.end())
                        continue;
                    for (RowId row : it->second)
                        pendingCandidates.push_back(row);
                    bankRecovery.erase(it);
                }
            }
            if (!victimRefreshQueue.empty())
                pumpVictimRefreshes(now);
        }
        startCandidateTests(now);
        startScrubTests(now);
        pumpTestTraffic(now);
    }
    completeDueTests(now);

    if (now >= nextRetarget) {
        mc.setRefreshReduction(emergentReduction());
        nextRetarget += cfg.retargetPeriod;
    }
    cachedNext = computeNextEvent(now);
}

bool
OnlineMemcon::nextEventStale() const
{
    // A refused pump stays refused only while the queues hold still.
    return cachedNext == Tick{} ||
           (idleRefusals > 0 && (mc.readQueueSize() != idleReadQueue ||
                                 mc.writeQueueSize() != idleWriteQueue));
}

Tick
OnlineMemcon::nextEventTick(Tick now)
{
    if (cachedNext <= now || nextEventStale())
        cachedNext = computeNextEvent(now);
    return cachedNext;
}

void
OnlineMemcon::skipCycles(std::uint64_t cycles)
{
    mc.recordRefusals(cycles * idleRefusals);
}

Tick
OnlineMemcon::computeNextEvent(Tick now)
{
    const Tick soon = now + Tick{1};
    Tick next = std::min(nextQuantumEnd, nextRetarget);
    unsigned refusals = 0;
    // Read-back times gate the pump's next pass and every completion.
    for (const ActiveTest &test : activeTests)
        if (test.readbackAt > now)
            next = std::min(next, test.readbackAt);

    if (resilience.inFallback()) {
        next = std::min(next, resilience.fallbackEndTick());
    } else {
        next = std::min(next, resilience.nextRetestTick());
        if (!shedScans && scrubQueue.empty())
            next = std::min(next, resilience.nextScrubTick());
        if (cfg.disturbGuard.enabled) {
            next = std::min(next, guard.nextRecoveryTick());
            if (!victimRefreshQueue.empty()) {
                if (mc.accepts(sim::Request::Type::Read, true))
                    next = soon;
                else
                    ++refusals;
            }
        }
        // A start loop that can pop or begin a test acts next tick.
        if ((!pendingCandidates.empty() &&
             engine.freeSlots() > candidateSlotReserve()) ||
            (!scrubQueue.empty() && engine.freeSlots() > 0))
            next = soon;
        // The pump serves tests in order and stops at its first
        // refusal; tests idling before their read-back are skipped.
        for (const ActiveTest &test : activeTests) {
            const bool readback_phase = now >= test.readbackAt;
            if (test.requestsLeft == 0) {
                if (!readback_phase)
                    continue;
                next = soon; // the read-back pass gets scheduled
                break;
            }
            if (mc.accepts(pumpRequestType(test, readback_phase), true))
                next = soon;
            else
                ++refusals;
            break;
        }
    }
    idleRefusals = refusals;
    idleReadQueue = mc.readQueueSize();
    idleWriteQueue = mc.writeQueueSize();
    return std::max(next, soon);
}

namespace
{

std::vector<std::uint64_t>
rowList(const std::deque<RowId> &rows)
{
    std::vector<std::uint64_t> out;
    out.reserve(rows.size());
    for (RowId row : rows)
        out.push_back(row.value());
    return out;
}

void
loadRowList(StateReader &in, const char *key, std::uint64_t rows,
            std::deque<RowId> &out)
{
    out.clear();
    for (std::uint64_t row : in.tuples(key, 1, rows))
        out.push_back(RowId{row});
}

} // namespace

void
OnlineMemcon::saveState(StateWriter &out) const
{
    out.line("om");
    out.u64("quanta", quantaSeen);
    out.flag("shed", shedScans);
    out.u64("stretch", stretchFactor);
    out.flag("ro", roScanDone);
    out.tick("qend", nextQuantumEnd);
    out.tick("retarget", nextRetarget);
    out.u64("writes", writeCount);
    out.u64("demotions", demotionCount);
    out.u64("victims", victimRefreshCount);

    std::vector<std::uint64_t> active;
    for (const ActiveTest &t : activeTests)
        active.insert(active.end(),
                      {t.row.value(), t.readbackAt.value(), t.requestsLeft,
                       t.column, t.isScrub ? 1u : 0u});
    std::vector<std::uint64_t> banks, bank_rows;
    for (const auto &[bank, rows] : bankRecovery) {
        banks.insert(banks.end(), {bank, rows.size()});
        for (RowId row : rows)
            bank_rows.push_back(row.value());
    }
    out.line("omq");
    out.tuples("active", active, 5);
    out.tuples("cand", rowList(pendingCandidates));
    out.tuples("scrub", rowList(scrubQueue));
    out.tuples("recovery", rowList(recoveryQueue));
    out.tuples("victimq", rowList(victimRefreshQueue));
    out.tuples("bankrec", banks, 2);
    out.tuples("bankrows", bank_rows);
    out.line("omrows");
    out.bits("lo", loRows);
    out.bits("ever", everWritten);
    pril.saveState(out);
    engine.saveState(out);
    resilience.saveState(out);
    guard.saveState(out);
    out.line("omstats");
    out.stats(statGroup);
}

void
OnlineMemcon::loadState(StateReader &in)
{
    const std::uint64_t rows = geom.totalRows();
    in.line("om");
    quantaSeen = static_cast<unsigned>(in.u64("quanta", 1ull << 32));
    shedScans = in.flag("shed");
    stretchFactor = static_cast<unsigned>(in.u64("stretch", 1ull << 32));
    in.check(stretchFactor >= 1, "holds a zero quantum stretch");
    roScanDone = in.flag("ro");
    nextQuantumEnd = in.tick("qend");
    nextRetarget = in.tick("retarget");
    writeCount = in.u64("writes");
    demotionCount = in.u64("demotions");
    victimRefreshCount = in.u64("victims");
    // The next-event cache is not saved: start it empty.
    cachedNext = Tick{};
    idleRefusals = 0;

    in.line("omq");
    const std::uint64_t columns = geom.columnsPerRow;
    const std::vector<std::uint64_t> active = in.tuples("active", 5);
    activeTests.clear();
    for (std::size_t i = 0; i < active.size(); i += 5) {
        const std::uint64_t *v = &active[i];
        in.check(v[0] < rows && v[2] <= 2 * columns && v[3] <= 3 * columns &&
                     v[4] <= 1,
                 "holds a malformed active test");
        activeTests.push_back({RowId{v[0]}, Tick{v[1]},
                               static_cast<unsigned>(v[2]),
                               static_cast<unsigned>(v[3]), v[4] != 0});
    }
    loadRowList(in, "cand", rows, pendingCandidates);
    loadRowList(in, "scrub", rows, scrubQueue);
    loadRowList(in, "recovery", rows, recoveryQueue);
    loadRowList(in, "victimq", rows, victimRefreshQueue);
    // Pairs of (bank, row count): only the bank is below numShards.
    const std::vector<std::uint64_t> banks = in.tuples("bankrec", 2);
    const std::vector<std::uint64_t> bank_rows =
        in.tuples("bankrows", 1, rows);
    bankRecovery.clear();
    std::size_t next_row = 0;
    for (std::size_t i = 0; i < banks.size(); i += 2) {
        in.check(banks[i] < cfg.addressMap.numShards(),
                 "holds a bank recovery list past the map's banks");
        in.check(i == 0 || banks[i - 2] < banks[i],
                 "holds bank recovery lists out of order");
        in.check(banks[i + 1] <= bank_rows.size() - next_row,
                 "bank recovery lists overrun their rows");
        std::vector<RowId> &list = bankRecovery[banks[i]];
        for (std::uint64_t k = 0; k < banks[i + 1]; ++k)
            list.push_back(RowId{bank_rows[next_row++]});
    }
    in.check(next_row == bank_rows.size(),
             "holds rows no bank recovery list claims");
    in.line("omrows");
    in.bits("lo", loRows);
    in.bits("ever", everWritten);
    loCount = loRows.count();
    pril.loadState(in);
    engine.loadState(in, rows);
    resilience.loadState(in);
    guard.loadState(in);
    in.line("omstats");
    in.stats(statGroup);

    // Every slot the engine holds has its traffic state, and back.
    std::vector<RowId> traffic;
    for (const ActiveTest &t : activeTests)
        traffic.push_back(t.row);
    std::sort(traffic.begin(), traffic.end());
    in.check(traffic == engine.rowsUnderTest(),
             "holds active tests the test engine does not");
}

} // namespace memcon::core
