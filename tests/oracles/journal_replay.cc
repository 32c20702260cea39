#include "oracles/journal_replay.hh"

#include <cstdio>

#include "common/logging.hh"
#include "common/state_io.hh"

namespace memcon::oracles
{

using namespace memcon::service;

namespace
{

/** Thrown from the snapshot hook once the last round is journaled. */
struct StopRecording
{
};

} // namespace

Recording
JournalReplay::record(MemcondConfig cfg, const std::vector<TenantSpec> &specs,
                      std::uint64_t rounds, const std::string &scratch_path)
{
    panic_if(rounds == 0 || rounds > cfg.rounds,
             "journal %llu of %llu rounds",
             static_cast<unsigned long long>(rounds),
             static_cast<unsigned long long>(cfg.rounds));
    Recording rec;
    Memcond *live = nullptr;
    cfg.snapshotPath = scratch_path;
    cfg.snapshotEveryRounds = 1;
    cfg.snapshotHook = [&rec, &live, rounds](std::uint64_t done) {
        std::vector<JournalEntry> round;
        for (std::size_t i = 0; i < live->tenantCount(); ++i) {
            const TenantSession &t = live->tenant(i);
            round.push_back({t.memcon().scansShed(),
                             t.memcon().quantumStretch(),
                             t.lastRoundApplied()});
        }
        rec.journal.push_back(std::move(round));
        if (done == rounds) {
            rec.snapshot = live->snapshotState();
            throw StopRecording{};
        }
    };
    Memcond svc(cfg, specs);
    live = &svc;
    try {
        svc.run();
    } catch (const StopRecording &) {
    }
    std::remove(scratch_path.c_str());
    panic_if(rec.journal.size() != rounds, "journaled %zu of %llu rounds",
             rec.journal.size(), static_cast<unsigned long long>(rounds));
    return rec;
}

void
JournalReplay::replayRound(TenantSession &s, const JournalEntry &entry,
                           Tick round_start, Tick round_end)
{
    panic_if(s.loop.lastTick() != round_start,
             "replay: the module is at tick %llu, not at the round start",
             static_cast<unsigned long long>(s.loop.lastTick().value()));
    RoundDirectives d;
    d.scansShed = entry.scansShed;
    d.quantumStretch = entry.quantumStretch;
    s.applyDirectives(d);
    s.roundApplied.clear();

    // The journal's applied events are, by FIFO, a prefix of the live
    // ring order; pre-pushing them reconstructs exactly the slice of
    // the ring the round consumed. The consumer applies at most one
    // event per cycle and only once due, so a pre-pushed event never
    // reaches the controller earlier than it did live. The budget is
    // the event count: the live grant was at least that, and a grant
    // left over past the last event changes nothing.
    panic_if(!s.ring.empty(), "replay: ring not drained before the round");
    for (const WriteEvent &ev : entry.applied)
        panic_if(s.ring.tryPush(ev) != PushResult::Ok,
                 "replay: journal round exceeds the ring capacity");

    std::uint64_t budget = entry.applied.size();
    sim::CycleDriver driver;
    driver.beforeTick = [&](Tick now) { s.consumeCycle(now, budget); };
    driver.nextEventTick = [&](Tick now) {
        return s.consumerEventTick(now, budget);
    };
    driver.skipCycles = [&](Tick now, std::uint64_t cycles) {
        if (s.consumerRefused(now, budget))
            s.loop.controller().recordRefusals(cycles);
    };
    s.loop.runUntil(round_end, driver);
    panic_if(!s.ring.empty(),
             "replay: %zu journaled events did not re-apply", s.ring.size());
}

void
JournalReplay::replay(Memcond &svc,
                      const std::vector<std::vector<JournalEntry>> &journal,
                      const ServiceSnapshot &snap)
{
    panic_if(svc.done != 0, "replay needs a freshly constructed service");
    panic_if(journal.size() != snap.roundsDone,
             "journal of %zu rounds for a snapshot at round %llu",
             journal.size(), static_cast<unsigned long long>(snap.roundsDone));
    const std::size_t n = svc.sessions.size();
    for (std::uint64_t r = 0; r < snap.roundsDone; ++r)
        for (std::size_t i = 0; i < n; ++i)
            replayRound(*svc.sessions[i], journal[r][i],
                        svc.cfg.roundTicks * r, svc.cfg.roundTicks * (r + 1));

    // The producer side comes from each record's tenant line - the
    // module lines after it are never read - and the stream position
    // by popping every event the tenant generated.
    for (std::size_t i = 0; i < n; ++i) {
        TenantSession &s = *svc.sessions[i];
        StateReader in(snap.tenants[i]);
        s.loadTenantLine(in);
        for (std::uint64_t k = 0; k < s.generated; ++k)
            s.stream.pop();
    }
    svc.lastOffered = snap.lastOffered;
    svc.governor.restore(snap.stage, snap.calmStreak, snap.escalations,
                         snap.relaxations);
    svc.admission.restoreCounters(snap.admits, snap.throttles, snap.rejects);
    svc.stages.clear();
    for (const StageRun &run : snap.stageRuns)
        svc.stages.insert(svc.stages.end(), run.rounds, run.stage);
    svc.done = snap.roundsDone;
}

void
JournalReplay::run(Memcond &svc)
{
    svc.runRounds();
}

} // namespace memcon::oracles
