#include "oracles/reference_engine.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/random.hh"
#include "core/cost_model.hh"
#include "oracles/reference_pril.hh"

namespace memcon::oracles
{
namespace
{

struct Event
{
    double time;
    std::uint32_t page;
};

/** Refresh state and accrued time of one modelled row/page. */
struct PageState
{
    double stateSince = 0.0;
    bool atLoRef = false;
    std::uint64_t writeCount = 0;
    double lastTestAt = -1.0;   //!< pending idle classification
    double lastVerified = -1.0; //!< last passing test or scrub
    double hiMs = 0.0;
    double loMs = 0.0;
};

} // namespace

core::MemconResult
runReference(const core::MemconConfig &cfg,
             const std::vector<std::vector<TimeMs>> &page_writes,
             double duration_ms,
             const core::MemconEngine::FailureOracle &oracle,
             const core::MemconEngine::TransitionObserver &observer,
             const core::MemconEngine::TimedFailureOracle &timed_oracle)
{
    fatal_if(cfg.addressMap.numShards() > 1,
             "the reference engine models the flat engine only");

    core::MemconResult res;
    res.durationMs = duration_ms;
    res.pages = page_writes.size();

    // Merge all write events into one ordered stream.
    std::vector<Event> events;
    for (std::uint32_t p = 0; p < page_writes.size(); ++p) {
        for (TimeMs t : page_writes[p]) {
            panic_if(t < TimeMs{0.0}, "negative write time");
            if (t.value() < duration_ms)
                events.push_back({t.value(), p});
        }
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const Event &a, const Event &b) {
                         return a.time < b.time;
                     });
    res.writes = events.size();
    // Every write opens its row once, silent or not.
    res.acts = events.size();

    core::CostModelConfig cm_cfg;
    cm_cfg.timings = cfg.timings;
    cm_cfg.hiRefMs = cfg.hiRefMs;
    cm_cfg.loRefMs = cfg.loRefMs;
    core::CostModel cost(cm_cfg);
    const double min_write_interval =
        cost.minWriteIntervalMs(cfg.mode).value();

    // Concurrent-test budget per quantum, rounded to nearest.
    const std::uint64_t tests_per_quantum =
        static_cast<std::uint64_t>(std::llround(
            cfg.testSlotsPer64ms * (cfg.quantumMs.value() / 64.0)));

    // The buffer never holds more entries than there are pages.
    ReferencePrilPredictor pril(
        page_writes.size(),
        std::min(cfg.writeBufferCapacity, page_writes.size()));
    std::vector<PageState> state(page_writes.size());

    auto accrue = [&](PageState &ps, double until) {
        double span = until - ps.stateSince;
        panic_if(span < -1e-9, "time went backwards");
        if (span <= 0.0)
            return;
        if (ps.atLoRef)
            ps.loMs += span;
        else
            ps.hiMs += span;
        ps.stateSince = until;
    };

    auto classify = [&](PageState &ps, double now) {
        if (ps.lastTestAt < 0.0)
            return;
        if (now - ps.lastTestAt >= min_write_interval)
            ++res.testsCorrect;
        else
            ++res.testsMispredicted;
        ps.lastTestAt = -1.0;
    };

    auto test_fails = [&](std::uint64_t page, std::uint64_t wc,
                          double when) {
        if (timed_oracle)
            return timed_oracle(page, wc, when);
        return oracle ? oracle(page, wc) : false;
    };

    auto run_test = [&](std::uint64_t page, double tq) {
        PageState &ps = state[page];
        panic_if(ps.atLoRef, "tested page already at LO-REF");
        ++res.testsRun;
        res.acts += 2; // read pass + restoring verify pass
        ps.lastTestAt = tq;

        if (test_fails(page, ps.writeCount, tq)) {
            // Data-dependent failure with this content: the row must
            // keep the aggressive rate.
            ++res.testsFailed;
            return;
        }
        ++res.testsPassed;
        accrue(ps, tq);
        ps.atLoRef = true;
        ps.lastVerified = tq;
        if (observer)
            observer(page, tq, true, ps.writeCount);
    };

    // Read-only identification (§6.1): pages that never saw a write
    // by the end of the second quantum are background-tested with
    // leftover budget and, if clean, kept at LO-REF.
    std::vector<std::uint64_t> ro_queue;
    std::size_t ro_next = 0;
    unsigned quanta_seen = 0;

    auto process_quantum_end = [&](double tq) {
        std::uint64_t budget = tests_per_quantum;
        for (PageId page : pril.endQuantum()) {
            if (budget == 0) {
                ++res.testsSkippedBudget;
                continue;
            }
            --budget;
            run_test(page.value(), tq);
        }

        if (++quanta_seen == 2) {
            for (std::uint64_t p = 0; p < state.size(); ++p)
                if (state[p].writeCount == 0)
                    ro_queue.push_back(p);
        }
        while (budget > 0 && ro_next < ro_queue.size()) {
            std::uint64_t page = ro_queue[ro_next++];
            // A page written since enqueueing is no longer read-only;
            // PRIL takes over for it.
            if (state[page].writeCount > 0 || state[page].atLoRef)
                continue;
            --budget;
            run_test(page, tq);
        }

        // Idle-row re-scrub: revalidate every LO-REF row whose
        // verdict has aged past the scrub period, ascending by page,
        // until the budget runs out.
        if (cfg.scrubPeriodMs <= 0.0)
            return;
        for (std::uint64_t p = 0; p < state.size() && budget > 0; ++p) {
            PageState &ps = state[p];
            if (!ps.atLoRef || tq - ps.lastVerified < cfg.scrubPeriodMs)
                continue;
            --budget;
            ++res.scrubTests;
            res.acts += 2;
            if (test_fails(p, ps.writeCount, tq)) {
                ++res.scrubDemotions;
                accrue(ps, tq);
                ps.atLoRef = false;
                if (observer)
                    observer(p, tq, false, ps.writeCount);
            } else {
                ps.lastVerified = tq;
            }
        }
    };

    double next_quantum_end = cfg.quantumMs.value();
    std::size_t event_idx = 0;
    while (event_idx < events.size() || next_quantum_end < duration_ms) {
        bool take_quantum =
            next_quantum_end < duration_ms &&
            (event_idx >= events.size() ||
             next_quantum_end <= events[event_idx].time);
        if (take_quantum) {
            process_quantum_end(next_quantum_end);
            next_quantum_end += cfg.quantumMs.value();
            continue;
        }
        if (event_idx >= events.size())
            break;

        const Event &ev = events[event_idx++];
        PageState &ps = state[ev.page];

        // Silent-write detection (footnote 9): a write that stores
        // the existing value leaves the content - and the validity
        // of any prior test - intact.
        if (cfg.detectSilentWrites && cfg.silentWriteFraction > 0.0) {
            double u = static_cast<double>(
                           hashMix64(ev.page * 0x9e3779b97f4a7c15ULL +
                                     ps.writeCount) >>
                           11) *
                       0x1.0p-53;
            if (u < cfg.silentWriteFraction) {
                ++res.silentWritesSkipped;
                continue;
            }
        }

        classify(ps, ev.time);
        accrue(ps, ev.time);
        if (ps.atLoRef) {
            // Content changes: protect until retested.
            ps.atLoRef = false;
            if (observer)
                observer(ev.page, ev.time, false, ps.writeCount + 1);
        }
        ++ps.writeCount;
        pril.onWrite(PageId{ev.page});
    }

    // Close out every page at the horizon, reducing in page order.
    // Tests with no later write inside the trace are censored, not
    // mispredicted: the predicted idleness held for as long as we
    // could observe.
    for (PageState &ps : state) {
        if (ps.lastTestAt >= 0.0)
            ++res.testsCorrect;
        accrue(ps, duration_ms);
        res.hiTimeMs += ps.hiMs;
        res.loTimeMs += ps.loMs;
        res.refreshOpsMemcon += ps.hiMs / cfg.hiRefMs + ps.loMs / cfg.loRefMs;
    }

    res.bufferDrops = pril.bufferDrops();
    res.trackerStorageBytes = pril.storageBytes();
    res.testTimeNs = static_cast<double>(res.testsRun + res.scrubTests) *
                     cost.testCostNs(cfg.mode);
    res.refreshOpsBaseline =
        static_cast<double>(res.pages) * duration_ms / cfg.hiRefMs;
    res.refreshTimeBaselineNs = res.refreshOpsBaseline * cost.refreshOpNs();
    res.refreshTimeMemconNs = res.refreshOpsMemcon * cost.refreshOpNs();
    return res;
}

core::MemconResult
runReferenceOnApp(const core::MemconConfig &cfg,
                  const trace::AppPersona &persona,
                  const core::MemconEngine::FailureOracle &oracle)
{
    std::vector<std::vector<TimeMs>> page_writes;
    page_writes.reserve(persona.pages);
    for (std::uint64_t p = 0; p < persona.pages; ++p)
        page_writes.push_back(
            trace::PageWriteProcess(persona, p).writeTimes());
    return runReference(cfg, page_writes, persona.durationSec * 1000.0,
                        oracle);
}

} // namespace memcon::oracles
