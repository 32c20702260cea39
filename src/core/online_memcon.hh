/**
 * @file
 * The closed-loop, cycle-domain MEMCON integration.
 *
 * Where MemconEngine replays millisecond-scale write timelines
 * analytically, OnlineMemcon plugs into the cycle simulator and runs
 * the mechanism against the *actual* request stream:
 *
 *  - the memory controller's write observer feeds PRIL with every
 *    demand write's row,
 *  - at each quantum boundary PRIL's candidates enter the TestEngine
 *    (slot-limited, Read&Compare or Copy&Compare) and the row's test
 *    traffic (two full read passes, plus a write pass in C&C mode)
 *    is injected as low-priority requests,
 *  - after the in-test idle period elapses and the read-back traffic
 *    has drained, the test completes with the failure oracle's
 *    verdict (it stands in for the data or signature compare, which
 *    is exact for a decayed cell): clean rows move to LO-REF,
 *    failing rows stay at HI-REF,
 *  - a demand write to an in-test row aborts the test; a write to a
 *    LO-REF row demotes it,
 *  - rows that have seen no write by the end of the second quantum
 *    are identified as read-only and background-tested with the same
 *    slot machinery (Section 6.1),
 *  - the controller's refresh cadence is re-targeted continuously
 *    from the measured LO-REF row fraction, so the refresh reduction
 *    *emerges* from the mechanism instead of being configured,
 *  - the controller's error-event hook feeds ECC decode verdicts of
 *    demand reads into a graceful-degradation state machine
 *    (resilience.hh): corrected errors on LO-REF rows demote and
 *    re-test with backoff, uncorrectable errors trigger a
 *    panic-fallback to blanket HI-REF, and idle LO-REF rows are
 *    periodically re-scrubbed through the same test slots,
 *  - the controller's activate observer feeds every ACT into a
 *    read-disturb guard (DisturbGuard): an aggressor row crossing its
 *    alert threshold gets its neighbors refreshed out of band through
 *    the same request machinery, chronically hammered victims fall
 *    into the demote/backoff/pin ladder, and a bank under sustained
 *    hammering degrades to blanket HI-REF until the pressure stops.
 *
 * Because cycle simulation covers milliseconds while PRIL's natural
 * quantum is ~1 s, the quantum and in-test idle period are
 * configurable and typically time-compressed in experiments; the
 * control flow is identical.
 *
 * Time advance (sim/cycle_loop.hh): nextEventTick() bounds the next
 * tick that can change MEMCON's state - a quantum boundary, a
 * re-target, a due re-test, scrub step or bank recovery, a fallback
 * expiry, a test's read-back time, or the next cycle while a test can
 * start or a pump can enqueue. A pump the controller refuses sleeps
 * until the controller's next event; each tick it sleeps through
 * still counts one refusal at the controller. tick() before the
 * cached bound returns in O(1).
 */

#ifndef MEMCON_CORE_ONLINE_MEMCON_HH
#define MEMCON_CORE_ONLINE_MEMCON_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <unordered_set>
#include <vector>

#include "common/bitvector.hh"
#include "common/stats.hh"
#include "core/pril.hh"
#include "core/resilience.hh"
#include "core/test_engine.hh"
#include "dram/address_map.hh"
#include "sim/controller.hh"

namespace memcon
{
class StateReader;
class StateWriter;
} // namespace memcon

namespace memcon::core
{

struct OnlineMemconConfig
{
    /** PRIL quantum in ticks (time-compressed in experiments). */
    Tick quantum = msToTicks(0.5);

    /** In-test idle period before read-back (LO-REF interval in
     * real hardware; compressed with the quantum here). */
    Tick testIdle = msToTicks(0.25);

    std::size_t writeBufferCapacity = 4000;

    TestEngineConfig testEngine;

    /** HI/LO refresh intervals, for the emergent reduction target. */
    double hiRefMs = 16.0;
    double loRefMs = 64.0;

    /** Re-target the controller's refresh cadence this often. */
    Tick retargetPeriod = msToTicks(0.25);

    /** Graceful-degradation knobs (corrected-error demotion, panic
     * fallback, idle-row re-scrub). */
    ResilienceConfig resilience;

    /**
     * Kill switch for LO-REF promotion: when false, passing tests
     * still run and count but never relax the row's refresh - the
     * all-HI baseline arm the disturb ablation compares against.
     */
    bool loRefEnabled = true;

    /** Read-disturb guard knobs (aggressor ACT watching, neighbor
     * victim refresh, per-bank HI-REF degradation). Off by default -
     * the ACT path then costs one branch. */
    DisturbGuardConfig disturbGuard;

    /**
     * Invoked for every victim refresh the guard issues, after its
     * request is accepted; the failure-model side hooks this to reset
     * the victim's disturbance counter.
     */
    std::function<void(RowId victim, Tick now)> victimRefresher;

    /**
     * Bank decomposition of the module's flat row space: the disturb
     * guard's adjacency and per-bank degradation, and the queue of
     * promotions a degraded bank held back. The identity map keeps a
     * single bank.
     */
    dram::AddressMap addressMap{};
};

class OnlineMemcon
{
  public:
    /** Decides whether a row's current content fails at LO-REF;
     *  its answer is the completed test's verdict. */
    using RowFailureOracle = std::function<bool(RowId row)>;

    /**
     * @param geometry    module geometry (page = row granularity)
     * @param controller  the controller to observe and re-target;
     *                    its observers must report here (see
     *                    installObserver; core::ClosedLoop wires
     *                    both halves)
     */
    OnlineMemcon(const dram::Geometry &geometry,
                 sim::MemoryController &controller,
                 const OnlineMemconConfig &config,
                 RowFailureOracle oracle = {});

    /**
     * Install the write, ACT and error observers into a controller
     * config; they report to `slot` once it is set. Call before
     * constructing the controller, then pass the controller to this
     * class; split because the controller takes its config by value
     * at construction.
     */
    static void installObserver(sim::ControllerConfig &cfg,
                                OnlineMemcon *&slot);

    /** Report a demand write (wired to the controller observer). */
    void observeWrite(std::uint64_t addr, Tick now);

    /** Report the ECC decode verdict of a completed demand read
     * (wired to the controller's error observer). */
    void observeEccEvent(std::uint64_t addr, dram::EccStatus status,
                         Tick now);

    /** Report a row activation (wired to the controller's activate
     * observer); feeds the read-disturb guard. */
    void observeActivate(std::uint64_t addr, Tick now);

    /** Advance; call once per DRAM tick after controller.tick(). */
    void tick(Tick now);

    /**
     * The earliest tick after `now` at which tick() can change any
     * state, provided no observer fires and the controller's queues
     * hold still before it (a refused pump waits for the controller's
     * own next event). Call after tick(now).
     */
    Tick nextEventTick(Tick now);

    /** Account for `cycles` ticks nextEventTick() proved idle: the
     * refusals a blocked pump would have drawn, credited at once. */
    void skipCycles(std::uint64_t cycles);

    /** Fraction of rows currently at LO-REF. */
    double loRefFraction() const;

    /** @return true if the row currently sits at LO-REF. */
    bool isLoRef(RowId row) const { return loRows.test(row.value()); }

    /** The refresh reduction implied by the current LO fraction. */
    double emergentReduction() const;

    /** @return true while the panic-fallback is active. */
    bool inFallback() const { return resilience.inFallback(); }

    /** Rows permanently pinned at HI-REF by the resilience layer. */
    std::uint64_t pinnedRows() const { return resilience.pinnedRows(); }

    /** @return true if the resilience layer pinned this row. A pinned
     * row is never LO-REF (the partition invariant test_disturb's
     * property suite holds the closed loop to). */
    bool isPinned(RowId row) const { return resilience.isPinned(row); }

    // --- overload-governor hooks (memcond service mode) ---

    /**
     * Shed background read-only scans and LO-REF re-scrub top-ups.
     * While shed, the one-shot read-only sweep is deferred (it fires
     * at the first quantum boundary after the shed lifts) and the
     * scrub queue is not refilled; in-flight tests keep running.
     * Default off - behavior is bit-identical to the pre-hook code.
     */
    void
    setScansShed(bool shed)
    {
        shedScans = shed;
        invalidateNextEvent();
    }
    bool scansShed() const { return shedScans; }

    /**
     * Stretch the PRIL quantum by an integer factor (>= 1) from the
     * next quantum boundary on: under overload, testing cadence slows
     * before any tenant work is dropped. Factor 1 restores the
     * configured cadence.
     */
    void setQuantumStretch(unsigned factor);
    unsigned quantumStretch() const { return stretchFactor; }

    /**
     * CRC over the mechanism's visible state: PRIL, refresh states
     * (LO-REF/ever-written maps), queued and in-flight tests, quantum
     * phase, and the stat counters. The service snapshot records it
     * per tenant; after a restore the recomputed value must match
     * bit-for-bit or the resume is rejected.
     */
    std::uint32_t stateFingerprint() const;

    /**
     * Save the mechanism's complete state as state record lines
     * (common/state_io.hh): PRIL, the refresh-state maps, every queue
     * and in-flight test, the test slots, the resilience ladder, the
     * disturb guard and the counters; the next-event cache is not
     * saved. loadState reads them back into an OnlineMemcon built with
     * the same geometry and config; it does not touch the controller,
     * which saves its own state.
     */
    void saveState(StateWriter &out) const;
    void loadState(StateReader &in);

    // Statistics.
    std::uint64_t testsStarted() const { return engine.testsStarted(); }
    std::uint64_t testsPassed() const { return engine.testsPassed(); }
    std::uint64_t testsFailed() const { return engine.testsFailed(); }
    std::uint64_t testsAborted() const { return engine.testsAborted(); }
    std::uint64_t writesObserved() const { return writeCount; }
    std::uint64_t demotions() const { return demotionCount; }

    /** Victim refreshes the disturb guard has issued. */
    std::uint64_t victimRefreshes() const { return victimRefreshCount; }

    /** The read-disturb guard (aggressor counters, bank states). */
    const DisturbGuard &disturbGuard() const { return guard; }

    /** Resilience event counters (ecc.*, demote.*, scrub.*,
     * fallback.*, retest.*, pinned). */
    const StatGroup &stats() const { return statGroup; }
    StatGroup &stats() { return statGroup; }

  private:
    struct ActiveTest
    {
        RowId row;
        Tick readbackAt; //!< when the idle period ends
        unsigned requestsLeft; //!< traffic not yet accepted
        unsigned column = 0;
        bool isScrub = false; //!< re-certification of a LO-REF row
    };

    /** Test-pump request type for `test` (Copy&Compare copy writes
     * precede the read-back). */
    sim::Request::Type pumpRequestType(const ActiveTest &test,
                                       bool readback_phase) const;
    std::size_t candidateSlotReserve() const;
    Tick computeNextEvent(Tick now);
    bool nextEventStale() const;
    void invalidateNextEvent() { cachedNext = Tick{}; }

    void startCandidateTests(Tick now);
    void startScrubTests(Tick now);
    /** Begin testing the row at the head of `queue`; it leaves the
     * queue only if its test began. */
    bool beginRowTest(std::deque<RowId> &queue, bool is_scrub, Tick now);
    void pumpTestTraffic(Tick now);
    void pumpVictimRefreshes(Tick now);
    void completeDueTests(Tick now);
    void demoteRow(RowId row, const char *cause);
    void abortTestOn(RowId row);
    void enterFallback(Tick now);
    void degradeBank(std::uint64_t bank, Tick now);
    RowId rowOfAddr(std::uint64_t addr) const;

    dram::Geometry geom;
    sim::MemoryController &mc;
    OnlineMemconConfig cfg;
    RowFailureOracle oracle;

    PrilPredictor pril;
    TestEngine engine;
    BitVector loRows;
    BitVector everWritten;
    std::uint64_t loCount = 0;
    unsigned quantaSeen = 0;

    // Overload-governor state (service mode; defaults preserve the
    // standalone behavior exactly).
    bool shedScans = false;
    unsigned stretchFactor = 1;
    bool roScanDone = false;

    std::deque<ActiveTest> activeTests;
    std::deque<RowId> pendingCandidates;
    std::deque<RowId> scrubQueue;

    /** Rows whose LO verdict was revoked by a fallback; re-certified
     * when the fallback exits. */
    std::deque<RowId> recoveryQueue;

    /** Victim rows awaiting their out-of-band refresh (the disturb
     * guard's analogue of the scrub queue). */
    std::deque<RowId> victimRefreshQueue;

    /** Rows a bank degradation demoted (or blocked from promotion),
     * keyed by bank; re-certified when the bank recovers. Ordered so
     * iteration is deterministic. */
    std::map<std::uint64_t, std::vector<RowId>> bankRecovery;

    StatGroup statGroup{"memcon"};
    ResilienceManager resilience;
    DisturbGuard guard;

    Tick nextQuantumEnd;
    Tick nextRetarget;

    // nextEventTick()'s cache, never saved: the bound (Tick{} when
    // stale), the refusals each idle tick draws, and the controller
    // queue sizes a refused pump was measured against.
    Tick cachedNext{};
    unsigned idleRefusals = 0;
    std::size_t idleReadQueue = 0;
    std::size_t idleWriteQueue = 0;
    std::uint64_t writeCount = 0;
    std::uint64_t demotionCount = 0;
    std::uint64_t victimRefreshCount = 0;
};

} // namespace memcon::core

#endif // MEMCON_CORE_ONLINE_MEMCON_HH
