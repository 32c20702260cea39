/**
 * @file
 * Graceful degradation for the online mechanism.
 *
 * OnlineMemcon's baseline control flow trusts its own verdicts: a row
 * that passed its test sits at LO-REF until the next demand write.
 * The paper's own motivation says that trust is misplaced - VRT cells
 * toggle after certification (the AVATAR hazard) and transient upsets
 * strike rows the profile never saw - so a production mechanism must
 * treat the ECC decode of every demand read as a health signal and
 * degrade gracefully when it disagrees with the refresh state:
 *
 *  - corrected error on a LO-REF row: the certification is stale.
 *    Demote immediately and schedule a re-test with exponential
 *    backoff; after a bounded number of corrected-error episodes the
 *    row is pinned at HI-REF for good (a chronically toggling VRT
 *    row is not worth re-certifying).
 *
 *  - uncorrectable error: the mechanism can no longer prove any of
 *    its LO-REF verdicts were safe. Enter panic-fallback: blanket
 *    HI-REF, drain the test slots, and only resume (re-certifying
 *    every formerly-LO row from scratch) after a quiet hold period.
 *
 *  - periodic re-scrub: LO-REF rows that see neither writes nor
 *    demand reads would otherwise keep a stale verdict forever (the
 *    exposure vrt.hh names). A round-robin sweep re-tests them
 *    through the ordinary TestEngine slots, so scrub traffic
 *    competes with demand exactly like test traffic.
 *
 * This class is the bookkeeping half (per-row retry state, the pin
 * set, the retest/backoff queue, the scrub cursor, the fallback
 * timer); OnlineMemcon owns the actuation (demotion, slot draining,
 * controller re-targeting).
 *
 * The DisturbGuard below extends the same division of labor to
 * read-disturb: it watches the controller's ACT stream for aggressor
 * rows, asks for neighbor (victim) refreshes through the scrub
 * machinery when an aggressor crosses its alert threshold, escalates
 * chronically hammered victims into the demote/backoff/pin ladder
 * above, and degrades a whole bank to HI-REF when crossings show
 * sustained hammering the per-victim refreshes cannot keep up with.
 */

#ifndef MEMCON_CORE_RESILIENCE_HH
#define MEMCON_CORE_RESILIENCE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/bitvector.hh"
#include "common/stats.hh"
#include "common/strong_id.hh"
#include "common/units.hh"
#include "dram/address_map.hh"
#include "dram/ecc.hh"

namespace memcon
{
class StateReader;
class StateWriter;
} // namespace memcon

namespace memcon::core
{

struct ResilienceConfig
{
    /** Master switch; off reproduces the trusting baseline (events
     * are still counted). */
    bool enabled = true;

    /** Corrected-error episodes a row may survive before it is
     * pinned at HI-REF. */
    unsigned maxCorrectedRetries = 3;

    /** Backoff before the first re-test; doubles per episode. */
    Tick retestBackoff = usToTicks(30.0);

    /** Period of the idle-row re-scrub sweep (0 disables scrub). */
    Tick scrubPeriod{};

    /** LO-REF rows queued per sweep step; bounds scrub burstiness so
     * the TestEngine slots are never monopolised. */
    std::size_t scrubRowsPerSweep = 8;

    /** Test slots candidates must leave free while scrub work is
     * queued. Without a reservation a write-heavy stream keeps the
     * candidate queue non-empty forever and scrub starves. */
    std::size_t scrubReservedSlots = 2;

    /** Quiet time before panic-fallback is exited; every further
     * uncorrectable error re-arms it. */
    Tick fallbackHold = usToTicks(200.0);
};

class ResilienceManager
{
  public:
    /** What OnlineMemcon must do about an ECC event. */
    enum class EccAction
    {
        None,            //!< count only (row not LO, or disabled)
        DemoteAndRetest, //!< demote now; a backoff re-test is queued
        DemoteAndPin,    //!< demote now; retries exhausted, pin HI-REF
        Fallback,        //!< uncorrectable: enter panic-fallback
    };

    ResilienceManager(const ResilienceConfig &config,
                      std::uint64_t num_rows, StatGroup &stats);

    const ResilienceConfig &config() const { return cfg; }

    /**
     * Classify an ECC event on a row. `lo_ref` is the row's refresh
     * state at observation time. Updates retry counts, the pin set,
     * and the retest queue; the caller actuates the returned action.
     */
    EccAction onEccEvent(RowId row, dram::EccStatus status,
                         bool lo_ref, Tick now);

    /**
     * The DisturbGuard escalated a chronically hammered victim row:
     * fold it into the corrected-error ladder (demote now, backoff
     * re-test, pin once retries are exhausted), so disturb pressure
     * and ECC health share one hysteresis.
     */
    EccAction onDisturbEscalation(RowId row, bool lo_ref, Tick now);

    /** @return true if the row is permanently held at HI-REF. */
    bool isPinned(RowId row) const { return pinned.test(row.value()); }

    /** Rows currently pinned at HI-REF. */
    std::uint64_t pinnedRows() const { return pinned.count(); }

    /** Pop every scheduled re-test whose backoff has elapsed. */
    std::vector<RowId> dueRetests(Tick now);

    /** When the earliest scheduled re-test falls due (kTickNever if
     * none is scheduled). */
    Tick nextRetestTick() const;

    // --- panic-fallback timer ---

    bool inFallback() const { return fallback; }

    /**
     * Arm (or re-arm) the fallback hold.
     * @return true if this call *entered* fallback (as opposed to
     * extending an active one); the caller drains state on entry.
     */
    bool armFallback(Tick now);

    /** @return true when the hold has elapsed and fallback can end. */
    bool fallbackExpired(Tick now) const;

    /** Leave fallback (caller begins the re-certification sweep). */
    void exitFallback();

    /** When the fallback hold expires (kTickNever outside fallback). */
    Tick fallbackEndTick() const;

    // --- idle-row re-scrub ---

    /** @return true when the next sweep step is due. */
    bool scrubDue(Tick now) const;

    /** When the next sweep step falls due (kTickNever with scrub
     * off). */
    Tick nextScrubTick() const;

    /**
     * Advance the sweep: up to scrubRowsPerSweep LO-REF rows from
     * the round-robin cursor, skipping rows the predicate rejects
     * (already under test). Re-arms the period timer.
     */
    std::vector<RowId>
    nextScrubRows(Tick now, const BitVector &lo_rows,
                  const std::function<bool(RowId)> &skip);

    /** Save the episode counts, pin set, re-test queue, fallback and
     * scrub state as a state record line (the counters live in the
     * owner's StatGroup); loadState reads it back. */
    void saveState(StateWriter &out) const;
    void loadState(StateReader &in);

  private:
    /** One corrected-ladder episode on a row: schedule a backoff
     * re-test, or pin once retries are exhausted. */
    EccAction ladderStep(RowId row, Tick now);

    ResilienceConfig cfg;
    std::uint64_t rows;
    StatGroup &stats;

    std::unordered_map<RowId, unsigned> correctedEpisodes;
    BitVector pinned;
    std::multimap<Tick, RowId> retestQueue;

    bool fallback = false;
    Tick fallbackUntil{};

    Tick nextScrub;
    std::uint64_t scrubCursor = 0;
};

struct DisturbGuardConfig
{
    /** Master switch; off costs nothing on the ACT path. */
    bool enabled = false;

    /**
     * ACTs of one aggressor row before the guard refreshes the
     * aggressor's neighbors. Set well below the weakest victim's flip
     * threshold - the guard must fire while the victims still hold
     * their data. The counter resets on each crossing.
     */
    std::uint64_t actAlertThreshold = 2048;

    /**
     * Rows on each side of a crossing aggressor to refresh (the
     * mitigated blast radius); 2 covers the distance-2 coupling the
     * disturb model charges.
     */
    unsigned victimRadius = 2;

    /**
     * Victim-refresh episodes one victim may absorb before the guard
     * escalates it into the demote/backoff/pin ladder (a row this
     * hammered should not sit at LO-REF; chronic cases pin). Each
     * further multiple escalates again.
     */
    unsigned maxVictimRefreshes = 8;

    /**
     * Alert crossings inside one bank within `crossingWindow` before
     * the whole bank degrades to HI-REF (sustained many-sided
     * hammering defeats per-victim refresh; blanket HI-REF restores
     * the 16 ms bound).
     */
    std::uint64_t bankCrossingLimit = 32;

    /** Sliding window the per-bank crossing count decays over. */
    Tick crossingWindow = usToTicks(500.0);

    /**
     * Quiet hold before a degraded bank re-arms LO-REF promotion;
     * further crossings while degraded extend the hold (hysteresis -
     * the bank only recovers after the hammering stops).
     */
    Tick bankDegradeHold = msToTicks(1.0);
};

/**
 * Aggressor-side bookkeeping of the read-disturb mitigation: per-row
 * ACT counters, per-victim escalation counts, and the per-bank
 * degradation state machine. OnlineMemcon feeds it every controller
 * ACT and actuates what a crossing asks for (victim refreshes through
 * the scrub wheel, ladder escalations, bank demotion sweeps).
 */
class DisturbGuard
{
  public:
    /** What one alert-threshold crossing asks the mechanism to do. */
    struct Crossing
    {
        RowId aggressor{};
        /** Neighbor rows to refresh, nearest first. */
        std::vector<RowId> victims;
        /** Victims past the episode limit: run the demote ladder. */
        std::vector<RowId> escalations;
        /** This crossing tripped its bank into degradation. */
        bool bankDegraded = false;
        std::uint64_t bank = 0;
    };

    /**
     * @param map physical adjacency (also defines the bank of a
     *        row); must outlive the guard.
     */
    DisturbGuard(const DisturbGuardConfig &config,
                 const dram::AddressMap *map, std::uint64_t num_rows,
                 StatGroup &stats);

    const DisturbGuardConfig &config() const { return cfg; }

    /**
     * Count one ACT of `row`. Returns the crossing to actuate when
     * the row's counter reaches the alert threshold, nullopt
     * otherwise (the overwhelmingly common case).
     */
    std::optional<Crossing> onActivate(RowId row, Tick now);

    /** Is the bank holding this row currently degraded to HI-REF? */
    bool bankDegraded(RowId row, Tick now) const;

    /** Banks whose degradation hold expired since the last call;
     * the caller re-arms LO-REF promotion for them. */
    std::vector<std::uint64_t> recoveredBanks(Tick now);

    /** Cheap per-tick gate: is any bank currently degraded? */
    bool anyBankDegraded() const { return degradedCount > 0; }

    /** The earliest degradation hold expiry (kTickNever when no bank
     * is degraded). */
    Tick nextRecoveryTick() const;

    /** Aggressor-counter crossings so far. */
    std::uint64_t crossings() const { return crossingCount; }

    /** Deterministic digest of the guard state (fingerprints). */
    std::uint64_t fingerprint() const;

    /** Save the aggressor and victim counters (by row) and the bank
     * states as a state record line; loadState reads it back. */
    void saveState(StateWriter &out) const;
    void loadState(StateReader &in);

  private:
    struct BankState
    {
        std::uint64_t crossingsInWindow = 0;
        Tick windowStart{};
        bool degraded = false;
        Tick degradedUntil{};
    };

    DisturbGuardConfig cfg;
    const dram::AddressMap *addressMap;
    std::uint64_t rows;
    StatGroup &stats;

    std::unordered_map<RowId, std::uint64_t> aggressorActs;
    std::unordered_map<RowId, unsigned> victimEpisodes;
    std::vector<BankState> banks;
    std::uint64_t crossingCount = 0;
    std::uint64_t degradedCount = 0;
};

} // namespace memcon::core

#endif // MEMCON_CORE_RESILIENCE_HH
