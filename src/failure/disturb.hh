/**
 * @file
 * Activation-count read-disturb (RowHammer) failure model.
 *
 * Every ACT of a DRAM row disturbs its physical neighbors a little;
 * enough activations of an aggressor between two refreshes of a
 * victim flip bits in the victim. The model here is victim-centric:
 * each victim row carries a charge counter that aggressor ACTs feed
 * (full weight at distance 1, a configurable fraction at distance 2 -
 * the "blast radius" DiscoRD and Blacksmith measure), and the counter
 * resets whenever the victim is refreshed. Physical adjacency comes
 * from dram::AddressMap::rowNeighbor - two pages adjacent in the flat
 * index are usually in different banks entirely, so an aggressor only
 * hammers same-bank neighbors.
 *
 * The refresh window a victim accumulates over is its *current*
 * refresh interval: 16 ms at HI-REF, 64 ms at LO-REF (both
 * campaign-compressible). This is the coupling MEMCON's demotion
 * policy never tests for - a row demoted to LO-REF accumulates 4x
 * the activations between resets, so an aggressor stream that a
 * HI-REF module tolerates flips bits once its victims are demoted.
 *
 * Per-row flip thresholds are drawn from a seeded DiscoRD-style
 * log-normal around a median with a hard floor (the weakest row a
 * module ships with); everything is a pure function of (seed, row),
 * so campaigns replay bit-identically. Crossing the threshold flips
 * one bit (SECDED-correctable); crossing it again in the same
 * accumulation window flips a second bit of the same word
 * (uncorrectable). Flips persist across refreshes - refresh restores
 * the charge of whatever value the cell holds, including a corrupted
 * one - and are repaired only by a rewrite/scrub-correct
 * (onRowRestored) or retired by the machine-check path when a read
 * observes them uncorrectable.
 *
 * The model composes into the per-read SECDED verdict through
 * FaultInjector::attachDisturb.
 */

#ifndef MEMCON_FAILURE_DISTURB_HH
#define MEMCON_FAILURE_DISTURB_HH

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "common/random.hh"
#include "common/stats.hh"
#include "common/strong_id.hh"
#include "common/units.hh"
#include "dram/address_map.hh"

namespace memcon::failure
{

struct DisturbParams
{
    /**
     * Median of the per-row flip-threshold distribution, in aggressor
     * ACTs within one victim refresh window. Contemporary DDR4 parts
     * sit around 50k; campaigns compress time and lower this together
     * with the refresh windows.
     */
    std::uint64_t medianThreshold = 50000;

    /** Log-space sigma of the log-normal threshold spread. */
    double thresholdSigma = 0.25;

    /** Hard floor under the distribution: the weakest row shipped. */
    std::uint64_t minThreshold = 4096;

    /**
     * Fraction of an ACT's disturbance charged to distance-2 victims
     * (distance-1 victims always take full weight). Quantized to
     * quarters; 0 disables the wider blast radius.
     */
    double blastRadius2Weight = 0.25;

    /** Victim refresh window while the row refreshes at HI-REF. */
    double hiWindowMs = 16.0;

    /** Victim refresh window while the row refreshes at LO-REF. */
    double loWindowMs = 64.0;

    std::uint64_t seed = 1;
};

class DisturbModel
{
  public:
    /**
     * @param map physical adjacency; must outlive the model. The
     *        identity map makes the whole module one bank.
     * @param num_rows page population; neighbors are clipped to it.
     */
    DisturbModel(const DisturbParams &params, const dram::AddressMap *map,
                 std::uint64_t num_rows);

    const DisturbParams &params() const { return cfg; }

    /**
     * Tell the model which rows currently refresh at LO-REF (longer
     * accumulation window). Unset means everything refreshes at
     * HI-REF.
     */
    void setLoRefQuery(std::function<bool(RowId)> query)
    {
        loRefQuery = std::move(query);
    }

    /** The row's flip threshold: pure function of (seed, row). */
    std::uint64_t thresholdOf(RowId victim) const;

    /**
     * The controller activated `row` at `now`: charge its physical
     * neighbors and record any threshold crossings as pending flips.
     */
    void onActivate(RowId row, Tick now);

    /**
     * The victim row was refreshed out of band (the mitigation's
     * neighbor refresh): its disturbance counter resets, but any
     * already-flipped bits persist - refresh restores corrupted
     * charge as faithfully as intact charge.
     */
    void onVictimRefreshed(RowId victim, Tick now);

    /**
     * The row's content was rewritten or re-certified: counter and
     * pending flips are both repaired.
     */
    void onRowRestored(RowId victim, Tick now);

    /** A read observed the row uncorrectable; the machine-check path
     * retires the page and its pending flips with it. */
    void retireFlips(RowId victim);

    /** Pending correctable flips (distinct single-bit upsets). */
    unsigned pendingSingle(RowId victim) const;

    /** Pending uncorrectable flips (two bits of one word). */
    unsigned pendingDouble(RowId victim) const;

    /** Does the row hold disturb corruption no read surfaced yet? */
    bool hasLatentFlip(RowId victim) const;

    /** Total single+double flips recorded so far. */
    std::uint64_t flipsRecorded() const { return flips; }

    const StatGroup &stats() const { return statGroup; }
    StatGroup &stats() { return statGroup; }

  private:
    /** Charge bookkeeping of one victim row. */
    struct VictimState
    {
        /** Accumulated disturbance, in quarter-ACT units. */
        std::uint64_t charge = 0;
        /** Refresh epoch the charge belongs to; a new epoch resets. */
        std::uint64_t lastEpoch = 0;
        bool started = false;
        unsigned flippedSingle = 0;
        unsigned flippedDouble = 0;
    };

    /** Charge one victim with `units` quarter-ACTs at `now`. */
    void chargeVictim(RowId victim, std::uint64_t units, Tick now);

    /** The victim's current refresh window, in ticks. */
    std::uint64_t windowTicksOf(RowId victim) const;

    /** Which refresh window `now` falls in for this victim (the
     * victim's refresh phase is a hash of its row index, so resets
     * are staggered exactly like real per-row refresh slots). */
    std::uint64_t epochOf(RowId victim, Tick now,
                          std::uint64_t window_ticks) const;

    DisturbParams cfg;
    const dram::AddressMap *addressMap;
    std::uint64_t rows;
    std::function<bool(RowId)> loRefQuery;
    std::uint64_t quarterWeight2; //!< distance-2 charge, quarter-ACTs

    std::unordered_map<RowId, VictimState> victims;
    std::uint64_t flips = 0;
    StatGroup statGroup{"disturb"};
};

} // namespace memcon::failure

#endif // MEMCON_FAILURE_DISTURB_HH
