/**
 * @file
 * Composed fault injection for resilience experiments.
 *
 * The failure models in this directory answer "would this row fail
 * under this content at this interval?"; the online mechanism needs
 * the complementary question: "what does a *read* of this row observe
 * right now, given everything that can go wrong at once?". The
 * FaultInjector composes three fault sources into a single
 * per-(row, tick) query:
 *
 *  - VRT telegraph cells (a certified row whose cell dropped into its
 *    leaky state after the test - the AVATAR hazard),
 *  - transient upsets (particle strikes), a per-row Poisson process
 *    with a configurable single/double-bit split,
 *  - read-disturb flips accumulated by the DisturbModel (aggressor
 *    activations crossing a victim's threshold - RowHammer).
 *
 * VRT leaks only bite while the row actually sits at LO-REF (HI-REF
 * is safe by construction); transients strike regardless of refresh
 * rate, and disturb flips depend on the access stream, with LO-REF
 * widening the accumulation window. Each query folds the pending
 * faults into the SECDED verdict a controller-side decode would
 * produce: one bad bit per word is CorrectedData, two or more in the
 * same word is Uncorrectable (pessimistic at three or more, where a
 * real decoder can miscorrect).
 *
 * Everything is deterministically seeded - a campaign replays
 * bit-identically - and an optional fault budget caps the number of
 * transient upsets a campaign may inject.
 */

#ifndef MEMCON_FAILURE_INJECTOR_HH
#define MEMCON_FAILURE_INJECTOR_HH

#include <cstdint>
#include <unordered_map>

#include "common/random.hh"
#include "common/strong_id.hh"
#include "common/stats.hh"
#include "common/units.hh"
#include "dram/ecc.hh"
#include "failure/disturb.hh"
#include "failure/vrt.hh"

namespace memcon::failure
{

struct FaultInjectorConfig
{
    /**
     * Poisson rate of transient upsets per row per simulated
     * millisecond. Physical rates are ~1e-15; campaigns compress time
     * and crank this up to exercise the error paths.
     */
    double transientPerRowPerMs = 0.0;

    /** Fraction of transient upsets striking two bits of one 64-bit
     * word (uncorrectable under SECDED); the rest are single-bit. */
    double transientDoubleBitFraction = 0.1;

    /**
     * Campaign-wide cap on injected transient upsets; once spent, the
     * transient process goes quiet (retention sources are state-based
     * and not budgeted).
     */
    std::uint64_t faultBudget = ~std::uint64_t{0};

    /** Interval the retention-based sources see on a LO-REF row. */
    double loRefIntervalMs = 64.0;

    std::uint64_t seed = 1;
};

class FaultInjector
{
  public:
    FaultInjector(const FaultInjectorConfig &config,
                  std::uint64_t num_rows);

    /** Attach the VRT telegraph population (optional source). */
    void attachVrt(const VrtPopulation *vrt) { vrtPop = vrt; }

    /**
     * Attach the read-disturb model (optional source). Mutable: an
     * Uncorrectable observation retires the model's pending flips the
     * same way it retires pending transients.
     */
    void attachDisturb(DisturbModel *disturb) { disturbModel = disturb; }
    DisturbModel *disturb() const { return disturbModel; }

    const FaultInjectorConfig &config() const { return cfg; }

    /**
     * A read of the row completes at `now`: what does the decode
     * report? `lo_ref` tells the injector whether the row currently
     * refreshes at the relaxed interval (retention sources active).
     *
     * An Uncorrectable observation retires the pending transient
     * faults (the machine-check path remaps the page); corrected
     * faults persist until the row is restored.
     */
    dram::EccStatus onRead(RowId row, Tick now, bool lo_ref);

    /**
     * The row's content was rewritten or re-certified (demand write,
     * passed test): pending transient corruption is repaired.
     */
    void onRowRestored(RowId row, Tick now);

    /**
     * Does the row hold corruption no read has surfaced yet? This is
     * the undetected-corruption predicate the resilience ablation
     * scores LO-REF rows against.
     */
    bool hasLatentFault(RowId row, Tick now, bool lo_ref) const;

    /** Transient upsets injected so far (budget consumption). */
    std::uint64_t injectedFaults() const { return budgetSpent; }

    const StatGroup &stats() const { return statGroup; }
    StatGroup &stats() { return statGroup; }

  private:
    struct RowFaults
    {
        Rng rng{1};
        TimeMs nextArrival{};
        bool started = false;
        unsigned pendingSingle = 0;
        unsigned pendingDouble = 0;
    };

    /** Generate the row's transient arrivals up to `now_ms`. */
    void advance(RowFaults &state, RowId row,
                 TimeMs now_ms) const;
    RowFaults &rowState(RowId row) const;
    bool retentionFails(RowId row, TimeMs now_ms,
                        bool &uncorrectable) const;

    FaultInjectorConfig cfg;
    std::uint64_t rows;
    const VrtPopulation *vrtPop = nullptr;
    DisturbModel *disturbModel = nullptr;

    mutable std::unordered_map<RowId, RowFaults> transients;
    mutable std::uint64_t budgetSpent = 0;
    mutable StatGroup statGroup{"inject"};
};

} // namespace memcon::failure

#endif // MEMCON_FAILURE_INJECTOR_HH
