/**
 * @file
 * Refresh-policy baselines MEMCON is compared against (Section 6.3).
 *
 * Every policy reduces to one number for the cycle simulator: the
 * fraction of the aggressive baseline's refresh operations it
 * eliminates, which stretches the effective tREFI.
 *
 *  - FixedRefreshPolicy: refresh everything at a fixed interval
 *    (16 ms baseline, the 32 ms softer baseline, the 64 ms ideal).
 *  - RaidrPolicy: profile once for every cell that *any* content
 *    could fail (requires DRAM-internals knowledge), refresh those
 *    rows at HI-REF and the rest at LO-REF. The paper models 16% of
 *    rows at HI-REF, matching its experimental data.
 *  - MemconPolicy: wraps a measured MemconResult reduction.
 */

#ifndef MEMCON_CORE_POLICIES_HH
#define MEMCON_CORE_POLICIES_HH

#include <string>

namespace memcon::core
{

/** Refresh-rate policy summarised as a refresh-operation reduction
 * relative to an aggressive fixed baseline. */
struct RefreshPolicy
{
    std::string name;

    /** Fraction of baseline refresh operations eliminated, in [0,1). */
    double reduction = 0.0;
};

/** A fixed refresh interval, relative to the baseline interval. */
RefreshPolicy fixedRefreshPolicy(double interval_ms,
                                 double baseline_interval_ms);

/**
 * RAIDR with the given fraction of rows bucketed at HI-REF.
 *
 * @param hi_fraction fraction of rows refreshed at hi_ms
 */
RefreshPolicy raidrPolicy(double hi_fraction, double hi_ms, double lo_ms,
                          double baseline_interval_ms);

/** MEMCON as a policy, from a measured refresh reduction. */
RefreshPolicy memconPolicy(double measured_reduction);

} // namespace memcon::core

#endif // MEMCON_CORE_POLICIES_HH
