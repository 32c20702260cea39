#include "core/policies.hh"

#include "common/logging.hh"

namespace memcon::core
{

RefreshPolicy
fixedRefreshPolicy(double interval_ms, double baseline_interval_ms)
{
    fatal_if(interval_ms < baseline_interval_ms,
             "fixed interval below the baseline would *add* refreshes");
    RefreshPolicy p;
    p.name = strprintf("fixed-%gms", interval_ms);
    p.reduction = 1.0 - baseline_interval_ms / interval_ms;
    return p;
}

RefreshPolicy
raidrPolicy(double hi_fraction, double hi_ms, double lo_ms,
            double baseline_interval_ms)
{
    fatal_if(hi_fraction < 0.0 || hi_fraction > 1.0,
             "HI-REF fraction must lie in [0, 1]");
    // Refresh-op rate relative to the baseline: HI-REF rows refresh
    // every hi_ms, the rest every lo_ms.
    double rate = hi_fraction * (baseline_interval_ms / hi_ms) +
                  (1.0 - hi_fraction) * (baseline_interval_ms / lo_ms);
    RefreshPolicy p;
    p.name = "RAIDR";
    p.reduction = 1.0 - rate;
    return p;
}

RefreshPolicy
memconPolicy(double measured_reduction)
{
    fatal_if(measured_reduction < 0.0 || measured_reduction >= 1.0,
             "reduction must lie in [0, 1)");
    RefreshPolicy p;
    p.name = "MEMCON";
    p.reduction = measured_reduction;
    return p;
}

} // namespace memcon::core
