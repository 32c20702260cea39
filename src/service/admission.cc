#include "service/admission.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"

namespace memcon::service
{

AdmissionController::AdmissionController(const AdmissionConfig &config)
    : cfg(config)
{
    fatal_if(cfg.maxSessions == 0, "admission needs at least one session");
    fatal_if(cfg.globalBudgetPerRound == 0,
             "global apply budget must be positive");
}

Verdict
AdmissionController::openSession(const std::string &name,
                                 std::uint64_t quota)
{
    Verdict v;
    if (sessions >= cfg.maxSessions) {
        v.kind = VerdictKind::Reject;
        v.reason = "session table full (" + name + ")";
        ++rejects;
        return v;
    }
    if (quota == 0) {
        v.kind = VerdictKind::Reject;
        v.reason = "zero event quota (" + name + ")";
        ++rejects;
        return v;
    }
    if (quota > cfg.maxQuotaPerRound) {
        v.kind = VerdictKind::Reject;
        v.reason = "declared quota above the per-tenant cap (" + name + ")";
        ++rejects;
        return v;
    }
    ++sessions;
    ++admits;
    v.kind = VerdictKind::Admit;
    v.grant = quota;
    return v;
}

std::vector<Verdict>
AdmissionController::planRound(const std::vector<TenantDemand> &demands,
                               Tick round_end)
{
    const std::size_t n = demands.size();
    std::vector<Verdict> verdicts(n);
    std::vector<std::uint64_t> grant(n, 0);
    std::vector<std::uint64_t> want(n, 0);

    const std::uint64_t grant_cap = cfg.maxGrantPerRound
                                        ? cfg.maxGrantPerRound
                                        : cfg.globalBudgetPerRound;

    // Phase 1: quota-covered demand, in tenant order. The quota-first
    // pass is what isolates an in-quota tenant from an antagonist:
    // excess demand competes only for what quotas left over.
    std::uint64_t budget = cfg.globalBudgetPerRound;
    for (std::size_t i = 0; i < n; ++i) {
        if (demands[i].shed)
            continue;
        want[i] = demands[i].backlog + demands[i].lastOffered;
        std::uint64_t g = std::min({want[i], demands[i].quota, budget,
                                    grant_cap});
        grant[i] = g;
        budget -= g;
    }

    // Phase 2: leftover budget to residual demand, best tenants
    // first (priority desc, then index asc - a total deterministic
    // order).
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&demands](std::size_t a, std::size_t b) {
                         return demands[a].priority > demands[b].priority;
                     });
    for (std::size_t i : order) {
        if (budget == 0)
            break;
        if (demands[i].shed || want[i] <= grant[i])
            continue;
        std::uint64_t residual =
            std::min(want[i] - grant[i], grant_cap - grant[i]);
        std::uint64_t g = std::min(residual, budget);
        grant[i] += g;
        budget -= g;
    }

    for (std::size_t i = 0; i < n; ++i) {
        if (demands[i].shed) {
            verdicts[i].kind = VerdictKind::Reject;
            verdicts[i].reason = "shed by the overload governor";
            ++rejects;
        } else if (grant[i] == 0 && want[i] > 0) {
            verdicts[i].kind = VerdictKind::Throttle;
            verdicts[i].retryAfter = round_end;
            ++throttles;
        } else {
            verdicts[i].kind = VerdictKind::Admit;
            verdicts[i].grant = grant[i];
            ++admits;
        }
    }
    return verdicts;
}

void
AdmissionController::restoreCounters(std::uint64_t admit,
                                     std::uint64_t throttle,
                                     std::uint64_t reject)
{
    admits = admit;
    throttles = throttle;
    rejects = reject;
}

} // namespace memcon::service
