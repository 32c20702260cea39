/**
 * @file
 * Admission control for the memcond service: per-tenant event-rate
 * quotas plus a global in-flight budget, expressed as typed verdicts.
 *
 * Two decision points:
 *
 *  - openSession(): may this tenant join at all? Rejections carry a
 *    reason (session table full, declared quota above the per-tenant
 *    cap, zero quota) so a refused tenant knows *why*, not just that.
 *
 *  - planRound(): before each service round, every active tenant's
 *    demand (ring backlog + last round's offered load) is weighed
 *    against its quota and the global apply budget. Quota-covered
 *    demand is granted first - an in-quota tenant is therefore
 *    isolated from an antagonist's excess - and leftover budget is
 *    handed out in (priority desc, tenant index asc) order. A tenant
 *    with demand but no grant is throttled with an explicit
 *    retry-after tick; a tenant the overload governor shed is
 *    rejected for the round. Everything is computed in tenant-index
 *    order from integer state, so the plan is bit-identical at any
 *    thread count.
 */

#ifndef MEMCON_SERVICE_ADMISSION_HH
#define MEMCON_SERVICE_ADMISSION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/units.hh"

namespace memcon::service
{

enum class VerdictKind
{
    Admit,
    Throttle,
    Reject,
};

/** One admission decision; fields beyond `kind` depend on it. */
struct Verdict
{
    VerdictKind kind = VerdictKind::Admit;
    std::uint64_t grant = 0; //!< Admit: events this round may apply
    Tick retryAfter{};       //!< Throttle: when to offer again
    std::string reason;      //!< Reject: why
};

struct AdmissionConfig
{
    /** Active sessions the service will host at once. */
    std::size_t maxSessions = 16;

    /** Hard per-tenant quota ceiling (events per round). */
    std::uint64_t maxQuotaPerRound = 1024;

    /** Global apply budget per round, shared by every tenant. */
    std::uint64_t globalBudgetPerRound = 96;

    /**
     * Per-tenant grant ceiling per round; bounds how much leftover
     * budget one tenant can absorb (and keeps any round's grant
     * within the ingest ring, which the journal replay oracle relies
     * on). 0 means "no ceiling beyond the global budget".
     */
    std::uint64_t maxGrantPerRound = 0;
};

/** One tenant's standing demand, as planRound() sees it. */
struct TenantDemand
{
    std::uint64_t backlog = 0;     //!< events waiting in the ring
    std::uint64_t lastOffered = 0; //!< events offered last round
    std::uint64_t quota = 0;       //!< granted event rate per round
    unsigned priority = 1;         //!< higher = survives shed longer
    bool shed = false;             //!< governor dropped this tenant
};

class AdmissionController
{
  public:
    explicit AdmissionController(const AdmissionConfig &config);

    /** May this tenant join? Admit or Reject{reason}. */
    Verdict openSession(const std::string &name, std::uint64_t quota);

    /**
     * Plan one round over the active tenants (indexed positionally).
     * @param round_end  the throttle verdicts' retry-after tick
     * @return one verdict per tenant, same order
     */
    std::vector<Verdict> planRound(const std::vector<TenantDemand> &demands,
                                   Tick round_end);

    std::size_t activeSessions() const { return sessions; }

    /** Cumulative verdict counters (admit/throttle/reject). */
    std::uint64_t admitCount() const { return admits; }
    std::uint64_t throttleCount() const { return throttles; }
    std::uint64_t rejectCount() const { return rejects; }

    /** Restore the verdict counters from a service snapshot. */
    void restoreCounters(std::uint64_t admit, std::uint64_t throttle,
                         std::uint64_t reject);

    const AdmissionConfig &config() const { return cfg; }

  private:
    AdmissionConfig cfg;
    std::size_t sessions = 0;
    std::uint64_t admits = 0;
    std::uint64_t throttles = 0;
    std::uint64_t rejects = 0;
};

} // namespace memcon::service

#endif // MEMCON_SERVICE_ADMISSION_HH
