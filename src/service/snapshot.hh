/**
 * @file
 * The crash-safe service snapshot: everything memcond needs to resume
 * a SIGKILL'd daemon with bit-identical per-tenant state.
 *
 * The file is a "MEMCOND-SVC v6" sealed file (DESIGN.md §15):
 * ckpt::SealedWriter writes it and ckpt::readSealedFile() owns the
 * framing - the per-line CRC seal, the CampaignFingerprint header
 * binding the snapshot to one service configuration, and the END
 * footer over every line above it. Every record line is a state
 * record line (common/state_io.hh), written by StateWriter and read by
 * StateReader. Writes go through atomicWriteFile(), so a reader only
 * ever sees a complete old file or a complete new file. A file
 * truncated or corrupted at ANY byte decodes to a typed ServiceError,
 * never to partial state, and no count in the file sizes an
 * allocation before the lines it claims are known to be there.
 *
 * Contents:
 *
 *   - header: fingerprint (artifact "memcond", service seed, tenant
 *     count as points=, config CRC as the label CRC)
 *   - svc: governor + admission cumulative state (rounds done, ladder
 *     stage, calm streak, escalation counters, verdict counters) and
 *     each tenant's events offered in the last round
 *   - P: the governor's per-round stage history, run-length encoded,
 *     so the file grows with stage changes, not with rounds
 *   - per tenant, its state record (TenantSession::saveState): a
 *     `tenant` line (producer counters, OnlineMemcon state
 *     fingerprint, ring residue, held event), then the controller's
 *     queues and bank timing, OnlineMemcon's PRIL maps, queues, test
 *     slots, resilience ladder and disturb guard, the ingest counters
 *     and latency histogram, and the write stream's cursor (each
 *     row's write process and its one pending write time)
 *
 * The decoder reads the svc and P lines and splits the rest into
 * tenant records at their `tenant` lines; restoring a session reads
 * and checks a record. A snapshot is a full state record, not a log:
 * the state lines are history-independent, so the file's size depends
 * on the state, not on how many rounds produced it.
 */

#ifndef MEMCON_SERVICE_SNAPSHOT_HH
#define MEMCON_SERVICE_SNAPSHOT_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/checkpoint.hh"
#include "service/governor.hh"

namespace memcon::service
{

/** Any service-mode failure surfaced to callers: malformed snapshot,
 * restore divergence, session refusal. Always carries a reason. */
class ServiceError : public std::runtime_error
{
  public:
    explicit ServiceError(const std::string &what_arg)
        : std::runtime_error(what_arg)
    {
    }
};

/** The tag of the line that opens each tenant's state record. */
inline constexpr char kTenantRecordTag[] = "tenant";

/** Consecutive rounds the governor spent at one stage. */
struct StageRun
{
    GovernorStage stage = GovernorStage::Normal;
    std::uint64_t rounds = 0;
};

struct ServiceSnapshot
{
    ckpt::CampaignFingerprint fingerprint;

    std::uint64_t roundsDone = 0;

    // Governor ladder state.
    GovernorStage stage = GovernorStage::Normal;
    unsigned calmStreak = 0;
    std::uint64_t escalations = 0;
    std::uint64_t relaxations = 0;

    // Admission verdict counters.
    std::uint64_t admits = 0;
    std::uint64_t throttles = 0;
    std::uint64_t rejects = 0;

    /** Events each tenant offered in the last completed round -
     * next-round admission demand needs them. */
    std::vector<std::uint64_t> lastOffered;

    /** The stage each round ran under, run-length encoded: adjacent
     * runs differ in stage and the rounds sum to roundsDone. */
    std::vector<StageRun> stageRuns;

    /** Each tenant's state record (TenantSession::saveState), in
     * tenant order; each opens with its kTenantRecordTag line. */
    std::vector<std::vector<std::string>> tenants;
};

/** Serialize to the sealed-line format (no I/O). */
std::string encodeServiceSnapshot(const ServiceSnapshot &snapshot);

/** Strictly parse encodeServiceSnapshot() output; throws ServiceError
 * on any truncation, corruption, or structural deviation. */
ServiceSnapshot decodeServiceSnapshot(const std::string &content);

/** Atomically write the snapshot; fatal on I/O failure (a service
 * that cannot persist must not pretend it is crash-safe). */
void saveServiceSnapshot(const std::string &path,
                         const ServiceSnapshot &snapshot);

/** Load + decode; throws ServiceError (file missing counts too). */
ServiceSnapshot loadServiceSnapshot(const std::string &path);

} // namespace memcon::service

#endif // MEMCON_SERVICE_SNAPSHOT_HH
