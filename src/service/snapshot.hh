/**
 * @file
 * The crash-safe service snapshot: everything memcond needs to resume
 * a SIGKILL'd daemon with bit-identical per-tenant state.
 *
 * The file is a "MEMCOND-SVC v4" sealed file (DESIGN.md §15):
 * ckpt::SealedWriter writes it and ckpt::readSealedFile() owns the
 * framing - the per-line CRC seal, the CampaignFingerprint header
 * binding the snapshot to one service configuration, and the END
 * footer over every line above it. This file only encodes and decodes
 * the record lines. Writes go through atomicWriteFile(), so a reader
 * only ever sees a complete old file or a complete new file. The
 * decoder is strict: a file truncated or corrupted at ANY byte
 * decodes to a typed ServiceError, never to partial state, and no
 * count in the file sizes an allocation before the lines it claims
 * are known to be there.
 *
 * Contents:
 *
 *   - header: fingerprint (artifact "memcond", service seed, tenant
 *     count as points=, config CRC as the label CRC)
 *   - G: governor + admission cumulative state (rounds done, ladder
 *     stage, calm streak, escalation counters, verdict counters)
 *   - P: the governor's per-round stage history, run-length encoded,
 *     so the file grows with stage changes, not with rounds
 *   - per tenant: T (producer counters + the OnlineMemcon state
 *     fingerprint), R (ring residue events), H (the held event, if
 *     any, with its hold-since tick), and S followed by the tenant's
 *     state record lines (common/state_io.hh): the controller's queues
 *     and bank timing, OnlineMemcon's PRIL maps, queues, test slots,
 *     resilience ladder and disturb guard, the ingest counters and
 *     latency histogram, and the write stream's cursor
 *
 * A snapshot is a full state record, not a log: resume loads it and
 * restores every tenant in place, then checks each restored
 * OnlineMemcon fingerprint against the recorded one. The state lines
 * are history-independent, so the file's size depends on the state,
 * not on how many rounds produced it.
 */

#ifndef MEMCON_SERVICE_SNAPSHOT_HH
#define MEMCON_SERVICE_SNAPSHOT_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/checkpoint.hh"
#include "common/units.hh"
#include "service/governor.hh"
#include "service/ingest_ring.hh"

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

/** One tenant's producer-side state and mechanism fingerprint. */
struct TenantSnapshotRecord
{
    std::string name;
    std::uint64_t generated = 0;
    std::uint64_t droppedBackpressure = 0;
    std::uint64_t droppedShed = 0;
    std::uint64_t throttledTicks = 0;

    /** Events offered in the last completed round - next-round
     * admission demand needs it, so it rides in the snapshot. */
    std::uint64_t lastOffered = 0;

    std::uint32_t fingerprint = 0;

    /** describeState() at snapshot time, for mismatch diagnostics. */
    std::string describe;

    /** Events stranded in the ingest ring at snapshot time. */
    std::vector<WriteEvent> residue;

    bool hasHeld = false;
    WriteEvent held{};
    Tick heldSince{};

    /** The session's state record lines (TenantSession::saveState).
     * The file format carries them as they are; restoring a session
     * reads and checks them. */
    std::vector<std::string> state;
};

/** Consecutive rounds the governor spent at one stage. */
struct StageRun
{
    GovernorStage stage = GovernorStage::Normal;
    std::uint64_t rounds = 0;

    bool operator==(const StageRun &) const = default;
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

    std::vector<TenantSnapshotRecord> tenants;

    /** The stage each round ran under, run-length encoded: adjacent
     * runs differ in stage and the rounds sum to roundsDone. */
    std::vector<StageRun> stageRuns;
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
