/**
 * @file
 * Test oracle: memcond's retired resume path, kept only as the
 * reference the full-state restore is checked against.
 *
 * The service used to journal, per round and tenant, the governor
 * knobs and the events the tenant applied, and resumed by re-running
 * every journaled round from round 0: the applied events were
 * pre-pushed into a fresh ring and the consumer ran them into the
 * module with the producer off; the producer side (counters, ring
 * residue, held event) came from each tenant record's `tenant` line,
 * and each write stream was fast-forwarded by popping every event it
 * had generated. Its cost grows with uptime, which is why it left the
 * service; as an oracle it rebuilds the same state along an
 * independent path - it never reads a state record's module lines -
 * so a restore that drifts from the live run shows up as a difference
 * here.
 *
 * record() runs a service live and journals it; replay() rebuilds a
 * fresh service from such a journal and the snapshot taken at its
 * last round, after which run() continues it like a resumed one.
 */

#ifndef MEMCON_TESTS_ORACLES_JOURNAL_REPLAY_HH
#define MEMCON_TESTS_ORACLES_JOURNAL_REPLAY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "service/memcond.hh"

namespace memcon::oracles
{

/** One tenant's share of one round, as the journal recorded it. */
struct JournalEntry
{
    bool scansShed = false;
    unsigned quantumStretch = 1;
    /** The events the tenant applied that round, in apply order. */
    std::vector<service::WriteEvent> applied;
};

/** A live run, journaled: journal[round][tenant], and the snapshot
 * state at the last recorded round. */
struct Recording
{
    std::vector<std::vector<JournalEntry>> journal;
    service::ServiceSnapshot snapshot;
};

class JournalReplay
{
  public:
    /**
     * Run `cfg`/`specs` live from round 0 and journal rounds
     * [0, rounds), stopping there (rounds <= cfg.rounds). Sealing a
     * snapshot every round is how the recorder sees round boundaries,
     * so it writes one to `scratch_path` (removed afterwards).
     */
    static Recording record(service::MemcondConfig cfg,
                            const std::vector<service::TenantSpec> &specs,
                            std::uint64_t rounds,
                            const std::string &scratch_path);

    /**
     * Rebuild the freshly constructed `svc` to the snapshot's round by
     * replaying `journal` from round 0; `svc` must have the
     * configuration the journal was recorded with.
     */
    static void replay(service::Memcond &svc,
                       const std::vector<std::vector<JournalEntry>> &journal,
                       const service::ServiceSnapshot &snapshot);

    /** Continue a replayed service to its configured rounds. */
    static void run(service::Memcond &svc);

  private:
    static void replayRound(service::TenantSession &session,
                            const JournalEntry &entry, Tick round_start,
                            Tick round_end);
};

} // namespace memcon::oracles

#endif // MEMCON_TESTS_ORACLES_JOURNAL_REPLAY_HH
