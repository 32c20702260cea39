#include "service/snapshot.hh"

#include <algorithm>
#include <cinttypes>
#include <iterator>
#include <string_view>

#include "common/logging.hh"
#include "common/state_io.hh"

namespace memcon::service
{

namespace
{

const char kSnapshotFormat[] = "MEMCOND-SVC v6";

constexpr std::uint64_t kStages =
    static_cast<std::uint64_t>(GovernorStage::ShedTenants) + 1;

[[noreturn]] void
malformed(const std::string &reason)
{
    throw ServiceError("malformed service snapshot: " + reason);
}

/** True for the line that opens a tenant's state record. */
bool
opensRecord(std::string_view line)
{
    return line.substr(0, line.find(' ')) == kTenantRecordTag;
}

} // namespace

std::string
encodeServiceSnapshot(const ServiceSnapshot &s)
{
    panic_if(s.tenants.size() != s.fingerprint.pointCount ||
                 s.lastOffered.size() != s.tenants.size(),
             "snapshot tenant records, offered counts and points= differ");
    std::uint64_t rounds = 0;
    std::vector<std::uint64_t> runs;
    for (std::size_t i = 0; i < s.stageRuns.size(); ++i) {
        const StageRun &run = s.stageRuns[i];
        panic_if(run.rounds == 0 ||
                     (i > 0 && s.stageRuns[i - 1].stage == run.stage),
                 "stage history run %zu is not run-length encoded", i);
        runs.insert(runs.end(),
                    {static_cast<std::uint64_t>(run.stage), run.rounds});
        rounds += run.rounds;
    }
    panic_if(rounds != s.roundsDone,
             "stage history covers %" PRIu64 " rounds, not roundsDone=%" PRIu64,
             rounds, s.roundsDone);

    StateWriter svc;
    svc.line("svc");
    svc.u64("rounds", s.roundsDone);
    svc.u64("stage", static_cast<std::uint64_t>(s.stage));
    svc.u64("calm", s.calmStreak);
    svc.u64("esc", s.escalations);
    svc.u64("relax", s.relaxations);
    svc.u64("admit", s.admits);
    svc.u64("throttle", s.throttles);
    svc.u64("reject", s.rejects);
    svc.tuples("loff", s.lastOffered);
    svc.line("P");
    svc.tuples("runs", runs, 2);

    ckpt::SealedWriter file(kSnapshotFormat, s.fingerprint);
    for (const std::string &line : std::move(svc).take())
        file.add(line);
    for (const std::vector<std::string> &record : s.tenants)
        for (std::size_t k = 0; k < record.size(); ++k) {
            // The decoder splits the records at their opening lines.
            panic_if(opensRecord(record[k]) != (k == 0),
                     "tenant record line %zu '%s' breaks its framing", k,
                     record[k].c_str());
            file.add(record[k]);
        }
    return std::move(file).finish();
}

ServiceSnapshot
decodeServiceSnapshot(const std::string &content)
{
    ckpt::SealedRecords file;
    std::string reason;
    if (!ckpt::readSealedFile(content, kSnapshotFormat, &file, &reason))
        malformed(reason);

    std::vector<std::string> &lines = file.records;
    ServiceSnapshot s;
    s.fingerprint = file.fingerprint;
    try {
        const std::size_t head = std::min<std::size_t>(lines.size(), 2);
        const std::vector<std::string> service(
            std::make_move_iterator(lines.begin()),
            std::make_move_iterator(lines.begin() + head));
        StateReader in(service);
        in.line("svc");
        s.roundsDone = in.u64("rounds");
        s.stage = static_cast<GovernorStage>(in.u64("stage", kStages));
        s.calmStreak = static_cast<unsigned>(in.u64("calm", 1ull << 32));
        s.escalations = in.u64("esc");
        s.relaxations = in.u64("relax");
        s.admits = in.u64("admit");
        s.throttles = in.u64("throttle");
        s.rejects = in.u64("reject");
        s.lastOffered = in.tuples("loff");
        in.check(s.lastOffered.size() == s.fingerprint.pointCount,
                 "does not hold one offered count per tenant");

        // Adjacent runs differ in stage and the rounds sum to
        // roundsDone; a run past the rounds left is refused before it
        // is summed.
        in.line("P");
        const std::vector<std::uint64_t> runs = in.tuples("runs", 2);
        std::uint64_t rounds = 0;
        for (std::size_t i = 0; i < runs.size(); i += 2) {
            in.check(runs[i] < kStages && runs[i + 1] != 0 &&
                         runs[i + 1] <= s.roundsDone - rounds &&
                         (i == 0 || runs[i - 2] != runs[i]),
                     "holds a stage run that is not a run of the rounds "
                     "done");
            rounds += runs[i + 1];
            s.stageRuns.push_back(
                StageRun{static_cast<GovernorStage>(runs[i]), runs[i + 1]});
        }
        in.check(rounds == s.roundsDone,
                 "holds a stage history short of the rounds done");
        in.finish();
    } catch (const StateError &e) {
        malformed(e.what());
    }

    // The rest are the tenant records, each opened by its tenant line.
    // The header's count only has to match: it sizes nothing.
    for (std::size_t k = 2; k < lines.size(); ++k) {
        if (opensRecord(lines[k]))
            s.tenants.emplace_back();
        else if (s.tenants.empty())
            malformed("line " + std::to_string(k + 2) +
                      " precedes the first tenant record");
        s.tenants.back().push_back(std::move(lines[k]));
    }
    if (s.tenants.size() != s.fingerprint.pointCount)
        malformed("holds " + std::to_string(s.tenants.size()) +
                  " tenant records, its header " +
                  std::to_string(s.fingerprint.pointCount));
    return s;
}

void
saveServiceSnapshot(const std::string &path, const ServiceSnapshot &s)
{
    std::string error;
    if (!ckpt::atomicWriteFile(path, encodeServiceSnapshot(s), &error))
        fatal("service snapshot write to '%s' failed: %s", path.c_str(),
              error.c_str());
}

ServiceSnapshot
loadServiceSnapshot(const std::string &path)
{
    std::string content;
    if (!ckpt::readFile(path, &content))
        throw ServiceError("cannot open service snapshot '" + path + "'");
    return decodeServiceSnapshot(content);
}

} // namespace memcon::service
