#include "service/snapshot.hh"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <sstream>

#include "common/logging.hh"
#include "common/state_io.hh"

namespace memcon::service
{

namespace
{

const char kSnapshotFormat[] = "MEMCOND-SVC v3";

[[noreturn]] void
malformed(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string reason = vstrprintf(fmt, ap);
    va_end(ap);
    throw ServiceError("malformed service snapshot: " + reason);
}

std::string
eventList(const std::vector<WriteEvent> &events)
{
    std::string out;
    for (const WriteEvent &ev : events)
        out += strprintf(" %" PRIu64 ":%" PRIu64, ev.at.value(), ev.row);
    return out;
}

/** Parse `n` "t:r" tokens from the stream; throws on any deviation. */
std::vector<WriteEvent>
parseEvents(std::istringstream &in, std::size_t n, const char *line_tag)
{
    // No reserve(n): n is untrusted until the tokens are there.
    std::vector<WriteEvent> events;
    for (std::size_t i = 0; i < n; ++i) {
        std::string token;
        if (!(in >> token))
            malformed("%s line ends after %zu of %zu events", line_tag, i,
                      n);
        std::uint64_t at = 0, row = 0;
        char tail = 0;
        if (std::sscanf(token.c_str(), "%" SCNu64 ":%" SCNu64 "%c", &at,
                        &row, &tail) != 2)
            malformed("%s line has a bad event token '%s'", line_tag,
                      token.c_str());
        events.push_back(WriteEvent{Tick{at}, row});
    }
    std::string extra;
    if (in >> extra)
        malformed("%s line has trailing token '%s'", line_tag,
                  extra.c_str());
    return events;
}

GovernorStage
parseStage(unsigned raw, const char *line_tag)
{
    if (raw > static_cast<unsigned>(GovernorStage::ShedTenants))
        malformed("%s line names unknown governor stage %u", line_tag, raw);
    return static_cast<GovernorStage>(raw);
}

} // namespace

std::string
encodeServiceSnapshot(const ServiceSnapshot &s)
{
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

    ckpt::SealedWriter file(kSnapshotFormat, s.fingerprint);
    file.add(strprintf("G rounds=%" PRIu64 " stage=%u calm=%u esc=%" PRIu64
                       " relax=%" PRIu64 " admit=%" PRIu64
                       " throttle=%" PRIu64 " reject=%" PRIu64,
                       s.roundsDone, static_cast<unsigned>(s.stage),
                       s.calmStreak, s.escalations, s.relaxations,
                       s.admits, s.throttles, s.rejects));
    StateWriter history;
    history.line("P");
    history.tuples("runs", runs, 2);
    file.add(std::move(history).take().front());

    for (std::size_t i = 0; i < s.tenants.size(); ++i) {
        const TenantSnapshotRecord &t = s.tenants[i];
        panic_if(t.describe.find('\n') != std::string::npos,
                 "tenant describe string must be single-line");
        file.add(strprintf("T idx=%zu name=%s gen=%" PRIu64
                           " dbp=%" PRIu64 " dsh=%" PRIu64 " thr=%" PRIu64
                           " loff=%" PRIu64 " fp=%08x desc=",
                           i, t.name.c_str(), t.generated,
                           t.droppedBackpressure, t.droppedShed,
                           t.throttledTicks, t.lastOffered,
                           t.fingerprint) +
                 t.describe);
        file.add(strprintf("R idx=%zu n=%zu", i, t.residue.size()) +
                 eventList(t.residue));
        if (t.hasHeld)
            file.add(strprintf("H idx=%zu at=%" PRIu64 " row=%" PRIu64
                               " since=%" PRIu64,
                               i, t.held.at.value(), t.held.row,
                               t.heldSince.value()));
        file.add(strprintf("S idx=%zu lines=%zu", i, t.state.size()));
        for (const std::string &line : t.state) {
            panic_if(line.size() < 2 || line[1] == ' ' ||
                         line.find('\n') != std::string::npos,
                     "state line '%s' would read as a framing line",
                     line.c_str());
            file.add(line);
        }
    }

    return std::move(file).finish();
}

ServiceSnapshot
decodeServiceSnapshot(const std::string &content)
{
    ckpt::SealedRecords file;
    std::string reason;
    if (!ckpt::readSealedFile(content, kSnapshotFormat, &file, &reason))
        malformed("%s", reason.c_str());

    // Records are read in exactly the order the encoder writes them.
    // A count in the file never sizes anything: it only says how many
    // more lines to take, and a file that runs out of lines first is
    // malformed.
    const std::vector<std::string> &lines = file.records;
    std::size_t next = 0;
    auto at = [&lines, &next](char tag) {
        return next < lines.size() && lines[next].size() > 1 &&
               lines[next][0] == tag && lines[next][1] == ' ';
    };
    auto take = [&lines, &next, &at](char tag) -> const std::string & {
        if (!at(tag))
            malformed("line %zu is not the expected %c line", next + 2,
                      tag);
        return lines[next++];
    };

    ServiceSnapshot s;
    s.fingerprint = file.fingerprint;
    unsigned stage_raw = 0;
    const std::string &g = take('G');
    if (std::sscanf(g.c_str(),
                    "G rounds=%" SCNu64 " stage=%u calm=%u esc=%" SCNu64
                    " relax=%" SCNu64 " admit=%" SCNu64
                    " throttle=%" SCNu64 " reject=%" SCNu64,
                    &s.roundsDone, &stage_raw, &s.calmStreak,
                    &s.escalations, &s.relaxations, &s.admits,
                    &s.throttles, &s.rejects) != 8)
        malformed("bad governor line '%s'", g.c_str());
    s.stage = parseStage(stage_raw, "G");

    const std::string &p = take('P');
    try {
        const std::vector<std::string> one{p};
        StateReader history(one);
        history.line("P");
        const std::vector<std::uint64_t> runs = history.tuples("runs", 2);
        history.finish();
        std::uint64_t rounds = 0;
        for (std::size_t i = 0; i < runs.size(); i += 2) {
            const GovernorStage stage = parseStage(
                static_cast<unsigned>(std::min<std::uint64_t>(runs[i], ~0u)),
                "P");
            if (runs[i + 1] == 0 || runs[i + 1] > s.roundsDone - rounds ||
                (i > 0 && runs[i - 2] == runs[i]))
                malformed("stage history run %zu is not a run of the %" PRIu64
                          " rounds done",
                          i / 2, s.roundsDone);
            rounds += runs[i + 1];
            s.stageRuns.push_back(StageRun{stage, runs[i + 1]});
        }
        if (rounds != s.roundsDone)
            malformed("stage history covers %" PRIu64 " of %" PRIu64
                      " rounds",
                      rounds, s.roundsDone);
    } catch (const StateError &e) {
        malformed("bad stage history line: %s", e.what());
    }

    for (std::size_t i = 0; i < s.fingerprint.pointCount; ++i) {
        TenantSnapshotRecord t;
        const std::string &tl = take('T');
        std::size_t idx = 0;
        char name[128] = {0};
        if (std::sscanf(tl.c_str(),
                        "T idx=%zu name=%127s gen=%" SCNu64 " dbp=%" SCNu64
                        " dsh=%" SCNu64 " thr=%" SCNu64 " loff=%" SCNu64
                        " fp=%8x",
                        &idx, name, &t.generated, &t.droppedBackpressure,
                        &t.droppedShed, &t.throttledTicks, &t.lastOffered,
                        &t.fingerprint) != 8 ||
            idx != i)
            malformed("bad tenant line '%s'", tl.c_str());
        std::size_t desc = tl.find(" desc=");
        if (desc == std::string::npos)
            malformed("tenant line misses its desc field");
        t.name = name;
        t.describe = tl.substr(desc + 6);

        const std::string &r = take('R');
        std::size_t n = 0;
        int used = 0;
        if (std::sscanf(r.c_str(), "R idx=%zu n=%zu%n", &idx, &n, &used) !=
                2 ||
            idx != i)
            malformed("bad residue line '%s'", r.c_str());
        std::istringstream events(r.substr(used));
        t.residue = parseEvents(events, n, "R");

        if (at('H')) {
            const std::string &h = take('H');
            std::uint64_t ev_at = 0, row = 0, since = 0;
            if (std::sscanf(h.c_str(),
                            "H idx=%zu at=%" SCNu64 " row=%" SCNu64
                            " since=%" SCNu64,
                            &idx, &ev_at, &row, &since) != 4 ||
                idx != i)
                malformed("bad held-event line '%s'", h.c_str());
            t.hasHeld = true;
            t.held = WriteEvent{Tick{ev_at}, row};
            t.heldSince = Tick{since};
        }

        const std::string &sl = take('S');
        std::size_t count = 0;
        char tail = 0;
        if (std::sscanf(sl.c_str(), "S idx=%zu lines=%zu%c", &idx, &count,
                        &tail) != 2 ||
            idx != i || sl != strprintf("S idx=%zu lines=%zu", idx, count))
            malformed("bad state header line '%s'", sl.c_str());
        // The count only says how many lines to take; each one must be
        // there before it is copied.
        for (std::size_t k = 0; k < count; ++k) {
            if (next >= lines.size() || lines[next].size() < 2 ||
                lines[next][1] == ' ')
                malformed("tenant %zu state record ends after %zu of %zu "
                          "lines",
                          i, k, count);
            t.state.push_back(lines[next++]);
        }
        s.tenants.push_back(std::move(t));
    }
    if (next != lines.size())
        malformed("line %zu follows the last tenant record", next + 2);
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
