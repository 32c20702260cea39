#include "service/snapshot.hh"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <sstream>

#include "common/logging.hh"

namespace memcon::service
{

namespace
{

const char kSnapshotMagic[] = "MEMCOND-SVC";

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
    panic_if(s.journal.size() != s.roundsDone,
             "service snapshot journal (%zu rounds) disagrees with "
             "roundsDone=%" PRIu64,
             s.journal.size(), s.roundsDone);

    ckpt::SealedWriter file(kSnapshotMagic, s.fingerprint);
    file.add(strprintf("G rounds=%" PRIu64 " stage=%u calm=%u esc=%" PRIu64
                       " relax=%" PRIu64 " admit=%" PRIu64
                       " throttle=%" PRIu64 " reject=%" PRIu64,
                       s.roundsDone, static_cast<unsigned>(s.stage),
                       s.calmStreak, s.escalations, s.relaxations,
                       s.admits, s.throttles, s.rejects));

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
    }

    for (std::size_t r = 0; r < s.journal.size(); ++r) {
        const RoundRecord &round = s.journal[r];
        panic_if(round.grant.size() != s.tenants.size() ||
                     round.scansShed.size() != s.tenants.size() ||
                     round.quantumStretch.size() != s.tenants.size() ||
                     round.applied.size() != s.tenants.size(),
                 "journal round %zu does not cover every tenant", r);
        file.add(strprintf("J round=%zu stage=%u", r,
                           static_cast<unsigned>(round.stage)));
        for (std::size_t i = 0; i < s.tenants.size(); ++i)
            file.add(strprintf("D round=%zu idx=%zu grant=%" PRIu64
                               " scans=%d stretch=%u n=%zu",
                               r, i, round.grant[i],
                               round.scansShed[i] ? 1 : 0,
                               round.quantumStretch[i],
                               round.applied[i].size()) +
                     eventList(round.applied[i]));
    }

    return std::move(file).finish();
}

ServiceSnapshot
decodeServiceSnapshot(const std::string &content)
{
    ckpt::SealedRecords file;
    std::string reason;
    if (!ckpt::readSealedFile(content, kSnapshotMagic, &file, &reason))
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

    for (std::size_t i = 0; i < s.fingerprint.pointCount; ++i) {
        TenantSnapshotRecord t;
        const std::string &p = take('T');
        std::size_t idx = 0;
        char name[128] = {0};
        if (std::sscanf(p.c_str(),
                        "T idx=%zu name=%127s gen=%" SCNu64 " dbp=%" SCNu64
                        " dsh=%" SCNu64 " thr=%" SCNu64 " loff=%" SCNu64
                        " fp=%8x",
                        &idx, name, &t.generated, &t.droppedBackpressure,
                        &t.droppedShed, &t.throttledTicks, &t.lastOffered,
                        &t.fingerprint) != 8 ||
            idx != i)
            malformed("bad tenant line '%s'", p.c_str());
        std::size_t desc = p.find(" desc=");
        if (desc == std::string::npos)
            malformed("tenant line misses its desc field");
        t.name = name;
        t.describe = p.substr(desc + 6);

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
        s.tenants.push_back(std::move(t));
    }

    for (std::size_t r = 0; r < s.roundsDone; ++r) {
        RoundRecord round;
        const std::string &j = take('J');
        std::size_t round_idx = 0;
        if (std::sscanf(j.c_str(), "J round=%zu stage=%u", &round_idx,
                        &stage_raw) != 2 ||
            round_idx != r)
            malformed("bad journal line '%s'", j.c_str());
        round.stage = parseStage(stage_raw, "J");
        for (std::size_t i = 0; i < s.tenants.size(); ++i) {
            const std::string &d = take('D');
            std::size_t idx = 0, n = 0;
            std::uint64_t grant = 0;
            int scans = 0, used = 0;
            unsigned stretch = 1;
            if (std::sscanf(d.c_str(),
                            "D round=%zu idx=%zu grant=%" SCNu64
                            " scans=%d stretch=%u n=%zu%n",
                            &round_idx, &idx, &grant, &scans, &stretch, &n,
                            &used) != 6 ||
                round_idx != r || idx != i)
                malformed("bad journal-detail line '%s'", d.c_str());
            if (stretch == 0)
                malformed("journal detail round=%zu idx=%zu has zero "
                          "quantum stretch",
                          r, i);
            round.grant.push_back(grant);
            round.scansShed.push_back(scans != 0);
            round.quantumStretch.push_back(stretch);
            std::istringstream events(d.substr(used));
            round.applied.push_back(parseEvents(events, n, "D"));
        }
        s.journal.push_back(std::move(round));
    }
    if (next != lines.size())
        malformed("line %zu follows the last journal round", next + 2);
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
