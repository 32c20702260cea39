/**
 * @file
 * Robustness and coverage tests across modules: the stats registry,
 * PREA semantics, the controller's starvation guard and test-traffic
 * admission limit, Copy&Compare in the closed loop, geometry
 * validation, and the durable-record discipline (sealed lines,
 * fingerprint-mismatch diagnostics, and the SealedFile suite: one
 * truncation/corruption/mutation fuzz run against both sealed-file
 * formats, the campaign checkpoint and the memcond snapshot).
 */

#include <algorithm>
#include <fstream>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/checkpoint.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "core/closed_loop.hh"
#include "oracles/journal_replay.hh"
#include "service/memcond.hh"
#include "service/snapshot.hh"
#include "dram/channel.hh"
#include "dram/energy.hh"
#include "sim/system.hh"

namespace memcon
{
namespace
{

TEST(StatGroup, CountersAndDump)
{
    StatGroup g("grp");
    g.inc("reads");
    g.inc("reads", 4);
    g.set("ipc", 2.5);
    g.accum("latency", 1.5);
    g.accum("latency", 2.5);

    EXPECT_DOUBLE_EQ(g.value("reads"), 5.0);
    EXPECT_DOUBLE_EQ(g.value("ipc"), 2.5);
    EXPECT_DOUBLE_EQ(g.value("latency"), 4.0);
    EXPECT_DOUBLE_EQ(g.value("missing"), 0.0);

    std::string dump = g.dump();
    EXPECT_NE(dump.find("grp.reads"), std::string::npos);
}

TEST(Channel, PreaClosesEveryBank)
{
    dram::Geometry g;
    g.rowsPerBank = 64;
    auto timing = dram::TimingParams::ddr3_1600(dram::Density::Gb8, TimeMs{16.0});
    dram::Channel chan(g, timing);

    Tick t{};
    chan.issue(dram::Command::Act, 0, 0, RowId{1}, t);
    t += timing.cyc(timing.tRRD);
    chan.issue(dram::Command::Act, 0, 3, RowId{2}, t);
    // Wait out tRAS for both banks, then PREA.
    Tick prea_at = t + timing.cyc(timing.tRAS);
    ASSERT_TRUE(chan.canIssue(dram::Command::PreA, 0, 0, RowId{}, prea_at));
    chan.issue(dram::Command::PreA, 0, 0, RowId{}, prea_at);
    EXPECT_TRUE(chan.allBanksPrecharged(0));
    // All banks respect tRP afterwards.
    EXPECT_FALSE(chan.canIssue(dram::Command::Act, 0, 3, RowId{5},
                               prea_at + timing.cyc(timing.tRP) -
                                   Tick{1}));
    EXPECT_TRUE(chan.canIssue(dram::Command::Act, 0, 3, RowId{5},
                              prea_at + timing.cyc(timing.tRP)));
}

TEST(Controller, AgedRequestBypassesRowHits)
{
    // One row-miss request to bank 0 plus an endless stream of row
    // hits to the open row of bank 0: without the starvation guard
    // the miss waits forever; with it, it completes within the
    // threshold plus service time.
    dram::Geometry g;
    g.rowsPerBank = 1 << 12;
    auto timing = dram::TimingParams::ddr3_1600(dram::Density::Gb8, TimeMs{16.0});
    sim::ControllerConfig cfg;
    cfg.refreshEnabled = false;
    cfg.starvationThreshold = Tick{tickPerUs}; // 1 us
    sim::MemoryController mc(g, timing, cfg);

    Tick now{};
    auto spin = [&](unsigned cycles) {
        for (unsigned i = 0; i < cycles; ++i) {
            now += timing.tCk;
            mc.tick(now);
        }
    };

    // Open row 0 of bank 0 with a first read.
    bool warm = false;
    sim::Request w;
    w.type = sim::Request::Type::Read;
    w.addr = 0;
    w.onComplete = [&](const sim::Request &) { warm = true; };
    ASSERT_TRUE(mc.enqueue(std::move(w), now));
    while (!warm)
        spin(1);

    // The victim: a different row of the same bank.
    Tick victim_done{};
    sim::Request victim;
    victim.type = sim::Request::Type::Read;
    victim.addr = g.rowBytes() * g.banks; // row 1, bank 0
    victim.onComplete = [&](const sim::Request &) { victim_done = now; };
    ASSERT_TRUE(mc.enqueue(std::move(victim), now));
    Tick victim_issued = now;

    // Keep feeding row hits to row 0, column varying.
    std::uint64_t col = 1;
    while (victim_done == Tick{} &&
           now < victim_issued + Tick{50 * tickPerUs}) {
        sim::Request hit;
        hit.type = sim::Request::Type::Read;
        hit.addr = (col++ % g.columnsPerRow) * g.blockBytes;
        mc.enqueue(std::move(hit), now); // ok if the queue is full
        spin(1);
    }
    ASSERT_GT(victim_done, Tick{}) << "victim starved";
    EXPECT_LT(victim_done - victim_issued, Tick{4 * tickPerUs});
}

TEST(Controller, TestAdmissionLimitKeepsDemandHeadroom)
{
    dram::Geometry g;
    g.rowsPerBank = 1 << 12;
    auto timing = dram::TimingParams::ddr3_1600(dram::Density::Gb8, TimeMs{16.0});
    sim::ControllerConfig cfg;
    cfg.refreshEnabled = false;
    cfg.testAdmissionLimit = 4;
    sim::MemoryController mc(g, timing, cfg);

    // Test requests are rejected once the queue reaches the limit...
    Tick now{};
    for (int i = 0; i < 4; ++i) {
        sim::Request t;
        t.type = sim::Request::Type::Read;
        t.isTest = true;
        t.addr = static_cast<std::uint64_t>(i) * 64;
        ASSERT_TRUE(mc.enqueue(std::move(t), now));
    }
    sim::Request extra_test;
    extra_test.type = sim::Request::Type::Read;
    extra_test.isTest = true;
    extra_test.addr = 4 * 64;
    EXPECT_FALSE(mc.enqueue(std::move(extra_test), now));

    // ...while demand still fits.
    sim::Request demand;
    demand.type = sim::Request::Type::Read;
    demand.addr = 5 * 64;
    EXPECT_TRUE(mc.enqueue(std::move(demand), now));
}

TEST(OnlineMemconModes, CopyAndCompareClosedLoop)
{
    dram::Geometry g;
    g.rowsPerBank = 16; // 128 rows
    auto timing = dram::TimingParams::ddr3_1600(dram::Density::Gb8, TimeMs{16.0});

    core::OnlineMemconConfig cfg;
    cfg.quantum = usToTicks(20.0);
    cfg.testIdle = usToTicks(10.0);
    cfg.retargetPeriod = usToTicks(10.0);
    cfg.testEngine.mode = core::TestMode::CopyAndCompare;
    cfg.testEngine.slots = 4;
    cfg.testEngine.reserveRowsPerBank = 2;
    cfg.testEngine.banks = 8;
    core::ClosedLoop loop(g, timing, cfg);
    const core::OnlineMemcon &om = loop.memcon();
    const sim::MemoryController &mc = loop.controller();

    Tick now{};
    for (int i = 0; i < 700000; ++i) {
        now += timing.tCk;
        loop.tick(now);
    }
    // Read-only identification tests the whole (tiny) module through
    // the Copy&Compare path: copies written, read back, verdicts taken.
    EXPECT_GT(om.testsPassed(), 100u);
    EXPECT_GT(om.loRefFraction(), 0.8);
    EXPECT_GT(mc.stats().value("enq.write"), 0.0); // copy traffic
}

TEST(Geometry, NonPowerOfTwoIsFatal)
{
    dram::Geometry g;
    g.banks = 6;
    EXPECT_EXIT(g.validate(), ::testing::ExitedWithCode(1),
                "power of two");
}

TEST(Energy, StatsDrivenTallyTracksActivity)
{
    dram::Geometry g;
    g.rowsPerBank = 1 << 12;
    auto timing = dram::TimingParams::ddr3_1600(dram::Density::Gb8, TimeMs{16.0});
    sim::ControllerConfig cfg;
    sim::MemoryController mc(g, timing, cfg);

    Tick now{};
    Rng rng(5);
    for (int i = 0; i < 20000; ++i) {
        now += timing.tCk;
        mc.tick(now);
        if (i % 10 == 0) {
            sim::Request r;
            r.type = rng.chance(0.3) ? sim::Request::Type::Write
                                     : sim::Request::Type::Read;
            r.addr = rng.uniformInt(g.totalBlocks()) * 64;
            mc.enqueue(std::move(r), now);
        }
    }
    dram::EnergyModel em(dram::PowerParams::ddr3_1600(), timing);
    auto e = em.fromControllerStats(mc.channel().stats(), mc.stats(),
                                    now, 0.5);
    EXPECT_GT(e.actPre, 0.0);
    EXPECT_GT(e.read, 0.0);
    EXPECT_GT(e.write, 0.0);
    EXPECT_GT(e.refresh, 0.0);
    EXPECT_GT(e.background, 0.0);
    EXPECT_NEAR(e.total(),
                e.actPre + e.read + e.write + e.refresh + e.background,
                1e-15);
}

// ---------------------------------------------------------------------
// Durable-record primitives and the sealed-file readers' strictness:
// sealed-line round trips, fingerprint-mismatch diagnostics, and a
// fuzz over truncation, corruption and resealed mutation of both
// sealed-file formats - every damaged variant must surface as the
// format's typed rejection, never as partial state or any other
// exception.
// ---------------------------------------------------------------------

TEST(DurableRecords, SealedLinesRoundTripAndRejectTamper)
{
    for (const std::string &payload :
         {std::string(""), std::string("svc rounds=4"),
          std::string("weird # payload #deadbeef with seals"),
          std::string("tenant gen=123 ring=1:2")}) {
        std::string line = ckpt::sealLine(payload);
        ASSERT_FALSE(line.empty());
        ASSERT_EQ(line.back(), '\n');
        std::string back;
        EXPECT_TRUE(
            ckpt::unsealLine(line.substr(0, line.size() - 1), &back));
        EXPECT_EQ(back, payload);
    }

    // Any tamper breaks the seal, and a failed unseal leaves the
    // out-param untouched - a reader can't half-trust a torn line.
    std::string line = ckpt::sealLine("payload v=7");
    line.pop_back(); // the '\n'
    std::string flipped = line;
    flipped[2] ^= 0x04;
    std::string out = "sentinel";
    EXPECT_FALSE(ckpt::unsealLine(flipped, &out));
    EXPECT_FALSE(ckpt::unsealLine("no seal at all", &out));
    EXPECT_FALSE(ckpt::unsealLine("short #12", &out));
    EXPECT_EQ(out, "sentinel");
}

TEST(DurableRecords, FingerprintMismatchNamesBothSides)
{
    ckpt::CampaignFingerprint found;
    found.artifact = "memcond";
    found.campaignSeed = 23;
    found.pointCount = 4;
    found.labelsCrc = 0x11111111u;
    ckpt::CampaignFingerprint expected = found;
    expected.campaignSeed = 24;

    EXPECT_NO_THROW(ckpt::requireFingerprintMatch(found, found));
    try {
        ckpt::requireFingerprintMatch(found, expected);
        FAIL() << "mismatched fingerprints were accepted";
    } catch (const ckpt::FingerprintMismatch &e) {
        // The error text carries both describe() strings, so the
        // operator sees which field diverged, not a bare "mismatch".
        const std::string what = e.what();
        EXPECT_NE(what.find(found.describe()), std::string::npos)
            << what;
        EXPECT_NE(what.find(expected.describe()), std::string::npos)
            << what;
        EXPECT_NE(found.describe(), expected.describe());
    }
}

namespace
{

/** A hand-built snapshot exercising every line type the format has:
 *  header, svc, P (stage runs), per tenant a record opened by its
 *  tenant line (ring residue in one, a held event in the other), END.
 *  The decoder only frames the records; the restore reads them (see
 *  the Memcond restore tests below). */
service::ServiceSnapshot
sampleSnapshot()
{
    service::ServiceSnapshot s;
    s.fingerprint.artifact = "memcond";
    s.fingerprint.campaignSeed = 23;
    s.fingerprint.pointCount = 2;
    s.fingerprint.labelsCrc = 0xfeed1234u;
    s.roundsDone = 2;
    s.stage = service::GovernorStage::StretchQuanta;
    s.calmStreak = 1;
    s.escalations = 2;
    s.relaxations = 1;
    s.admits = 5;
    s.throttles = 2;
    s.rejects = 1;
    s.lastOffered = {8, 60};
    s.stageRuns = {{service::GovernorStage::Normal, 1},
                   {service::GovernorStage::StretchQuanta, 1}};
    s.tenants = {
        {"tenant gen=17 dbp=1 dsh=0 thr=12500 fp=2880249322 "
         "ring=1250:3,2500:7 held=",
         "loop now=40000", "ingest applied=13 lat=0,4,9",
         "stream popped=17 rows=1:2:3:4:0:0:1 times=0.25"},
        {"tenant gen=90 dbp=0 dsh=40 thr=0 fp=195948557 ring= "
         "held=3750:11:5000",
         "ingest applied=50 lat=50", "stream popped=90"}};
    return s;
}

/** The file's sealed lines, each with its '\n'. */
std::vector<std::string>
sealedLines(const std::string &file)
{
    std::vector<std::string> lines;
    for (std::size_t start = 0; start < file.size();) {
        const std::size_t nl = file.find('\n', start);
        lines.push_back(file.substr(start, nl - start + 1));
        start = nl + 1;
    }
    return lines;
}

/** Every line's payload, the END footer dropped. */
std::vector<std::string>
recordPayloads(const std::string &file)
{
    std::vector<std::string> payloads;
    for (const std::string &line : sealedLines(file)) {
        std::string payload;
        EXPECT_TRUE(
            ckpt::unsealLine(line.substr(0, line.size() - 1), &payload));
        payloads.push_back(payload);
    }
    payloads.pop_back();
    return payloads;
}

/** Seal `payloads` and end them with a footer that matches them: the
 *  seals and the footer pass, so only the header and record checks
 *  can object. */
std::string
resealed(const std::vector<std::string> &payloads)
{
    std::string body;
    for (const std::string &payload : payloads)
        body += ckpt::sealLine(payload);
    return body + ckpt::sealLine(strprintf("END count=%zu total=%08x",
                                           payloads.size(),
                                           ckpt::crc32(body)));
}

/** `payload` with the value of its space-separated token `index` (the
 *  part after '=', or the whole token if it has none) replaced. */
std::string
withToken(const std::string &payload, std::size_t index,
          const std::string &value)
{
    std::vector<std::string> tokens;
    for (std::size_t start = 0;;) {
        const std::size_t space = payload.find(' ', start);
        tokens.push_back(payload.substr(start, space - start));
        if (space == std::string::npos)
            break;
        start = space + 1;
    }
    std::string &token = tokens.at(index);
    const std::size_t eq = token.find('=');
    token = eq == std::string::npos ? value : token.substr(0, eq + 1) + value;
    std::string out = tokens[0];
    for (std::size_t i = 1; i < tokens.size(); ++i)
        out += " " + tokens[i];
    return out;
}

constexpr const char *kHuge = "4611686018427387904"; // 2^62

} // namespace

TEST(DurableRecords, ServiceSnapshotOversizedCountsThrow)
{
    // Validly sealed files with a correct footer whose counts claim
    // far more than the file holds: the tenant count (header token 4),
    // the svc line's rounds and the P line's run. Each must be a
    // ServiceError, never an allocation sized from the claim.
    const std::vector<std::string> payloads =
        recordPayloads(service::encodeServiceSnapshot(sampleSnapshot()));
    ASSERT_EQ(payloads.at(1).rfind("svc ", 0), 0u);
    ASSERT_EQ(payloads.at(2).rfind("P ", 0), 0u);
    const std::pair<std::size_t, std::size_t> fields[] = {
        {0, 4}, {1, 1}, {2, 1}};
    for (const auto &[line, token] : fields) {
        std::vector<std::string> damaged = payloads;
        damaged[line] = withToken(damaged[line], token, kHuge);
        EXPECT_THROW(service::decodeServiceSnapshot(resealed(damaged)),
                     service::ServiceError)
            << "'" << damaged[line] << "' was not a ServiceError";
    }
}

// ---------------------------------------------------------------------
// SealedFile: the same damage, run against both sealed-file formats
// through their public readers.
// ---------------------------------------------------------------------

enum class Format
{
    Checkpoint,
    Snapshot
};

/** A reader's answer: accepted, or rejected with its typed reason. */
struct Verdict
{
    bool accepted = false;
    std::string reason;
};

ckpt::CampaignFingerprint
checkpointFingerprint()
{
    ckpt::CampaignFingerprint fp;
    fp.artifact = "sealed_file_test";
    fp.campaignSeed = 7;
    fp.pointCount = 3;
    fp.quick = true;
    fp.labelsCrc = ckpt::crc32("a\nb\nc");
    return fp;
}

class SealedFile : public ::testing::TestWithParam<Format>
{
  protected:
    /** This test's own temp file: ctest runs tests in parallel. */
    std::string tempPath(const char *stem) const
    {
        std::string name =
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
        for (char &c : name)
            if (c == '/')
                c = '_';
        return ::testing::TempDir() + "sealed_" + name + "_" + stem +
               strprintf("_%ld", static_cast<long>(::getpid()));
    }

    /** A file of format `format` holding every record kind it has. */
    std::string sample(Format format) const
    {
        if (format == Format::Snapshot)
            return service::encodeServiceSnapshot(sampleSnapshot());
        const std::string path = tempPath("sample");
        {
            ckpt::CheckpointWriter writer(path, checkpointFingerprint());
            writer.append({0, "m=1.5;"});
            writer.append({1, "m=2.5;"});
            writer.append({2, "m=3.5;"});
        }
        std::string content;
        EXPECT_TRUE(ckpt::readFile(path, &content));
        std::remove(path.c_str());
        return content;
    }

    std::string sample() const { return sample(GetParam()); }

    /** `content` through the format's public reader. Only the typed
     *  rejection is caught: any other exception fails the test. */
    Verdict decode(const std::string &content) const
    {
        Verdict v;
        if (GetParam() == Format::Snapshot) {
            try {
                service::decodeServiceSnapshot(content);
                v.accepted = true;
            } catch (const service::ServiceError &e) {
                v.reason = e.what();
            }
            return v;
        }
        const std::string path = tempPath("decode");
        std::ofstream(path, std::ios::binary | std::ios::trunc) << content;
        ckpt::LoadedCheckpoint loaded;
        v.accepted = ckpt::loadCheckpoint(path, &loaded, &v.reason);
        std::remove(path.c_str());
        return v;
    }

    /** Decode `content`, which must be rejected with a reason. */
    void expectRejected(const std::string &content,
                        const std::string &what) const
    {
        const Verdict v = decode(content);
        EXPECT_FALSE(v.accepted) << what << " was accepted";
        EXPECT_TRUE(v.accepted || !v.reason.empty()) << what;
    }
};

/** Names the parameter in test listings: .../checkpoint, .../snapshot. */
void
PrintTo(Format format, std::ostream *os)
{
    *os << (format == Format::Checkpoint ? "checkpoint" : "snapshot");
}

INSTANTIATE_TEST_SUITE_P(Formats, SealedFile,
                         ::testing::Values(Format::Checkpoint,
                                           Format::Snapshot));

TEST_P(SealedFile, IntactFileRoundTripsByteForByte)
{
    const std::string full = sample();
    const Verdict v = decode(full);
    ASSERT_TRUE(v.accepted) << v.reason;
    if (GetParam() == Format::Snapshot) {
        EXPECT_EQ(service::encodeServiceSnapshot(
                      service::decodeServiceSnapshot(full)),
                  full);
        return;
    }
    const std::string path = tempPath("intact");
    std::ofstream(path, std::ios::binary | std::ios::trunc) << full;
    ckpt::LoadedCheckpoint loaded;
    ASSERT_TRUE(ckpt::loadCheckpoint(path, &loaded));
    EXPECT_TRUE(loaded.fingerprint.matches(checkpointFingerprint()));
    ASSERT_EQ(loaded.records.size(), 3u);
    EXPECT_EQ(loaded.records[2].index, 2u);
    EXPECT_EQ(loaded.records[2].metrics, "m=3.5;");
    ckpt::CheckpointWriter(path, loaded.fingerprint, loaded.records);
    std::string rewritten;
    ASSERT_TRUE(ckpt::readFile(path, &rewritten));
    EXPECT_EQ(rewritten, full);
    std::remove(path.c_str());
}

TEST_P(SealedFile, TruncationAtEveryByteIsRejected)
{
    // Every proper prefix - which includes every line boundary: after
    // the header, between records, before the footer - is rejected,
    // never read as a shorter valid file.
    const std::string full = sample();
    ASSERT_GT(full.size(), 100u);
    for (std::size_t len = 0; len < full.size(); ++len)
        expectRejected(full.substr(0, len),
                       strprintf("truncation to %zu of %zu bytes", len,
                                 full.size()));
}

TEST_P(SealedFile, ByteFlipsAreRejectedByTheCrc)
{
    const std::string full = sample();

    // One payload byte of the first record: its seal names the CRC.
    std::string damaged = full;
    damaged[full.find('\n') + 1] ^= 0x20;
    Verdict v = decode(damaged);
    EXPECT_FALSE(v.accepted);
    EXPECT_NE(v.reason.find("CRC"), std::string::npos) << v.reason;

    // 500 seeded flips anywhere. Only the final newline is not under
    // a seal; every other flip breaks (or splits, or merges) a line.
    Rng rng(0xc0ffee);
    for (int trial = 0; trial < 500; ++trial) {
        damaged = full;
        const std::size_t at = rng.uniformInt(damaged.size());
        const char flip =
            static_cast<char>(1 + rng.uniformInt(255)); // never 0
        damaged[at] = static_cast<char>(damaged[at] ^ flip);
        v = decode(damaged);
        EXPECT_FALSE(v.accepted)
            << "flipping byte " << at << " with 0x" << std::hex
            << int(flip) << " was accepted";
        if (at + 1 < full.size()) {
            EXPECT_NE(v.reason.find("CRC"), std::string::npos)
                << "byte " << at << ": " << v.reason;
        }
    }
}

TEST_P(SealedFile, DroppedDuplicatedOrSwappedLinesAreRejected)
{
    // Every line stays individually CRC-clean; the footer's count and
    // running CRC (or the header/footer positions) must catch it.
    const std::vector<std::string> lines = sealedLines(sample());
    ASSERT_GE(lines.size(), 5u);
    auto join = [](const std::vector<std::string> &parts) {
        std::string out;
        for (const std::string &part : parts)
            out += part;
        return out;
    };
    for (std::size_t i = 0; i < lines.size(); ++i) {
        std::vector<std::string> dropped = lines;
        dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(i));
        expectRejected(join(dropped), strprintf("dropping line %zu", i));

        std::vector<std::string> duplicated = lines;
        duplicated.insert(duplicated.begin() +
                              static_cast<std::ptrdiff_t>(i),
                          lines[i]);
        expectRejected(join(duplicated),
                       strprintf("duplicating line %zu", i));

        for (std::size_t j = i + 1; j < lines.size(); ++j) {
            std::vector<std::string> swapped = lines;
            std::swap(swapped[i], swapped[j]);
            expectRejected(join(swapped),
                           strprintf("swapping lines %zu and %zu", i, j));
        }
    }
}

TEST_P(SealedFile, SealedLineAfterEndIsRejected)
{
    const std::string full = sample();
    const std::vector<std::string> lines = sealedLines(full);
    expectRejected(full + lines[1], "a record line after END");
    expectRejected(full + lines.back(), "a second END footer");

    // Even with a new footer that covers it, an END line may only be
    // the last line.
    std::vector<std::string> payloads = recordPayloads(full);
    std::string footer;
    ASSERT_TRUE(ckpt::unsealLine(
        lines.back().substr(0, lines.back().size() - 1), &footer));
    payloads.push_back(footer);
    payloads.push_back(recordPayloads(full)[1]);
    const Verdict v = decode(resealed(payloads));
    EXPECT_FALSE(v.accepted);
    EXPECT_NE(v.reason.find("END"), std::string::npos) << v.reason;
}

TEST_P(SealedFile, OtherFormatIsRejectedAtItsHeader)
{
    const Format other = GetParam() == Format::Checkpoint
                             ? Format::Snapshot
                             : Format::Checkpoint;
    const Verdict v = decode(sample(other));
    EXPECT_FALSE(v.accepted);
    EXPECT_NE(v.reason.find("header"), std::string::npos) << v.reason;
}

TEST_P(SealedFile, V1HeaderIsRejected)
{
    // Every older version is refused at the header: the checkpoint is
    // v2, the snapshot v6 (v2 snapshots carried a replay journal, v3
    // state records carried next-event caches, v4 wrapped the state
    // records in hand-written G/T/R/H/S lines, v5 stream cursors held
    // the times a windowed merge drew ahead of the consumer).
    const std::string current =
        GetParam() == Format::Checkpoint ? "v2" : "v6";
    std::vector<std::string> payloads = recordPayloads(sample());
    ASSERT_EQ(withToken(payloads[0], 1, current), payloads[0]);
    for (const char *old : {"v1", "v2", "v3", "v4", "v5"}) {
        if (current == old)
            continue;
        std::vector<std::string> aged = payloads;
        aged[0] = withToken(aged[0], 1, old);
        const Verdict v = decode(resealed(aged));
        EXPECT_FALSE(v.accepted) << old;
        EXPECT_NE(v.reason.find(current + "' header"), std::string::npos)
            << v.reason;
    }
}

TEST_P(SealedFile, ResealedMutationsDecodeOrRejectTyped)
{
    // One token set to 0, 2^62 or empty, the line re-sealed and the
    // footer recomputed: the framing is intact, so the record-level
    // decoder alone must cope - by decoding, or by its typed
    // rejection. decode() lets any other exception fail the test.
    const std::vector<std::string> payloads = recordPayloads(sample());
    const char *values[] = {"0", kHuge, ""};
    Rng rng(0x5ea1ed);
    std::size_t rejected = 0;
    for (int trial = 0; trial < 400; ++trial) {
        std::vector<std::string> damaged = payloads;
        std::string &line = damaged[rng.uniformInt(damaged.size())];
        const std::size_t tokens =
            1 + static_cast<std::size_t>(
                    std::count(line.begin(), line.end(), ' '));
        line = withToken(line, rng.uniformInt(tokens),
                         values[rng.uniformInt(3)]);
        const Verdict v = decode(resealed(damaged));
        EXPECT_TRUE(v.accepted || !v.reason.empty());
        rejected += v.accepted ? 0 : 1;
    }
    EXPECT_GT(rejected, 0u);
}

TEST(DurableRecords, ServiceSnapshotGarbageFilesThrow)
{
    using service::decodeServiceSnapshot;
    using service::ServiceError;
    EXPECT_THROW(decodeServiceSnapshot(""), ServiceError);
    EXPECT_THROW(decodeServiceSnapshot("not a snapshot\n"), ServiceError);
    EXPECT_THROW(decodeServiceSnapshot("MEMCOND-SVC v2 unsealed\n"),
                 ServiceError);
    // A valid *campaign checkpoint* header is still not a snapshot.
    EXPECT_THROW(
        decodeServiceSnapshot(ckpt::sealLine("MEMCON-CKPT v2 x")),
        ServiceError);
    // Missing trailing newline on an otherwise intact file.
    const std::string full =
        service::encodeServiceSnapshot(sampleSnapshot());
    EXPECT_THROW(decodeServiceSnapshot(full.substr(0, full.size() - 1)),
                 ServiceError);
    // The same records under a v4 or v5 header, sealed and footed:
    // refused at the header, never read with the v6 record rules.
    for (const char *old : {"v4", "v5"}) {
        std::vector<std::string> payloads = recordPayloads(full);
        payloads[0] = withToken(payloads[0], 1, old);
        try {
            decodeServiceSnapshot(resealed(payloads));
            ADD_FAILURE() << "a " << old << " snapshot was accepted";
        } catch (const ServiceError &e) {
            EXPECT_NE(std::string(e.what()).find("header"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(MemcondRestore, ResealedStateMutationsRestoreOrRejectTyped)
{
    // A real snapshot's tenant state lines, one token replaced and the
    // file re-sealed: the framing holds, so the decoder passes the
    // lines through and the restore alone must cope - by resuming and
    // running on, or by a typed refusal (a bad record, or a restored
    // mechanism whose fingerprint no longer matches). A panic or any
    // other exception fails the test. A RowHammer tenant against
    // DisturbGuard puts guard, resilience and bank recovery state in
    // the record.
    service::MemcondConfig cfg;
    cfg.seed = 3;
    cfg.rounds = 10;
    cfg.admission.globalBudgetPerRound = 12;
    cfg.admission.maxGrantPerRound = 8;
    cfg.tenant.geometry.rowsPerBank = 16;
    cfg.tenant.ringCapacity = 16;
    cfg.tenant.memcon.quantum = usToTicks(50.0);
    cfg.tenant.memcon.testIdle = usToTicks(20.0);
    cfg.tenant.memcon.retargetPeriod = usToTicks(25.0);
    cfg.tenant.memcon.testEngine.slots = 4;
    cfg.tenant.memcon.addressMap = dram::AddressMap::blocked(3, 4);
    cfg.tenant.memcon.disturbGuard.enabled = true;
    cfg.tenant.memcon.disturbGuard.actAlertThreshold = 4;
    cfg.tenant.memcon.disturbGuard.bankCrossingLimit = 2;
    std::vector<service::TenantSpec> specs(3);
    specs[0].name = "calm";
    specs[0].priority = 2;
    specs[1].name = "loud";
    specs[1].rateScale = 6.0;
    specs[2].name = "hammer";
    specs[2].priority = 2;
    specs[2].hammerEnabled = true;
    specs[2].hammer.actsPerUs = 0.4;
    const std::string path = ::testing::TempDir() +
                             strprintf("restore_fuzz_%ld",
                                       static_cast<long>(::getpid()));
    const service::ServiceSnapshot snap =
        oracles::JournalReplay::record(cfg, specs, 8, path).snapshot;
    const std::vector<std::string> payloads =
        recordPayloads(service::encodeServiceSnapshot(snap));
    // Every line of every tenant record, its tenant line included:
    // the records follow the header, svc and P lines.
    std::vector<std::size_t> state_lines;
    for (std::size_t i = 3; i < payloads.size(); ++i)
        state_lines.push_back(i);
    ASSERT_EQ(payloads[3].rfind("tenant ", 0), 0u);
    ASSERT_GT(state_lines.size(), 20u);
    // By round 8 the hammer tenant's guard has crossed and degraded
    // its bank, so the damaged lines include live guard state.
    EXPECT_TRUE(std::any_of(
        payloads.begin(), payloads.end(), [](const std::string &p) {
            return p.find("guard crossings=") != std::string::npos &&
                   p.find("guard crossings=0 ") == std::string::npos;
        }));
    EXPECT_TRUE(std::any_of(
        payloads.begin(), payloads.end(), [](const std::string &p) {
            return p.find(" bankrec=") != std::string::npos &&
                   p.find(" bankrec= ") == std::string::npos;
        }));

    cfg.snapshotPath = path;
    const char *values[] = {"0", "1", kHuge, "", "18446744073709551615"};
    Rng rng(0x7e570e);
    std::size_t rejected = 0, resumed = 0;
    for (int trial = 0; trial < 300; ++trial) {
        std::vector<std::string> damaged = payloads;
        std::string &line =
            damaged[state_lines[rng.uniformInt(state_lines.size())]];
        const std::size_t tokens =
            1 + static_cast<std::size_t>(
                    std::count(line.begin(), line.end(), ' '));
        line = withToken(line, rng.uniformInt(tokens),
                         values[rng.uniformInt(5)]);
        std::ofstream(path, std::ios::binary | std::ios::trunc)
            << resealed(damaged);
        try {
            service::Memcond svc(cfg, specs);
            svc.run(true);
            ++resumed;
        } catch (const service::ServiceError &) {
            ++rejected;
        } catch (const ckpt::FingerprintMismatch &) {
            ++rejected;
        }
    }
    std::remove(path.c_str());
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(resumed, 0u);
}

} // namespace
} // namespace memcon
