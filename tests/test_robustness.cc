/**
 * @file
 * Robustness and coverage tests across modules: the stats registry,
 * PREA semantics, the controller's starvation guard and test-traffic
 * admission limit, Copy&Compare in the closed loop, geometry
 * validation, and the durable-record discipline (sealed lines,
 * fingerprint-mismatch diagnostics, and a truncation/corruption fuzz
 * over the memcond service snapshot format).
 */

#include <gtest/gtest.h>

#include "common/checkpoint.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "core/closed_loop.hh"
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
    EXPECT_TRUE(g.has("reads"));
    EXPECT_FALSE(g.has("missing"));

    std::string dump = g.dump();
    EXPECT_NE(dump.find("grp.reads"), std::string::npos);

    g.reset();
    EXPECT_DOUBLE_EQ(g.value("reads"), 0.0);
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
    cfg.testEngine.wordsPerRow = 32;
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
    // the Copy&Compare path: copies written, signatures compared.
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
// Durable-record primitives and the service snapshot's strictness:
// sealed-line round trips, fingerprint-mismatch diagnostics, and a
// fuzz over truncation and corruption of a snapshot file - every
// damaged variant must surface as a typed ServiceError, never as
// partial state.
// ---------------------------------------------------------------------

TEST(DurableRecords, SealedLinesRoundTripAndRejectTamper)
{
    for (const std::string &payload :
         {std::string(""), std::string("G rounds=4"),
          std::string("weird # payload #deadbeef with seals"),
          std::string("T idx=0 name=focus gen=123")}) {
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
 *  header, G, T, R (residue), H (held event), J, D, END. */
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

    service::TenantSnapshotRecord t0;
    t0.name = "focus";
    t0.generated = 17;
    t0.droppedBackpressure = 1;
    t0.throttledTicks = 12500;
    t0.lastOffered = 8;
    t0.fingerprint = 0xabad1dea;
    t0.describe = "pril=... refresh=... (free text with spaces)";
    t0.residue = {{Tick{1250}, 3}, {Tick{2500}, 7}};
    service::TenantSnapshotRecord t1;
    t1.name = "mallory";
    t1.generated = 90;
    t1.droppedShed = 40;
    t1.lastOffered = 60;
    t1.fingerprint = 0x0badf00d;
    t1.describe = "d";
    t1.hasHeld = true;
    t1.held = {Tick{3750}, 11};
    t1.heldSince = Tick{5000};
    s.tenants = {t0, t1};

    service::RoundRecord r0;
    r0.stage = service::GovernorStage::Normal;
    r0.grant = {8, 8};
    r0.scansShed = {false, false};
    r0.quantumStretch = {1, 1};
    r0.applied = {{{Tick{100}, 1}}, {{Tick{200}, 2}, {Tick{300}, 3}}};
    service::RoundRecord r1;
    r1.stage = service::GovernorStage::StretchQuanta;
    r1.grant = {8, 0};
    r1.scansShed = {false, true};
    r1.quantumStretch = {1, 4};
    r1.applied = {{{Tick{400}, 5}}, {}};
    s.journal = {r0, r1};
    return s;
}

} // namespace

TEST(DurableRecords, ServiceSnapshotTruncationAtEveryByteThrows)
{
    const std::string full =
        service::encodeServiceSnapshot(sampleSnapshot());
    // Sanity: the intact encoding decodes to the identical encoding.
    EXPECT_EQ(service::encodeServiceSnapshot(
                  service::decodeServiceSnapshot(full)),
              full);

    // Every proper prefix - which includes every section boundary:
    // after the header, between tenants, mid-journal, before the
    // footer - must throw, never decode to a shorter valid snapshot.
    for (std::size_t len = 0; len < full.size(); ++len)
        EXPECT_THROW(service::decodeServiceSnapshot(full.substr(0, len)),
                     service::ServiceError)
            << "truncation to " << len << " of " << full.size()
            << " bytes was accepted";
}

TEST(DurableRecords, ServiceSnapshotLineRemovalAndReorderThrow)
{
    const std::string full =
        service::encodeServiceSnapshot(sampleSnapshot());
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < full.size()) {
        std::size_t nl = full.find('\n', start);
        lines.push_back(full.substr(start, nl - start + 1));
        start = nl + 1;
    }
    ASSERT_GE(lines.size(), 8u);

    // Deleting any single line (each individually CRC-clean) breaks
    // the footer's line count or running CRC.
    for (std::size_t drop = 0; drop < lines.size(); ++drop) {
        std::string damaged;
        for (std::size_t i = 0; i < lines.size(); ++i)
            if (i != drop)
                damaged += lines[i];
        EXPECT_THROW(service::decodeServiceSnapshot(damaged),
                     service::ServiceError)
            << "dropping line " << drop << " was accepted";
    }

    // Swapping two sealed lines keeps every line CRC valid; the
    // structural checks (duplicate/missing sections) must still fire.
    std::string swapped;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        std::size_t j = i == 0 ? 1 : (i == 1 ? 0 : i);
        swapped += lines[j];
    }
    EXPECT_THROW(service::decodeServiceSnapshot(swapped),
                 service::ServiceError);

    // Trailing bytes after the footer are a deviation too.
    EXPECT_THROW(service::decodeServiceSnapshot(full + lines[1]),
                 service::ServiceError);
}

TEST(DurableRecords, ServiceSnapshotRandomCorruptionThrows)
{
    const std::string full =
        service::encodeServiceSnapshot(sampleSnapshot());
    Rng rng(0xc0ffee);
    for (int trial = 0; trial < 500; ++trial) {
        std::string damaged = full;
        const std::size_t at = rng.uniformInt(damaged.size());
        const char flip =
            static_cast<char>(1 + rng.uniformInt(255)); // never 0
        damaged[at] = static_cast<char>(damaged[at] ^ flip);
        EXPECT_THROW(service::decodeServiceSnapshot(damaged),
                     service::ServiceError)
            << "flipping byte " << at << " with 0x" << std::hex
            << int(flip) << " was accepted";
    }
}

TEST(DurableRecords, ServiceSnapshotGarbageFilesThrow)
{
    using service::decodeServiceSnapshot;
    using service::ServiceError;
    EXPECT_THROW(decodeServiceSnapshot(""), ServiceError);
    EXPECT_THROW(decodeServiceSnapshot("not a snapshot\n"), ServiceError);
    EXPECT_THROW(decodeServiceSnapshot("MEMCOND-SVC v1 unsealed\n"),
                 ServiceError);
    // A valid *campaign checkpoint* header is still not a snapshot.
    EXPECT_THROW(
        decodeServiceSnapshot(ckpt::sealLine("MEMCON-CKPT v1 x")),
        ServiceError);
    // Missing trailing newline on an otherwise intact file.
    const std::string full =
        service::encodeServiceSnapshot(sampleSnapshot());
    EXPECT_THROW(decodeServiceSnapshot(full.substr(0, full.size() - 1)),
                 ServiceError);
}

} // namespace
} // namespace memcon
