/**
 * @file
 * Tests for the activation-count read-disturb subsystem: the
 * DisturbModel's victim-centric charge accounting (thresholds,
 * windows, flip persistence), the attacker personas in trace/hammer,
 * the DisturbGuard's crossing/escalation/bank-degradation state
 * machine, and the property suite the whole mitigation arm is pinned
 * by - under any composition of injector faults and disturb flips the
 * resilience ladder never loses a row: after each quantum every page
 * is exactly one of {LO-REF, HI-REF, pinned}, and demote->pin is
 * monotone within a battery.
 *
 * Everything here is deterministic under the fixed seeds used.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/closed_loop.hh"
#include "core/resilience.hh"
#include "dram/address_map.hh"
#include "failure/disturb.hh"
#include "failure/injector.hh"
#include "trace/hammer.hh"
#include "trace/tenant_stream.hh"

namespace memcon
{
namespace
{

using core::DisturbGuard;
using core::DisturbGuardConfig;
using core::OnlineMemcon;
using core::OnlineMemconConfig;
using core::ResilienceConfig;
using core::ResilienceManager;
using dram::AddressMap;
using dram::EccStatus;
using failure::DisturbModel;
using failure::DisturbParams;
using failure::FaultInjector;
using failure::FaultInjectorConfig;
using trace::HammerKind;
using trace::HammerSpec;
using trace::HammerStream;

// --- DisturbModel: thresholds --------------------------------------

/** Deterministic params: sigma 0 makes every threshold exactly
 * max(minThreshold, medianThreshold). */
DisturbParams
flatParams(std::uint64_t threshold)
{
    DisturbParams dp;
    dp.medianThreshold = threshold;
    dp.minThreshold = threshold;
    dp.thresholdSigma = 0.0;
    // One huge window: all test activity lands in one epoch, so
    // charge accumulates without refresh resets getting in the way.
    dp.hiWindowMs = 1e6;
    dp.loWindowMs = 1e6;
    dp.seed = 7;
    return dp;
}

TEST(DisturbThreshold, PureFunctionOfSeedAndRow)
{
    const AddressMap map = AddressMap::identity();
    DisturbParams dp;
    dp.seed = 42;
    DisturbModel a(dp, &map, 64);
    DisturbModel b(dp, &map, 64);

    bool any_spread = false;
    for (std::uint64_t row = 0; row < 64; ++row) {
        EXPECT_EQ(a.thresholdOf(RowId{row}), b.thresholdOf(RowId{row}));
        EXPECT_GE(a.thresholdOf(RowId{row}), dp.minThreshold);
        if (a.thresholdOf(RowId{row}) != a.thresholdOf(RowId{0}))
            any_spread = true;
    }
    EXPECT_TRUE(any_spread) << "lognormal draw produced no spread";

    dp.seed = 43;
    DisturbModel c(dp, &map, 64);
    bool any_difference = false;
    for (std::uint64_t row = 0; row < 64; ++row)
        if (a.thresholdOf(RowId{row}) != c.thresholdOf(RowId{row}))
            any_difference = true;
    EXPECT_TRUE(any_difference) << "seed does not reach the draw";
}

TEST(DisturbThreshold, FloorCapsTheWeakestRow)
{
    const AddressMap map = AddressMap::identity();
    DisturbParams dp;
    dp.medianThreshold = 100;
    dp.minThreshold = 5000; // floor far above the whole distribution
    DisturbModel m(dp, &map, 256);
    for (std::uint64_t row = 0; row < 256; ++row)
        EXPECT_EQ(m.thresholdOf(RowId{row}), 5000u);
}

// --- DisturbModel: charge and flips --------------------------------

TEST(DisturbCharge, NeighborsFlipAtTheirBlastRadiusWeight)
{
    const AddressMap map = AddressMap::identity();
    DisturbModel m(flatParams(8), &map, 64);

    const RowId aggressor{10};
    const Tick t{1000};
    for (int i = 0; i < 8; ++i)
        m.onActivate(aggressor, t);

    // Distance-1 victims take full weight: 8 ACTs = threshold.
    EXPECT_EQ(m.pendingSingle(RowId{9}), 1u);
    EXPECT_EQ(m.pendingSingle(RowId{11}), 1u);
    EXPECT_TRUE(m.hasLatentFlip(RowId{9}));
    // Distance-2 victims take a quarter: 8 ACTs = 2 effective.
    EXPECT_EQ(m.pendingSingle(RowId{8}), 0u);
    EXPECT_EQ(m.pendingSingle(RowId{12}), 0u);
    // Distance-3 rows are outside the blast radius entirely.
    EXPECT_EQ(m.pendingSingle(RowId{7}), 0u);
    EXPECT_EQ(m.flipsRecorded(), 2u);

    // 24 more ACTs bring the distance-2 victims to 32 = 4x threshold
    // in raw ACTs = one quarter-weighted crossing...
    for (int i = 0; i < 24; ++i)
        m.onActivate(aggressor, t);
    EXPECT_EQ(m.pendingSingle(RowId{8}), 1u);
    EXPECT_EQ(m.pendingSingle(RowId{12}), 1u);
    // ...while the distance-1 victims crossed again: second flip of
    // the same word, uncorrectable under SECDED.
    EXPECT_EQ(m.pendingDouble(RowId{9}), 1u);
    EXPECT_EQ(m.pendingDouble(RowId{11}), 1u);
}

TEST(DisturbCharge, BankBoundaryClipsTheBlastRadius)
{
    // blocked(2, 3): 4 banks x 8 rows. Bank 1's local row 0 is flat
    // row 8; flat row 7 is bank 0's edge - physically unrelated.
    const AddressMap map = AddressMap::blocked(2, 3);
    DisturbModel m(flatParams(4), &map, 32);

    const RowId aggressor{map.pageOf(1, 0)};
    ASSERT_EQ(aggressor.value(), 8u);
    for (int i = 0; i < 64; ++i)
        m.onActivate(aggressor, Tick{500});

    EXPECT_GT(m.pendingSingle(RowId{9}), 0u);  // same-bank neighbor
    EXPECT_EQ(m.pendingSingle(RowId{7}), 0u);  // across the boundary
    EXPECT_EQ(m.pendingSingle(RowId{6}), 0u);
}

TEST(DisturbCharge, WindowLapseRestoresAccumulatedCharge)
{
    const AddressMap map = AddressMap::identity();
    DisturbParams dp = flatParams(16);
    dp.hiWindowMs = 0.01;
    DisturbModel m(dp, &map, 64);

    const Tick window = msToTicks(dp.hiWindowMs);
    const RowId aggressor{20};
    // Two near-threshold bursts two whole windows apart: the victim
    // was refreshed in between, so neither burst alone flips.
    for (int i = 0; i < 15; ++i)
        m.onActivate(aggressor, Tick{100});
    for (int i = 0; i < 15; ++i)
        m.onActivate(aggressor, Tick{100} + window + window);
    EXPECT_EQ(m.flipsRecorded(), 0u);

    // Control: one burst of threshold ACTs inside a single window.
    for (int i = 0; i < 16; ++i)
        m.onActivate(RowId{40}, Tick{100});
    EXPECT_EQ(m.pendingSingle(RowId{39}), 1u);
}

TEST(DisturbCharge, LoRefWindowAccumulatesAcrossHiRefEpochs)
{
    // The coupling the mitigation exists for: the same aggressor
    // burst pattern is harmless at HI-REF (each burst lands in its
    // own epoch) and flips bits at LO-REF (the 100x window spans
    // both bursts).
    const AddressMap map = AddressMap::identity();
    DisturbParams dp = flatParams(16);
    dp.hiWindowMs = 0.01;
    dp.loWindowMs = 1.0;
    const Tick hi_window = msToTicks(dp.hiWindowMs);
    const Tick t0{100};
    const Tick t1 = t0 + hi_window + hi_window;

    auto run = [&](bool lo) {
        DisturbModel m(dp, &map, 64);
        m.setLoRefQuery([lo](RowId) { return lo; });
        // Pin the victims' epoch bookkeeping at t0 so the deterministic
        // per-row refresh phase cannot straddle the two bursts.
        m.onVictimRefreshed(RowId{19}, t0);
        m.onVictimRefreshed(RowId{21}, t0);
        for (int i = 0; i < 15; ++i)
            m.onActivate(RowId{20}, t0);
        for (int i = 0; i < 15; ++i)
            m.onActivate(RowId{20}, t1);
        return m.flipsRecorded();
    };

    EXPECT_EQ(run(false), 0u) << "HI-REF refresh did not reset charge";
    EXPECT_GT(run(true), 0u) << "LO-REF window did not span the bursts";
}

TEST(DisturbFlips, PersistAcrossVictimRefreshUntilRestored)
{
    const AddressMap map = AddressMap::identity();
    DisturbModel m(flatParams(8), &map, 64);
    const RowId aggressor{10};
    const RowId victim{11};

    for (int i = 0; i < 8; ++i)
        m.onActivate(aggressor, Tick{100});
    ASSERT_EQ(m.pendingSingle(victim), 1u);

    // Refresh restores corrupted charge as faithfully as intact
    // charge: the flip stays, the counter resets.
    m.onVictimRefreshed(victim, Tick{200});
    EXPECT_EQ(m.pendingSingle(victim), 1u);
    EXPECT_TRUE(m.hasLatentFlip(victim));
    for (int i = 0; i < 7; ++i)
        m.onActivate(aggressor, Tick{200});
    EXPECT_EQ(m.pendingDouble(victim), 0u)
        << "victim refresh did not reset the charge counter";

    // A rewrite repairs the content.
    m.onRowRestored(victim, Tick{300});
    EXPECT_EQ(m.pendingSingle(victim), 0u);
    EXPECT_FALSE(m.hasLatentFlip(victim));
    // flipsRecorded is a campaign total, not the pending state.
    EXPECT_EQ(m.flipsRecorded(), 2u);
}

TEST(DisturbFlips, RetireClearsPendingButNotTheRecord)
{
    const AddressMap map = AddressMap::identity();
    DisturbModel m(flatParams(8), &map, 64);
    for (int i = 0; i < 8; ++i)
        m.onActivate(RowId{10}, Tick{100});
    ASSERT_TRUE(m.hasLatentFlip(RowId{11}));

    m.retireFlips(RowId{11});
    EXPECT_FALSE(m.hasLatentFlip(RowId{11}));
    EXPECT_EQ(m.flipsRecorded(), 2u);
}

TEST(DisturbFlips, SurfaceThroughTheSecdedVerdictPath)
{
    const AddressMap map = AddressMap::identity();
    DisturbModel disturb(flatParams(8), &map, 64);

    FaultInjectorConfig inj_cfg;
    inj_cfg.transientPerRowPerMs = 0.0;
    FaultInjector injector(inj_cfg, 64);
    injector.attachDisturb(&disturb);

    // One crossing: correctable.
    for (int i = 0; i < 8; ++i)
        disturb.onActivate(RowId{10}, Tick{100});
    EXPECT_EQ(injector.onRead(RowId{11}, Tick{150}, false),
              EccStatus::CorrectedData);
    EXPECT_TRUE(injector.hasLatentFault(RowId{11}, Tick{150}, false));

    // Second crossing in the same window: uncorrectable, and the
    // machine-check path retires the page's flips with the read.
    for (int i = 0; i < 8; ++i)
        disturb.onActivate(RowId{10}, Tick{200});
    EXPECT_EQ(injector.onRead(RowId{11}, Tick{250}, false),
              EccStatus::Uncorrectable);
    EXPECT_FALSE(disturb.hasLatentFlip(RowId{11}));
    EXPECT_EQ(injector.onRead(RowId{11}, Tick{300}, false),
              EccStatus::Ok);
}

// --- attacker personas ---------------------------------------------

TEST(HammerPersona, ShapesMatchTheirDefinitions)
{
    const AddressMap map = AddressMap::blocked(3, 6); // 8 x 64 rows
    const std::uint64_t rows = 512;

    HammerSpec hs;
    hs.bank = 3;
    hs.sides = 4;
    hs.actsPerUs = 10.0;
    hs.horizonMs = 0.1;
    hs.seed = 99;

    for (HammerKind kind : trace::allHammerKinds()) {
        hs.kind = kind;
        HammerStream stream(hs, map, rows);
        const auto &aggs = stream.aggressors();
        ASSERT_GE(aggs.size(), 2u) << trace::hammerKindName(kind);
        for (std::uint64_t agg : aggs) {
            EXPECT_EQ(map.shardOf(agg), hs.bank)
                << "aggressor escaped its bank";
            EXPECT_LT(agg, rows);
        }
        switch (kind) {
        case HammerKind::SingleSided: {
            ASSERT_EQ(aggs.size(), 2u);
            const std::uint64_t gap =
                map.localRowOf(aggs[1]) - map.localRowOf(aggs[0]);
            EXPECT_GE(gap, 8u);
            EXPECT_LE(gap, 16u);
            break;
        }
        case HammerKind::DoubleSided:
            ASSERT_EQ(aggs.size(), 2u);
            EXPECT_EQ(map.localRowOf(aggs[1]),
                      map.localRowOf(aggs[0]) + 2)
                << "double-sided pair must sandwich one victim";
            break;
        case HammerKind::ManySided:
            ASSERT_EQ(aggs.size(), hs.sides);
            for (std::size_t i = 1; i < aggs.size(); ++i)
                EXPECT_EQ(map.localRowOf(aggs[i]),
                          map.localRowOf(aggs[i - 1]) + 2);
            break;
        case HammerKind::Fuzzed:
            EXPECT_LE(aggs.size(), hs.sides);
            for (std::size_t i = 1; i < aggs.size(); ++i)
                EXPECT_GE(map.localRowOf(aggs[i]),
                          map.localRowOf(aggs[i - 1]) + 2);
            break;
        }
    }
}

TEST(HammerPersona, RowBandConfinesTheAggressors)
{
    const AddressMap map = AddressMap::blocked(3, 6);
    HammerSpec hs;
    hs.kind = HammerKind::Fuzzed;
    hs.bank = 0;
    hs.sides = 4;
    hs.actsPerUs = 10.0;
    hs.horizonMs = 0.1;
    hs.rowLo = 32; // the cold upper half of a 64-row bank

    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        hs.seed = seed;
        HammerStream stream(hs, map, 512);
        for (std::uint64_t agg : stream.aggressors()) {
            EXPECT_GE(map.localRowOf(agg), hs.rowLo + 4)
                << "margin must keep victims inside the band";
            EXPECT_LT(map.localRowOf(agg), 64u);
        }
    }
}

TEST(HammerPersona, CursorIsMonotoneAndReplayable)
{
    const AddressMap map = AddressMap::blocked(3, 6);
    HammerSpec hs;
    hs.kind = HammerKind::ManySided;
    hs.actsPerUs = 20.0;
    hs.horizonMs = 0.05;
    hs.seed = 5;

    HammerStream a(hs, map, 512);
    ASSERT_GT(a.totalAccesses(), 10u);

    Tick prev{};
    Tick at{};
    std::uint64_t row = 0;
    std::vector<std::uint64_t> consumed;
    while (a.peek(&at, &row)) {
        EXPECT_GE(at, prev);
        prev = at;
        consumed.push_back(row);
        a.pop();
    }
    EXPECT_EQ(consumed.size(), a.totalAccesses());
    EXPECT_EQ(a.generated(), a.totalAccesses());

    // A restored cursor re-positions a fresh stream exactly: the tail
    // after the skip matches the popped stream access for access.
    HammerStream b(hs, map, 512);
    const std::uint64_t skip = consumed.size() / 2;
    b.restoreCursor(skip);
    for (std::uint64_t i = skip; i < consumed.size(); ++i) {
        ASSERT_TRUE(b.peek(&at, &row));
        EXPECT_EQ(row, consumed[i]);
        b.pop();
    }
    EXPECT_FALSE(b.peek(&at, &row));
}

TEST(HammerPersona, NormalizedActRateIssuesExtraRowHits)
{
    const AddressMap map = AddressMap::blocked(3, 6);
    HammerSpec hs;
    hs.kind = HammerKind::Fuzzed;
    hs.sides = 6;
    hs.actsPerUs = 10.0;
    hs.horizonMs = 0.2;

    // Find a fuzzed draw with amplitude > 1 (a pattern slot repeated
    // back to back); for it, activation-normalized streams must issue
    // strictly more accesses over the same horizon.
    bool exercised = false;
    for (std::uint64_t seed = 1; seed <= 32 && !exercised; ++seed) {
        hs.seed = seed;
        hs.normalizeActRate = false;
        HammerStream raw(hs, map, 512);
        hs.normalizeActRate = true;
        HammerStream norm(hs, map, 512);
        EXPECT_EQ(raw.accessPattern(), norm.accessPattern());
        EXPECT_GE(norm.totalAccesses(), raw.totalAccesses());

        const auto &pat = raw.accessPattern();
        bool amplified = false;
        for (std::size_t i = 1; i < pat.size(); ++i)
            amplified |= pat[i] == pat[i - 1];
        if (amplified) {
            EXPECT_GT(norm.totalAccesses(), raw.totalAccesses());
            exercised = true;
        }
    }
    EXPECT_TRUE(exercised) << "no fuzzed seed in 1..32 drew amplitude > 1";
}

TEST(HammerPersona, AntagonistTenantSpeaksTheSameCursorProtocol)
{
    // The service-mode antagonist: a TenantWriteStream in hammer mode
    // is the HammerStream behind the tenant cursor interface, so
    // memcond's ingest (and its crash restore) drive an attacker
    // exactly like a benign tenant.
    trace::TenantTrafficConfig cfg;
    cfg.addressMap = AddressMap::blocked(3, 6);
    cfg.physicalRowLimit = 512;
    cfg.horizonMs = 0.05;
    cfg.hammerEnabled = true;
    cfg.hammer.kind = HammerKind::DoubleSided;
    cfg.hammer.bank = 2;
    cfg.hammer.actsPerUs = 20.0;
    cfg.hammer.horizonMs = 0.05;
    cfg.hammer.seed = 11;

    trace::TenantWriteStream tenant(cfg);
    HammerStream reference(cfg.hammer, cfg.addressMap, 512);

    Tick at{};
    std::uint64_t row = 0;
    std::uint64_t events = 0;
    Tick ref_at{};
    std::uint64_t ref_row = 0;
    while (tenant.peek(&at, &row)) {
        ASSERT_TRUE(reference.peek(&ref_at, &ref_row));
        EXPECT_EQ(at, ref_at);
        EXPECT_EQ(row, ref_row);
        EXPECT_EQ(cfg.addressMap.shardOf(row), cfg.hammer.bank);
        tenant.pop();
        reference.pop();
        ++events;
    }
    EXPECT_EQ(events, reference.totalAccesses());
    EXPECT_EQ(tenant.generated(), events);
}

// --- DisturbGuard --------------------------------------------------

struct GuardRig
{
    explicit GuardRig(DisturbGuardConfig cfg,
                      AddressMap m = AddressMap::blocked(2, 4))
        : map(m), guard(cfg, &map, 64, stats)
    {
    }

    StatGroup stats{"test"};
    AddressMap map;
    DisturbGuard guard;

    /** Banks held at HI-REF, ascending, asked bank by bank. */
    std::vector<std::uint64_t>
    degradedBanks(Tick now) const
    {
        std::vector<std::uint64_t> out;
        for (std::uint64_t b = 0; b < map.numShards(); ++b)
            if (guard.bankDegraded(RowId{map.pageOf(b, 0)}, now))
                out.push_back(b);
        return out;
    }
};

DisturbGuardConfig
smallGuard()
{
    DisturbGuardConfig cfg;
    cfg.enabled = true;
    cfg.actAlertThreshold = 16;
    cfg.victimRadius = 2;
    cfg.maxVictimRefreshes = 2;
    cfg.bankCrossingLimit = 3;
    cfg.crossingWindow = usToTicks(100.0);
    cfg.bankDegradeHold = usToTicks(50.0);
    return cfg;
}

TEST(DisturbGuardTest, CrossingFiresAtThresholdNearestVictimsFirst)
{
    GuardRig rig(smallGuard());
    const RowId aggressor{rig.map.pageOf(1, 8)};

    for (int i = 0; i < 15; ++i)
        EXPECT_FALSE(rig.guard.onActivate(aggressor, Tick{100}));
    auto crossing = rig.guard.onActivate(aggressor, Tick{100});
    ASSERT_TRUE(crossing);
    EXPECT_EQ(crossing->aggressor, aggressor);
    EXPECT_EQ(crossing->bank, 1u);
    ASSERT_EQ(crossing->victims.size(), 4u);
    // Nearest first: +-1 before +-2.
    EXPECT_EQ(crossing->victims[0].value(), aggressor.value() - 1);
    EXPECT_EQ(crossing->victims[1].value(), aggressor.value() + 1);
    EXPECT_EQ(crossing->victims[2].value(), aggressor.value() - 2);
    EXPECT_EQ(crossing->victims[3].value(), aggressor.value() + 2);
    EXPECT_TRUE(crossing->escalations.empty());
    EXPECT_EQ(rig.guard.crossings(), 1u);

    // The counter reset: the next crossing is 16 ACTs away again.
    for (int i = 0; i < 15; ++i)
        EXPECT_FALSE(rig.guard.onActivate(aggressor, Tick{200}));
    EXPECT_TRUE(rig.guard.onActivate(aggressor, Tick{200}));
}

TEST(DisturbGuardTest, BankEdgeClipsTheVictimList)
{
    GuardRig rig(smallGuard());
    const RowId edge{rig.map.pageOf(2, 0)}; // no neighbors below
    for (int i = 0; i < 16; ++i)
        if (auto crossing = rig.guard.onActivate(edge, Tick{100})) {
            ASSERT_EQ(crossing->victims.size(), 2u);
            EXPECT_EQ(crossing->victims[0].value(), edge.value() + 1);
            EXPECT_EQ(crossing->victims[1].value(), edge.value() + 2);
            return;
        }
    FAIL() << "threshold never crossed";
}

TEST(DisturbGuardTest, ChronicVictimsEscalateEveryEpisodeMultiple)
{
    // maxVictimRefreshes = 2: every second crossing of the same
    // aggressor escalates its victims into the demote ladder.
    GuardRig rig(smallGuard());
    const RowId aggressor{rig.map.pageOf(0, 8)};

    std::vector<bool> escalated;
    for (int c = 0; c < 4; ++c) {
        std::optional<DisturbGuard::Crossing> crossing;
        for (int i = 0; i < 16 && !crossing; ++i)
            crossing = rig.guard.onActivate(aggressor, Tick{100});
        ASSERT_TRUE(crossing);
        escalated.push_back(!crossing->escalations.empty());
        if (!crossing->escalations.empty()) {
            EXPECT_EQ(crossing->escalations.size(),
                      crossing->victims.size());
        }
    }
    EXPECT_EQ(escalated, (std::vector<bool>{false, true, false, true}));
}

TEST(DisturbGuardTest, SustainedCrossingsDegradeTheBankWithHysteresis)
{
    GuardRig rig(smallGuard());
    const RowId aggressor{rig.map.pageOf(1, 8)};
    const RowId same_bank{rig.map.pageOf(1, 2)};
    const RowId other_bank{rig.map.pageOf(3, 8)};
    Tick now{1000};

    // bankCrossingLimit = 3 inside one window.
    std::uint64_t degrade_crossing = 0;
    for (int c = 1; c <= 3; ++c) {
        std::optional<DisturbGuard::Crossing> crossing;
        for (int i = 0; i < 16 && !crossing; ++i)
            crossing = rig.guard.onActivate(aggressor, now);
        ASSERT_TRUE(crossing);
        if (crossing->bankDegraded)
            degrade_crossing = c;
    }
    EXPECT_EQ(degrade_crossing, 3u);
    EXPECT_TRUE(rig.guard.bankDegraded(same_bank, now));
    EXPECT_FALSE(rig.guard.bankDegraded(other_bank, now));
    EXPECT_TRUE(rig.guard.anyBankDegraded());
    EXPECT_EQ(rig.degradedBanks(now),
              (std::vector<std::uint64_t>{1}));

    // Hammering a degraded bank extends the hold (hysteresis): a
    // crossing halfway through the hold pushes the expiry out, so
    // the original expiry no longer releases the bank.
    const Tick first_expiry = now + smallGuard().bankDegradeHold;
    const Tick mid{now.value() + smallGuard().bankDegradeHold.value() / 2};
    for (int i = 0; i < 16; ++i)
        rig.guard.onActivate(aggressor, mid);
    EXPECT_TRUE(rig.guard.recoveredBanks(first_expiry).empty());
    EXPECT_TRUE(rig.guard.bankDegraded(same_bank, first_expiry));

    // Quiet past the extended hold: the bank recovers exactly once.
    const Tick late = mid + smallGuard().bankDegradeHold;
    EXPECT_EQ(rig.guard.recoveredBanks(late),
              (std::vector<std::uint64_t>{1}));
    EXPECT_FALSE(rig.guard.bankDegraded(same_bank, late));
    EXPECT_FALSE(rig.guard.anyBankDegraded());
    EXPECT_TRUE(rig.guard.recoveredBanks(late).empty());
}

TEST(DisturbGuardTest, DisabledGuardCostsNothingOnTheActPath)
{
    DisturbGuardConfig cfg = smallGuard();
    cfg.enabled = false;
    GuardRig rig(cfg);
    for (int i = 0; i < 200; ++i)
        EXPECT_FALSE(rig.guard.onActivate(RowId{8}, Tick{100}));
    EXPECT_EQ(rig.guard.crossings(), 0u);
}

TEST(DisturbGuardTest, FingerprintTracksGuardState)
{
    GuardRig a(smallGuard());
    GuardRig b(smallGuard());
    EXPECT_EQ(a.guard.fingerprint(), b.guard.fingerprint());

    for (int i = 0; i < 16; ++i) {
        a.guard.onActivate(RowId{8}, Tick{100});
        b.guard.onActivate(RowId{8}, Tick{100});
    }
    EXPECT_EQ(a.guard.fingerprint(), b.guard.fingerprint());

    for (int i = 0; i < 16; ++i)
        a.guard.onActivate(RowId{8}, Tick{200});
    EXPECT_NE(a.guard.fingerprint(), b.guard.fingerprint());
}

// --- resilience ladder: demote -> pin is monotone ------------------

TEST(DisturbLadder, EscalationsWalkTheLadderMonotonically)
{
    ResilienceConfig cfg;
    cfg.maxCorrectedRetries = 2;
    cfg.retestBackoff = usToTicks(10.0);
    StatGroup stats("test");
    ResilienceManager rm(cfg, 64, stats);
    const RowId row{5};
    using Action = ResilienceManager::EccAction;

    // Within the retry budget: demote + backoff re-test.
    EXPECT_EQ(rm.onDisturbEscalation(row, true, Tick{0}), Action::DemoteAndRetest);
    EXPECT_EQ(rm.onDisturbEscalation(row, true, Tick{10}), Action::DemoteAndRetest);
    EXPECT_FALSE(rm.isPinned(row));
    // Budget exhausted: pin, permanently.
    EXPECT_EQ(rm.onDisturbEscalation(row, true, Tick{20}), Action::DemoteAndPin);
    EXPECT_TRUE(rm.isPinned(row));
    EXPECT_EQ(rm.pinnedRows(), 1u);
    // Monotone: a pinned row never re-enters the retest ladder.
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(rm.onDisturbEscalation(row, true, Tick{30}), Action::None);
    EXPECT_TRUE(rm.isPinned(row));

    // Escalations on rows already at HI-REF are counted, not laddered.
    EXPECT_EQ(rm.onDisturbEscalation(RowId{6}, false, Tick{0}), Action::None);
    EXPECT_FALSE(rm.isPinned(RowId{6}));

    // The scheduled re-tests surface after their backoff (10us, then
    // 20us for the second episode), never before.
    EXPECT_TRUE(rm.dueRetests(Tick{0}).empty());
    auto due = rm.dueRetests(usToTicks(10.0));
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0], row);
    due = rm.dueRetests(usToTicks(40.0));
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0], row);
}

// --- the partition property (closed loop) --------------------------

/**
 * Closed-loop rig: OnlineMemcon + controller + composed injector
 * (transient faults AND disturb flips) + guard, with a hammer stream
 * on bank 1's cold band and benign writes over the banks' lower
 * halves. Small and hot: thresholds are set so flips, victim
 * refreshes, escalations, and pins all happen within ~1 ms.
 */
struct DisturbLoopRig
{
    DisturbLoopRig()
        : timing(dram::TimingParams::ddr3_1600(dram::Density::Gb8,
                                               TimeMs{16.0})),
          map(AddressMap::blocked(3, 5))
    {
        geom.channels = 1;
        geom.ranks = 1;
        geom.banks = 8;
        geom.rowsPerBank = 32; // 256 rows

        failure::DisturbParams dp;
        dp.hiWindowMs = 0.1;
        dp.loWindowMs = 0.4;
        dp.medianThreshold = 600;
        dp.minThreshold = 400;
        dp.seed = 0xd15;
        disturb = std::make_unique<DisturbModel>(dp, &map,
                                                 geom.totalRows());

        FaultInjectorConfig inj_cfg;
        inj_cfg.transientPerRowPerMs = 0.1;
        inj_cfg.seed = 0x1faf;
        injector = std::make_unique<FaultInjector>(inj_cfg,
                                                   geom.totalRows());
        injector->attachDisturb(disturb.get());

        OnlineMemconConfig om_cfg;
        om_cfg.quantum = usToTicks(20.0);
        om_cfg.testIdle = usToTicks(10.0);
        om_cfg.retargetPeriod = usToTicks(10.0);
        om_cfg.testEngine.slots = 16;
        om_cfg.addressMap = map;
        om_cfg.resilience.enabled = true;
        om_cfg.resilience.maxCorrectedRetries = 1;
        om_cfg.resilience.retestBackoff = usToTicks(20.0);
        om_cfg.resilience.fallbackHold = usToTicks(60.0);
        om_cfg.disturbGuard.enabled = true;
        om_cfg.disturbGuard.actAlertThreshold = 64;
        om_cfg.disturbGuard.maxVictimRefreshes = 2;
        // Bank degradation (exercised by the guard unit tests) would
        // blanket-demote the hammered bank within 100 us here and
        // park the whole run at HI-REF; keep it out of the way so the
        // per-victim ladder is what this battery exercises.
        om_cfg.disturbGuard.bankCrossingLimit = 1u << 20;
        om_cfg.disturbGuard.crossingWindow = usToTicks(100.0);
        om_cfg.disturbGuard.bankDegradeHold = usToTicks(50.0);
        loop = std::make_unique<core::ClosedLoop>(geom, timing, om_cfg,
                                                  *injector);
        mc = &loop->controller();
        memcon = &loop->memcon();

        HammerSpec hs;
        hs.kind = HammerKind::DoubleSided;
        hs.bank = 1;
        hs.actsPerUs = 12.0;
        hs.horizonMs = 2.0;
        hs.rowLo = geom.rowsPerBank / 2; // the never-written band
        hs.seed = 0xa66e;
        hammer = std::make_unique<HammerStream>(hs, map,
                                                geom.totalRows());
    }

    void
    enqueueRead(std::uint64_t row)
    {
        sim::Request req;
        req.type = sim::Request::Type::Read;
        req.addr = geom.compose(geom.rowFromFlatIndex(RowId{row}));
        mc->enqueue(std::move(req), now);
    }

    void
    enqueueWrite(std::uint64_t row)
    {
        sim::Request req;
        req.type = sim::Request::Type::Write;
        req.addr = geom.compose(geom.rowFromFlatIndex(RowId{row}));
        mc->enqueue(std::move(req), now);
    }

    dram::Geometry geom;
    dram::TimingParams timing;
    AddressMap map;
    std::unique_ptr<DisturbModel> disturb;
    std::unique_ptr<FaultInjector> injector;
    std::unique_ptr<core::ClosedLoop> loop;
    sim::MemoryController *mc = nullptr;
    OnlineMemcon *memcon = nullptr;
    std::unique_ptr<HammerStream> hammer;
    Tick now{};
};

TEST(DisturbProperty, LadderNeverLosesARowUnderComposedFaults)
{
    DisturbLoopRig rig;
    const std::uint64_t rows = rig.geom.totalRows();

    // Benign tenant: write the lower half of every bank once, so the
    // read-only sweep promotes the untouched upper halves (where the
    // hammer aims) to LO-REF.
    for (std::uint64_t bank = 0; bank < 8; ++bank)
        for (std::uint64_t r = 0; r < rig.geom.rowsPerBank / 2; ++r)
            rig.enqueueWrite(rig.map.pageOf(bank, r));

    std::vector<bool> pinned_seen(rows, false);
    std::uint64_t checks = 0;
    const Tick horizon = msToTicks(1.0);
    const Tick check_period = usToTicks(20.0); // one quantum
    Tick next_check = check_period;
    const Tick benign_read_period = usToTicks(2.0);
    Tick next_benign_read = benign_read_period;
    std::uint64_t benign_cursor = 0;

    while (rig.now < horizon) {
        rig.now += rig.timing.tCk;
        Tick at{};
        std::uint64_t row = 0;
        while (rig.hammer->peek(&at, &row) && at <= rig.now) {
            rig.hammer->pop();
            rig.enqueueRead(row);
        }
        if (rig.now >= next_benign_read) {
            // Round-robin demand reads over the written lower halves:
            // the ECC probe path that surfaces the injector's
            // transient faults.
            next_benign_read = next_benign_read + benign_read_period;
            const std::uint64_t bank = benign_cursor % 8;
            const std::uint64_t r =
                (benign_cursor / 8) % (rig.geom.rowsPerBank / 2);
            rig.enqueueRead(rig.map.pageOf(bank, r));
            ++benign_cursor;
        }
        rig.loop->tick(rig.now);

        if (rig.now < next_check)
            continue;
        next_check = next_check + check_period;
        ++checks;

        // The partition: every page is exactly one of LO-REF,
        // HI-REF, or pinned-at-HI. "Pinned but LO" would be a lost
        // row - the ladder demoted it and the promotion path
        // re-certified it anyway.
        std::uint64_t lo = 0, hi = 0, pinned = 0;
        for (std::uint64_t r = 0; r < rows; ++r) {
            const bool is_lo = rig.memcon->isLoRef(RowId{r});
            const bool is_pinned = rig.memcon->isPinned(RowId{r});
            ASSERT_FALSE(is_lo && is_pinned)
                << "row " << r << " is pinned yet LO-REF";
            if (is_pinned) {
                ++pinned;
                // Demote -> pin is monotone within the battery: a
                // pinned row stays pinned.
            } else if (is_lo) {
                ++lo;
            } else {
                ++hi;
            }
            if (pinned_seen[r]) {
                ASSERT_TRUE(is_pinned)
                    << "row " << r << " was unpinned mid-battery";
            }
            pinned_seen[r] = pinned_seen[r] || is_pinned;
        }
        ASSERT_EQ(lo + hi + pinned, rows);
        ASSERT_EQ(pinned, rig.memcon->pinnedRows());
        if (rig.memcon->inFallback()) {
            ASSERT_EQ(rig.memcon->loRefFraction(), 0.0)
                << "panic-fallback must blanket-demote";
        }
    }

    EXPECT_GE(checks, 40u);
    // The run must actually compose the hazards it claims to: the
    // hammer crossed alert thresholds, victims were refreshed, and
    // the ladder pinned at least one chronically hammered row.
    EXPECT_GT(rig.memcon->disturbGuard().crossings(), 0u);
    EXPECT_GT(rig.memcon->victimRefreshes(), 0u);
    EXPECT_GT(rig.memcon->pinnedRows(), 0u);
    EXPECT_GT(rig.memcon->stats().value("ecc.corrected") +
                  rig.memcon->stats().value("ecc.uncorrectable"),
              0.0)
        << "injector faults never surfaced through ECC";
}

} // namespace
} // namespace memcon
