/**
 * @file
 * Unit and property tests for the failure substrate: keyed
 * permutations, the address scrambler, column remapping, content
 * providers, the data-dependent failure model, and the SoftMC-style
 * tester - including the calibration bands the reproduction targets
 * (Figure 4's 13.5% ALL-FAIL and 0.38-5.6% content spread).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/random.hh"
#include "failure/content.hh"
#include "failure/injector.hh"
#include "failure/model.hh"
#include "failure/remap.hh"
#include "failure/scrambler.hh"
#include "failure/tester.hh"
#include "failure/vrt.hh"
#include "oracles/row_fractions.hh"
#include "oracles/secded.hh"

namespace memcon::failure
{
namespace
{

/** Bijectivity sweep over widths and keys. */
class PermutationBijective
    : public ::testing::TestWithParam<std::pair<unsigned, std::uint64_t>>
{
};

TEST_P(PermutationBijective, ForwardInverseRoundTrip)
{
    auto [bits, key] = GetParam();
    KeyedPermutation perm(bits, key);
    Rng rng(55);
    for (int i = 0; i < 2000; ++i) {
        std::uint64_t v = rng.uniformInt(perm.size());
        std::uint64_t f = perm.forward(v);
        ASSERT_LT(f, perm.size());
        ASSERT_EQ(perm.inverse(f), v);
    }
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndKeys, PermutationBijective,
    ::testing::Values(std::pair{4u, 1ull}, std::pair{9u, 77ull},
                      std::pair{15u, 0xdeadbeefull}, std::pair{17u, 3ull},
                      std::pair{24u, 0xabcdull}));

TEST(KeyedPermutation, ExhaustiveBijectionSmallWidth)
{
    KeyedPermutation perm(8, 1234);
    std::set<std::uint64_t> images;
    for (std::uint64_t v = 0; v < 256; ++v)
        images.insert(perm.forward(v));
    EXPECT_EQ(images.size(), 256u); // a true permutation
}

TEST(KeyedPermutation, DifferentKeysDifferentPermutations)
{
    KeyedPermutation a(12, 1), b(12, 2);
    int same = 0;
    for (std::uint64_t v = 0; v < 1000; ++v)
        same += a.forward(v) == b.forward(v);
    EXPECT_LT(same, 10);
}

TEST(KeyedPermutation, ActuallyScrambles)
{
    KeyedPermutation perm(16, 42);
    // Neighbouring inputs should rarely stay neighbours.
    int adjacent = 0;
    for (std::uint64_t v = 0; v + 1 < 1000; ++v) {
        std::uint64_t d = perm.forward(v) > perm.forward(v + 1)
                              ? perm.forward(v) - perm.forward(v + 1)
                              : perm.forward(v + 1) - perm.forward(v);
        adjacent += d == 1;
    }
    EXPECT_LT(adjacent, 5);
}

TEST(AddressScrambler, KeyZeroIsIdentity)
{
    AddressScrambler s(10, 12, 0);
    EXPECT_FALSE(s.enabled());
    for (std::uint64_t r = 0; r < 100; ++r) {
        EXPECT_EQ(s.physicalRow(r), r);
        EXPECT_EQ(s.logicalColumn(r), r);
    }
}

TEST(AddressScrambler, RoundTripsWhenEnabled)
{
    AddressScrambler s(10, 12, 777);
    EXPECT_TRUE(s.enabled());
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t r = rng.uniformInt(s.numRows());
        ASSERT_EQ(s.logicalRow(s.physicalRow(r)), r);
    }
    // The column map is a bijection: every logical column is hit once.
    std::vector<bool> hit(s.numColumns(), false);
    for (std::uint64_t c = 0; c < s.numColumns(); ++c) {
        const std::uint64_t l = s.logicalColumn(c);
        ASSERT_LT(l, s.numColumns());
        ASSERT_FALSE(hit[l]) << "logical column " << l << " hit twice";
        hit[l] = true;
    }
}

/** Where each addressable column's data is stored: the inverse of
 * addressedColumn over every storage position. */
std::vector<std::uint64_t>
storageColumns(const ColumnRemapper &rm)
{
    std::vector<std::uint64_t> storage(rm.numDataColumns(),
                                       ColumnRemapper::kUnmapped);
    for (std::uint64_t s = 0; s < rm.totalColumns(); ++s) {
        const std::uint64_t c = rm.addressedColumn(s);
        if (c == ColumnRemapper::kUnmapped)
            continue;
        EXPECT_EQ(storage[c], ColumnRemapper::kUnmapped)
            << "column " << c << " stored twice";
        storage[c] = s;
    }
    return storage;
}

TEST(ColumnRemapper, IdentityWithoutRepairs)
{
    ColumnRemapper rm(1024, 32, 0, 0);
    EXPECT_EQ(rm.numRemapped(), 0u);
    const std::vector<std::uint64_t> storage = storageColumns(rm);
    for (std::uint64_t c = 0; c < 1024; c += 13) {
        EXPECT_EQ(storage[c], c);
        EXPECT_EQ(rm.addressedColumn(c), c);
    }
}

TEST(ColumnRemapper, RemappedColumnsLandInSpares)
{
    ColumnRemapper rm(1024, 32, 8, 99);
    EXPECT_EQ(rm.numRemapped(), 8u);
    const std::vector<std::uint64_t> storage = storageColumns(rm);
    unsigned remapped_seen = 0;
    for (std::uint64_t c = 0; c < 1024; ++c) {
        std::uint64_t sc = storage[c];
        // Every addressable column's data is stored somewhere.
        ASSERT_NE(sc, ColumnRemapper::kUnmapped) << "column " << c;
        if (sc != c) {
            ++remapped_seen;
            EXPECT_GE(sc, 1024u);
            EXPECT_LT(sc, 1024u + 32);
        }
    }
    EXPECT_EQ(remapped_seen, 8u);
}

TEST(ColumnRemapper, FusedOffAndUnusedSparesAreUnmapped)
{
    ColumnRemapper rm(1024, 32, 8, 99);
    const std::vector<std::uint64_t> storage = storageColumns(rm);
    for (std::uint64_t c = 0; c < 1024; ++c) {
        if (storage[c] != c) {
            EXPECT_EQ(rm.addressedColumn(c), ColumnRemapper::kUnmapped);
        }
    }
    unsigned unused = 0;
    for (std::uint64_t s = 1024; s < 1024 + 32; ++s)
        unused += rm.addressedColumn(s) == ColumnRemapper::kUnmapped;
    EXPECT_EQ(unused, 32u - 8u);
}

TEST(ColumnRemapper, TooManyFaultsIsFatal)
{
    EXPECT_EXIT(ColumnRemapper(64, 4, 8, 1),
                ::testing::ExitedWithCode(1), "cannot repair");
}

TEST(PatternContent, SolidPatterns)
{
    PatternContent zeros(PatternKind::Solid0);
    PatternContent ones(PatternKind::Solid1);
    for (std::uint64_t w = 0; w < 16; ++w) {
        EXPECT_EQ(zeros.wordAt(3, w), 0u);
        EXPECT_EQ(ones.wordAt(3, w), ~std::uint64_t{0});
    }
    EXPECT_FALSE(zeros.bit(0, 17));
    EXPECT_TRUE(ones.bit(0, 17));
}

TEST(PatternContent, CheckerboardAlternates)
{
    PatternContent cb(PatternKind::Checkerboard);
    // Adjacent bits differ within a row.
    for (unsigned b = 0; b + 1 < 64; ++b)
        EXPECT_NE(cb.bit(0, b), cb.bit(0, b + 1));
    // Phase flips between rows.
    EXPECT_NE(cb.bit(0, 0), cb.bit(1, 0));
    PatternContent inv(PatternKind::InvCheckerboard);
    EXPECT_NE(cb.bit(0, 0), inv.bit(0, 0));
}

TEST(PatternContent, RowStripeAndWalking)
{
    PatternContent rs(PatternKind::RowStripe);
    EXPECT_EQ(rs.wordAt(0, 0), 0u);
    EXPECT_EQ(rs.wordAt(1, 0), ~std::uint64_t{0});

    PatternContent w1(PatternKind::WalkingOne, 5);
    EXPECT_EQ(w1.wordAt(9, 9), std::uint64_t{1} << 5);
    PatternContent w0(PatternKind::WalkingZero, 5);
    EXPECT_EQ(w0.wordAt(9, 9), ~(std::uint64_t{1} << 5));
}

TEST(PatternContent, RandomIsDeterministicPerSeed)
{
    PatternContent a(PatternKind::Random, 7), b(PatternKind::Random, 7),
        c(PatternKind::Random, 8);
    EXPECT_EQ(a.wordAt(5, 6), b.wordAt(5, 6));
    EXPECT_NE(a.wordAt(5, 6), c.wordAt(5, 6));
}

TEST(PatternContent, BatteryComposition)
{
    auto battery = PatternContent::battery(100);
    EXPECT_EQ(battery.size(), 100u);
    EXPECT_EQ(battery[0].kind(), PatternKind::Solid0);
    // Short batteries only get classics.
    EXPECT_EQ(PatternContent::battery(3).size(), 3u);
    // Names are unique (each pattern is distinct).
    std::set<std::string> names;
    for (const auto &p : battery)
        names.insert(p.name());
    EXPECT_EQ(names.size(), battery.size());
}

TEST(ContentPersona, SuiteHas20ValidBenchmarks)
{
    auto suite = ContentPersona::specSuite();
    ASSERT_EQ(suite.size(), 20u);
    std::set<std::string> names;
    for (const auto &p : suite) {
        names.insert(p.name);
        EXPECT_GE(p.zeroWordFraction, 0.0);
        EXPECT_LE(p.zeroWordFraction + p.smallWordFraction +
                      p.pointerWordFraction,
                  1.0);
    }
    EXPECT_EQ(names.size(), 20u);
    EXPECT_EQ(ContentPersona::byName("astar").name, "astar");
    EXPECT_EXIT(ContentPersona::byName("nonexistent"),
                ::testing::ExitedWithCode(1), "unknown content persona");
}

TEST(ProgramContent, DeterministicPerEpoch)
{
    ContentPersona p = ContentPersona::byName("astar");
    ProgramContent a(p, 0), b(p, 0), c(p, 1);
    EXPECT_EQ(a.wordAt(10, 20), b.wordAt(10, 20));
    // Epoch churn redraws kEpochChurn of the words; the observable
    // change rate is lower because a redraw can land on the same
    // value (zero words especially), so bound rather than match.
    int changed = 0;
    const int n = 5000;
    for (int i = 0; i < n; ++i)
        changed += a.wordAt(i, i % 128) != c.wordAt(i, i % 128);
    double frac = changed / double(n);
    EXPECT_GT(frac, 0.10);
    EXPECT_LT(frac, ProgramContent::kEpochChurn + 0.02);
}

TEST(ProgramContent, ZeroFractionMatchesPersona)
{
    ContentPersona p = ContentPersona::byName("perlbench");
    ProgramContent content(p, 0);
    int zeros = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        zeros += content.wordAt(i % 512, i / 512) == 0;
    EXPECT_NEAR(zeros / double(n), p.zeroWordFraction, 0.02);
}

class FailureModelTest : public ::testing::Test
{
  protected:
    FailureModelTest()
    {
        params.nominalIntervalMs = 64.0;
        params.seed = 11;
    }

    FailureModelParams params;
    static constexpr std::uint64_t kRows = 1 << 13;
    static constexpr std::uint64_t kCols = 1 << 16;
};

TEST_F(FailureModelTest, DeterministicPopulations)
{
    FailureModel a(params, kRows, kCols), b(params, kRows, kCols);
    for (std::uint64_t r = 0; r < 200; ++r) {
        const auto &ca = a.cellsOfRow(RowId{r});
        const auto &cb = b.cellsOfRow(RowId{r});
        ASSERT_EQ(ca.size(), cb.size());
        for (std::size_t i = 0; i < ca.size(); ++i) {
            EXPECT_EQ(ca[i].column, cb[i].column);
            EXPECT_EQ(ca[i].marginFrac, cb[i].marginFrac);
        }
    }
}

TEST_F(FailureModelTest, PopulationDensityMatchesPoissonMean)
{
    FailureModel m(params, kRows, kCols);
    std::uint64_t total = 0;
    for (std::uint64_t r = 0; r < kRows; ++r)
        total += m.cellsOfRow(RowId{r}).size();
    double mean = total / double(kRows);
    EXPECT_NEAR(mean, params.vulnerableCellsPerRow, 0.02);
}

TEST_F(FailureModelTest, HiRefIsSafeForAnyContent)
{
    FailureModel m(params, kRows, kCols);
    // At nominal/4 (the HI-REF rate) even worst-case content cannot
    // fail a cell - the guarantee MEMCON's mitigation rests on.
    EXPECT_EQ(oracles::worstCaseRowFraction(
                  m, params.nominalIntervalMs / 4.0, 2048),
              0.0);
    for (auto kind : {PatternKind::Checkerboard, PatternKind::Solid0}) {
        PatternContent pat(kind);
        EXPECT_EQ(oracles::failingRowFraction(m, pat, 16.0, 2048), 0.0);
    }
}

TEST_F(FailureModelTest, FailuresMonotoneInRefreshInterval)
{
    FailureModel m(params, kRows, kCols);
    ProgramContent content(ContentPersona::byName("astar"), 0);
    for (std::uint64_t r = 0; r < 4096; ++r) {
        auto fails_64 = m.evaluatePhysicalRow(RowId{r}, content, 64.0);
        auto fails_128 = m.evaluatePhysicalRow(RowId{r}, content, 128.0);
        // Every failure at 64 ms persists at 128 ms.
        std::set<std::uint64_t> at128;
        for (const auto &f : fails_128)
            at128.insert(f.column);
        for (const auto &f : fails_64)
            ASSERT_TRUE(at128.count(f.column))
                << "row " << r << " col " << f.column;
    }
}

TEST_F(FailureModelTest, ContentFailuresSubsetOfWorstCase)
{
    FailureModel m(params, kRows, kCols);
    ProgramContent content(ContentPersona::byName("lbm"), 0);
    for (std::uint64_t r = 0; r < 4096; ++r) {
        if (m.physicalRowFails(RowId{r}, content, 64.0)) {
            ASSERT_TRUE(m.physicalRowCanFail(RowId{r}, 64.0));
        }
    }
}

TEST_F(FailureModelTest, DifferentContentDifferentFailures)
{
    // Figure 3's core observation: which cells fail depends on what
    // is stored around them.
    FailureModel m(params, kRows, kCols);
    PatternContent a(PatternKind::Random, 1), b(PatternKind::Random, 2);
    std::set<std::pair<RowId, std::uint64_t>> fa, fb;
    for (std::uint64_t r = 0; r < 4096; ++r) {
        for (const auto &f : m.evaluatePhysicalRow(RowId{r}, a, 64.0))
            fa.insert({f.physicalRow, f.column});
        for (const auto &f : m.evaluatePhysicalRow(RowId{r}, b, 64.0))
            fb.insert({f.physicalRow, f.column});
    }
    EXPECT_FALSE(fa.empty());
    EXPECT_FALSE(fb.empty());
    EXPECT_NE(fa, fb);
}

TEST_F(FailureModelTest, WeakCellsFailRegardlessOfContent)
{
    params.vulnerableCellsPerRow = 0.0;
    params.weakCellsPerRow = 0.5;
    FailureModel m(params, kRows, kCols);
    PatternContent zeros(PatternKind::Solid0);
    PatternContent ones(PatternKind::Solid1);
    // Past the maximum retention, every weak cell fails with any
    // content.
    double far = params.nominalIntervalMs * params.retentionMaxFrac * 1.01;
    std::uint64_t with_zeros = 0, with_ones = 0;
    for (std::uint64_t r = 0; r < 512; ++r) {
        with_zeros += m.evaluatePhysicalRow(RowId{r}, zeros, far).size();
        with_ones += m.evaluatePhysicalRow(RowId{r}, ones, far).size();
    }
    EXPECT_EQ(with_zeros, with_ones);
    EXPECT_GT(with_zeros, 0u);
}

TEST_F(FailureModelTest, LogicalViewConsistentWithScrambler)
{
    FailureModel m(params, kRows, kCols);
    ProgramContent content(ContentPersona::byName("astar"), 0);
    for (std::uint64_t lr = 0; lr < 512; ++lr) {
        std::uint64_t pr = m.scrambler().physicalRow(lr);
        ASSERT_EQ(m.logicalRowFails(RowId{lr}, content, 64.0),
                  m.physicalRowFails(RowId{pr}, content, 64.0));
    }
}

TEST(FailureCalibration, AllFailFractionNearPaper)
{
    FailureModelParams p;
    p.nominalIntervalMs = 328.0;
    FailureModel m(p, 1 << 14, 1 << 16);
    DramTester tester(m);
    double all = tester.exhaustivePhysicalTest(328.0).failingRowFraction();
    // Paper: 13.5% of rows fail under exhaustive testing.
    EXPECT_NEAR(all, 0.135, 0.012);
}

TEST(FailureCalibration, ContentSpreadNearPaper)
{
    FailureModelParams p;
    p.nominalIntervalMs = 328.0;
    FailureModel m(p, 1 << 13, 1 << 16);
    DramTester tester(m);

    double low = tester
                     .testWithContent(
                         ProgramContent(
                             ContentPersona::byName("perlbench"), 0),
                         328.0)
                     .failingRowFraction();
    double high = tester
                      .testWithContent(
                          ProgramContent(ContentPersona::byName("astar"),
                                         0),
                          328.0)
                      .failingRowFraction();
    // Paper: 0.38% (min) to 5.6% (max) of rows fail with program
    // content - 2.4x to 35.2x fewer than ALL FAIL.
    EXPECT_GT(low, 0.001);
    EXPECT_LT(low, 0.008);
    EXPECT_GT(high, 0.040);
    EXPECT_LT(high, 0.075);
    double all =
        tester.exhaustivePhysicalTest(328.0).failingRowFraction();
    EXPECT_GT(all / low, 15.0);
    EXPECT_LT(all / high, 4.0);
}

TEST(DramTester, PatternBatteryUnionAndPerPattern)
{
    FailureModelParams p;
    p.seed = 5;
    FailureModel m(p, 1 << 12, 1 << 16);
    DramTester tester(m);
    auto battery = PatternContent::battery(8);
    auto per = tester.perPatternFailingCells(battery, 64.0);
    ASSERT_EQ(per.size(), battery.size());

    auto combined = tester.testWithPatternBattery(battery, 64.0);
    std::set<std::pair<RowId, std::uint64_t>> union_cells;
    for (const auto &s : per)
        union_cells.insert(s.begin(), s.end());
    EXPECT_EQ(combined.failures.size(), union_cells.size());
}

TEST(DramTester, SystemLevelBatteryMissesWorstCaseUnderScrambling)
{
    // Section 2(i): without layout knowledge, pattern campaigns
    // through the system address space find fewer failures than the
    // manufacturer's exhaustive physical profile.
    FailureModelParams p;
    p.seed = 6;
    FailureModel m(p, 1 << 12, 1 << 16);
    DramTester tester(m);
    auto battery = PatternContent::battery(16);
    double via_patterns =
        tester.testWithPatternBattery(battery, 64.0).failingRowFraction();
    double physical =
        tester.exhaustivePhysicalTest(64.0).failingRowFraction();
    EXPECT_LT(via_patterns, physical);
    EXPECT_GT(via_patterns, 0.0);
}

TEST(Temperature, ScalingMatchesPaperAnchor)
{
    // Section 5: a 4 s interval at 45°C corresponds to 328 ms at 85°C.
    EXPECT_NEAR(temperatureScaledInterval(4000.0, 45.0, 85.0), 328.0, 0.5);
    // Identity at equal temperatures; monotone in temperature.
    EXPECT_DOUBLE_EQ(temperatureScaledInterval(100.0, 85.0, 85.0), 100.0);
    EXPECT_GT(temperatureScaledInterval(100.0, 85.0, 45.0), 100.0);
}

TEST(DramTester, RowLimitBounds)
{
    FailureModelParams p;
    FailureModel m(p, 1 << 12, 1 << 16);
    DramTester tester(m);
    PatternContent zeros(PatternKind::Solid0);
    auto res = tester.testWithContent(zeros, 64.0, 128);
    EXPECT_EQ(res.rowsTested, 128u);
    EXPECT_EXIT(tester.testWithContent(zeros, 64.0, 1 << 13),
                ::testing::ExitedWithCode(1), "exceeds module rows");
}

// --- the injector's ECC verdict against a real SECDED decoder ------
//
// FaultInjector::onRead classifies a LO-REF read by how many leaky
// VRT cells share a 64-bit word: none is Ok, one is CorrectedData,
// two or more is Uncorrectable. The oracle does it the literal way:
// build the row's words, encode them, flip the bit of every leaky
// cell, and decode each word with the (72,64) codec. Up to two flips
// per word the two must agree exactly. At three or more the injector
// is deliberately pessimistic (Uncorrectable), where a real SECDED
// decoder may miscorrect into CorrectedData; the oracle then only
// promises the decode is never Ok. Two population members that drew
// the same column are one cell: leaky, it flips its bit once.

dram::EccStatus
worstDecode(const VrtPopulation &pop, RowId row, TimeMs now_ms,
            std::uint64_t content_seed)
{
    constexpr std::size_t kWords = (1u << 16) / 64;
    Rng rng(content_seed);
    std::vector<std::uint64_t> data(kWords);
    std::vector<std::uint64_t> flips(kWords, 0);
    for (std::uint64_t &w : data)
        w = rng.next();
    for (const VrtCell &cell : pop.cellsOfRow(row))
        if (pop.isLeakyAt(cell, now_ms))
            flips[cell.column / 64] |= std::uint64_t{1}
                                       << (cell.column % 64);

    dram::EccStatus worst = dram::EccStatus::Ok;
    for (std::size_t i = 0; i < kWords; ++i) {
        oracles::EccWord word = oracles::Secded64::encode(data[i]);
        word.data ^= flips[i];
        const dram::EccStatus status =
            oracles::Secded64::decode(word).status;
        if (status == dram::EccStatus::Uncorrectable)
            return status;
        if (status != dram::EccStatus::Ok)
            worst = dram::EccStatus::CorrectedData;
    }
    return worst;
}

TEST(SecdedOracle, InjectorVerdictMatchesDecodeUpToTwoFlipsPerWord)
{
    FaultInjectorConfig icfg;
    icfg.loRefIntervalMs = 64.0; // past the 48 ms leaky threshold
    unsigned by_max_flips[4] = {0, 0, 0, 0};
    unsigned shared_columns = 0;
    for (double density : {2.0, 100.0}) {
        VrtParams params;
        params.vrtCellsPerRow = density;
        params.dwellHighMs = 1000.0;
        params.dwellLowMs = 1000.0;
        params.seed = 7;
        VrtPopulation pop(params, 128);
        FaultInjector injector(icfg, pop.numRows());
        injector.attachVrt(&pop);

        for (double t : {10000.0, 20000.0, 30000.0}) {
            const TimeMs now_ms{t};
            for (std::uint64_t r = 0; r < pop.numRows(); ++r) {
                const RowId row{r};
                std::set<std::uint64_t> columns;
                std::vector<unsigned> per_word((1u << 16) / 64, 0);
                unsigned max_flips = 0;
                for (const VrtCell &cell : pop.cellsOfRow(row)) {
                    if (!pop.isLeakyAt(cell, now_ms))
                        continue;
                    if (!columns.insert(cell.column).second) {
                        ++shared_columns; // the same cell again
                        continue;
                    }
                    max_flips = std::max(max_flips,
                                         ++per_word[cell.column / 64]);
                }
                const dram::EccStatus injected =
                    injector.onRead(row, timeMsToTicks(now_ms),
                                    /*lo_ref=*/true);
                const dram::EccStatus decoded =
                    worstDecode(pop, row, now_ms, r * 31 + 5);
                ++by_max_flips[std::min(max_flips, 3u)];
                if (max_flips <= 2) {
                    EXPECT_EQ(injected, decoded)
                        << "row " << r << " at " << t << " ms, "
                        << max_flips << " flips in the worst word";
                } else {
                    EXPECT_EQ(injected, dram::EccStatus::Uncorrectable);
                    EXPECT_NE(decoded, dram::EccStatus::Ok);
                }
            }
        }
    }
    // The sweep reaches every agreement case: clean rows, single
    // flips, double flips in one word, and leaky columns two
    // population members share.
    EXPECT_GT(by_max_flips[0], 0u);
    EXPECT_GT(by_max_flips[1], 0u);
    EXPECT_GT(by_max_flips[2], 0u);
    EXPECT_GT(shared_columns, 0u);
}

TEST(SecdedOracle, SharedLeakyColumnFlipsOnce)
{
    // Two population members at one column are one cell. Find a row
    // whose only repeated leaky column is alone in its word and whose
    // other leaky cells sit one to a word: physically every word holds
    // at most one flip, so the read is corrected, not uncorrectable.
    FaultInjectorConfig icfg;
    icfg.loRefIntervalMs = 64.0;
    VrtParams params;
    params.vrtCellsPerRow = 60.0;
    params.dwellHighMs = 1000.0;
    params.dwellLowMs = 1000.0;
    params.seed = 11;
    VrtPopulation pop(params, 2048);
    FaultInjector injector(icfg, pop.numRows());
    injector.attachVrt(&pop);
    const TimeMs now_ms{10000.0};
    unsigned found = 0;
    for (std::uint64_t r = 0; r < pop.numRows() && found < 2; ++r) {
        std::map<std::uint64_t, std::set<std::uint64_t>> words;
        bool shared = false;
        std::set<std::uint64_t> columns;
        for (const VrtCell &cell : pop.cellsOfRow(RowId{r})) {
            if (!pop.isLeakyAt(cell, now_ms))
                continue;
            shared |= !columns.insert(cell.column).second;
            words[cell.column / 64].insert(cell.column);
        }
        bool one_per_word = true;
        for (const auto &[word, cols] : words)
            one_per_word &= cols.size() == 1;
        if (!shared || !one_per_word)
            continue;
        ++found;
        EXPECT_EQ(injector.onRead(RowId{r}, timeMsToTicks(now_ms), true),
                  dram::EccStatus::CorrectedData)
            << "row " << r;
        EXPECT_EQ(worstDecode(pop, RowId{r}, now_ms, r),
                  dram::EccStatus::CorrectedData);
    }
    EXPECT_GT(found, 0u) << "no row with a lone shared leaky column";
}

} // namespace
} // namespace memcon::failure
