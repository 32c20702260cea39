/**
 * @file
 * Unit and property tests for the trace substrate: the Table 1
 * application write-interval generator, the interval analyzer that
 * backs Figures 7-9/11/12, and the CPU access-trace generator that
 * feeds the cycle simulator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "common/checkpoint.hh"
#include "common/random.hh"
#include "common/state_io.hh"
#include "dram/address_map.hh"
#include "trace/analyzer.hh"
#include "trace/app_model.hh"
#include "trace/cpu_gen.hh"
#include "trace/tenant_stream.hh"
#include "trace/trace_io.hh"

namespace memcon::trace
{
namespace
{

TEST(AppPersona, Table1SuiteMetadata)
{
    auto suite = AppPersona::table1Suite();
    ASSERT_EQ(suite.size(), 12u); // Table 1 has 12 applications
    std::set<std::string> names;
    for (const auto &p : suite) {
        names.insert(p.name);
        EXPECT_GT(p.durationSec, 0.0);
        EXPECT_GT(p.footprintGB, 0.0);
        EXPECT_GE(p.threads, 2u);
        EXPECT_GT(p.pages, 0u);
        EXPECT_LE(p.readOnlyFraction + p.hotFraction, 1.0);
    }
    EXPECT_EQ(names.size(), 12u);
    // Spot-check Table 1 rows.
    AppPersona netflix = AppPersona::byName("Netflix");
    EXPECT_DOUBLE_EQ(netflix.durationSec, 229.4);
    EXPECT_DOUBLE_EQ(netflix.footprintGB, 4.6);
    AppPersona sysmgt = AppPersona::byName("SystemMgt");
    EXPECT_DOUBLE_EQ(sysmgt.durationSec, 466.2);
    EXPECT_EXIT(AppPersona::byName("nope"), ::testing::ExitedWithCode(1),
                "unknown application persona");
}

TEST(PageWriteProcess, Deterministic)
{
    AppPersona p = AppPersona::byName("Netflix");
    // Find two distinct written (non-read-only) pages.
    std::vector<std::uint64_t> written;
    for (std::uint64_t page = 0; written.size() < 2; ++page) {
        ASSERT_LT(page, p.pages);
        if (!PageWriteProcess(p, page).isReadOnly())
            written.push_back(page);
    }
    PageWriteProcess a(p, written[0]), b(p, written[0]),
        c(p, written[1]);
    auto ta = a.writeTimes();
    auto tb = b.writeTimes();
    EXPECT_FALSE(ta.empty());
    EXPECT_EQ(ta, tb);
    EXPECT_NE(ta, c.writeTimes());
}

TEST(PageWriteProcess, TimesSortedWithinDuration)
{
    AppPersona p = AppPersona::byName("ACBrotherHood");
    for (std::uint64_t page = 0; page < 64; ++page) {
        PageWriteProcess proc(p, page);
        auto times = proc.writeTimes();
        for (std::size_t i = 0; i < times.size(); ++i) {
            ASSERT_GE(times[i], TimeMs{});
            ASSERT_LT(times[i].value(), p.durationSec * 1000.0);
            if (i > 0) {
                ASSERT_GT(times[i], times[i - 1]);
            }
        }
    }
}

TEST(PageWriteProcess, ClassMixMatchesFractions)
{
    AppPersona p = AppPersona::byName("AVCHD");
    std::uint64_t ro = 0, hot = 0, cold = 0;
    for (std::uint64_t page = 0; page < p.pages; ++page) {
        PageWriteProcess proc(p, page);
        if (proc.isReadOnly()) {
            ++ro;
            EXPECT_TRUE(proc.writeTimes().empty());
        } else if (proc.isHot()) {
            ++hot;
        } else {
            ++cold;
        }
    }
    double n = static_cast<double>(p.pages);
    EXPECT_NEAR(ro / n, p.readOnlyFraction, 0.05);
    EXPECT_NEAR(hot / n, p.hotFraction, 0.02);
    EXPECT_GT(cold, 0u);
}

TEST(PageWriteProcess, HotPagesWriteFarMoreThanColdOnes)
{
    AppPersona p = AppPersona::byName("VideoEncode");
    double hot_sum = 0.0, cold_sum = 0.0;
    unsigned hot_n = 0, cold_n = 0;
    for (std::uint64_t page = 0; page < 512; ++page) {
        PageWriteProcess proc(p, page);
        if (proc.isReadOnly())
            continue;
        auto times = proc.writeTimes();
        if (proc.isHot()) {
            hot_sum += static_cast<double>(times.size());
            ++hot_n;
        } else {
            cold_sum += static_cast<double>(times.size());
            ++cold_n;
        }
    }
    ASSERT_GT(hot_n, 0u);
    ASSERT_GT(cold_n, 0u);
    EXPECT_GT(hot_sum / hot_n, 20.0 * (cold_sum / cold_n));
}

TEST(Analyzer, HandComputedFractions)
{
    WriteIntervalAnalyzer a;
    a.addInterval(TimeMs{0.5});
    a.addInterval(TimeMs{0.5});
    a.addInterval(TimeMs{2.0});
    a.addInterval(TimeMs{2000.0});
    EXPECT_EQ(a.numIntervals(), 4u);
    EXPECT_DOUBLE_EQ(a.totalIntervalTimeMs(), 2003.0);
    EXPECT_DOUBLE_EQ(a.fractionWritesBelow(TimeMs{1.0}), 0.5);
    EXPECT_DOUBLE_EQ(a.fractionWritesAtLeast(TimeMs{1024.0}), 0.25);
    EXPECT_NEAR(a.timeFractionAtLeast(TimeMs{1024.0}), 2000.0 / 2003.0, 1e-12);
}

TEST(Analyzer, PageWriteTimesBecomeIntervals)
{
    WriteIntervalAnalyzer a;
    a.addPageWriteTimes({TimeMs{10.0}, TimeMs{11.0}, TimeMs{20.0}});
    EXPECT_EQ(a.numIntervals(), 2u);
    EXPECT_DOUBLE_EQ(a.totalIntervalTimeMs(), 10.0);
}

TEST(Analyzer, SurvivalCurveMonotone)
{
    WriteIntervalAnalyzer a;
    Rng rng(4);
    for (int i = 0; i < 50000; ++i)
        a.addInterval(TimeMs{rng.pareto(1.0, 0.5)});
    auto curve = a.survivalCurve(TimeMs{32768.0});
    ASSERT_GT(curve.size(), 10u);
    for (std::size_t i = 1; i < curve.size(); ++i)
        ASSERT_LE(curve[i].second, curve[i - 1].second);
}

TEST(Analyzer, ParetoFitRecoversSyntheticAlpha)
{
    WriteIntervalAnalyzer a;
    Rng rng(9);
    for (int i = 0; i < 200000; ++i)
        a.addInterval(TimeMs{rng.pareto(1.0, 0.6)});
    LineFit fit = a.paretoFit(TimeMs{1.0}, TimeMs{4096.0});
    EXPECT_NEAR(-fit.slope, 0.6, 0.05);
    EXPECT_GT(fit.rSquared, 0.99);
}

TEST(Analyzer, DhrPropertyOnParetoIntervals)
{
    // The decreasing-hazard-rate property behind PRIL: for a Pareto,
    // P(RIL > r | CIL >= c) increases with c.
    WriteIntervalAnalyzer a;
    Rng rng(14);
    for (int i = 0; i < 300000; ++i)
        a.addInterval(TimeMs{rng.pareto(1.0, 0.5)});
    double prev = 0.0;
    for (double c : {1.0, 8.0, 64.0, 512.0, 4096.0}) {
        double p = a.probRemainingAtLeast(TimeMs{c}, TimeMs{1024.0});
        EXPECT_GE(p, prev - 0.02); // monotone up to sampling noise
        prev = p;
    }
    // And matches the closed form (c/(c+r))^alpha at large c.
    double expect = std::pow(512.0 / 1536.0, 0.5);
    EXPECT_NEAR(a.probRemainingAtLeast(TimeMs{512.0}, TimeMs{1024.0}), expect, 0.05);
}

TEST(Analyzer, CoverageDecreasesWithCil)
{
    WriteIntervalAnalyzer a;
    Rng rng(15);
    for (int i = 0; i < 100000; ++i)
        a.addInterval(TimeMs{rng.pareto(1.0, 0.5)});
    double prev = 1.0;
    for (double c : {1.0, 64.0, 1024.0, 8192.0, 32768.0}) {
        double cov = a.coverageAtCil(TimeMs{c}, TimeMs{1024.0});
        EXPECT_LE(cov, prev + 1e-9);
        EXPECT_GE(cov, 0.0);
        prev = cov;
    }
}

TEST(Analyzer, EmptyAnalyzerIsZero)
{
    WriteIntervalAnalyzer a;
    EXPECT_EQ(a.numIntervals(), 0u);
    EXPECT_DOUBLE_EQ(a.fractionWritesAtLeast(TimeMs{1.0}), 0.0);
    EXPECT_DOUBLE_EQ(a.timeFractionAtLeast(TimeMs{1.0}), 0.0);
    EXPECT_DOUBLE_EQ(a.probRemainingAtLeast(TimeMs{1.0}, TimeMs{1.0}), 0.0);
    EXPECT_DOUBLE_EQ(a.coverageAtCil(TimeMs{1.0}, TimeMs{1.0}), 0.0);
}

/** The Section 4.1 headline statistics, checked per application. */
class AppMarginals : public ::testing::TestWithParam<const char *>
{
};

TEST_P(AppMarginals, MatchPaperSection41)
{
    AppPersona p = AppPersona::byName(GetParam());
    WriteIntervalAnalyzer a = analyzeApp(p);

    // "more than 95% of the writes occur within 1 ms" (the suite
    // averages 95%+; allow a small per-app tolerance).
    EXPECT_GT(a.fractionWritesBelow(TimeMs{1.0}), 0.93);
    // "less than 0.43% of writes exhibit intervals greater than
    // 1024 ms" on average; per-app we bound loosely.
    EXPECT_LT(a.fractionWritesAtLeast(TimeMs{1024.0}), 0.02);
    // "write intervals greater than 1024 ms constitute 89.5% of the
    // total time spent on write intervals" on average.
    EXPECT_GT(a.timeFractionAtLeast(TimeMs{1024.0}), 0.85);
    // Figure 8: the Pareto fit is good (R^2 0.93-0.99 in the paper).
    EXPECT_GT(a.paretoFit(TimeMs{1.0}, TimeMs{32768.0}).rSquared, 0.90);
    // Figure 11: by CIL = 16384 ms the long-RIL probability
    // approaches 1.
    EXPECT_GT(a.probRemainingAtLeast(TimeMs{16384.0}, TimeMs{1024.0}), 0.85);
}

INSTANTIATE_TEST_SUITE_P(ThreeRepresentativeApps, AppMarginals,
                         ::testing::Values("ACBrotherHood", "Netflix",
                                           "SystemMgt"));

TEST(Analyzer, HalvedIntervalsShiftDistributionLeft)
{
    // Figure 19's cache-pressure study: halving every interval moves
    // the distribution left but barely changes P(RIL > 1024 | CIL).
    AppPersona p = AppPersona::byName("ACBrotherHood");
    WriteIntervalAnalyzer full = analyzeApp(p);
    WriteIntervalAnalyzer half = analyzeAppScaled(p, 0.5);
    EXPECT_LT(half.totalIntervalTimeMs(), full.totalIntervalTimeMs());
    EXPECT_LE(half.fractionWritesAtLeast(TimeMs{1024.0}),
              full.fractionWritesAtLeast(TimeMs{1024.0}));
    double pf = full.probRemainingAtLeast(TimeMs{512.0}, TimeMs{1024.0});
    double ph = half.probRemainingAtLeast(TimeMs{512.0}, TimeMs{1024.0});
    EXPECT_NEAR(ph, pf, 0.15);
}

TEST(CpuPersona, PoolAndLookups)
{
    auto pool = CpuPersona::benchmarkPool();
    EXPECT_GE(pool.size(), 12u);
    std::set<std::string> names;
    for (const auto &p : pool) {
        names.insert(p.name);
        EXPECT_GT(p.mpki, 0.0);
        EXPECT_GE(p.writeFraction, 0.0);
        EXPECT_LE(p.writeFraction, 1.0);
        EXPECT_GT(p.footprintBlocks, 0u);
    }
    EXPECT_EQ(names.size(), pool.size());
    EXPECT_EQ(CpuPersona::byName("mcf").name, "mcf");
    EXPECT_EXIT(CpuPersona::byName("zzz"), ::testing::ExitedWithCode(1),
                "unknown CPU persona");
}

TEST(CpuPersona, RandomMixesAreDeterministic)
{
    auto a = CpuPersona::randomMixes(30, 4, 1);
    auto b = CpuPersona::randomMixes(30, 4, 1);
    auto c = CpuPersona::randomMixes(30, 4, 2);
    ASSERT_EQ(a.size(), 30u);
    for (const auto &mix : a)
        EXPECT_EQ(mix.size(), 4u);
    for (unsigned i = 0; i < 30; ++i)
        for (unsigned j = 0; j < 4; ++j)
            EXPECT_EQ(a[i][j].name, b[i][j].name);
    bool any_diff = false;
    for (unsigned i = 0; i < 30; ++i)
        for (unsigned j = 0; j < 4; ++j)
            any_diff |= a[i][j].name != c[i][j].name;
    EXPECT_TRUE(any_diff);
}

TEST(CpuAccessStream, DeterministicPerStreamSeed)
{
    CpuPersona p = CpuPersona::byName("mcf");
    CpuAccessStream a(p, 1), b(p, 1), c(p, 2);
    bool differs = false;
    for (int i = 0; i < 100; ++i) {
        MemAccess xa = a.next(), xb = b.next(), xc = c.next();
        ASSERT_EQ(xa.blockIndex, xb.blockIndex);
        ASSERT_EQ(xa.bubbleInsts, xb.bubbleInsts);
        ASSERT_EQ(xa.isWrite, xb.isWrite);
        differs |= xa.blockIndex != xc.blockIndex;
    }
    EXPECT_TRUE(differs);
}

TEST(CpuAccessStream, EmpiricalMpkiAndWriteMix)
{
    CpuPersona p = CpuPersona::byName("tpcc");
    CpuAccessStream s(p, 0);
    std::uint64_t insts = 0, accesses = 0, writes = 0;
    for (int i = 0; i < 100000; ++i) {
        MemAccess a = s.next();
        insts += a.bubbleInsts + 1;
        ++accesses;
        writes += a.isWrite;
        ASSERT_LT(a.blockIndex, p.footprintBlocks);
    }
    double mpki = 1000.0 * accesses / static_cast<double>(insts);
    EXPECT_NEAR(mpki, p.mpki, p.mpki * 0.1);
    EXPECT_NEAR(writes / double(accesses), p.writeFraction, 0.02);
}

TEST(CpuAccessStream, SequentialRunsProduceRowLocality)
{
    CpuPersona p = CpuPersona::byName("stream"); // seqRunMean = 16
    CpuAccessStream s(p, 0);
    std::uint64_t prev = s.next().blockIndex;
    int sequential = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        std::uint64_t cur = s.next().blockIndex;
        sequential += cur == prev + 1;
        prev = cur;
    }
    // A mean run of 16 means ~15/16 of accesses continue a run.
    EXPECT_GT(sequential / double(n), 0.85);
}

TEST(CpuAccessStream, ZipfSkewConcentratesReuse)
{
    CpuPersona p = CpuPersona::byName("omnetpp"); // zipfS = 0.7
    CpuAccessStream s(p, 0);
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < 200000; ++i)
        ++counts[s.next().blockIndex];
    // The hottest block must absorb far more than a uniform share.
    int max_count = 0;
    for (auto &kv : counts)
        max_count = std::max(max_count, kv.second);
    double uniform_share = 200000.0 / static_cast<double>(p.footprintBlocks);
    EXPECT_GT(max_count, 50.0 * uniform_share);
}

// --------------------------------------------------------------------
// Malformed-trace corpus: every damaged input must surface as a
// TraceError carrying the offending position, never as an accepted
// parse or a process exit.
// --------------------------------------------------------------------

TEST(TraceErrors, WriteTraceCorpusIsRejectedWithPositions)
{
    struct Bad
    {
        const char *name;
        const char *text;
        std::size_t line;       //!< expected e.line()
        const char *reason_has; //!< substring of e.reason()
    };
    const Bad corpus[] = {
        {"empty file", "", 0, "empty"},
        {"comments only", "# a comment\n\n  # another\n", 3, "empty"},
        {"wrong magic", "mtrace v1 4 100\n", 1, "header"},
        {"wrong version", "wtrace v2 4 100\n", 1, "header"},
        {"truncated header", "wtrace v1\n", 1, "truncated"},
        {"zero pages", "wtrace v1 0 100\n", 1, "pages > 0"},
        {"junk line", "wtrace v1 2 100\n0 1.5\nnot numbers\n", 3,
         "bad write-trace line"},
        {"out-of-range page", "wtrace v1 2 100\n0 1\n7 2\n", 3,
         "out of range"},
        {"negative page", "wtrace v1 2 100\n-3 1\n", 2, "out of range"},
        {"negative time", "wtrace v1 2 100\n0 -4.5\n", 2, "outside"},
        {"time past duration", "wtrace v1 2 100\n0 100.0\n", 2,
         "outside"},
    };
    for (const Bad &bad : corpus) {
        std::istringstream in(bad.text);
        try {
            readWriteTrace(in);
            FAIL() << "corpus entry '" << bad.name << "' was accepted";
        } catch (const TraceError &e) {
            EXPECT_EQ(e.line(), bad.line) << bad.name;
            EXPECT_NE(e.reason().find(bad.reason_has), std::string::npos)
                << bad.name << ": reason was '" << e.reason() << "'";
            // what() carries the position for uncaught-error logs.
            EXPECT_NE(std::string(e.what()).find("line"),
                      std::string::npos);
        }
    }
}

TEST(TraceErrors, WriteTraceErrorReportsByteOffset)
{
    // The failing record starts right after the comment + header.
    std::string prefix = "# hdr\nwtrace v1 2 100\n";
    std::istringstream in(prefix + "9 1\n");
    try {
        readWriteTrace(in);
        FAIL() << "out-of-range page was accepted";
    } catch (const TraceError &e) {
        EXPECT_EQ(e.line(), 3u);
        EXPECT_EQ(e.byteOffset(), prefix.size());
    }
}

TEST(TraceErrors, CpuTraceCorpusIsRejectedWithPositions)
{
    struct Bad
    {
        const char *name;
        const char *text;
        std::size_t line;
        const char *reason_has;
    };
    const Bad corpus[] = {
        {"empty file", "", 0, "empty"},
        {"wrong magic", "wtrace v1\n", 1, "header"},
        {"junk line", "ctrace v1\n12 34 R\ngarbage\n", 3,
         "bad CPU-trace line"},
        {"bad access type", "ctrace v1\n12 34 X\n", 2, "must be R or W"},
    };
    for (const Bad &bad : corpus) {
        std::istringstream in(bad.text);
        try {
            readCpuTrace(in);
            FAIL() << "corpus entry '" << bad.name << "' was accepted";
        } catch (const TraceError &e) {
            EXPECT_EQ(e.line(), bad.line) << bad.name;
            EXPECT_NE(e.reason().find(bad.reason_has), std::string::npos)
                << bad.name << ": reason was '" << e.reason() << "'";
        }
    }
}

TEST(TraceErrors, RecoverableByLibraryCallers)
{
    // The point of the exception type: a caller can try a parse,
    // catch the failure, and keep going in-process.
    std::istringstream bad("wtrace v1 1 10\n0 99\n");
    bool recovered = false;
    try {
        readWriteTrace(bad);
    } catch (const TraceError &) {
        recovered = true;
    }
    EXPECT_TRUE(recovered);

    std::istringstream good("wtrace v1 1 10\n0 5\n");
    WriteTrace t = readWriteTrace(good);
    EXPECT_EQ(t.totalWrites(), 1u);
}

// ---------------------------------------------------------------------
// Tenant stream bank placement (DESIGN.md §17).
// ---------------------------------------------------------------------

namespace
{

/** Drain a tenant stream into (tick, row) pairs. */
std::vector<std::pair<Tick, std::uint64_t>>
drain(TenantWriteStream &s)
{
    std::vector<std::pair<Tick, std::uint64_t>> events;
    Tick at{};
    std::uint64_t row = 0;
    while (s.peek(&at, &row)) {
        events.emplace_back(at, row);
        s.pop();
    }
    return events;
}

TenantTrafficConfig
placedConfig()
{
    TenantTrafficConfig cfg;
    cfg.rows = 64;
    cfg.horizonMs = 0.5;
    cfg.seed = 11;
    return cfg;
}

} // namespace

TEST(TenantStream, BankPlacementRoutesRowsThroughTheMap)
{
    // Two streams from the same seed: one logical, one placed on
    // banks {2, 5} of the 8-bank map. Placement must change ONLY the
    // row labels - same events, same ticks, and each logical row i
    // relabels to pageOf(bankSet[i % 2], i / 2), which lands every
    // event in an owned bank.
    const dram::AddressMap map = dram::AddressMap::paperDdr3_8bank();
    TenantTrafficConfig logical = placedConfig();
    TenantTrafficConfig placed = placedConfig();
    placed.addressMap = map;
    placed.bankSet = {2, 5};
    placed.physicalRowLimit = 512;

    TenantWriteStream a(logical);
    TenantWriteStream b(placed);
    auto la = drain(a);
    auto lb = drain(b);
    ASSERT_FALSE(la.empty());
    ASSERT_EQ(la.size(), lb.size());
    for (std::size_t i = 0; i < la.size(); ++i) {
        EXPECT_EQ(la[i].first, lb[i].first) << "event " << i;
        const std::uint64_t logical_row = la[i].second;
        const std::uint64_t physical = lb[i].second;
        EXPECT_EQ(physical,
                  map.pageOf(logical_row % 2 == 0 ? 2 : 5,
                             logical_row / 2))
            << "event " << i;
        const std::uint64_t bank = map.shardOf(physical);
        EXPECT_TRUE(bank == 2 || bank == 5) << "event " << i;
    }
}

TEST(TenantStream, EmptyBankSetKeepsLogicalRows)
{
    // A non-identity map with no bankSet must be a no-op: the
    // placement only engages when banks are declared.
    TenantTrafficConfig plain = placedConfig();
    TenantTrafficConfig mapped = placedConfig();
    mapped.addressMap = dram::AddressMap::zenDdr4_64bank();

    TenantWriteStream a(plain);
    TenantWriteStream b(mapped);
    EXPECT_EQ(drain(a), drain(b));
}

TEST(TenantStream, RestoredCursorReplaysPlacedStreamExactly)
{
    // The crash-restore path must commute with placement: a stream
    // restored from a cursor saved after k pops yields the same
    // physical-row suffix, without drawing any event it already drew,
    // and saves the same cursor bytes it was restored from.
    TenantTrafficConfig placed = placedConfig();
    placed.addressMap = dram::AddressMap::paperDdr3_8bank();
    placed.bankSet = {1, 3, 6};
    placed.physicalRowLimit = 512;

    TenantWriteStream full(placed);
    auto all = drain(full);
    ASSERT_GT(all.size(), 10u);

    for (std::size_t k : {std::size_t{0}, std::size_t{1}, all.size() / 2,
                          all.size() - 1, all.size()}) {
        TenantWriteStream live(placed);
        Tick at{};
        std::uint64_t row = 0;
        for (std::size_t i = 0; i < k; ++i) {
            ASSERT_TRUE(live.peek(&at, &row));
            live.pop();
        }
        StateWriter out;
        live.saveState(out);
        const std::vector<std::string> saved = std::move(out).take();

        TenantWriteStream resumed(placed);
        StateReader in(saved);
        resumed.loadState(in);
        in.finish();
        EXPECT_EQ(resumed.generated(), k);
        EXPECT_EQ(resumed.eventsDrawn(), 0u) << "k=" << k;
        StateWriter again;
        resumed.saveState(again);
        EXPECT_EQ(std::move(again).take(), saved) << "k=" << k;

        auto suffix = drain(resumed);
        ASSERT_EQ(suffix.size(), all.size() - k);
        for (std::size_t i = 0; i < suffix.size(); ++i)
            ASSERT_EQ(suffix[i], all[i + k]) << "k=" << k << " event " << i;
    }
}

namespace
{

/** One row's write times from `gen`'s position on, appended to
 * `times` and cut at `horizon` (persona ms). */
std::vector<double>
rowTimes(PageWriteStream gen, double horizon, std::vector<double> times = {})
{
    double t = 0.0;
    while (gen.next(t) && t < horizon)
        times.push_back(t);
    return times;
}

/**
 * The order a tenant stream must deliver: every row's times appended
 * row-major and stably sorted by time (ties go to the lower row),
 * as (tick, physical row) through the config's placement.
 */
std::vector<std::pair<Tick, std::uint64_t>>
stableOrder(const TenantTrafficConfig &cfg,
            const std::vector<std::vector<double>> &per_row)
{
    std::vector<std::pair<double, std::uint64_t>> events;
    for (std::uint64_t row = 0; row < per_row.size(); ++row)
        for (double t : per_row[row])
            events.emplace_back(t, row);
    std::stable_sort(events.begin(), events.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    const std::uint64_t banks = cfg.bankSet.size();
    std::vector<std::pair<Tick, std::uint64_t>> order;
    for (const auto &[t, row] : events)
        order.emplace_back(
            msToTicks(t / cfg.rateScale),
            banks == 0 ? row
                       : cfg.addressMap.pageOf(cfg.bankSet[row % banks],
                                               row / banks));
    return order;
}

std::vector<std::string>
splitAt(const std::string &text, char sep)
{
    std::vector<std::string> parts;
    std::size_t begin = 0;
    for (std::size_t at; (at = text.find(sep, begin)) != std::string::npos;
         begin = at + 1)
        parts.push_back(text.substr(begin, at - begin));
    parts.push_back(text.substr(begin));
    return parts;
}

std::string
joinWith(const std::vector<std::string> &parts, char sep)
{
    std::string text;
    for (const std::string &part : parts)
        text += (text.empty() ? "" : std::string(1, sep)) + part;
    return text;
}

/** The value of `key` in a state line. */
std::string
fieldOf(const std::string &line, const std::string &key)
{
    const std::size_t begin = line.find(" " + key + "=") + key.size() + 2;
    return line.substr(begin, line.find(' ', begin) - begin);
}

/** A stream line with the given row tuples and times. */
std::string
cursorLine(const std::string &popped, const std::vector<std::string> &rows,
           const std::vector<std::string> &times)
{
    return "stream popped=" + popped + " rows=" + joinWith(rows, ',') +
           " times=" + joinWith(times, ',');
}

/** A row tuple's done flag is its last element. */
bool
liveTuple(const std::string &tuple)
{
    return tuple.back() == '0';
}

std::string
savedCursor(const TenantWriteStream &s)
{
    StateWriter out;
    s.saveState(out);
    std::vector<std::string> lines = std::move(out).take();
    EXPECT_EQ(lines.size(), 1u);
    return lines.front();
}

void
restoreCursor(TenantWriteStream &s, const std::string &line)
{
    const std::vector<std::string> rec{line};
    StateReader in(rec);
    s.loadState(in);
    in.finish();
}

} // namespace

TEST(TenantStream, DrainsRowsInStableTimeOrder)
{
    // The stream is a stable sort by time of every row's write times
    // appended row-major, cut at the horizon: unplaced at rate 1, and
    // placed on three banks at 8x.
    TenantTrafficConfig plain = placedConfig();
    plain.horizonMs = 4.0;
    TenantTrafficConfig placed = placedConfig();
    placed.rateScale = 8.0;
    placed.addressMap = dram::AddressMap::paperDdr3_8bank();
    placed.bankSet = {1, 3, 6};
    placed.physicalRowLimit = 512;
    for (const TenantTrafficConfig &cfg : {plain, placed}) {
        const AppPersona persona = cfg.persona();
        const double horizon = cfg.horizonMs * cfg.rateScale;
        std::vector<std::vector<double>> per_row;
        for (std::uint64_t row = 0; row < cfg.rows; ++row)
            per_row.push_back(rowTimes(PageWriteStream(persona, row), horizon));
        TenantWriteStream stream(cfg);
        const auto events = drain(stream);
        ASSERT_GT(events.size(), 100u) << "rateScale " << cfg.rateScale;
        EXPECT_EQ(events, stableOrder(cfg, per_row))
            << "rateScale " << cfg.rateScale;
    }
}

TEST(TenantStream, ExactCrossRowTiesDrainLowerRowFirst)
{
    // Random times never tie across rows, so make them: restore a
    // cursor whose rows B and C carry row A's process state and
    // pending time. From there the three rows draw the same times,
    // and each tie must go to the lower row.
    TenantTrafficConfig cfg = placedConfig();
    cfg.rateScale = 8.0;
    cfg.readOnlyFraction = 0.0;
    cfg.hotFraction = 0.0; // every row cold, so any row's state fits any
    cfg.addressMap = dram::AddressMap::paperDdr3_8bank();
    cfg.bankSet = {0, 7};
    cfg.physicalRowLimit = 512;
    TenantWriteStream live(cfg);
    for (int i = 0; i < 20; ++i)
        live.pop();
    const std::string line = savedCursor(live);
    std::vector<std::string> rows = splitAt(fieldOf(line, "rows"), ',');
    std::vector<std::string> times = splitAt(fieldOf(line, "times"), ',');
    std::vector<std::size_t> live_rows;
    for (std::size_t row = 0; row < rows.size(); ++row)
        if (liveTuple(rows[row]))
            live_rows.push_back(row);
    ASSERT_EQ(live_rows.size(), times.size());
    ASSERT_GE(live_rows.size(), 3u);
    for (std::size_t k : {live_rows.size() - 2, live_rows.size() - 1}) {
        rows[live_rows[k]] = rows[live_rows[0]];
        times[k] = times[0];
    }

    TenantWriteStream tied(cfg);
    restoreCursor(tied, cursorLine("20", rows, times));
    const auto events = drain(tied);

    const AppPersona persona = cfg.persona();
    const double horizon = cfg.horizonMs * cfg.rateScale;
    std::vector<std::vector<double>> per_row(cfg.rows);
    for (std::size_t k = 0; k < live_rows.size(); ++k) {
        const std::vector<std::string> v = splitAt(rows[live_rows[k]], ':');
        PageWriteStream gen(persona, live_rows[k]);
        PageWriteStream::State st;
        st.proc.rng = {std::stoull(v[0]), std::stoull(v[1]),
                       std::stoull(v[2]), std::stoull(v[3])};
        st.proc.burstRemaining = std::stoull(v[4]);
        st.t = std::stod(times[k]);
        gen.restore(st);
        per_row[live_rows[k]] = rowTimes(gen, horizon, {st.t});
    }
    const std::vector<double> &a = per_row[live_rows[0]];
    EXPECT_EQ(per_row[live_rows[live_rows.size() - 1]], a);
    EXPECT_EQ(per_row[live_rows[live_rows.size() - 2]], a);
    ASSERT_GE(a.size(), 1u);
    EXPECT_EQ(events, stableOrder(cfg, per_row));
}

TEST(TenantStream, SavedCursorBytesPinnedInMemcondConfig)
{
    // The saved cursor is a function of the stream's position alone:
    // after n pops a fresh stream, one restored at m < n and popped on
    // to n, and one that peeked around its pops all save the same
    // bytes, in which every live row holds exactly its one pending
    // time. Pinned in perfbench memcond's config (seed 1, 512 rows,
    // 256 rounds of 20 us): the in-quota tenant alice (index 0) and
    // the 8x antagonist mallory (index 3). The seeds follow
    // service/tenant.cc's derivation.
    const std::uint64_t service_seed = hashMix64(std::uint64_t{1} ^ 0x5e41ce);
    struct Pin
    {
        std::size_t tenant;
        double rateScale;
        std::size_t pops;
        std::size_t bytes;
        std::uint32_t crc;
    };
    auto popTo = [](TenantWriteStream &s, std::size_t n, bool peek) {
        Tick at{};
        std::uint64_t row = 0;
        while (s.generated() < n) {
            ASSERT_TRUE(s.peek(&at, &row));
            if (peek) {
                ASSERT_TRUE(s.peek(&at, &row));
            }
            s.pop();
            if (peek)
                s.peek(&at, &row);
        }
    };
    for (const Pin &pin : {Pin{0, 1.0, 1000, 34205, 0x7d6bf035u},
                           Pin{3, 8.0, 8000, 34896, 0xd952100au}}) {
        SCOPED_TRACE("tenant " + std::to_string(pin.tenant));
        TenantTrafficConfig cfg;
        cfg.rows = 512;
        cfg.rateScale = pin.rateScale;
        cfg.horizonMs =
            ticksToMs(usToTicks(20.0)).value() * 256.0 * 1.25 + 0.05;
        cfg.seed = hashMix64(service_seed ^
                             (0x7e9a37u + pin.tenant * 0x9e3779b9u));
        TenantWriteStream fresh(cfg);
        popTo(fresh, pin.pops, false);
        const std::string line = savedCursor(fresh);

        TenantWriteStream peeking(cfg);
        popTo(peeking, pin.pops, true);
        EXPECT_EQ(savedCursor(peeking), line);

        TenantWriteStream early(cfg);
        popTo(early, pin.pops / 3, true);
        TenantWriteStream restored(cfg);
        restoreCursor(restored, savedCursor(early));
        popTo(restored, pin.pops, false);
        EXPECT_EQ(savedCursor(restored), line);

        const std::vector<std::string> rows =
            splitAt(fieldOf(line, "rows"), ',');
        const std::vector<std::string> times =
            splitAt(fieldOf(line, "times"), ',');
        ASSERT_EQ(rows.size(), cfg.rows);
        const auto live = static_cast<std::size_t>(
            std::count_if(rows.begin(), rows.end(), liveTuple));
        EXPECT_GT(live, 0u);
        EXPECT_EQ(times.size(), live);

        const std::string bytes = line + "\n";
        EXPECT_EQ(bytes.size(), pin.bytes);
        EXPECT_EQ(ckpt::crc32(bytes), pin.crc);
    }
}

TEST(TenantStream, MalformedCursorIsAStateError)
{
    TenantTrafficConfig cfg = placedConfig();
    ASSERT_EQ(cfg.horizonMs * cfg.rateScale, 0.5);
    TenantWriteStream live(cfg);
    for (int i = 0; i < 5; ++i)
        live.pop();
    const std::string line = savedCursor(live);
    const std::string popped = fieldOf(line, "popped");
    const std::vector<std::string> rows = splitAt(fieldOf(line, "rows"), ',');
    const std::vector<std::string> times =
        splitAt(fieldOf(line, "times"), ',');
    ASSERT_EQ(cursorLine(popped, rows, times), line);

    // A live row, a finished one, and a read-only one.
    const AppPersona persona = cfg.persona();
    std::size_t live_row = rows.size(), done_row = rows.size(),
                read_only = rows.size();
    for (std::size_t row = rows.size(); row-- > 0;) {
        (liveTuple(rows[row]) ? live_row : done_row) = row;
        if (PageWriteProcess(persona, row).isReadOnly())
            read_only = row;
    }
    ASSERT_LT(live_row, rows.size());
    ASSERT_LT(done_row, rows.size());
    ASSERT_LT(read_only, rows.size());
    auto withRow = [&](std::size_t row, const std::string &tuple) {
        std::vector<std::string> damaged = rows;
        damaged[row] = tuple;
        return cursorLine(popped, damaged, times);
    };
    auto withTimes = [&](std::vector<std::string> damaged) {
        return cursorLine(popped, rows, damaged);
    };
    std::vector<std::string> past = times;
    past[0] = "0.5"; // the horizon itself
    std::vector<std::string> beyond = times;
    beyond[0] = "7";
    std::vector<std::string> negative = times;
    negative[0] = "-0.25";
    std::vector<std::string> extra = times;
    extra.push_back("0.25");
    std::vector<std::string> short_by_one = times;
    short_by_one.pop_back();

    // Each damaged cursor is refused for what is wrong with it.
    struct Bad
    {
        std::string line;
        const char *reason;
    };
    const std::vector<Bad> damaged = {
        {line.substr(0, line.find(" times=")), "times"},
        {withTimes(extra), "times no row claims"},
        {withTimes(short_by_one), "fewer times than live rows"},
        {"stream popped=5 rows=1:2:3:4:0:0 times=0.25",
         "one write process per row"},
        {withRow(live_row, "0:0:0:0:0:0"), "without state"},
        {withRow(live_row, rows[live_row].substr(
                               0, rows[live_row].size() - 1) + "2"),
         "malformed write process"},
        {withTimes(past), "outside the horizon"},
        {withTimes(beyond), "outside the horizon"},
        {withTimes(negative), "outside the horizon"},
        {withRow(done_row, "1:2:3:4:0:1"), "finished row that carries"},
        {withRow(done_row, "0:0:0:0:3:1"), "finished row that carries"},
        {withRow(read_only, "1:2:3:4:0:0"), "read-only row"},
    };
    for (const Bad &bad : damaged) {
        TenantWriteStream fresh(cfg);
        try {
            restoreCursor(fresh, bad.line);
            ADD_FAILURE() << "accepted: " << bad.line.substr(0, 80);
        } catch (const StateError &e) {
            EXPECT_NE(std::string(e.what()).find(bad.reason),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(TenantStream, PlacementConfigErrorsDie)
{
    // A bank outside the map.
    TenantTrafficConfig bad_bank = placedConfig();
    bad_bank.addressMap = dram::AddressMap::paperDdr3_8bank();
    bad_bank.bankSet = {8};
    EXPECT_DEATH(TenantWriteStream{bad_bank}, "outside the");

    // A placement that maps past the module's rows.
    TenantTrafficConfig overflow = placedConfig();
    overflow.addressMap = dram::AddressMap::paperDdr3_8bank();
    overflow.bankSet = {0};
    overflow.physicalRowLimit = 64; // 64 rows on one of 8 banks: the
                                    // last local row maps to page 504
    EXPECT_DEATH(TenantWriteStream{overflow}, "past");
}

} // namespace
} // namespace memcon::trace
