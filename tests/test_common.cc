/**
 * @file
 * Unit and property tests for the common substrate: logging helpers,
 * the deterministic RNG and its samplers, BitVector, LogHistogram,
 * the state record codec, least-squares fitting, and the table
 * printer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <set>

#include "bitvector_helpers.hh"
#include "common/bitvector.hh"
#include "common/histogram.hh"
#include "common/linear_fit.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/state_io.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/units.hh"

namespace memcon
{
namespace
{

TEST(Logging, StrprintfFormats)
{
    EXPECT_EQ(strprintf("a=%d b=%s", 7, "x"), "a=7 b=x");
    EXPECT_EQ(strprintf("%.2f", 1.5), "1.50");
    EXPECT_EQ(strprintf("empty"), "empty");
}

TEST(Logging, QuietSuppressesOutput)
{
    setQuiet(true);
    EXPECT_TRUE(isQuiet());
    warn("this warning must not appear");
    setQuiet(false);
    EXPECT_FALSE(isQuiet());
}

TEST(Units, Conversions)
{
    EXPECT_EQ(nsToTicks(1.25), Tick{1250});
    EXPECT_EQ(usToTicks(1.95), Tick{1950000});
    EXPECT_EQ(msToTicks(64.0), Tick{64ull * 1000 * 1000 * 1000});
    EXPECT_DOUBLE_EQ(ticksToNs(Tick{1250}), 1.25);
    EXPECT_DOUBLE_EQ(ticksToMs(msToTicks(16.0)).value(), 16.0);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsProduceDistinctStreams)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform(3.0, 5.0);
        ASSERT_GE(u, 3.0);
        ASSERT_LT(u, 5.0);
    }
}

TEST(Rng, UniformIntBoundsAndCoverage)
{
    Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        std::uint64_t v = rng.uniformInt(10);
        ASSERT_LT(v, 10u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, ChanceEdgeCases)
{
    Rng rng(5);
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

/** Pareto sampler parameter sweep: the empirical tail must recover
 * the configured alpha. */
class ParetoRecovery : public ::testing::TestWithParam<double>
{
};

TEST_P(ParetoRecovery, TailIndexRecovered)
{
    double alpha = GetParam();
    Rng rng(123);
    const int n = 200000;
    // Estimate alpha with the Hill-type MLE: alpha =
    // n / sum(ln(x_i / x_min)).
    double sum_log = 0.0;
    for (int i = 0; i < n; ++i) {
        double x = rng.pareto(2.0, alpha);
        ASSERT_GE(x, 2.0);
        sum_log += std::log(x / 2.0);
    }
    double alpha_hat = n / sum_log;
    EXPECT_NEAR(alpha_hat, alpha, alpha * 0.03);
}

INSTANTIATE_TEST_SUITE_P(Alphas, ParetoRecovery,
                         ::testing::Values(0.25, 0.5, 1.0, 1.5, 2.5));

TEST(Rng, ExponentialMean)
{
    Rng rng(9);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(50.0);
    EXPECT_NEAR(sum / n, 50.0, 1.0);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(13);
    double sum = 0.0, sq = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        double g = rng.gaussian(10.0, 3.0);
        sum += g;
        sq += g * g;
    }
    double mean = sum / n;
    double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.1);
    EXPECT_NEAR(std::sqrt(var), 3.0, 0.1);
}

/** Poisson sweep across both sampler regimes (Knuth and normal). */
class PoissonMean : public ::testing::TestWithParam<double>
{
};

TEST_P(PoissonMean, MeanMatchesRate)
{
    double lambda = GetParam();
    Rng rng(17);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.poisson(lambda));
    EXPECT_NEAR(sum / n, lambda, std::max(0.05, lambda * 0.05));
}

INSTANTIATE_TEST_SUITE_P(Rates, PoissonMean,
                         ::testing::Values(0.1, 0.5, 2.0, 10.0, 100.0));

TEST(Rng, PoissonZeroRate)
{
    Rng rng(3);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, ZipfSkewAndBounds)
{
    Rng rng(21);
    const std::uint64_t n = 1000;
    std::vector<int> counts(n, 0);
    for (int i = 0; i < 100000; ++i) {
        std::uint64_t r = rng.zipf(n, 1.0);
        ASSERT_LT(r, n);
        ++counts[r];
    }
    // Rank 0 must be much hotter than rank 100.
    EXPECT_GT(counts[0], counts[100] * 5);
    // s = 0 degenerates to uniform.
    std::vector<int> flat(10, 0);
    for (int i = 0; i < 10000; ++i)
        ++flat[rng.zipf(10, 0.0)];
    for (int c : flat)
        EXPECT_NEAR(c, 1000, 250);
}

TEST(HashMix, DeterministicAndSpreading)
{
    EXPECT_EQ(hashMix64(123), hashMix64(123));
    std::set<std::uint64_t> outs;
    for (std::uint64_t i = 0; i < 1000; ++i)
        outs.insert(hashMix64(i));
    EXPECT_EQ(outs.size(), 1000u);
}

TEST(BitVector, SetTestClear)
{
    BitVector bv(200);
    EXPECT_EQ(bv.size(), 200u);
    EXPECT_FALSE(bv.test(63));
    bv.set(63);
    bv.set(64);
    bv.set(199);
    EXPECT_TRUE(bv.test(63));
    EXPECT_TRUE(bv.test(64));
    EXPECT_TRUE(bv.test(199));
    EXPECT_EQ(bv.count(), 3u);
    bv.clear(64);
    EXPECT_FALSE(bv.test(64));
    EXPECT_EQ(bv.count(), 2u);
}

TEST(BitVector, TestAndSetReportsPriorState)
{
    BitVector bv(10);
    EXPECT_FALSE(bv.testAndSet(5));
    EXPECT_TRUE(bv.testAndSet(5));
    EXPECT_TRUE(bv.test(5));
}

TEST(BitVector, ClearAllAndSetBits)
{
    BitVector bv(130);
    bv.set(0);
    bv.set(129);
    bv.set(64);
    auto bits = setBits(bv);
    ASSERT_EQ(bits.size(), 3u);
    EXPECT_EQ(bits[0], 0u);
    EXPECT_EQ(bits[1], 64u);
    EXPECT_EQ(bits[2], 129u);
    bv.clearAll();
    EXPECT_EQ(bv.count(), 0u);
    EXPECT_TRUE(setBits(bv).empty());
}

TEST(BitVector, StorageMatchesWordCount)
{
    BitVector bv(65);
    EXPECT_EQ(bv.storageBytes(), 2 * sizeof(std::uint64_t));
}

TEST(BitVector, VisitSetBitsAscendingAndAllocationFree)
{
    BitVector bv(200);
    for (std::size_t i : {0u, 63u, 64u, 65u, 128u, 199u})
        bv.set(i);

    std::vector<std::size_t> visited;
    bv.visitSetBits([&visited](std::size_t bit) {
        visited.push_back(bit);
    });
    EXPECT_EQ(visited, (std::vector<std::size_t>{0, 63, 64, 65, 128, 199}));
}

TEST(BitVector, VisitSetBitsToleratesClearingDuringVisit)
{
    // The documented mutation contract: the callback may clear the
    // current or an earlier bit (each word is snapshotted before its
    // bits dispatch), as enterFallback's demoteRow does.
    BitVector bv(130);
    for (std::size_t i : {3u, 64u, 65u, 129u})
        bv.set(i);
    std::vector<std::size_t> visited;
    bv.visitSetBits([&bv, &visited](std::size_t bit) {
        visited.push_back(bit);
        bv.clear(bit);
    });
    EXPECT_EQ(visited, (std::vector<std::size_t>{3, 64, 65, 129}));
    EXPECT_EQ(bv.count(), 0u);
}

TEST(BitVector, OrWithAndNotWith)
{
    const std::size_t bits = 150;
    BitVector seen(bits), diff(bits);
    for (std::size_t i : {1u, 70u, 149u})
        seen.set(i);
    for (std::size_t i : {1u, 2u, 70u, 148u})
        diff.set(i);

    // PRIL's erased-row masking: fresh = diff ANDNOT seen.
    BitVector fresh = diff;
    fresh.andNotWith(seen);
    EXPECT_EQ(setBits(fresh), (std::vector<std::size_t>{2, 148}));

    // Tail bits past size() stay zero through bulk ops.
    EXPECT_EQ(fresh.count(), 2u);
}

/** Property: BitVector agrees with a std::set reference model under
 * random operation sequences. */
class BitVectorModel : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(BitVectorModel, MatchesReference)
{
    Rng rng(GetParam());
    const std::size_t size = 500;
    BitVector bv(size);
    std::set<std::size_t> model;
    for (int step = 0; step < 5000; ++step) {
        std::size_t idx = rng.uniformInt(size);
        switch (rng.uniformInt(4)) {
          case 0:
            bv.set(idx);
            model.insert(idx);
            break;
          case 1:
            bv.clear(idx);
            model.erase(idx);
            break;
          case 2:
            ASSERT_EQ(bv.testAndSet(idx), model.count(idx) != 0);
            model.insert(idx);
            break;
          default:
            ASSERT_EQ(bv.test(idx), model.count(idx) != 0);
        }
    }
    ASSERT_EQ(bv.count(), model.size());
    std::vector<std::size_t> expected(model.begin(), model.end());
    ASSERT_EQ(setBits(bv), expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitVectorModel,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(LogHistogram, BucketEdges)
{
    LogHistogram h(10);
    EXPECT_DOUBLE_EQ(h.bucketLow(0), 0.0);
    EXPECT_DOUBLE_EQ(h.bucketHigh(0), 1.0);
    EXPECT_DOUBLE_EQ(h.bucketLow(1), 1.0);
    EXPECT_DOUBLE_EQ(h.bucketHigh(1), 2.0);
    EXPECT_DOUBLE_EQ(h.bucketLow(5), 16.0);
    EXPECT_TRUE(std::isinf(h.bucketHigh(h.numBuckets() - 1)));
}

TEST(LogHistogram, CountsLandInRightBuckets)
{
    LogHistogram h(10);
    h.add(0.5);  // bucket 0
    h.add(1.0);  // bucket 1: [1,2)
    h.add(3.0);  // bucket 2: [2,4)
    h.add(3.9);
    h.add(1024.0); // bucket 11 exists? max_exponent 10 -> overflow
    EXPECT_EQ(h.count(0), 1u);
    EXPECT_EQ(h.count(1), 1u);
    EXPECT_EQ(h.count(2), 2u);
    EXPECT_EQ(h.count(h.numBuckets() - 1), 1u);
    EXPECT_EQ(h.totalCount(), 5u);
}

TEST(LogHistogram, WeightTracking)
{
    LogHistogram h(20);
    h.add(10.0, 10.0);
    h.add(2000.0, 2000.0);
    EXPECT_DOUBLE_EQ(h.totalWeight(), 2010.0);
}

TEST(LogHistogram, FormatListsNonEmptyBuckets)
{
    LogHistogram h(10);
    h.add(3.0);
    std::string s = h.format("ms");
    EXPECT_NE(s.find("ms"), std::string::npos);
    EXPECT_NE(s.find("n="), std::string::npos);
}

TEST(LogHistogram, AssignRebuildsWeightsAndTotalsFromCounts)
{
    // Unit-weight samples: assigning the counts restores what adding
    // the samples built, weights and totals included.
    LogHistogram live(10);
    for (double v : {0.5, 3.0, 3.5, 700.0, 1e9})
        live.add(v);
    std::vector<std::uint64_t> counts;
    for (std::size_t i = 0; i < live.numBuckets(); ++i)
        counts.push_back(live.count(i));
    LogHistogram back(10);
    back.assign(counts);
    EXPECT_EQ(back.totalCount(), 5u);
    EXPECT_EQ(back.totalWeight(), live.totalWeight());
    for (std::size_t i = 0; i < live.numBuckets(); ++i)
        EXPECT_EQ(back.weight(i), live.weight(i)) << "bucket " << i;
    EXPECT_EQ(back.format("ticks"), live.format("ticks"));
}

// ---------------------------------------------------------------------
// StateIo: the state record codec every component saves through.
// Restore then save must be the identity, so the reader accepts a
// value only in the one form the writer produces.
// ---------------------------------------------------------------------

/** True if reading `lines` with `read`, then finish(), throws
 *  StateError; any other exception fails the test. */
bool
rejects(const std::vector<std::string> &lines,
        const std::function<void(StateReader &)> &read)
{
    StateReader in(lines);
    try {
        read(in);
        in.finish();
    } catch (const StateError &) {
        return true;
    }
    return false;
}

/** rejects() for the one-field line "x v=<value>". */
bool
fieldRejected(const std::string &value,
              const std::function<void(StateReader &)> &read)
{
    return rejects({"x v=" + value}, [&read](StateReader &in) {
        in.line("x");
        read(in);
    });
}

void
readU64(StateReader &in)
{
    in.u64("v");
}

void
readTuples(StateReader &in)
{
    in.tuples("v");
}

void
readPairs(StateReader &in)
{
    in.tuples("v", 2);
}

void
readReals(StateReader &in)
{
    in.reals("v");
}

void
readF64(StateReader &in)
{
    in.f64("v");
}

TEST(StateIo, EveryFieldKindRoundTrips)
{
    BitVector bits(70);
    bits.set(0);
    bits.set(63);
    bits.set(69);
    StatGroup group("g");
    group.inc("a.count", 3);
    group.inc("b", 1000000);
    group.inc("c", 9007199254740991ull); // 2^53 - 1
    StateWriter out;
    out.line("kinds");
    out.u64("u", ~0ull);
    out.tick("t", Tick{40000});
    out.flag("f", true);
    out.f64("d", 0.1);
    out.bits("b", bits);
    out.tuples("one", {0, 7, 12});
    out.tuples("pairs", {1, 2, 3, 4}, 2);
    out.tuples("none", {}, 3);
    out.reals("r", {0.25, -1.5, 1e-300});
    out.line("counts");
    out.stats(group);
    const std::vector<std::string> lines = std::move(out).take();
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], "kinds u=18446744073709551615 t=40000 f=1 d=0.1 "
                        "b=80000000000000010000000000000020 one=0,7,12 "
                        "pairs=1:2,3:4 none= r=0.25,-1.5,1e-300");
    EXPECT_EQ(lines[1], "counts a.count=3 b=1000000 c=9007199254740991");

    StateReader in(lines);
    in.line("kinds");
    const std::uint64_t u = in.u64("u");
    const Tick t = in.tick("t");
    const bool f = in.flag("f");
    const double d = in.f64("d");
    BitVector bits_back(70);
    in.bits("b", bits_back);
    const std::vector<std::uint64_t> one = in.tuples("one");
    const std::vector<std::uint64_t> pairs = in.tuples("pairs", 2);
    const std::vector<std::uint64_t> none = in.tuples("none", 3);
    const std::vector<double> reals = in.reals("r");
    in.line("counts");
    StatGroup group_back("g");
    in.stats(group_back);
    in.finish();
    EXPECT_EQ(group_back.entries(), group.entries());
    EXPECT_EQ(bits_back.count(), 3u);

    // Restore then save is the identity.
    StateWriter again;
    again.line("kinds");
    again.u64("u", u);
    again.tick("t", t);
    again.flag("f", f);
    again.f64("d", d);
    again.bits("b", bits_back);
    again.tuples("one", one);
    again.tuples("pairs", pairs, 2);
    again.tuples("none", none, 3);
    again.reals("r", reals);
    again.line("counts");
    again.stats(group_back);
    EXPECT_EQ(std::move(again).take(), lines);
}

TEST(StateIo, ListsRejectATrailingOrEmptyElement)
{
    EXPECT_FALSE(fieldRejected("1,2", readTuples));
    EXPECT_TRUE(fieldRejected("1,2,", readTuples));
    EXPECT_TRUE(fieldRejected(",1", readTuples));
    EXPECT_TRUE(fieldRejected("1,,2", readTuples));
    EXPECT_TRUE(fieldRejected(",", readTuples));

    EXPECT_FALSE(fieldRejected("1:2,3:4", readPairs));
    EXPECT_TRUE(fieldRejected("1:2,3:4,", readPairs));
    EXPECT_TRUE(fieldRejected("1:2:", readPairs));
    EXPECT_TRUE(fieldRejected("1:2:3", readPairs));
    EXPECT_TRUE(fieldRejected("1:", readPairs));
    EXPECT_TRUE(fieldRejected("1", readPairs));
    EXPECT_TRUE(fieldRejected("1,2", readPairs));

    EXPECT_FALSE(fieldRejected("0.5,2", readReals));
    EXPECT_TRUE(fieldRejected("0.5,2,", readReals));
    EXPECT_TRUE(fieldRejected("0.5,,2", readReals));
}

TEST(StateIo, IntegersRejectAnyOtherForm)
{
    EXPECT_FALSE(fieldRejected("0", readU64));
    EXPECT_FALSE(fieldRejected("700", readU64));
    EXPECT_TRUE(fieldRejected("007", readU64));
    EXPECT_TRUE(fieldRejected("00", readU64));
    EXPECT_TRUE(fieldRejected("+7", readU64));
    EXPECT_TRUE(fieldRejected("-7", readU64));
    EXPECT_TRUE(fieldRejected("7x", readU64));
    EXPECT_TRUE(fieldRejected("", readU64));
    EXPECT_TRUE(fieldRejected("18446744073709551616", readU64));
    EXPECT_TRUE(fieldRejected("1,07", readTuples));
    EXPECT_TRUE(fieldRejected("1:07", readPairs));

    // Bounded values.
    EXPECT_FALSE(fieldRejected("4", [](StateReader &in) { in.u64("v", 5); }));
    EXPECT_TRUE(fieldRejected("5", [](StateReader &in) { in.u64("v", 5); }));
    EXPECT_TRUE(fieldRejected("2", [](StateReader &in) { in.flag("v"); }));
    EXPECT_TRUE(fieldRejected(
        "1:5", [](StateReader &in) { in.tuples("v", 2, 5); }));
}

TEST(StateIo, RealsRejectAnyOtherForm)
{
    // A double reads only in the shortest round-trip form the writer
    // produces, so restore then save reproduces the bytes.
    for (const char *good : {"0", "-0", "1", "1.5", "0.5", "-2", "1e-300",
                             "1e+300", "0.1", "123456.789",
                             "0.30000000000000004"}) {
        EXPECT_FALSE(fieldRejected(good, readF64)) << good;
        EXPECT_FALSE(fieldRejected(std::string("2,") + good, readReals))
            << good;
    }
    for (const char *bad : {"1.0", "01.5", "1e0", "0.50", "+1", ".5", "5.",
                            "1E+300", "1e300", "1e+0300", "-0.0", "00",
                            "0.1000000000000000055511151231257827"}) {
        EXPECT_TRUE(fieldRejected(bad, readF64)) << bad;
        EXPECT_TRUE(fieldRejected(bad, readReals)) << bad;
        EXPECT_TRUE(fieldRejected(std::string("2,") + bad, readReals))
            << bad;
    }
}

TEST(StateIo, RealsRejectNonFiniteValues)
{
    EXPECT_FALSE(fieldRejected("-0.5", readF64));
    EXPECT_FALSE(fieldRejected("1e-300,-2", readReals));
    for (const char *bad : {"nan", "-nan", "inf", "-inf", "infinity", "x"}) {
        EXPECT_TRUE(fieldRejected(bad, readF64)) << bad;
        EXPECT_TRUE(fieldRejected(bad, readReals)) << bad;
        EXPECT_TRUE(fieldRejected(std::string("1,") + bad, readReals)) << bad;
    }
}

TEST(StateIo, CountersAreNonNegativeIntegersBelow2To53)
{
    auto counters = [](const std::string &tokens) {
        return rejects({"c " + tokens}, [](StateReader &in) {
            in.line("c");
            StatGroup group;
            in.stats(group);
        });
    };
    EXPECT_FALSE(counters("a=0 b=9007199254740991"));
    for (const char *bad : {"a=nan", "a=-1", "a=0.5", "a=1e+06", "a=007",
                            "a=inf", "a=9007199254740992", "a=", "=1",
                            "a=1 a=2", "b=1 a=2"})
        EXPECT_TRUE(counters(bad)) << bad;
}

TEST(StateIo, BitsMustBePaddedWithClearBits)
{
    auto bits = [](const std::string &hex) {
        return fieldRejected(hex, [](StateReader &in) {
            BitVector out(70);
            in.bits("v", out);
        });
    };
    const std::string low(16, '0');
    EXPECT_FALSE(bits(low + "0000000000000020")); // bit 69, the last
    EXPECT_TRUE(bits(low + "0000000000000040"));  // bit 70, padding
    EXPECT_TRUE(bits(low + "8000000000000000"));  // bit 127, padding
    EXPECT_TRUE(bits(low));                       // one word short
    EXPECT_TRUE(bits(low + low + low));           // one word long
    EXPECT_TRUE(bits(low + "000000000000000A"));  // not lowercase
    EXPECT_TRUE(bits(low + "-000000000000001"));
}

TEST(StateIo, TokensMustMatchTheirFieldsInOrder)
{
    const std::vector<std::string> line = {"x a=1 b=2"};
    EXPECT_FALSE(rejects(line, [](StateReader &in) {
        in.line("x");
        in.u64("a");
        in.u64("b");
    }));
    // A missing token: the reader wants a field the line lacks.
    EXPECT_TRUE(rejects(line, [](StateReader &in) {
        in.line("x");
        in.u64("a");
        in.u64("b");
        in.u64("c");
    }));
    // An extra token: the line holds a field nothing reads.
    EXPECT_TRUE(rejects(line, [](StateReader &in) {
        in.line("x");
        in.u64("a");
    }));
    // Fields out of order.
    EXPECT_TRUE(rejects(line, [](StateReader &in) {
        in.line("x");
        in.u64("b");
        in.u64("a");
    }));
    // A wrong tag, and a tag that only starts like the right one.
    EXPECT_TRUE(rejects(line, [](StateReader &in) { in.line("y"); }));
    EXPECT_TRUE(rejects({"xx a=1"}, [](StateReader &in) {
        in.line("x");
        in.u64("a");
    }));
    // A record that ends before the line the reader wants.
    EXPECT_TRUE(rejects({}, [](StateReader &in) { in.line("x"); }));
    // Moving on with tokens left unread.
    EXPECT_TRUE(rejects({"x a=1 b=2", "y"}, [](StateReader &in) {
        in.line("x");
        in.u64("a");
        in.line("y");
    }));
}

TEST(StateIo, FinishRefusesLinesLeftOver)
{
    const std::vector<std::string> lines = {"x a=1", "y b=2"};
    EXPECT_TRUE(rejects(lines, [](StateReader &in) {
        in.line("x");
        in.u64("a");
    }));
    EXPECT_FALSE(rejects(lines, [](StateReader &in) {
        in.line("x");
        in.u64("a");
        in.line("y");
        in.u64("b");
    }));
}

TEST(LinearFit, ExactLineRecovered)
{
    std::vector<double> xs, ys;
    for (int i = 0; i < 20; ++i) {
        xs.push_back(i);
        ys.push_back(3.0 * i - 7.0);
    }
    LineFit fit = fitLine(xs, ys);
    EXPECT_NEAR(fit.slope, 3.0, 1e-9);
    EXPECT_NEAR(fit.intercept, -7.0, 1e-9);
    EXPECT_NEAR(fit.rSquared, 1.0, 1e-12);
}

TEST(LinearFit, DegenerateInputs)
{
    LineFit fit = fitLine({1.0}, {2.0});
    EXPECT_EQ(fit.numPoints, 1u);
    EXPECT_DOUBLE_EQ(fit.slope, 0.0);
    // All-equal x has no defined slope.
    fit = fitLine({2.0, 2.0, 2.0}, {1.0, 2.0, 3.0});
    EXPECT_DOUBLE_EQ(fit.slope, 0.0);
}

TEST(LinearFit, ParetoTailRecoversAlpha)
{
    // Survival of a perfect Pareto: P(X > x) = (xm/x)^alpha.
    double alpha = 0.7, xm = 1.0;
    std::vector<double> xs, surv;
    for (double x = 1.0; x <= 32768.0; x *= 2.0) {
        xs.push_back(x);
        surv.push_back(std::pow(xm / x, alpha));
    }
    LineFit fit = fitParetoTail(xs, surv);
    EXPECT_NEAR(-fit.slope, alpha, 1e-9);
    EXPECT_NEAR(fit.rSquared, 1.0, 1e-12);
}

TEST(LinearFit, ParetoTailSkipsNonPositive)
{
    LineFit fit = fitParetoTail({1.0, 2.0, 4.0, 8.0},
                                {0.5, 0.25, 0.0, 0.0});
    EXPECT_EQ(fit.numPoints, 2u);
}

TEST(TextTable, RendersAlignedColumns)
{
    TextTable t;
    t.header({"name", "value"});
    t.row({"alpha", "1"});
    t.row({"b", "22"});
    std::string s = t.render();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("---"), std::string::npos);
    // Columns align: "value" and "1" start at the same offset.
    auto line_start = [&](int n) {
        std::size_t pos = 0;
        for (int i = 0; i < n; ++i)
            pos = s.find('\n', pos) + 1;
        return pos;
    };
    std::size_t col_hdr = s.find("value") - line_start(0);
    std::size_t col_row = s.find("1", line_start(2)) - line_start(2);
    EXPECT_EQ(col_hdr, col_row);
}

TEST(TextTable, PadsShortRows)
{
    TextTable t;
    t.header({"a", "b", "c"});
    t.row({"x"});
    EXPECT_NO_THROW(t.render());
    EXPECT_EQ(t.numRows(), 1u);
}

TEST(TextTable, NumberFormatting)
{
    EXPECT_EQ(TextTable::num(1.234, 2), "1.23");
    EXPECT_EQ(TextTable::pct(0.756, 1), "75.6%");
}

} // namespace
} // namespace memcon
