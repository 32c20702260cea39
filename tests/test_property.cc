/**
 * @file
 * Randomized property tests: common/bitvector against a
 * std::vector<bool> reference, and the PRIL write-buffer machinery
 * against a naive reference model that implements the Figure 13 spec
 * with plain containers. Seeded; every run replays the same
 * sequences.
 */

#include <algorithm>
#include <bit>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitvector.hh"
#include "common/flat_set.hh"
#include "common/random.hh"
#include "common/simd.hh"
#include "bitvector_helpers.hh"
#include "core/pril.hh"
#include "failure/content.hh"
#include "failure/model.hh"
#include "failure/tester.hh"
#include "oracles/reference_pril.hh"
#include "oracles/reference_readback.hh"

using namespace memcon;

TEST(Property, BitVectorMatchesBoolVectorReference)
{
    Rng rng(0xb17ULL);
    const std::size_t bits = 301; // deliberately not a word multiple
    BitVector bv(bits);
    std::vector<bool> ref(bits, false);

    for (int step = 0; step < 20000; ++step) {
        std::size_t idx = rng.uniformInt(bits);
        switch (rng.uniformInt(4)) {
        case 0:
            bv.set(idx);
            ref[idx] = true;
            break;
        case 1:
            bv.clear(idx);
            ref[idx] = false;
            break;
        case 2:
            // Returns whether the bit was already set.
            EXPECT_EQ(bv.testAndSet(idx), static_cast<bool>(ref[idx]));
            ref[idx] = true;
            break;
        case 3:
            EXPECT_EQ(bv.test(idx), static_cast<bool>(ref[idx]));
            break;
        }
        if (step % 500 == 0) {
            std::size_t expect_count = static_cast<std::size_t>(
                std::count(ref.begin(), ref.end(), true));
            EXPECT_EQ(bv.count(), expect_count);
            std::vector<std::size_t> expect_bits;
            for (std::size_t i = 0; i < bits; ++i)
                if (ref[i])
                    expect_bits.push_back(i);
            EXPECT_EQ(setBits(bv), expect_bits);
        }
    }

    bv.clearAll();
    EXPECT_EQ(bv.count(), 0u);
    EXPECT_TRUE(setBits(bv).empty());
    EXPECT_EQ(bv.size(), bits);

    bv.resizeAndClear(64);
    EXPECT_EQ(bv.size(), 64u);
    EXPECT_EQ(bv.count(), 0u);
}

namespace
{

/**
 * Figure 13 implemented naively: the write-maps are std::sets of
 * written pages, the write-buffers plain vectors with linear-scan
 * membership. Deliberately different data structures from
 * PrilPredictor so a bug in the real bit-map/hash-set bookkeeping
 * cannot hide in the reference.
 */
class NaivePril
{
  public:
    NaivePril(std::uint64_t num_pages, std::size_t buffer_capacity)
        : pages(num_pages), capacity(buffer_capacity)
    {
    }

    void onWrite(std::uint64_t page)
    {
        ASSERT_LT(page, pages);
        eraseFrom(prevBuf, page);
        bool first_this_quantum = curWritten.insert(page).second;
        if (first_this_quantum) {
            if (curBuf.size() >= capacity) {
                ++drops;
                return;
            }
            curBuf.push_back(page);
        } else {
            eraseFrom(curBuf, page);
        }
    }

    std::vector<std::uint64_t> endQuantum()
    {
        std::vector<std::uint64_t> candidates = prevBuf;
        std::sort(candidates.begin(), candidates.end());
        prevBuf = std::move(curBuf);
        curBuf.clear();
        prevWritten = std::move(curWritten);
        curWritten.clear();
        return candidates;
    }

    bool isTracked(std::uint64_t page) const
    {
        return contains(curBuf, page) || contains(prevBuf, page);
    }

    std::uint64_t bufferDrops() const { return drops; }

  private:
    static void eraseFrom(std::vector<std::uint64_t> &v,
                          std::uint64_t page)
    {
        v.erase(std::remove(v.begin(), v.end(), page), v.end());
    }

    static bool contains(const std::vector<std::uint64_t> &v,
                         std::uint64_t page)
    {
        return std::find(v.begin(), v.end(), page) != v.end();
    }

    std::uint64_t pages;
    std::size_t capacity;
    std::set<std::uint64_t> curWritten, prevWritten;
    std::vector<std::uint64_t> curBuf, prevBuf;
    std::uint64_t drops = 0;
};

} // namespace

TEST(Property, PrilMatchesNaiveReferenceModel)
{
    // Small page count and buffer so collisions, re-writes, and
    // capacity drops all occur frequently.
    const std::uint64_t num_pages = 64;
    const std::size_t cap = 8;
    Rng rng(0x9e11ULL);

    core::PrilPredictor pril(num_pages, cap);
    NaivePril naive(num_pages, cap);

    for (int quantum = 0; quantum < 400; ++quantum) {
        std::uint64_t writes = rng.uniformInt(40);
        for (std::uint64_t w = 0; w < writes; ++w) {
            // Zipf-ish skew: some pages written repeatedly within a
            // quantum, most once or never.
            std::uint64_t page = rng.chance(0.3)
                                     ? rng.uniformInt(4)
                                     : rng.uniformInt(num_pages);
            pril.onWrite(PageId{page});
            naive.onWrite(page);
        }
        for (std::uint64_t p = 0; p < num_pages; p += 7)
            EXPECT_EQ(pril.isTracked(PageId{p}), naive.isTracked(p))
                << p;

        std::vector<std::uint64_t> got;
        for (PageId c : pril.endQuantum())
            got.push_back(c.value());
        EXPECT_EQ(got, naive.endQuantum())
            << "quantum " << quantum;
        EXPECT_EQ(pril.bufferDrops(), naive.bufferDrops())
            << "quantum " << quantum;
    }
}

// --------------------------------------------------------------------
// SIMD kernel cross-checks (DESIGN.md §19): every kernel of every
// compiled set against naive loops, on randomized word counts that
// include 0, 1, and non-lane-multiple tails.
// --------------------------------------------------------------------

TEST(Property, SimdKernelsMatchNaiveReference)
{
    std::size_t set_count = 0;
    const simd::KernelSet *const *sets =
        simd::compiledKernelSets(&set_count);
    ASSERT_GE(set_count, 1u);

    Rng rng(0x51D0ULL);
    // Sizes straddling the AVX2 lane width (4 words) and its
    // unrolled blocks, plus the degenerate spans.
    const std::size_t sizes[] = {0, 1, 2, 3, 4, 5, 7, 8,
                                 9, 15, 16, 17, 31, 33, 100, 257};

    for (std::size_t n : sizes) {
        std::vector<std::uint64_t> a(n), b(n);
        for (std::size_t i = 0; i < n; ++i) {
            a[i] = rng.next();
            b[i] = rng.next();
        }

        // Naive references.
        std::uint64_t ref_pop = 0;
        for (std::size_t i = 0; i < n; ++i)
            ref_pop += std::popcount(a[i]);
        std::vector<std::size_t> ref_bits;
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t bit = 0; bit < 64; ++bit)
                if (a[i] >> bit & 1)
                    ref_bits.push_back(i * 64 + bit);

        for (std::size_t s = 0; s < set_count; ++s) {
            const simd::KernelSet &k = *sets[s];
            SCOPED_TRACE(std::string(k.name) + " n=" +
                         std::to_string(n));
            EXPECT_EQ(k.popcountWords(a.data(), n), ref_pop);

            std::vector<std::uint64_t> dst = b;
            k.andNotWords(dst.data(), a.data(), n);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(dst[i], b[i] & ~a[i]) << i;

            std::vector<std::size_t> bits;
            k.visitSetBits(
                a.data(), n,
                [](std::size_t bit, void *ctx) {
                    static_cast<std::vector<std::size_t> *>(ctx)
                        ->push_back(bit);
                },
                &bits);
            EXPECT_EQ(bits, ref_bits);
        }
    }
}

TEST(Property, SimdKernelsOnAllZeroAndAllOneSpans)
{
    // The AVX2 visit kernel skips all-zero four-word blocks; the
    // all-ones span is the densest callback load. Both extremes must
    // agree with the scalar set for every compiled set.
    std::size_t set_count = 0;
    const simd::KernelSet *const *sets =
        simd::compiledKernelSets(&set_count);
    for (std::size_t n : {std::size_t{13}, std::size_t{64}}) {
        std::vector<std::uint64_t> zeros(n, 0);
        std::vector<std::uint64_t> ones(n, ~std::uint64_t{0});
        for (std::size_t s = 0; s < set_count; ++s) {
            const simd::KernelSet &k = *sets[s];
            SCOPED_TRACE(k.name);
            EXPECT_EQ(k.popcountWords(zeros.data(), n), 0u);
            EXPECT_EQ(k.popcountWords(ones.data(), n), n * 64);
            std::size_t visited = 0;
            k.visitSetBits(
                zeros.data(), n,
                [](std::size_t, void *ctx) {
                    ++*static_cast<std::size_t *>(ctx);
                },
                &visited);
            EXPECT_EQ(visited, 0u);
            k.visitSetBits(
                ones.data(), n,
                [](std::size_t, void *ctx) {
                    ++*static_cast<std::size_t *>(ctx);
                },
                &visited);
            EXPECT_EQ(visited, n * 64);
        }
    }
}

// --------------------------------------------------------------------
// FlatPageSet: lockstep against std::set, plus the canonical-layout
// guarantee the slot-order fingerprint depends on.
// --------------------------------------------------------------------

TEST(Property, FlatPageSetMatchesSetReference)
{
    const std::size_t cap = 32;
    FlatPageSet flat(cap);
    std::set<std::uint64_t> ref;
    Rng rng(0xF1A7ULL);

    for (int step = 0; step < 30000; ++step) {
        std::uint64_t key = rng.uniformInt(96); // heavy collisions
        switch (rng.uniformInt(4)) {
        case 0:
            if (ref.size() < cap) {
                EXPECT_EQ(flat.insert(key), ref.insert(key).second);
            }
            break;
        case 1:
            EXPECT_EQ(flat.erase(key), ref.erase(key) > 0);
            break;
        case 2:
            EXPECT_EQ(flat.contains(key), ref.count(key) > 0);
            break;
        default:
            if (rng.chance(0.01)) {
                flat.clearAll();
                ref.clear();
            }
            break;
        }
        EXPECT_EQ(flat.size(), ref.size());
        EXPECT_EQ(flat.empty(), ref.empty());
    }

    // Full-membership sweep at the end.
    for (std::uint64_t key = 0; key < 96; ++key)
        EXPECT_EQ(flat.contains(key), ref.count(key) > 0) << key;
}

TEST(Property, FlatPageSetLayoutIsDeterministicPerOpSequence)
{
    // Slot layout is a pure function of the operation sequence (no
    // address-, time-, or thread-dependent state), so two sets fed
    // the same ops enumerate identically - the determinism the
    // cross-thread service tests lean on. The layout is NOT canonical
    // for the key set alone (linear probing places same-home keys in
    // arrival order), which is why fingerprints derive ordering from
    // the write-maps instead of forEachSlot().
    Rng rng(0xCA10ULL);
    for (int trial = 0; trial < 50; ++trial) {
        const std::size_t cap = 16;
        FlatPageSet a(cap), b(cap);
        std::size_t live = 0;
        for (int step = 0; step < 400; ++step) {
            std::uint64_t key = rng.uniformInt(64);
            if (rng.chance(0.55)) {
                if (live < cap) {
                    bool fresh = a.insert(key);
                    EXPECT_EQ(b.insert(key), fresh);
                    live += fresh;
                }
            } else {
                bool hit = a.erase(key);
                EXPECT_EQ(b.erase(key), hit);
                live -= hit;
            }
        }
        std::vector<std::uint64_t> slots_a, slots_b;
        a.forEachSlot(
            [&slots_a](std::uint64_t k) { slots_a.push_back(k); });
        b.forEachSlot(
            [&slots_b](std::uint64_t k) { slots_b.push_back(k); });
        EXPECT_EQ(slots_a, slots_b) << "trial " << trial;
    }
}

TEST(Property, PrilFingerprintIsHistoryIndependent)
{
    // Two predictors reaching the same logical state through
    // different write orders must fingerprint identically: the
    // serialization depends on the state (maps + buffer membership
    // in ascending page order), never on flat-set slot layout.
    const std::uint64_t num_pages = 256;
    core::PrilPredictor fwd(num_pages, 64);
    core::PrilPredictor rev(num_pages, 64);
    Rng rng(0x0F1EULL);

    for (int quantum = 0; quantum < 20; ++quantum) {
        // Distinct pages within the quantum (re-use across quanta
        // still occurs, so the prev-buffer eviction path runs): the
        // resulting logical state - maps, memberships, counters - is
        // order-free, while the flat sets' slot layouts are not.
        std::set<std::uint64_t> distinct;
        while (distinct.size() < 40)
            distinct.insert(rng.uniformInt(num_pages));
        std::vector<std::uint64_t> writes(distinct.begin(),
                                          distinct.end());
        for (std::uint64_t p : writes)
            fwd.onWrite(PageId{p});
        for (auto it = writes.rbegin(); it != writes.rend(); ++it)
            rev.onWrite(PageId{*it});
        EXPECT_EQ(fwd.stateFingerprint(), rev.stateFingerprint())
            << "quantum " << quantum;
        EXPECT_EQ(fwd.endQuantum(), rev.endQuantum());
    }
}

// --------------------------------------------------------------------
// PrilPredictor and the seed hash-set oracle (tests/oracles) in
// lockstep: identical observable behavior on drop-heavy random
// traffic.
// --------------------------------------------------------------------

TEST(Property, FlatAndReferencePrilAgree)
{
    const std::uint64_t num_pages = 512;
    const std::size_t cap = 24; // small: drops occur constantly
    core::PrilPredictor flat(num_pages, cap);
    oracles::ReferencePrilPredictor ref(num_pages, cap);
    EXPECT_EQ(flat.storageBytes(), ref.storageBytes());

    Rng rng(0xD0D0ULL);
    for (int quantum = 0; quantum < 500; ++quantum) {
        std::uint64_t writes = rng.uniformInt(80);
        for (std::uint64_t w = 0; w < writes; ++w) {
            std::uint64_t page = rng.chance(0.25)
                                     ? rng.uniformInt(8)
                                     : rng.uniformInt(num_pages);
            flat.onWrite(PageId{page});
            ref.onWrite(PageId{page});
        }
        for (std::uint64_t p = 0; p < num_pages; p += 31)
            EXPECT_EQ(flat.isTracked(PageId{p}), ref.isTracked(PageId{p}));
        EXPECT_EQ(flat.endQuantum(), ref.endQuantum())
            << "quantum " << quantum;
        EXPECT_EQ(flat.bufferDrops(), ref.bufferDrops());
        EXPECT_EQ(flat.peakBufferOccupancy(), ref.peakBufferOccupancy());
    }
    EXPECT_GT(flat.bufferDrops(), 0u)
        << "scenario too gentle: drops never exercised";
}

TEST(Property, FlatAndReferencePrilAgreeWithFewerPagesThanCapacity)
{
    // The flat sets hold at most num_pages entries, however large the
    // logical capacity; drops, storage accounting and candidates must
    // still follow the logical capacity, with every page a member at
    // once in some quanta.
    const std::uint64_t num_pages = 48;
    const std::size_t cap = 4000; // the paper's buffer
    core::PrilPredictor flat(num_pages, cap);
    oracles::ReferencePrilPredictor ref(num_pages, cap);
    EXPECT_EQ(flat.storageBytes(), ref.storageBytes());
    EXPECT_EQ(flat.bufferCapacity(), cap);

    Rng rng(0xFEE7ULL);
    for (int quantum = 0; quantum < 300; ++quantum) {
        if (rng.chance(0.3)) {
            for (std::uint64_t p = 0; p < num_pages; ++p) {
                flat.onWrite(PageId{p});
                ref.onWrite(PageId{p});
            }
        }
        std::uint64_t writes = rng.uniformInt(60);
        for (std::uint64_t w = 0; w < writes; ++w) {
            const PageId page{rng.uniformInt(num_pages)};
            flat.onWrite(page);
            ref.onWrite(page);
        }
        for (std::uint64_t p = 0; p < num_pages; ++p)
            EXPECT_EQ(flat.isTracked(PageId{p}), ref.isTracked(PageId{p}));
        EXPECT_EQ(flat.endQuantum(), ref.endQuantum())
            << "quantum " << quantum;
        EXPECT_EQ(flat.peakBufferOccupancy(), ref.peakBufferOccupancy());
    }
    EXPECT_EQ(flat.bufferDrops(), 0u);
    EXPECT_EQ(ref.bufferDrops(), 0u);
    EXPECT_EQ(flat.peakBufferOccupancy(), num_pages);
    EXPECT_EQ(flat.storageBytes(), ref.storageBytes());
}

// --------------------------------------------------------------------
// The block tester must agree with the sparse path where both see
// the whole chip.
// --------------------------------------------------------------------

namespace
{

std::set<std::pair<RowId, std::uint64_t>>
distinctCells(const failure::TestResult &result)
{
    std::set<std::pair<RowId, std::uint64_t>> cells;
    for (const failure::CellFailure &f : result.failures)
        cells.insert({f.physicalRow, f.column});
    return cells;
}

/**
 * A dense population on 64-cell rows: many rows carry two failure
 * records on one column.
 */
failure::FailureModel
denseCollidingModel()
{
    failure::FailureModelParams params;
    params.vulnerableCellsPerRow = 8;
    params.nominalIntervalMs = 328.0;
    params.seed = 1;
    params.redundantColumns = 0;
    params.remappedColumns = 0;
    return failure::FailureModel(params, 1 << 10, 64);
}

} // namespace

TEST(Property, BlockTesterMatchesSparseTesterWithoutSpares)
{
    // With no redundant columns every failure is logically visible,
    // so the block path's row verdicts must match the sparse path's
    // exactly, and its failing-bit count must equal the number of
    // distinct failing cells.
    failure::FailureModelParams params;
    params.seed = 99;
    params.redundantColumns = 0;
    params.remappedColumns = 0;
    failure::FailureModel model(params, 1 << 10, 1 << 12);
    failure::DramTester tester(model);
    failure::ProgramContent content(
        failure::ContentPersona::byName("libquantum"), 1);

    failure::TestResult sparse = tester.testWithContent(content, 328.0);
    failure::TestResult block =
        tester.testWithContentBlock(content, 328.0);
    EXPECT_EQ(block.rowsTested, sparse.rowsTested);
    EXPECT_EQ(block.rowsFailing, sparse.rowsFailing);
    EXPECT_EQ(block.failingBits, distinctCells(sparse).size());
    EXPECT_GT(block.failingBits, 0u)
        << "model produced no failures; the comparison is vacuous";
}

TEST(Property, BlockTesterCountsCollidingCellsOnce)
{
    // A cell with two failure records reads back as its stored bit
    // inverted, once: the records must not cancel into "no failure".
    const failure::FailureModel model = denseCollidingModel();
    failure::DramTester tester(model);
    failure::ProgramContent content(
        failure::ContentPersona::byName("astar"), 1);

    failure::TestResult sparse = tester.testWithContent(content, 328.0);
    failure::TestResult block =
        tester.testWithContentBlock(content, 328.0);
    const std::set<std::pair<RowId, std::uint64_t>> cells =
        distinctCells(sparse);
    ASSERT_LT(cells.size(), sparse.failures.size())
        << "no colliding records; the test is vacuous";
    EXPECT_EQ(block.rowsFailing, sparse.rowsFailing);
    EXPECT_EQ(block.failingBits, cells.size());
    EXPECT_EQ(block.rowsFailing, 616u);
    EXPECT_EQ(block.failingBits, 2272u);
}

TEST(Property, PrilCandidatesHadExactlyOneWriteTwoQuantaAgo)
{
    // The defining candidate property (Section 4.2): a page returned
    // by endQuantum() saw exactly one write in the quantum before
    // last and none in the last quantum. (The converse can fail:
    // capacity drops legitimately lose candidates.)
    const std::uint64_t num_pages = 96;
    core::PrilPredictor pril(num_pages, 4000);
    Rng rng(0x51edULL);

    std::vector<std::uint64_t> prev_counts(num_pages, 0);
    std::vector<std::uint64_t> cur_counts(num_pages, 0);
    for (int quantum = 0; quantum < 300; ++quantum) {
        std::uint64_t writes = rng.uniformInt(60);
        for (std::uint64_t w = 0; w < writes; ++w) {
            std::uint64_t page = rng.uniformInt(num_pages);
            pril.onWrite(PageId{page});
            ++cur_counts[page];
        }
        for (PageId cand : pril.endQuantum()) {
            std::uint64_t page = cand.value();
            EXPECT_EQ(prev_counts[page], 1u)
                << "page " << page << " quantum " << quantum;
            EXPECT_EQ(cur_counts[page], 0u)
                << "page " << page << " quantum " << quantum;
        }
        prev_counts = cur_counts;
        std::fill(cur_counts.begin(), cur_counts.end(), 0);
    }
}

// --------------------------------------------------------------------
// Differential suite: the block tester derives each row's readback
// from its visible failing cells; oracles::referenceTestWithContentBlock
// and referenceBatteryFailingBitCounts fill, read back and compare
// whole rows through the dispatched kernels. They must agree field for
// field. CI runs this suite native and with MEMCON_FORCE_SCALAR=1, so
// the oracle's compare goes through both kernel sets.
// --------------------------------------------------------------------

namespace
{

void
expectBlockMatchesOracle(const failure::FailureModel &model,
                         const failure::ContentProvider &content,
                         double interval_ms, std::uint64_t row_limit = 0)
{
    failure::DramTester tester(model);
    failure::TestResult got =
        tester.testWithContentBlock(content, interval_ms, row_limit);
    failure::TestResult want = oracles::referenceTestWithContentBlock(
        model, content, interval_ms, row_limit);
    EXPECT_EQ(got.rowsTested, want.rowsTested) << content.name();
    EXPECT_EQ(got.rowsFailing, want.rowsFailing) << content.name();
    EXPECT_EQ(got.failingBits, want.failingBits) << content.name();
    EXPECT_EQ(got.failures.size(), want.failures.size()) << content.name();
}

void
expectBatteryMatchesOracle(const failure::FailureModel &model,
                           const std::vector<failure::PatternContent> &battery,
                           double interval_ms, std::uint64_t row_limit = 0)
{
    failure::DramTester tester(model);
    auto got = tester.batteryFailingBitCounts(battery, interval_ms, row_limit);
    auto want = oracles::referenceBatteryFailingBitCounts(
        model, battery, interval_ms, row_limit);
    ASSERT_EQ(got.size(), want.size());
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].failingBits, want[i].failingBits)
            << battery[i].name();
        EXPECT_EQ(got[i].newFailingBits, want[i].newFailingBits)
            << battery[i].name();
        total += got[i].newFailingBits;
    }
    EXPECT_GT(total, 0u) << "battery found nothing; the check is vacuous";
}

/** perfbench `detect`'s module (and fig04's chip, 1024 rows of it). */
failure::FailureModel
detectModule()
{
    failure::FailureModelParams params;
    params.nominalIntervalMs = 328.0;
    params.seed = 2017;
    params.redundantColumns = 0;
    params.remappedColumns = 0;
    return failure::FailureModel(params, 1 << 10, 1 << 16);
}

/** Small chip with the default spares, dense enough to fail often. */
failure::FailureModelParams
smallChipParams()
{
    failure::FailureModelParams params;
    params.nominalIntervalMs = 328.0;
    params.seed = 2017;
    params.vulnerableCellsPerRow = 2.0;
    params.weakCellsPerRow = 0.2;
    return params;
}

std::vector<std::string>
specPersonaNames()
{
    std::vector<std::string> names;
    for (const failure::ContentPersona &p :
         failure::ContentPersona::specSuite())
        names.push_back(p.name);
    return names;
}

} // namespace

class BlockTesterOracleSpec : public ::testing::TestWithParam<std::string>
{
};

TEST_P(BlockTesterOracleSpec, DetectModuleEpochs0To4)
{
    const failure::FailureModel model = detectModule();
    const failure::ContentPersona persona =
        failure::ContentPersona::byName(GetParam());
    for (unsigned epoch = 0; epoch < 5; ++epoch)
        expectBlockMatchesOracle(model,
                                 failure::ProgramContent(persona, epoch),
                                 328.0);
}

INSTANTIATE_TEST_SUITE_P(
    SpecSuite, BlockTesterOracleSpec,
    ::testing::ValuesIn(specPersonaNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(BlockTesterOracle, HundredPatternBattery)
{
    failure::FailureModel model(smallChipParams(), 1 << 9, 1 << 12);
    expectBatteryMatchesOracle(model, failure::PatternContent::battery(100),
                               328.0);
}

TEST(BlockTesterOracle, DefaultSparesHideInvisibleFailures)
{
    const failure::FailureModelParams params = smallChipParams();
    ASSERT_EQ(params.redundantColumns, 128u);
    ASSERT_EQ(params.remappedColumns, 24u);
    failure::FailureModel model(params, 1 << 10, 1 << 12);
    failure::ProgramContent content(
        failure::ContentPersona::byName("mcf"), 3);

    // Some failures must sit where the system cannot see them, or
    // the spares exercise nothing.
    failure::TestResult sparse =
        failure::DramTester(model).testWithContent(content, 328.0);
    std::uint64_t invisible = 0;
    for (const failure::CellFailure &f : sparse.failures)
        invisible += model.remapper().addressedColumn(f.column) ==
                     failure::ColumnRemapper::kUnmapped;
    ASSERT_GT(invisible, 0u);

    expectBlockMatchesOracle(model, content, 328.0);
    expectBatteryMatchesOracle(model, failure::PatternContent::battery(12),
                               328.0);
}

TEST(BlockTesterOracle, ScramblingOff)
{
    failure::FailureModelParams params = smallChipParams();
    params.scrambling = false;
    failure::FailureModel model(params, 1 << 10, 1 << 12);
    expectBlockMatchesOracle(
        model,
        failure::ProgramContent(failure::ContentPersona::byName("gcc"), 0),
        328.0);
    expectBatteryMatchesOracle(model, failure::PatternContent::battery(12),
                               328.0);
}

TEST(BlockTesterOracle, Intervals64And328And1000Ms)
{
    failure::FailureModelParams params = smallChipParams();
    params.nominalIntervalMs = 64.0;
    failure::FailureModel model(params, 1 << 10, 1 << 12);
    failure::ProgramContent content(
        failure::ContentPersona::byName("lbm"), 2);
    for (double interval_ms : {64.0, 328.0, 1000.0}) {
        SCOPED_TRACE(interval_ms);
        expectBlockMatchesOracle(model, content, interval_ms);
        expectBatteryMatchesOracle(
            model, failure::PatternContent::battery(12), interval_ms);
    }
}

TEST(BlockTesterOracle, RowLimitBelowNumRows)
{
    failure::FailureModel model(smallChipParams(), 1 << 10, 1 << 12);
    expectBlockMatchesOracle(
        model,
        failure::ProgramContent(failure::ContentPersona::byName("astar"),
                                4),
        328.0, 300);
    expectBatteryMatchesOracle(model, failure::PatternContent::battery(12),
                               328.0, 300);
}

TEST(BlockTesterOracle, DenseCollidingModel)
{
    const failure::FailureModel model = denseCollidingModel();
    expectBlockMatchesOracle(
        model,
        failure::ProgramContent(failure::ContentPersona::byName("astar"),
                                1),
        328.0);
    expectBatteryMatchesOracle(model, failure::PatternContent::battery(100),
                               328.0);
}
