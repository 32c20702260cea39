/**
 * @file
 * Hot-path microbench for the hardware-modelled bookkeeping paths:
 * the PRIL predictor under onWrite churn and quantum swap, block
 * content fills vs the per-word virtual wordAt loop, and row
 * compares through the dispatched kernels vs forced scalar. Emits
 * BENCH_micro_pril_ops.json so the per-access cost trajectory behind
 * the §6.4 "off the critical path" argument is tracked across
 * revisions.
 *
 * Every metric is a deterministic counter (writes, candidates,
 * drops, checksums, mismatch bits); wall-clock enters only through
 * the runner's per-point wall_seconds, which stays outside the
 * digest, so --repeat N never trips the repeat-invariance check.
 * Both members of every pair replay identical pre-generated inputs,
 * so their metric columns must agree (fataled in-bench) and the wall
 * ratio prices exactly the implementation difference. The two PRIL
 * points are unpaired.
 */

#include <cstdint>
#include <vector>

#include "bench_util.hh"
#include "common/random.hh"
#include "common/simd.hh"
#include "common/table.hh"
#include "core/pril.hh"
#include "failure/content.hh"
#include "runner.hh"

using namespace memcon;

namespace
{

constexpr std::uint64_t kPages = 1u << 20;
constexpr std::size_t kBufferCap = 4000;

/**
 * The quantum-swap scenario models one bank-sharded predictor (the
 * bank-sharded engine runs one PrilPredictor per bank), so its page
 * population is a bank's share of the 2^20 pages. The smaller write
 * map also stays cache-resident on the host, so the measured wall
 * prices the bookkeeping structures rather than host-DRAM misses on
 * the map words.
 */
constexpr std::uint64_t kSwapPages = 1u << 17;

/** Shared deterministic inputs, generated once outside the timing. */
struct Inputs
{
    std::vector<std::uint64_t> onwriteSeq; //!< mixed re-write traffic
    std::vector<std::uint64_t> swapSeq;    //!< mostly-distinct pages
    std::size_t swapWritesPerQuantum = 0;
    std::size_t swapQuanta = 0;
    std::size_t onwriteQuanta = 0;
};

Inputs
makeInputs(std::uint64_t seed, bool quick)
{
    Inputs in;
    // onWrite scenario: 4096-page working set cycled many times, so
    // roughly half the accesses are re-writes (buffer erases) - the
    // per-write churn mix the predictor sees under real traffic.
    const std::size_t onwrite_len = quick ? 1u << 20 : 1u << 23;
    Rng rng(deriveTaskSeed(seed, 1));
    std::vector<std::uint64_t> window(4096);
    for (auto &p : window)
        p = rng.uniformInt(kPages);
    in.onwriteSeq.reserve(onwrite_len);
    for (std::size_t i = 0; i < onwrite_len; ++i)
        in.onwriteSeq.push_back(window[i & 4095]);
    in.onwriteQuanta = onwrite_len / 4096;

    // quantum_swap scenario: each quantum writes ~capacity distinct
    // pages, so the buffer fills and the swap pays the full
    // candidate-extraction cost (map visit + O(1) clear).
    in.swapWritesPerQuantum = kBufferCap;
    in.swapQuanta = quick ? 64 : 512;
    Rng swap_rng(deriveTaskSeed(seed, 2));
    in.swapSeq.reserve(in.swapWritesPerQuantum * in.swapQuanta);
    for (std::size_t i = 0; i < in.swapWritesPerQuantum * in.swapQuanta;
         ++i)
        in.swapSeq.push_back(swap_rng.uniformInt(kSwapPages));
    return in;
}

/** Run the onWrite mix through the predictor. */
bench::Metrics
runOnWrite(const Inputs &in)
{
    core::PrilPredictor pril(kPages, kBufferCap);
    std::uint64_t candidates = 0;
    std::size_t i = 0;
    for (std::uint64_t page : in.onwriteSeq) {
        pril.onWrite(PageId{page});
        if ((++i & 0xfff) == 0)
            candidates += pril.endQuantum().size();
    }
    return bench::Metrics{
        {"writes", static_cast<double>(in.onwriteSeq.size())},
        {"candidates", static_cast<double>(candidates)},
        {"drops", static_cast<double>(pril.bufferDrops())},
        {"peak_occupancy",
         static_cast<double>(pril.peakBufferOccupancy())},
    };
}

/**
 * Run the swap-heavy mix through endQuantumInto() - the batched
 * extraction the engine's streaming loop calls, which reuses the
 * caller's candidate scratch instead of allocating a vector per
 * quantum.
 */
bench::Metrics
runQuantumSwap(const Inputs &in)
{
    core::PrilPredictor pril(kSwapPages, kBufferCap);
    std::uint64_t candidates = 0;
    std::uint64_t candidate_sum = 0;
    std::size_t at = 0;
    std::vector<PageId> scratch;
    for (std::size_t q = 0; q < in.swapQuanta; ++q) {
        for (std::size_t w = 0; w < in.swapWritesPerQuantum; ++w)
            pril.onWrite(PageId{in.swapSeq[at++]});
        pril.endQuantumInto(scratch);
        for (PageId page : scratch) {
            ++candidates;
            candidate_sum += page.value();
        }
    }
    return bench::Metrics{
        {"quanta", static_cast<double>(in.swapQuanta)},
        {"candidates", static_cast<double>(candidates)},
        {"candidate_sum", static_cast<double>(candidate_sum)},
        {"drops", static_cast<double>(pril.bufferDrops())},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    bench::SweepOptions opts = bench::parseSweepArgs(argc, argv);
    bench::banner("micro_pril_ops",
                  "PRIL, content, and compare kernel hot paths");
    note(strprintf("kernel set: %s%s (MEMCON_FORCE_SCALAR pins scalar)",
                   simd::activeKernelSetName(),
                   simd::scalarForced() ? " [forced]" : ""));
    note("Paired points replay identical inputs; equal metric columns "
         "are enforced, so the wall ratio prices the implementation.");

    const Inputs inputs = makeInputs(opts.campaignSeed, opts.quick);
    const std::size_t content_rows = opts.quick ? 512 : 4096;
    const std::size_t row_words = 1024; // 8 KB row
    const std::size_t compare_rows = opts.quick ? 1u << 10 : 1u << 13;

    bench::SweepRunner runner("micro_pril_ops", opts);

    // (a) onWrite churn: flat-set probes and erases.
    runner.add("onwrite/flat", [&inputs](const bench::TaskContext &) {
        return runOnWrite(inputs);
    });

    // (b) quantum swap at full buffers: batched map visit + O(1)
    // epoch clear.
    runner.add("quantum_swap/flat", [&inputs](const bench::TaskContext &) {
        return runQuantumSwap(inputs);
    });
    // The paired scenarios below start here.
    constexpr std::size_t kFirstPair = 2;

    // (c) content generation: per-word virtual dispatch vs the block
    // fillRow override. Checksums must match exactly.
    for (bool block : {false, true}) {
        runner.add(std::string("content_fill/") +
                       (block ? "block" : "wordat"),
                   [block, content_rows,
                    row_words](const bench::TaskContext &) {
                       failure::ProgramContent content(
                           failure::ContentPersona::byName("astar"), 3);
                       std::vector<std::uint64_t> row(row_words);
                       std::uint64_t *buf = row.data();
                       std::uint64_t checksum = 0;
                       for (std::size_t r = 0; r < content_rows; ++r) {
                           if (block) {
                               content.fillRow(r, buf, row_words);
                           } else {
                               // The priced per-word baseline.
                               for (std::size_t w = 0; w < row_words; ++w)
                                   // lint:allow(content-wordat)
                                   buf[w] = content.wordAt(r, w);
                           }
                           checksum ^= hashMix64(
                               simd::popcountWords(buf, row_words) +
                               buf[0] + buf[row_words - 1] + r);
                       }
                       return bench::Metrics{
                           {"rows", static_cast<double>(content_rows)},
                           {"checksum",
                            static_cast<double>(checksum >> 11)},
                       };
                   });
    }

    // (d) row compare: forced-scalar kernels vs the dispatched set on
    // identical buffers (equal mismatch counts by construction).
    for (bool active : {false, true}) {
        runner.add(
            std::string("row_compare/") + (active ? "active" : "scalar"),
            [active, compare_rows, row_words,
             &opts](const bench::TaskContext &) {
                const simd::KernelSet &k = active
                                               ? simd::activeKernels()
                                               : simd::scalarKernels();
                std::vector<std::uint64_t> row_a(row_words);
                std::vector<std::uint64_t> row_b(row_words);
                std::uint64_t *a = row_a.data();
                std::uint64_t *b = row_b.data();
                Rng rng(deriveTaskSeed(opts.campaignSeed, 7));
                std::uint64_t mismatches = 0;
                std::uint64_t bits = 0;
                for (std::size_t r = 0; r < compare_rows; ++r) {
                    std::uint64_t base = hashMix64(r * 0x9e37 + 1);
                    for (std::size_t w = 0; w < row_words; ++w) {
                        a[w] = hashMix64(base + w);
                        b[w] = a[w];
                    }
                    // Every eighth row decays one bit somewhere.
                    if ((r & 7) == 0)
                        b[rng.uniformInt(row_words)] ^=
                            std::uint64_t{1} << rng.uniformInt(64);
                    if (!k.equal(a, b, row_words)) {
                        ++mismatches;
                        bits += k.xorPopcount(a, b, row_words);
                    }
                }
                return bench::Metrics{
                    {"rows", static_cast<double>(compare_rows)},
                    {"mismatch_rows", static_cast<double>(mismatches)},
                    {"mismatch_bits", static_cast<double>(bits)},
                };
            });
    }

    const std::vector<bench::PointResult> &results = runner.run();

    TextTable table;
    table.header({"scenario", "impl", "wall ms", "speedup"});
    auto add_row = [&](std::size_t i, const std::string &speedup) {
        const std::string &label = results[i].label;
        table.row({label.substr(0, label.find('/')),
                   label.substr(label.find('/') + 1),
                   TextTable::num(runner.pointWallSeconds(i) * 1e3, 2),
                   speedup});
    };
    for (std::size_t i = 0; i < kFirstPair; ++i)
        add_row(i, "-");
    for (std::size_t i = kFirstPair; i + 1 < results.size(); i += 2) {
        double base_wall = runner.pointWallSeconds(i);
        double new_wall = runner.pointWallSeconds(i + 1);
        add_row(i, "1.00x");
        add_row(i + 1, new_wall > 0.0
                           ? strprintf("%.2fx", base_wall / new_wall)
                           : "-");
    }
    std::printf("%s", table.render().c_str());

    // Paired points must agree on every shared metric: same inputs,
    // same semantics, different implementation.
    for (std::size_t i = kFirstPair; i + 1 < results.size(); i += 2) {
        for (const bench::Metric &m : results[i].metrics) {
            fatal_if(m.value != results[i + 1].metric(m.name),
                     "metric '%s' diverged between %s and %s",
                     m.name.c_str(), results[i].label.c_str(),
                     results[i + 1].label.c_str());
        }
    }

    double fill_wordat = runner.pointWallSeconds(kFirstPair);
    double fill_block = runner.pointWallSeconds(kFirstPair + 1);
    if (fill_block > 0.0)
        note(strprintf("content fill speedup: %.2fx block over the "
                       "per-word virtual loop",
                       fill_wordat / fill_block));
    runner.finish();
    return 0;
}
