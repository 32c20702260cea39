/**
 * @file
 * Hot-path microbench for the hardware-modelled PRIL bookkeeping: the
 * predictor under onWrite churn and under quantum swap at full
 * buffers. Emits BENCH_micro_pril_ops.json so the per-access cost
 * trajectory behind the §6.4 "off the critical path" argument is
 * tracked across revisions.
 *
 * Every metric is a deterministic counter (writes, candidates,
 * drops, checksums); wall-clock enters only through the runner's
 * per-point wall_seconds, which stays outside the digest, so
 * --repeat N never trips the repeat-invariance check.
 */

#include <cstdint>
#include <vector>

#include "bench_util.hh"
#include "common/random.hh"
#include "common/simd.hh"
#include "common/table.hh"
#include "core/pril.hh"
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
    bench::banner("micro_pril_ops", "PRIL hot paths");
    note(strprintf("kernel set: %s%s (MEMCON_FORCE_SCALAR pins scalar)",
                   simd::activeKernelSetName(),
                   simd::scalarForced() ? " [forced]" : ""));

    const Inputs inputs = makeInputs(opts.campaignSeed, opts.quick);

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

    const std::vector<bench::PointResult> &results = runner.run();

    TextTable table;
    table.header({"scenario", "impl", "wall ms"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const std::string &label = results[i].label;
        table.row({label.substr(0, label.find('/')),
                   label.substr(label.find('/') + 1),
                   TextTable::num(runner.pointWallSeconds(i) * 1e3, 2)});
    }
    std::printf("%s", table.render().c_str());
    runner.finish();
    return 0;
}
