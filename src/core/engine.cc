#include "core/engine.hh"

#include <algorithm>
#include <cmath>
#include <future>
#include <thread>

#include "common/bitvector.hh"
#include "common/deadline_wheel.hh"
#include "common/kway_merge.hh"
#include "common/logging.hh"
#include "common/simd.hh"
#include "common/thread_pool.hh"
#include "core/pril.hh"

namespace memcon::core
{

namespace
{

/**
 * The smallest merge window, as a fraction of the quantum: at the
 * densest persona (about 680k writes per 1024 ms quantum) a
 * quantum/1024 window still stages hundreds of events per batch.
 */
constexpr double kMergeWindowFloor = 1024.0;

/**
 * Concurrent-test budget per quantum, rounded to nearest. The old
 * truncating cast silently yielded a zero budget for sub-64 ms quanta
 * with small slot counts - every test skipped, no diagnostic; the
 * constructor now rejects configurations that round to zero. The
 * budget is a per-bank resource: every shard gets the full amount.
 */
std::uint64_t
testsPerQuantum(const MemconConfig &cfg)
{
    return static_cast<std::uint64_t>(std::llround(
        cfg.testSlotsPer64ms * (cfg.quantumMs.value() / 64.0)));
}

/**
 * The PRIL write buffer can never hold more entries than the shard
 * has pages (writeMap gates insertion to one entry per page), so
 * sizing it past the population is pure dead storage - a 1-page bank
 * beside a 1M-page bank must not carry a 4000-entry buffer each.
 */
std::size_t
clampedBufferCapacity(const MemconConfig &cfg, std::size_t population)
{
    return std::min(cfg.writeBufferCapacity, population);
}

/**
 * Everything one shard's run produces, before reduction. Integer
 * counters sum in shard-index order; the per-page floats (indexed by
 * local page, which is ascending-global within the shard) reduce in
 * global page order in finalize() - FP addition is not associative,
 * and fixing one summation order for every sharding is what makes
 * flat and sharded runs bit-identical (DESIGN.md §17).
 */
struct ShardOutcome
{
    std::uint64_t writes = 0;
    std::uint64_t testsRun = 0;
    std::uint64_t testsPassed = 0;
    std::uint64_t testsFailed = 0;
    std::uint64_t testsSkippedBudget = 0;
    std::uint64_t testsCorrect = 0;
    std::uint64_t testsMispredicted = 0;
    std::uint64_t bufferDrops = 0;
    std::uint64_t silentWritesSkipped = 0;
    std::uint64_t scrubTests = 0;
    std::uint64_t scrubDemotions = 0;
    std::uint64_t heapPushes = 0;
    std::uint64_t wheelPops = 0;
    std::uint64_t testsDeferredBudget = 0;
    std::uint64_t peakLiveStreams = 0;
    std::uint64_t acts = 0; // memcon:shard_local - row activations
    std::size_t trackerStorageBytes = 0;

    /** Closing per-page state, local (ascending-global) order.
     *  Produced shard-privately, consumed by finalize(). */
    std::vector<double> hiMs;               // memcon:shard_local
    std::vector<double> loMs;               // memcon:shard_local
    std::vector<std::uint64_t> writeCount;  // memcon:shard_local
    std::vector<std::uint8_t> atLo;         // memcon:shard_local
};

/**
 * Reduce shard outcomes into the public result. Counters sum in
 * shard-index order; per-page floats reduce in global page order via
 * one cursor per shard (local indices are ascending-global, so a
 * global walk visits each shard's pages in local order). Derived
 * times come from the reduced totals, never from per-shard partials.
 */
// memcon:shard_scope - runs after every shard worker has returned;
// the reduction is the audited hand-off point out of shard state
MemconResult
finalize(const MemconConfig &cfg, std::vector<ShardOutcome> outs,
         std::uint64_t num_pages, double duration_ms)
{
    CostModelConfig cm_cfg;
    cm_cfg.timings = cfg.timings;
    cm_cfg.hiRefMs = cfg.hiRefMs;
    cm_cfg.loRefMs = cfg.loRefMs;
    CostModel cost(cm_cfg);

    MemconResult res;
    res.durationMs = duration_ms;
    res.pages = num_pages;
    res.shards.reserve(outs.size());
    for (const ShardOutcome &o : outs) {
        res.writes += o.writes;
        res.testsRun += o.testsRun;
        res.testsPassed += o.testsPassed;
        res.testsFailed += o.testsFailed;
        res.testsSkippedBudget += o.testsSkippedBudget;
        res.testsCorrect += o.testsCorrect;
        res.testsMispredicted += o.testsMispredicted;
        res.bufferDrops += o.bufferDrops;
        res.silentWritesSkipped += o.silentWritesSkipped;
        res.scrubTests += o.scrubTests;
        res.scrubDemotions += o.scrubDemotions;
        res.heapPushes += o.heapPushes;
        res.wheelPops += o.wheelPops;
        res.testsDeferredBudget += o.testsDeferredBudget;
        res.peakLiveStreams =
            std::max(res.peakLiveStreams, o.peakLiveStreams);
        res.trackerStorageBytes += o.trackerStorageBytes;
        res.acts += o.acts;
        res.shards.push_back({o.hiMs.size(), o.writes, o.testsRun,
                              o.bufferDrops, o.trackerStorageBytes,
                              o.acts});
    }

    const dram::AddressMap &map = cfg.addressMap;
    std::vector<std::size_t> cursor(outs.size(), 0);
    if (cfg.capturePageEndState)
        res.pageEnd.reserve(num_pages);
    for (std::uint64_t p = 0; p < num_pages; ++p) {
        const std::uint64_t s = outs.size() == 1 ? 0 : map.shardOf(p);
        const std::size_t i = cursor[s]++;
        const double hi = outs[s].hiMs[i];
        const double lo = outs[s].loMs[i];
        res.hiTimeMs += hi;
        res.loTimeMs += lo;
        res.refreshOpsMemcon += hi / cfg.hiRefMs + lo / cfg.loRefMs;
        if (cfg.capturePageEndState)
            res.pageEnd.push_back(
                {outs[s].writeCount[i], outs[s].atLo[i] != 0, hi, lo});
    }

    // Counts are exact integers however the run was sharded, so one
    // multiplication gives every sharding the same testing time.
    res.testTimeNs =
        static_cast<double>(res.testsRun + res.scrubTests) *
        cost.testCostNs(cfg.mode);
    res.refreshOpsBaseline =
        static_cast<double>(num_pages) * duration_ms / cfg.hiRefMs;
    res.refreshTimeBaselineNs =
        res.refreshOpsBaseline * cost.refreshOpNs();
    res.refreshTimeMemconNs = res.refreshOpsMemcon * cost.refreshOpNs();
    return res;
}

// --------------------------------------------------------------------
// The event path: a lazy k-way merge over the per-page sorted write
// streams feeds the quantum interleave loop directly, page state
// lives in structure-of-arrays form, and the re-scrub / read-only
// bookkeeping runs off deadline wheels instead of full page scans.
// Metric-bit-identical to the materialize-then-sort reference engine
// in tests/oracles (DESIGN.md §11 documents the ordering contracts
// that make it so).
//
// The unit of execution is one shard (bank): the function below runs
// one shard's population - its own PRIL, SoA state, and wheels - over
// *local* page indices, with `global_ids` translating back to global
// page numbers wherever identity matters (oracles, the silent-write
// hash, observers). The flat engine is the single-shard special case
// (global_ids == nullptr, local == global).
// --------------------------------------------------------------------

/**
 * Structure-of-arrays page state: the event loop touches one array
 * (cache line) per field instead of striding 40-byte structs, and
 * the LO-REF flags pack into a bitvector.
 */
struct PageSoA
{
    BitVector atLoRef;                      // memcon:shard_local
    // Mirrors `lastTestAt[p] >= 0`: the write-path classify() check
    // runs once per event on random pages, and one bit per page stays
    // cache-resident where the 8-byte lastTestAt array does not - the
    // double is only touched once the bit says a test is pending.
    BitVector pendingTest;                  // memcon:shard_local
    std::vector<double> stateSince;         // memcon:shard_local
    std::vector<std::uint64_t> writeCount;  // memcon:shard_local
    std::vector<double> lastTestAt;         // memcon:shard_local
    std::vector<double> lastVerified;       // memcon:shard_local

    // memcon:shard_scope - built by the owning shard worker
    explicit PageSoA(std::size_t num_pages)
        : atLoRef(num_pages), pendingTest(num_pages),
          stateSince(num_pages, 0.0), writeCount(num_pages, 0),
          lastTestAt(num_pages, -1.0), lastVerified(num_pages, -1.0)
    {
    }

    // memcon:shard_scope - size is fixed at construction
    std::size_t size() const { return stateSince.size(); }
};

/** A LO-REF row awaiting its next re-scrub. */
struct ScrubEntry
{
    std::uint32_t page;
    /**
     * lastVerified at enqueue time: doubles as a version stamp. A
     * mismatch against the live lastVerified means the row was
     * demoted and re-promoted since - the entry is stale and dropped.
     */
    double verifiedAt;
};

/**
 * Adapter presenting a sorted std::vector<TimeMs> as a stream. Holds
 * the raw extent rather than the vector: next() runs once per event
 * on the merge's pull path, and the flattened form costs one load
 * instead of three dependent ones.
 */
struct VectorStream
{
    const TimeMs *times;
    std::size_t count;
    std::size_t nextIdx = 0;

    explicit VectorStream(const std::vector<TimeMs> &w)
        : times(w.data()), count(w.size())
    {
    }

    bool next(double &out_ms)
    {
        if (nextIdx >= count)
            return false;
        out_ms = times[nextIdx++].value();
        return true;
    }
};

// memcon:shard_scope - one invocation per shard worker; touches only
// its own PageSoA and its own ShardOutcome
template <typename Stream>
ShardOutcome
runStreamingShard(const MemconConfig &cfg, std::vector<Stream> streams,
                  double duration_ms,
                  const MemconEngine::FailureOracle &oracle,
                  const MemconEngine::TransitionObserver &observer,
                  const MemconEngine::TimedFailureOracle &timed_oracle,
                  const std::uint32_t *global_ids)
{
    ShardOutcome out;
    const std::size_t num_local = streams.size();
    out.hiMs.assign(num_local, 0.0);
    out.loMs.assign(num_local, 0.0);

    auto gid = [global_ids](std::uint32_t local) -> std::uint64_t {
        return global_ids ? global_ids[local] : local;
    };

    CostModelConfig cm_cfg;
    cm_cfg.timings = cfg.timings;
    cm_cfg.hiRefMs = cfg.hiRefMs;
    cm_cfg.loRefMs = cfg.loRefMs;
    CostModel cost(cm_cfg);
    const double min_write_interval =
        cost.minWriteIntervalMs(cfg.mode).value();

    const std::uint64_t tests_per_quantum = testsPerQuantum(cfg);

    PrilPredictor pril(num_local, clampedBufferCapacity(cfg, num_local));
    PageSoA st(num_local);
    // The merge window follows the write density, up to the quantum
    // the consumer drains by: a dense persona stages cache-sized
    // batches rather than a whole quantum's events.
    KWayMerge<Stream> merge(std::move(streams), duration_ms,
                            cfg.quantumMs.value() / kMergeWindowFloor,
                            cfg.quantumMs.value());

    // A scrub entry verified at quantum index q matures no earlier
    // than q + floor(period/quantum) quanta later. The floor (vs the
    // exact ceil) errs early by at most one quantum; a popped entry
    // re-checks the authoritative float predicate below and lazily
    // re-buckets itself, so maturing early costs one extra pop while
    // maturing late would miss a scrub a full page scan performs.
    const std::int64_t scrub_epochs =
        cfg.scrubPeriodMs > 0.0
            ? std::max<std::int64_t>(
                  1, static_cast<std::int64_t>(std::floor(
                         cfg.scrubPeriodMs / cfg.quantumMs.value())))
            : 0;

    DeadlineWheel<ScrubEntry> scrub_wheel;
    DeadlineWheel<std::uint32_t> ro_wheel;
    std::vector<ScrubEntry> scrub_due;
    // Matured read-only candidates drain into a persistent queue
    // consumed by cursor across quanta (like the reference engine's
    // ro_queue): re-pushing a budget-starved tail into the wheel every quantum
    // would churn O(backlog) per boundary for nothing.
    std::vector<std::uint32_t> ro_pending;
    std::size_t ro_next = 0;
    unsigned quanta_seen = 0;
    // Per-quantum candidate scratch, reused across every quantum of
    // the shard instead of reallocated at each swap.
    std::vector<PageId> candidates;

    auto accrue = [&](std::size_t p, double until) {
        double span = until - st.stateSince[p];
        panic_if(span < -1e-9, "time went backwards");
        if (span <= 0.0)
            return;
        if (st.atLoRef.test(p))
            out.loMs[p] += span;
        else
            out.hiMs[p] += span;
        st.stateSince[p] = until;
    };

    auto classify = [&](std::size_t p, double now) {
        if (!st.pendingTest.test(p))
            return;
        st.pendingTest.clear(p);
        if (now - st.lastTestAt[p] >= min_write_interval)
            ++out.testsCorrect;
        else
            ++out.testsMispredicted;
        st.lastTestAt[p] = -1.0;
    };

    auto test_fails = [&](std::uint32_t local, std::uint64_t wc,
                          double when) {
        if (timed_oracle)
            return timed_oracle(gid(local), wc, when);
        return oracle ? oracle(gid(local), wc) : false;
    };

    auto run_test = [&](std::uint32_t page, double tq,
                        std::int64_t epoch) {
        panic_if(st.atLoRef.test(page), "tested page already at LO-REF");
        ++out.testsRun;
        out.acts += 2; // read pass + restoring verify pass
        st.lastTestAt[page] = tq;
        st.pendingTest.set(page);

        bool fails = test_fails(page, st.writeCount[page], tq);
        if (fails) {
            ++out.testsFailed;
            // Data-dependent failure with this content: the row must
            // keep the aggressive rate.
            return;
        }
        ++out.testsPassed;
        accrue(page, tq);
        st.atLoRef.set(page);
        st.lastVerified[page] = tq;
        if (scrub_epochs > 0)
            scrub_wheel.push(epoch + scrub_epochs, {page, tq});
        if (observer)
            observer(gid(page), tq, true, st.writeCount[page]);
    };

    auto process_quantum_end = [&](double tq, std::int64_t epoch) {
        pril.endQuantumInto(candidates);
        std::uint64_t budget = tests_per_quantum;
        for (PageId page : candidates) {
            if (budget == 0) {
                ++out.testsSkippedBudget;
                continue;
            }
            --budget;
            run_test(static_cast<std::uint32_t>(page.value()), tq, epoch);
        }

        ++quanta_seen;
        if (quanta_seen == 2) {
            // One-time sweep for §6.1 read-only identification; the
            // wheel then carries the pending queue across quanta.
            for (std::uint32_t p = 0; p < st.size(); ++p)
                if (st.writeCount[p] == 0)
                    ro_wheel.push(epoch, p);
        }
        if (!ro_wheel.empty())
            out.wheelPops += ro_wheel.popDue(epoch, ro_pending);
        while (budget > 0 && ro_next < ro_pending.size()) {
            std::uint32_t page = ro_pending[ro_next++];
            // A page written since enqueueing is no longer read-only;
            // PRIL takes over for it.
            if (st.writeCount[page] > 0 || st.atLoRef.test(page))
                continue;
            --budget;
            run_test(page, tq, epoch);
        }
        if (budget == 0)
            for (std::size_t j = ro_next; j < ro_pending.size(); ++j)
                if (st.writeCount[ro_pending[j]] == 0 &&
                    !st.atLoRef.test(ro_pending[j]))
                    ++out.testsDeferredBudget;

        // Idle-row re-scrub: revalidate LO-REF rows whose verdict has
        // aged past the scrub period (VRT protection). Demotions here
        // are the mechanism catching cells that drifted leaky. Runs
        // even with zero budget left so a starved quantum is counted
        // as deferral instead of silently parking the due batch.
        if (scrub_epochs > 0 && !scrub_wheel.empty()) {
            scrub_due.clear();
            out.wheelPops += scrub_wheel.popDue(epoch, scrub_due);
            std::size_t n = 0;
            for (const ScrubEntry &e : scrub_due) {
                if (!st.atLoRef.test(e.page) ||
                    e.verifiedAt != st.lastVerified[e.page])
                    continue; // stale: demoted or superseded since
                if (tq - st.lastVerified[e.page] < cfg.scrubPeriodMs) {
                    // Bucketed early; not actually due yet.
                    scrub_wheel.push(epoch + 1, e);
                    continue;
                }
                scrub_due[n++] = e;
            }
            scrub_due.resize(n);
            // Service (and budget cutoff) order is ascending page, as
            // a full page scan would visit them; it is part of the
            // bit-identity contract, so impose it on the due batch.
            std::sort(scrub_due.begin(), scrub_due.end(),
                      [](const ScrubEntry &a, const ScrubEntry &b) {
                          return a.page < b.page;
                      });
            std::size_t i = 0;
            for (; i < scrub_due.size() && budget > 0; ++i) {
                std::uint32_t p = scrub_due[i].page;
                --budget;
                ++out.scrubTests;
                out.acts += 2;
                if (test_fails(p, st.writeCount[p], tq)) {
                    ++out.scrubDemotions;
                    accrue(p, tq);
                    st.atLoRef.clear(p);
                    if (observer)
                        observer(gid(p), tq, false, st.writeCount[p]);
                } else {
                    st.lastVerified[p] = tq;
                    scrub_wheel.push(epoch + scrub_epochs, {p, tq});
                }
            }
            for (; i < scrub_due.size(); ++i) {
                ++out.testsDeferredBudget;
                scrub_wheel.push(epoch + 1, scrub_due[i]); // starved
            }
        }
    };

    double next_quantum_end = cfg.quantumMs.value();
    std::int64_t epoch = 0;

    while (!merge.empty() || next_quantum_end < duration_ms) {
        bool take_quantum =
            next_quantum_end < duration_ms &&
            (merge.empty() || next_quantum_end <= merge.peek().time);
        if (take_quantum) {
            process_quantum_end(next_quantum_end, epoch);
            next_quantum_end += cfg.quantumMs.value();
            ++epoch;
            continue;
        }
        if (merge.empty())
            break;

        const auto ev = merge.pop();
        ++out.writes;
        ++out.acts; // the row opens even for a silent write
        const std::uint32_t page = ev.source;

        // Silent-write detection (footnote 9): a write that stores
        // the existing value leaves the content - and the validity
        // of any prior test - intact. Hashed on the *global* page id
        // so a page's silent-write sequence is sharding-invariant.
        if (cfg.detectSilentWrites && cfg.silentWriteFraction > 0.0) {
            double u = static_cast<double>(
                           hashMix64(gid(page) * 0x9e3779b97f4a7c15ULL +
                                     st.writeCount[page]) >>
                           11) *
                       0x1.0p-53;
            if (u < cfg.silentWriteFraction) {
                ++out.silentWritesSkipped;
                continue;
            }
        }

        classify(page, ev.time);
        accrue(page, ev.time);
        if (st.atLoRef.test(page)) {
            // Content changes: protect until retested.
            st.atLoRef.clear(page);
            if (observer)
                observer(gid(page), ev.time, false,
                         st.writeCount[page] + 1);
        }
        ++st.writeCount[page];
        pril.onWrite(PageId{page});
    }

    // Close out every page at the horizon. Tests with no later write
    // inside the trace are censored, not mispredicted: the predicted
    // idleness did hold for as long as we could observe.
    out.writeCount.resize(num_local);
    out.atLo.resize(num_local);
    // Pages whose last test never saw a later write: one bulk
    // popcount over the pending-test bits replaces a per-page
    // lastTestAt branch in the close-out loop.
    out.testsCorrect += simd::popcountWords(
        st.pendingTest.wordData(), st.pendingTest.wordCount());
    for (std::size_t p = 0; p < st.size(); ++p) {
        accrue(p, duration_ms);
        out.writeCount[p] = st.writeCount[p];
        out.atLo[p] = st.atLoRef.test(p) ? 1 : 0;
    }

    out.bufferDrops = pril.bufferDrops();
    out.trackerStorageBytes = pril.storageBytes();
    out.heapPushes = merge.heapPushes();
    out.peakLiveStreams = merge.peakLiveSources();
    return out;
}

/**
 * Partition the population across the address map's shards and run
 * them - inline when shardThreads <= 1, else on a thread pool. Local
 * page indices are assigned in ascending global order (the partition
 * walk below), which is what lets PRIL's sorted candidate lists and
 * finalize()'s cursor reduction reproduce the flat engine's orders.
 * `make_stream(global_page)` builds one page's write stream; it runs
 * on worker threads, so it must be pure.
 */
template <typename MakeStream>
MemconResult
runShardedStreaming(const MemconConfig &cfg, std::uint64_t num_pages,
                    double duration_ms, MakeStream &&make_stream,
                    const MemconEngine::FailureOracle &oracle,
                    const MemconEngine::TransitionObserver &observer,
                    const MemconEngine::TimedFailureOracle &timed_oracle)
{
    using Stream = decltype(make_stream(std::uint64_t{0}));
    const dram::AddressMap &map = cfg.addressMap;
    const std::uint64_t num_shards = map.numShards();
    std::vector<ShardOutcome> outs;

    if (num_shards == 1) {
        std::vector<Stream> streams;
        streams.reserve(num_pages);
        for (std::uint64_t p = 0; p < num_pages; ++p)
            streams.push_back(make_stream(p));
        outs.push_back(runStreamingShard(cfg, std::move(streams),
                                         duration_ms, oracle, observer,
                                         timed_oracle, nullptr));
        return finalize(cfg, std::move(outs), num_pages, duration_ms);
    }

    // Transition observers see one global time-ordered sequence; the
    // sharded run has no such sequence to offer (each bank replays
    // its own timeline), so the combination is rejected rather than
    // silently reordered.
    fatal_if(static_cast<bool>(observer),
             "transition observers require the identity address map");

    std::vector<std::vector<std::uint32_t>> members(num_shards);
    for (std::uint64_t p = 0; p < num_pages; ++p)
        members[map.shardOf(p)].push_back(static_cast<std::uint32_t>(p));

    outs.resize(num_shards);
    auto run_shard = [&](std::uint64_t s) {
        const std::vector<std::uint32_t> &gids = members[s];
        if (gids.empty())
            return; // a bank with no pages: the default empty outcome
        std::vector<Stream> streams;
        streams.reserve(gids.size());
        for (std::uint32_t g : gids)
            streams.push_back(make_stream(g));
        outs[s] = runStreamingShard(cfg, std::move(streams), duration_ms,
                                    oracle, {}, timed_oracle, gids.data());
    };

    const unsigned threads =
        cfg.shardThreads == 0
            ? std::max(1u, std::thread::hardware_concurrency())
            : cfg.shardThreads;
    if (threads <= 1) {
        for (std::uint64_t s = 0; s < num_shards; ++s)
            run_shard(s);
    } else {
        ThreadPool pool(threads);
        std::vector<std::future<void>> done;
        done.reserve(num_shards);
        for (std::uint64_t s = 0; s < num_shards; ++s)
            done.push_back(
                pool.submit([&run_shard, s] { run_shard(s); }));
        for (std::future<void> &f : done)
            f.get();
    }
    return finalize(cfg, std::move(outs), num_pages, duration_ms);
}

} // namespace

MemconEngine::MemconEngine(const MemconConfig &config) : cfg(config)
{
    fatal_if(cfg.hiRefMs <= 0.0 || cfg.loRefMs <= cfg.hiRefMs,
             "need 0 < hiRefMs < loRefMs");
    fatal_if(cfg.quantumMs <= TimeMs{0.0}, "quantum must be positive");
    fatal_if(cfg.testSlotsPer64ms == 0, "test budget must be positive");
    fatal_if(testsPerQuantum(cfg) == 0,
             "test budget rounds to zero tests per quantum "
             "(testSlotsPer64ms=%u, quantumMs=%g)",
             cfg.testSlotsPer64ms, cfg.quantumMs.value());
    fatal_if(cfg.silentWriteFraction < 0.0 ||
                 cfg.silentWriteFraction > 1.0,
             "silent-write fraction must lie in [0, 1]");
}

MemconResult
MemconEngine::run(const std::vector<std::vector<TimeMs>> &page_writes,
                  double duration_ms, const FailureOracle &oracle,
                  const TransitionObserver &observer,
                  const TimedFailureOracle &timed_oracle) const
{
    fatal_if(duration_ms <= 0.0, "duration must be positive");
    fatal_if(page_writes.size() >= (std::uint64_t{1} << 32),
             "too many pages");

    // The k-way merge's tie-break reproduces the stable event order
    // only over per-page sorted streams; an unsorted vector would
    // silently interleave ties differently, so it is a panic instead.
    for (std::size_t p = 0; p < page_writes.size(); ++p) {
        const std::vector<TimeMs> &w = page_writes[p];
        for (std::size_t i = 0; i < w.size(); ++i) {
            panic_if(w[i] < TimeMs{0.0}, "negative write time");
            panic_if(i > 0 && w[i] < w[i - 1],
                     "unsorted per-page write stream (page %zu)", p);
        }
    }

    return runShardedStreaming(
        cfg, page_writes.size(), duration_ms,
        [&page_writes](std::uint64_t g) {
            return VectorStream(page_writes[g]);
        },
        oracle, observer, timed_oracle);
}

MemconResult
MemconEngine::runOnApp(const trace::AppPersona &persona,
                       const FailureOracle &oracle,
                       const TransitionObserver &observer) const
{
    const double duration_ms = persona.durationSec * 1000.0;
    fatal_if(persona.pages >= (std::uint64_t{1} << 32),
             "too many pages");
    // Generate each page's write process lazily inside the merge:
    // peak memory is one generator per page, never the materialized
    // write vectors. Each generator seeds from its global page id,
    // so a page's write timeline is sharding-invariant.
    return runShardedStreaming(
        cfg, persona.pages, duration_ms,
        [&persona](std::uint64_t g) {
            return trace::PageWriteStream(persona, g);
        },
        oracle, observer, TimedFailureOracle{});
}

} // namespace memcon::core
