/**
 * @file
 * The MEMCON online detection-and-mitigation engine (Sections 3, 4,
 * 6.1, 6.4).
 *
 * The engine replays per-page write timelines against the full
 * mechanism: every row starts at HI-REF; PRIL watches writes across
 * quanta; at each quantum boundary the predicted-idle pages are
 * tested (within the concurrent-test budget) against their current
 * content; rows that pass move to LO-REF until their next write,
 * which demotes them back to HI-REF instantly - the invariant that a
 * LO-REF row has always passed a test against its *current* content
 * is maintained by construction. Rows whose content fails the test
 * are mitigated by staying at HI-REF.
 *
 * The engine reports everything the paper's Figures 14, 17, 18 need:
 * refresh-operation counts vs. the aggressive baseline, LO-REF time
 * coverage, test counts split into correctly-predicted and
 * mispredicted, buffer drops, and latency-domain refresh/testing
 * time.
 */

#ifndef MEMCON_CORE_ENGINE_HH
#define MEMCON_CORE_ENGINE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/units.hh"
#include "core/cost_model.hh"
#include "dram/address_map.hh"
#include "trace/app_model.hh"

namespace memcon::core
{

struct MemconConfig
{
    double hiRefMs = 16.0;
    double loRefMs = 64.0;

    /** PRIL quantum = the current-interval-length threshold. */
    TimeMs quantumMs{1024.0};

    /** Write-buffer entries (§6.4: 4000 suffices). */
    std::size_t writeBufferCapacity = 4000;

    /** Concurrent tests per 64 ms window (Table 3: 256-1024). */
    unsigned testSlotsPer64ms = 1024;

    TestMode mode = TestMode::ReadAndCompare;

    dram::CostTimings timings = dram::CostTimings::paperDdr3_1600();

    /**
     * Fraction of writes that store the value already in memory.
     * With detectSilentWrites (footnote 9 of the paper), such writes
     * neither demote the row nor trigger retesting, since the
     * content - and therefore the validity of the last test - is
     * unchanged.
     */
    double silentWriteFraction = 0.0;
    bool detectSilentWrites = false;

    /**
     * Periodic re-scrub of idle LO-REF rows (0 = off). Closes the
     * variable-retention-time exposure window: a row that passed a
     * test can later drift into a leaky state without any write to
     * trigger a retest. Rows whose last test is older than this are
     * re-tested at quantum boundaries with leftover budget; rows
     * that now fail are demoted to HI-REF.
     */
    double scrubPeriodMs = 0.0;

    /**
     * How pages interleave across channel/rank/bank shards
     * (DESIGN.md §17). The identity map (default) is the flat engine:
     * one shard owning every page, bit-identical to the pre-sharding
     * behavior. A multi-shard map partitions the population; each
     * shard owns its own PRIL (write maps and buffers sized to the
     * shard), SoA page state, and scrub wheel, and runs its quantum
     * loop independently - the per-bank structures real controllers
     * have. The test budget (testSlotsPer64ms) and the PRIL write
     * buffer are per-bank resources, so each shard gets the full
     * configured amount.
     */
    dram::AddressMap addressMap{};

    /**
     * Worker threads for the sharded path; 1 runs the shards
     * serially, 0 means hardware concurrency. Results are reduced in
     * (shard index, then global page) order, so every thread count
     * produces bit-identical metrics. Failure oracles must be pure
     * functions of their arguments when this exceeds 1 - they are
     * called concurrently from shard workers.
     */
    unsigned shardThreads = 1;

    /**
     * Capture MemconResult::pageEnd, the per-page closing state. The
     * shard-equivalence suite uses it to prove the sharded engine
     * leaves every page exactly where the flat engine does.
     */
    bool capturePageEndState = false;
};

struct MemconResult
{
    /** Per-shard slice of the run, in shard-index order. */
    struct ShardBreakdown
    {
        std::uint64_t pages = 0;
        std::uint64_t writes = 0;
        std::uint64_t testsRun = 0;
        std::uint64_t bufferDrops = 0;
        std::size_t trackerStorageBytes = 0;

        /**
         * Analytic row activations this shard issued: one per write
         * event (silent or not - the row still opens to store the
         * value) and two per content test, PRIL and scrub alike (the
         * read pass plus the restoring verify pass). This is the
         * activation pressure a disturb model sees from the engine's
         * own behavior; the shard-equivalence suite pins the per-shard
         * sum equal to the flat run's total under every sharding.
         */
        std::uint64_t acts = 0;
    };

    /** Closing state of one page (capturePageEndState only). */
    struct PageEndState
    {
        std::uint64_t writeCount = 0;
        bool atLoRef = false;
        double hiTimeMs = 0.0;
        double loTimeMs = 0.0;

        bool operator==(const PageEndState &) const = default;
    };

    double durationMs = 0.0;
    std::uint64_t pages = 0;
    std::uint64_t writes = 0;

    double refreshOpsBaseline = 0.0;
    double refreshOpsMemcon = 0.0;

    std::uint64_t testsRun = 0;
    std::uint64_t testsPassed = 0;
    std::uint64_t testsFailed = 0;       //!< content failed; row stays HI
    std::uint64_t testsSkippedBudget = 0;
    std::uint64_t testsCorrect = 0;      //!< idle >= MinWriteInterval after
    std::uint64_t testsMispredicted = 0;

    double hiTimeMs = 0.0; //!< summed over pages
    double loTimeMs = 0.0;

    std::uint64_t bufferDrops = 0;
    std::size_t trackerStorageBytes = 0;

    /** Writes ignored by silent-write detection (footnote 9). */
    std::uint64_t silentWritesSkipped = 0;

    /** Re-scrub activity (scrubPeriodMs > 0). */
    std::uint64_t scrubTests = 0;
    std::uint64_t scrubDemotions = 0;

    /**
     * Total analytic row activations (sum of ShardBreakdown::acts).
     * Deterministic across shardings by construction - every term is
     * an exact integer tied to an event or test the equivalence suite
     * already pins. Outside the golden digest surface.
     */
    std::uint64_t acts = 0;

    double testTimeNs = 0.0;
    double refreshTimeMemconNs = 0.0;
    double refreshTimeBaselineNs = 0.0;

    /**
     * Hot-path instrumentation. Outside the determinism contract's
     * digest surface: excluded from golden digests and from the
     * reference-oracle equivalence comparison, free to change as the
     * engine evolves.
     */
    std::uint64_t heapPushes = 0;      //!< k-way merge heap inserts
    std::uint64_t wheelPops = 0;       //!< scrub/read-only wheel pops
    std::uint64_t peakLiveStreams = 0; //!< max concurrent merge sources

    /**
     * Work items (read-only sweep entries, due scrubs) pushed past
     * their quantum because the test budget ran out. Unlike
     * testsSkippedBudget the work is retried later, so nothing is
     * lost - but a nonzero count means the per-quantum budget was a
     * binding shared resource, and flat vs sharded runs are then free
     * to diverge (each shard holds its own budget). The exact value
     * is instrumentation, outside the digest surface - only zero vs
     * nonzero carries a contract.
     */
    std::uint64_t testsDeferredBudget = 0;

    /**
     * One entry per shard of the address map (a single entry under
     * the identity map). Like the instrumentation counters above,
     * outside the digest surface.
     */
    std::vector<ShardBreakdown> shards;

    /** Per-page closing state; empty unless capturePageEndState. */
    std::vector<PageEndState> pageEnd;

    /** Fractional reduction in refresh operations vs. the baseline. */
    double reduction() const
    {
        return refreshOpsBaseline == 0.0
                   ? 0.0
                   : 1.0 - refreshOpsMemcon / refreshOpsBaseline;
    }

    /** Fraction of page-time spent at LO-REF (Figure 17 coverage). */
    double loCoverage() const
    {
        double total = hiTimeMs + loTimeMs;
        return total == 0.0 ? 0.0 : loTimeMs / total;
    }

    /** Testing time as a fraction of baseline refresh time (Fig 18). */
    double testTimeOverBaselineRefresh() const
    {
        return refreshTimeBaselineNs == 0.0
                   ? 0.0
                   : testTimeNs / refreshTimeBaselineNs;
    }
};

class MemconEngine
{
  public:
    /**
     * Decides whether a page's row fails a LO-REF test given its
     * current content, identified by how many writes the page has
     * absorbed. An empty oracle means "never fails" (pure refresh
     * study, as in §6.1).
     */
    using FailureOracle =
        std::function<bool(std::uint64_t page, std::uint64_t write_count)>;

    /**
     * Time-aware failure oracle for scrub studies (VRT): failure may
     * depend on *when* the row is tested, not only on its content.
     * When provided, it is consulted by every test (including
     * scrubs) instead of the plain oracle.
     */
    using TimedFailureOracle = std::function<bool(
        std::uint64_t page, std::uint64_t write_count, double time_ms)>;

    /**
     * Observes refresh-state transitions: invoked whenever a page
     * moves to LO-REF (to_lo = true, after passing a test) or back to
     * HI-REF (to_lo = false, on a write). write_count is the page's
     * write total at the transition. Tests use this to check the
     * reliability invariant from the outside.
     */
    using TransitionObserver = std::function<void(
        std::uint64_t page, double time_ms, bool to_lo,
        std::uint64_t write_count)>;

    explicit MemconEngine(const MemconConfig &config);

    const MemconConfig &config() const { return cfg; }

    /** The reduction if every row could stay at LO-REF (75%). */
    double upperBoundReduction() const
    {
        return 1.0 - cfg.hiRefMs / cfg.loRefMs;
    }

    /**
     * Replay explicit per-page write timelines over [0, duration_ms].
     * Each page's vector must be sorted ascending and non-negative -
     * the k-way merge's tie-break order (and therefore the metric
     * bit-identity contract) depends on it, so an unsorted vector is
     * a panic, not a silent reorder.
     */
    MemconResult run(const std::vector<std::vector<TimeMs>> &page_writes,
                     double duration_ms, const FailureOracle &oracle = {},
                     const TransitionObserver &observer = {},
                     const TimedFailureOracle &timed_oracle = {}) const;

    /** Generate and replay one Table 1 application persona. */
    MemconResult runOnApp(const trace::AppPersona &persona,
                          const FailureOracle &oracle = {},
                          const TransitionObserver &observer = {}) const;

  private:
    MemconConfig cfg;
};

} // namespace memcon::core

#endif // MEMCON_CORE_ENGINE_HH
