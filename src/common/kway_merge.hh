/**
 * @file
 * Lazy k-way merge of per-source sorted event streams.
 *
 * The MEMCON engine replays one ordered stream of write events built
 * from per-page timelines. Materializing every event and sorting is
 * O(W log W) time and O(W) memory; the merge instead keeps one
 * pending record per *live source* plus one window of staged events,
 * while the consumer sees events in exactly the order the old
 * materialize-then-`std::stable_sort` path produced.
 *
 * Ordering contract (load-bearing for the engine's bit-identical
 * metrics, see DESIGN.md §11): items are delivered in ascending
 * (time, source) order, and FIFO within one source. For per-page
 * streams that are individually sorted, this reproduces a stable
 * sort by time over events appended source-major - the tie-break the
 * seed engine got from `std::stable_sort` plus its page-major event
 * construction.
 *
 * Implementation: a classic binary heap over all sources delivers
 * this order but is cache-hostile at width (every pop walks log K
 * scattered heap levels; measured ~2x slower than the reference sort
 * at 100k sources). Instead, sources sit in a DeadlineWheel bucketed
 * by the epoch window floor(next_time / window) of their next event.
 * Advancing pops one window's sources (ordered by source id), peels
 * their events inside the window into a staging batch, re-buckets
 * each source under its next event, and sorts the batch by
 * (time, sequence) - sequence being assigned source-major, so the
 * sorted batch is in (time, source, per-source-index) order. Windows
 * partition the timeline, so concatenated batches equal the heap
 * order whatever the window sizes: total cost O(W log B + pushes)
 * with B = events per window, resident memory O(K + B).
 *
 * Density-sized windows: the caller gives the window as a range
 * [min, max]. The merge starts near the bottom (kStartWindows times
 * min), or at max when so few sources start inside the first max
 * window that even one event each leaves it far below the target
 * (sparse streams gain nothing from a fine start). It steers each
 * staged batch toward kTargetBatch events, so that the batch and its
 * sort scratch stay cache-resident: a batch
 * more than kResizeFactor times above the target halves the window
 * (repeatedly, down to min, until the batch would have fit), one more
 * than kResizeFactor times below it doubles the window once (up to
 * max). A window is a span of wheel epochs, so resizing only changes
 * the span; only a halving below one epoch re-buckets the live
 * sources under a finer epoch grid, O(K), and the grid never
 * coarsens again. Sparse streams thus batch a whole max window at
 * once, while a dense burst that would stage hundreds of thousands
 * of events per max window is cut into cache-sized batches.
 * min == max is a fixed window; a caller whose draw-ahead is
 * observable state (TenantWriteStream saves the times the merge has
 * drawn but not delivered) passes a fixed window so that state
 * depends on the window alone, not on the batches' history.
 *
 * A Stream is any type with `bool next(double &out_ms)` yielding its
 * times in ascending order; the merge panics on a stream that runs
 * backwards (an unsorted stream would silently reorder ties). Times
 * at or past the horizon terminate their stream: for a sorted stream
 * nothing after the first out-of-window time can be in-window.
 */

#ifndef MEMCON_COMMON_KWAY_MERGE_HH
#define MEMCON_COMMON_KWAY_MERGE_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/deadline_wheel.hh"
#include "common/logging.hh"

namespace memcon
{

template <typename Stream>
class KWayMerge
{
  public:
    struct Item
    {
        double time;
        std::uint32_t source;
    };

    /** Events per staged batch the window size steers toward. */
    static constexpr std::size_t kTargetBatch = 8192;
    /** A batch this many times off the target resizes the window. */
    static constexpr std::size_t kResizeFactor = 4;
    /** The first window, in multiples of the minimum window. */
    static constexpr double kStartWindows = 16.0;

    /**
     * Take ownership of the streams and bucket each source under the
     * epoch window of its first in-horizon event. The window adapts
     * within [min_window_ms, max_window_ms] (see the file comment);
     * staging memory is one window's events, so max_window_ms is the
     * consumer's natural cadence (the engine passes its quantum).
     */
    KWayMerge(std::vector<Stream> source_streams, double horizon_ms,
              double min_window_ms, double max_window_ms)
        : streams(std::move(source_streams)), horizon(horizon_ms),
          minWindow(min_window_ms), maxWindow(max_window_ms),
          grid(std::min(min_window_ms * kStartWindows, max_window_ms))
    {
        fatal_if(streams.size() >= (std::uint64_t{1} << 32),
                 "too many merge sources");
        fatal_if(!(minWindow > 0.0), "window must be positive");
        fatal_if(!(maxWindow >= minWindow),
                 "window range [%g, %g] is empty", minWindow, maxWindow);
        lastTime.assign(streams.size(), 0.0);
        std::size_t starting = 0;
        for (std::uint32_t s = 0; s < streams.size(); ++s) {
            double t;
            if (!pull(s, t, /*first=*/true))
                continue;
            due.push_back(Pending{t, s});
            starting += t < maxWindow;
        }
        // Every source starting inside the first max window adds at
        // least one event to it. When even that floor is far below
        // the target, the streams are sparse: start at max, sparing a
        // wheel grid that is fine-grained for no reason.
        if (starting < kTargetBatch / kResizeFactor)
            grid = maxWindow;
        maxSpan = spanCap();
        for (const Pending &p : due)
            wheel.push(bucketOf(p.time), p);
        pushes += due.size();
        peakLive = wheel.size();
    }

    /** @return true when no staged or pending event remains. */
    bool empty() const
    {
        // Wheel entries always carry an in-horizon next event, so a
        // non-empty wheel guarantees at least one more item.
        return batchPos >= batch.size() && wheel.empty();
    }

    /** The next item in (time, source) order; panics when empty. */
    const Item &peek()
    {
        refill();
        panic_if(batchPos >= batch.size(), "peek() on an empty merge");
        return batch[batchPos];
    }

    /** Remove and return the next item. */
    Item pop()
    {
        refill();
        panic_if(batchPos >= batch.size(), "pop() on an empty merge");
        return batch[batchPos++];
    }

    /** Sources still holding a pending (un-staged) event. */
    std::size_t liveSources() const { return wheel.size(); }

    /** Peak pending sources observed (instrumentation). */
    std::size_t peakLiveSources() const { return peakLive; }

    /** Total source (re-)bucketings performed (instrumentation). */
    std::uint64_t heapPushes() const { return pushes; }

    /** The window the next batch will be staged with, in ms. */
    double windowMs() const { return grid * static_cast<double>(span); }

  private:
    /** One source waiting in the wheel with its next event time. */
    struct Pending
    {
        double time;
        std::uint32_t source;
    };

    /** A staged event; seq makes the batch sort key (time, seq)
     *  unique, and seq is assigned source-major. */
    struct Staged : Item
    {
        std::uint32_t seq;
    };

    /**
     * The window holding t. Float division can land one window off
     * in either direction; a window that starts after t would emit t
     * out of order, so correct downward (an early bucket is merely
     * re-bucketed when its window drains - see refill()).
     */
    std::int64_t bucketOf(double t) const
    {
        auto e = static_cast<std::int64_t>(t / grid);
        if (e > 0 && t < static_cast<double>(e) * grid)
            --e;
        return e;
    }

    /** The most wheel epochs a window may span under maxWindow. */
    std::int64_t spanCap() const
    {
        return std::max<std::int64_t>(
            1, static_cast<std::int64_t>(maxWindow / grid));
    }

    /** Pull a source's next time; panic on disorder, retire at the
     *  horizon. @return true if the source stays live. */
    bool pull(std::uint32_t source, double &t, bool first)
    {
        if (!streams[source].next(t))
            return false;
        panic_if(t < 0.0, "negative write time");
        panic_if(!first && t < lastTime[source],
                 "unsorted write stream for source %u (%g after %g)",
                 source, t, lastTime[source]);
        lastTime[source] = t;
        return t < horizon;
    }

    /** Stage the next non-empty window once the batch is consumed. */
    void refill()
    {
        while (batchPos >= batch.size() && !wheel.empty()) {
            // The window is the span epochs from the first non-empty
            // one; `last` is its final epoch.
            const std::int64_t first = wheel.nextEpoch();
            const std::int64_t last = first + span - 1;
            const double bound =
                std::min(static_cast<double>(last + 1) * grid, horizon);
            due.clear();
            wheel.popDue(last, due);
            peakLive = std::max(peakLive, wheel.size() + due.size());
            // Source-ascending staging order makes (time, seq) the
            // (time, source, index) tie-break of the contract.
            std::sort(due.begin(), due.end(),
                      [](const Pending &a, const Pending &b) {
                          return a.source < b.source;
                      });
            batch.clear();
            batchPos = 0;
            std::uint32_t seq = 0;
            for (const Pending &p : due) {
                double t = p.time;
                bool live = true;
                while (live && t < bound) {
                    batch.push_back(Staged{{t, p.source}, seq++});
                    live = pull(p.source, t, /*first=*/false);
                }
                if (!live)
                    continue;
                // Next event past this window: re-bucket, forcing
                // progress past the drained epochs.
                wheel.push(std::max(bucketOf(t), last + 1),
                           Pending{t, p.source});
                ++pushes;
            }
            sortBatch(static_cast<double>(first) * grid, bound);
            resize(batch.size());
        }
    }

    /**
     * Steer the window toward kTargetBatch events per batch after a
     * batch of n. The window is `span` wheel epochs of `grid` ms:
     * growing it and shrinking it back only changes the span, and
     * only a halving below one epoch re-buckets the live sources
     * under a finer grid. The grid never coarsens, so that happens
     * at most log2(max / min) times. An empty batch (only
     * float-early sources) says nothing about density.
     */
    void resize(std::size_t n)
    {
        if (n == 0)
            return;
        constexpr double hi = double(kTargetBatch * kResizeFactor);
        constexpr double lo = double(kTargetBatch) / kResizeFactor;
        double projected = static_cast<double>(n);
        if (projected > hi) {
            // Halve until the batch would have fit the target.
            double finer = grid;
            while (projected > double(kTargetBatch) &&
                   (span > 1 || finer > minWindow)) {
                if (span > 1)
                    span /= 2;
                else
                    finer = std::max(finer / 2.0, minWindow);
                projected /= 2.0;
            }
            if (finer != grid)
                regrid(finer);
        } else if (projected < lo) {
            // One step: a sparse stretch says little about what the
            // wider window will hold.
            span = std::min(span * 2, maxSpan);
        }
    }

    /**
     * Re-bucket every live source under a finer grid. Each holds a
     * next time at or past the drained bound, so any grid keeps the
     * partition: no pending event lies before it.
     */
    void regrid(double finer)
    {
        grid = finer;
        maxSpan = spanCap();
        due.clear();
        wheel.popDue(std::numeric_limits<std::int64_t>::max() - 1, due);
        wheel = DeadlineWheel<Pending>();
        for (const Pending &p : due)
            wheel.push(bucketOf(p.time), p);
        pushes += due.size();
    }

    /**
     * Order the staged batch by (time, seq). The batch holds one
     * window's events, so times cluster inside [lo, hi); a monotone
     * distribution pass into ~2-event buckets followed by tiny
     * per-bucket insertion sorts does the same work as a full
     * introsort at a fraction of the comparisons (the batch sort is
     * the largest single cost of the merge). Write bursts crowd a
     * few buckets, so the bucket count follows the batch size: with
     * the window steered to cache-sized batches, finer buckets are
     * cheaper than fewer, fuller ones (measured 19 against 23-28 ns
     * per event over the campaign's batches). The
     * bucket index is a monotone function of time and every bucket
     * is finished with a real (time, seq) sort, so the concatenated
     * result is exact whatever the distribution - early-bucketed
     * stragglers below lo merely crowd bucket 0.
     */
    void sortBatch(double lo, double hi)
    {
        auto byTimeSeq = [](const Staged &a, const Staged &b) {
            if (a.time != b.time)
                return a.time < b.time;
            return a.seq < b.seq;
        };
        const std::size_t n = batch.size();
        if (n < 64 || !(hi > lo)) {
            std::sort(batch.begin(), batch.end(), byTimeSeq);
            return;
        }
        std::size_t nb = 16;
        while (nb * 2 < n)
            nb <<= 1;
        const double scale = static_cast<double>(nb) / (hi - lo);
        bucketOfStaged.resize(n);
        bucketEnds.assign(nb + 1, 0);
        for (std::size_t i = 0; i < n; ++i) {
            const double rel = (batch[i].time - lo) * scale;
            std::size_t b =
                rel <= 0.0 ? 0 : static_cast<std::size_t>(rel);
            if (b >= nb)
                b = nb - 1;
            bucketOfStaged[i] = static_cast<std::uint32_t>(b);
            ++bucketEnds[b + 1];
        }
        for (std::size_t b = 1; b <= nb; ++b)
            bucketEnds[b] += bucketEnds[b - 1];
        // bucketEnds[b] is bucket b's start; the scatter cursors it
        // forward so it finishes as bucket b's end offset.
        stagedScratch.resize(n);
        for (std::size_t i = 0; i < n; ++i)
            stagedScratch[bucketEnds[bucketOfStaged[i]]++] = batch[i];
        batch.swap(stagedScratch);
        std::size_t begin = 0;
        for (std::size_t b = 0; b < nb; ++b) {
            const std::size_t end = bucketEnds[b];
            if (end - begin > 16) {
                std::sort(batch.begin() + begin, batch.begin() + end,
                          byTimeSeq);
            } else {
                for (std::size_t i = begin + 1; i < end; ++i) {
                    const Staged v = batch[i];
                    std::size_t j = i;
                    for (; j > begin && byTimeSeq(v, batch[j - 1]); --j)
                        batch[j] = batch[j - 1];
                    batch[j] = v;
                }
            }
            begin = end;
        }
    }

    std::vector<Stream> streams;
    std::vector<double> lastTime;
    DeadlineWheel<Pending> wheel;
    std::vector<Pending> due;
    std::vector<Staged> batch;
    // sortBatch() scratch, reused across windows.
    std::vector<std::uint32_t> bucketOfStaged;
    std::vector<std::uint32_t> bucketEnds;
    std::vector<Staged> stagedScratch;
    std::size_t batchPos = 0;
    double horizon;
    double minWindow;
    double maxWindow;
    double grid;             //!< wheel epoch width, ms
    std::int64_t span = 1;   //!< wheel epochs per window
    std::int64_t maxSpan = 1; //!< span cap: grid * span <= maxWindow
    std::uint64_t pushes = 0;
    std::size_t peakLive = 0;
};

} // namespace memcon

#endif // MEMCON_COMMON_KWAY_MERGE_HH
