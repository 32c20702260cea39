/**
 * @file
 * Long-running application write-behaviour personas.
 *
 * The paper traces 12 commercial applications with an HMTT-style FPGA
 * bus tracer (Table 1) and observes that per-page write intervals
 * follow a Pareto distribution: >95% of writes arrive within 1 ms of
 * the previous one, under 0.5% of writes start intervals longer than
 * 1024 ms, yet those long intervals hold ~90% of all time spent in
 * write intervals (Figures 7-9). At the same time, only ~4000 pages
 * per quantum are written exactly once (Section 6.4) - the write
 * stream is produced by a small hot set while most pages see
 * isolated writes separated by very long gaps.
 *
 * The generator reproduces both properties with two page classes:
 *
 *  - HOT pages (a few percent of the footprint): repeated write
 *    bursts (a geometric number of sub-millisecond writes) separated
 *    by exponential "medium" gaps of a few hundred ms, with an
 *    occasional Pareto-tail gap. These produce nearly all writes and
 *    nearly all sub-1 ms intervals.
 *
 *  - READ-ONLY pages: a large part of any real footprint (code,
 *    loaded assets, streamed buffers already consumed) receives no
 *    writes at all during the trace. MEMCON identifies such rows and
 *    keeps them at LO-REF (Section 6.1), which is what lets its
 *    refresh reduction approach the 75%% upper bound.
 *
 *  - COLD pages (the rest): isolated writes separated by truncated
 *    Pareto gaps starting at coldXmMs. These produce the long
 *    intervals that dominate time-in-interval, exhibit the
 *    decreasing hazard rate PRIL exploits, and are the pages PRIL
 *    catches with one write per quantum.
 */

#ifndef MEMCON_TRACE_APP_MODEL_HH
#define MEMCON_TRACE_APP_MODEL_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/units.hh"

namespace memcon::trace
{

/** One Table 1 application plus its generator parameters. */
struct AppPersona
{
    std::string name;
    std::string type;       //!< Table 1 "Type" column
    double durationSec;     //!< Table 1 trace length
    double footprintGB;     //!< Table 1 memory footprint
    unsigned threads;       //!< Table 1 thread count

    // Generator parameters.
    std::uint64_t pages;     //!< modelled page population
    double readOnlyFraction; //!< pages never written during the trace
    double hotFraction;      //!< fraction of pages in the hot set
    double burstLenMean;     //!< hot: mean writes per burst
    double burstGapMeanMs;   //!< hot: mean gap inside a burst
    double mediumXmMs;       //!< hot: Pareto inter-burst gap minimum
    double mediumAlpha;      //!< hot: Pareto inter-burst gap index
    double hotTailShare;     //!< hot: inter-burst gaps from the tail
    double coldXmMs;         //!< cold: Pareto gap minimum
    double tailAlpha;        //!< Pareto tail index (hot + cold)
    std::uint64_t seed;

    /** The 12 applications of Table 1. */
    static std::vector<AppPersona> table1Suite();

    /** Look up a persona by name; fatal if unknown. */
    static AppPersona byName(const std::string &name);
};

/**
 * The write process of a single page: a deterministic stream of
 * inter-write intervals. Distinct (persona, page) pairs produce
 * independent streams; the same pair always reproduces the same
 * stream.
 */
class PageWriteProcess
{
  public:
    /** The persona must outlive the process (held by reference). */
    PageWriteProcess(const AppPersona &persona, std::uint64_t page_id);
    PageWriteProcess(AppPersona &&, std::uint64_t) = delete;

    /** @return true if this page belongs to the persona's hot set. */
    bool isHot() const { return cls == Class::Hot; }

    /** @return true if this page is never written during the trace. */
    bool isReadOnly() const { return cls == Class::ReadOnly; }

    /** The next inter-write interval in ms. */
    TimeMs nextIntervalMs();

    /**
     * The random phase of the first write (consumes RNG state; call
     * once, before any nextIntervalMs). Panics on read-only pages.
     */
    TimeMs initialPhaseMs();

    /**
     * All write timestamps for this page within the trace window,
     * starting from a random phase.
     */
    std::vector<TimeMs> writeTimes();

    /** Where the process stands: its RNG words and burst position
     * (the page class is a function of the page id). */
    struct State
    {
        std::array<std::uint64_t, 4> rng{};
        std::uint64_t burstRemaining = 0;
    };

    State state() const { return {rng.state(), burstRemaining}; }

    void
    restore(const State &state)
    {
        rng.setState(state.rng);
        burstRemaining = state.burstRemaining;
    }

  private:
    TimeMs truncatedParetoMs(double x_min, double alpha);

    enum class Class
    {
        ReadOnly,
        Hot,
        Cold,
    };

    // Held by reference: personas carry strings, and the streaming
    // engine instantiates one process per page - copying the persona
    // P times dominated construction cost.
    const AppPersona &persona;
    Rng rng;
    Class cls;
    std::uint64_t burstRemaining = 0;
};

/**
 * Generator adapter exposing a page's write process as a sorted
 * stream for KWayMerge: yields exactly the in-window timestamps
 * PageWriteProcess::writeTimes() would materialize, one at a time, so
 * the engine's streaming path never holds a page's full timeline.
 */
class PageWriteStream
{
  public:
    /** The persona must outlive the stream (held by reference). */
    PageWriteStream(const AppPersona &persona, std::uint64_t page_id);
    PageWriteStream(AppPersona &&, std::uint64_t) = delete;

    /**
     * Yield the next write time in ms, ascending. Returns false at
     * the first time at or past the trace end, and forever after.
     */
    bool next(double &out_ms);

    /** Where the stream stands, so it can resume mid-trace without
     * regenerating what it already yielded. */
    struct State
    {
        PageWriteProcess::State proc;
        double t = 0.0; //!< the last time drawn
        bool done = false;
    };

    State state() const { return {proc.state(), t, done}; }

    /** Resume after a drawn time (or finished): restoring never
     * replays the initial phase. */
    void
    restore(const State &state)
    {
        proc.restore(state.proc);
        t = state.t;
        started = true;
        done = state.done;
    }

  private:
    PageWriteProcess proc;
    double durationMs;
    double t = 0.0;
    bool started = false;
    bool done;
};

} // namespace memcon::trace

#endif // MEMCON_TRACE_APP_MODEL_HH
