/**
 * @file
 * Multi-tenant stream adapter: one tenant's row-write traffic for the
 * memcond service, derived from the existing trace:: generators.
 *
 * Each tenant session replays an AppPersona-shaped write process over
 * its private module: per-row PageWriteStreams merged into one
 * ascending timeline by KWayMerge, then mapped from persona
 * milliseconds into simulator Ticks. A `rateScale` factor compresses
 * the persona's time axis, so an antagonist tenant is simply the same
 * stochastic process played rateScale-times hotter - the event *set*
 * stays deterministic for a given (seed, rows, scale).
 *
 * The adapter is a cursor, not a buffer: peek()/pop() stream events
 * one at a time, and generated() counts how many were consumed.
 *
 * saveState() writes the cursor as a state record line: per row, the
 * write process's RNG words and burst position plus the times the
 * merge has drawn from it that no pop() has consumed yet. loadState()
 * rebuilds each row's process from that record and a fresh merge over
 * the rebuilt rows, so a crash-restored service resumes its producer
 * without regenerating any event it already drew. The merge delivers
 * (time, row) order from the per-row sequences alone, so the rebuilt
 * merge continues exactly where the saved one stood.
 */

#ifndef MEMCON_TRACE_TENANT_STREAM_HH
#define MEMCON_TRACE_TENANT_STREAM_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/kway_merge.hh"
#include "common/units.hh"
#include "dram/address_map.hh"
#include "trace/app_model.hh"
#include "trace/hammer.hh"

namespace memcon
{
class StateReader;
class StateWriter;
} // namespace memcon

namespace memcon::trace
{

struct TenantTrafficConfig
{
    /** Rows in the tenant's module (one write process per row). */
    std::uint64_t rows = 128;

    /**
     * Bank placement (palloc-style tenant partitioning): when
     * `bankSet` is non-empty, the tenant's logical rows are spread
     * round-robin over exactly those banks of `addressMap` - logical
     * row i lands on bank bankSet[i % B] at local row i / B, and the
     * stream emits the *physical* flat row index addressMap encodes
     * for that coordinate. An empty bankSet keeps logical == physical
     * (the whole-module tenant), bit-identical to the pre-placement
     * stream. The event *timing* never depends on placement: the
     * write processes are seeded by logical row.
     */
    dram::AddressMap addressMap{};
    std::vector<unsigned> bankSet;

    /**
     * Upper bound for the mapped physical rows (the module's
     * totalRows); 0 skips the check. A placement that maps any
     * logical row past this is a config error and fatals at
     * construction instead of corrupting a neighbor's rows.
     */
    std::uint64_t physicalRowLimit = 0;

    /**
     * Time-compression factor: events arrive rateScale-times faster
     * than the base persona. 1.0 is an in-quota tenant; an overload
     * antagonist uses 4-16.
     */
    double rateScale = 1.0;

    /** Service-time horizon the stream must cover, in ms. */
    double horizonMs = 2.0;

    std::uint64_t seed = 1;

    /** Page-class mix (see trace/app_model.hh). */
    double readOnlyFraction = 0.25;
    double hotFraction = 0.15;

    /**
     * Antagonist mode: when enabled, the tenant's traffic is a
     * RowHammer aggressor stream over `hammer` (trace/hammer.hh)
     * instead of the benign write process - same cursor, same ingest
     * path, adversarial access pattern. The persona knobs above are
     * ignored; `hammer.horizonMs` must cover the service horizon.
     */
    bool hammerEnabled = false;
    HammerSpec hammer;

    /** The service persona these knobs expand into. */
    AppPersona persona() const;
};

class TenantWriteStream
{
  public:
    explicit TenantWriteStream(const TenantTrafficConfig &config);

    // The merge holds pointers into `sources`.
    TenantWriteStream(const TenantWriteStream &) = delete;
    TenantWriteStream &operator=(const TenantWriteStream &) = delete;

    /**
     * The next event, without consuming it: its service-time Tick and
     * flat row index (physical - routed through the bank placement
     * when one is configured). @return false once the horizon is
     * exhausted.
     */
    bool peek(Tick *at, std::uint64_t *row);

    /** Consume the event peek() exposed; panics when exhausted. */
    void pop();

    /** Events consumed so far (the producer's durable position). */
    std::uint64_t generated() const { return popped; }

    /** Events the rows' write processes drew since the cursor was
     * built or restored (a restore draws none). */
    std::uint64_t
    eventsDrawn() const
    {
        std::uint64_t total = 0;
        for (const Source &src : sources)
            total += src.drawn;
        return total;
    }

    /** The most times any row's ring can hold without growing. */
    std::size_t
    peakRowBuffer() const
    {
        std::size_t peak = 0;
        for (const Source &src : sources)
            peak = std::max<std::size_t>(peak, src.capacity);
        return peak;
    }

    /** Save the cursor as a state record line (common/state_io.hh). */
    void saveState(StateWriter &out) const;

    /** Restore a cursor saveState() wrote for a stream of the same
     * config; throws StateError on a malformed record. */
    void loadState(StateReader &in);

  private:
    /**
     * One row's write process, and the times the merge drew from it
     * that no pop() has consumed, oldest first, in a ring. The first
     * `pulled` of them the current merge has drawn; the rest a
     * restore put back and the merge has yet to draw again. A pop
     * drops its time, so a row holds only what the merge drew ahead
     * of the consumer: its events in the staged window plus the
     * next one. The ring's first two slots are inline, enough for a
     * row outside a burst; a row that bursts moves the ring to the
     * heap once, at a capacity the window bounds.
     */
    struct Source
    {
        Source(const AppPersona &persona, std::uint64_t row)
            : gen(persona, row)
        {
        }

        const double *
        ring() const
        {
            return spill ? spill.get() : inlineRing;
        }

        /** The i-th unconsumed time, i < count. */
        double
        at(std::uint32_t i) const
        {
            return ring()[(head + i) & (capacity - 1)];
        }

        void push(double t);

        /** Drop the oldest time, which the merge has drawn. */
        void
        consume()
        {
            head = (head + 1) & (capacity - 1);
            --count;
            --pulled;
        }

        PageWriteStream gen;
        double inlineRing[2] = {};
        std::unique_ptr<double[]> spill; //!< the ring once it outgrows 2
        std::uint32_t capacity = 2;      //!< a power of two
        std::uint32_t head = 0;
        std::uint32_t count = 0;
        std::uint32_t pulled = 0;
        std::uint32_t drawn = 0; //!< generator draws since built
    };

    /** The merge's view of one Source. */
    struct SourceRef
    {
        Source *src;

        bool next(double &out_ms);
    };

    /** A fresh merge over `sources`. */
    void buildMerge();

    TenantTrafficConfig cfg;

    // The persona outlives the page streams (held by reference in
    // each PageWriteProcess), so it must be a stable member built
    // before the merge.
    AppPersona personaState;
    std::vector<Source> sources; //!< per logical row; the merge points in
    std::unique_ptr<KWayMerge<SourceRef>> merge;
    std::unique_ptr<HammerStream> hammer; //!< antagonist mode only
    std::uint64_t popped = 0;

    /** Logical row -> physical flat row; empty when unplaced. */
    std::vector<std::uint64_t> rowMap;
};

} // namespace memcon::trace

#endif // MEMCON_TRACE_TENANT_STREAM_HH
