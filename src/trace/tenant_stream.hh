/**
 * @file
 * Multi-tenant stream adapter: one tenant's row-write traffic for the
 * memcond service, derived from the existing trace:: generators.
 *
 * Each tenant session replays an AppPersona-shaped write process over
 * its private module: per-row PageWriteStreams merged into one
 * ascending timeline, then mapped from persona milliseconds into
 * simulator Ticks. A `rateScale` factor compresses the persona's time
 * axis, so an antagonist tenant is simply the same stochastic process
 * played rateScale-times hotter - the event *set* stays deterministic
 * for a given (seed, rows, scale).
 *
 * The adapter is a cursor, not a buffer: peek()/pop() stream events
 * one at a time, and generated() counts how many were consumed. The
 * merge is a binary min-heap holding each live row's one drawn and
 * unconsumed time, keyed (time, logical row); pop() removes the head
 * and draws that row's next time. That is ascending (time, row) order,
 * FIFO within a row - a stable sort by time of the events appended
 * row-major, the order the engine's KWayMerge delivers too.
 *
 * saveState() writes the cursor as a state record line: per row, the
 * write process's RNG words, burst position and done flag, and each
 * live row's one pending time. What the heap holds after n pops is a
 * function of n alone, so the saved bytes are too. loadState()
 * rebuilds each row's process and the heap from that record, so a
 * crash-restored service resumes its producer without regenerating
 * any event it already drew.
 */

#ifndef MEMCON_TRACE_TENANT_STREAM_HH
#define MEMCON_TRACE_TENANT_STREAM_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

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

    // Each row's write process holds a reference to `personaState`.
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
    std::uint64_t eventsDrawn() const { return drawn; }

    /** Save the cursor as a state record line (common/state_io.hh). */
    void saveState(StateWriter &out) const;

    /** Restore a cursor saveState() wrote for a stream of the same
     * config; throws StateError on a malformed record. */
    void loadState(StateReader &in);

  private:
    /** A live row's drawn and unconsumed time: (persona ms, logical
     * row), compared in that order. */
    using Pending = std::pair<double, std::uint64_t>;

    /** Draw `row`'s next time, after `last`, into the heap; a time
     * at or past the horizon retires the row instead. */
    void draw(std::uint64_t row, double last);

    TenantTrafficConfig cfg;

    // The persona outlives the page streams (held by reference in
    // each PageWriteProcess), so it must be a stable member built
    // before them.
    AppPersona personaState;
    double horizon; //!< persona ms: horizonMs * rateScale
    std::vector<PageWriteStream> rows; //!< per logical row
    std::vector<Pending> heap; //!< min-heap (std::greater), one per live row
    std::unique_ptr<HammerStream> hammer; //!< antagonist mode only
    std::uint64_t popped = 0;
    std::uint64_t drawn = 0;

    /** Logical row -> physical flat row; empty when unplaced. */
    std::vector<std::uint64_t> rowMap;
};

} // namespace memcon::trace

#endif // MEMCON_TRACE_TENANT_STREAM_HH
