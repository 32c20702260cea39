/**
 * @file
 * The per-session ingest ring: a bounded single-producer /
 * single-consumer queue of timestamped row-write events.
 *
 * Every tenant session owns one ring. The producer (the tenant's
 * traffic source) pushes events in non-decreasing timestamp order and
 * observes `Full` as explicit backpressure - it must hold the event
 * and retry, or give up and count a drop; the ring itself never
 * discards anything silently. The consumer (the session's apply loop)
 * peeks the head, attempts to apply it to the tenant's controller,
 * and pops only on success, so an apply that is refused (queue full,
 * budget exhausted) leaves the event in place.
 *
 * The implementation is a classic power-of-two SPSC ring over
 * acquire/release atomics: wait-free on both sides, TSan-clean when
 * exactly one thread produces and one consumes. Inside a service
 * round both roles run on the tenant's task thread (virtual time
 * interleaves them deterministically); the cross-thread discipline
 * still holds, and the dedicated ring tests exercise it with real
 * concurrent threads.
 */

#ifndef MEMCON_SERVICE_INGEST_RING_HH
#define MEMCON_SERVICE_INGEST_RING_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/strong_id.hh"
#include "common/units.hh"

namespace memcon::service
{

/** One tenant write: when it happened (service time) and where. */
struct WriteEvent
{
    Tick at{};
    std::uint64_t row = 0;

    bool operator==(const WriteEvent &) const = default;
};

/** What tryPush() observed; `Full` is the backpressure signal. */
enum class PushResult
{
    Ok,
    Full,
};

class IngestRing
{
  public:
    /** @param capacity slots; rounded up to the next power of two. */
    explicit IngestRing(std::size_t capacity);

    IngestRing(const IngestRing &) = delete;
    IngestRing &operator=(const IngestRing &) = delete;

    /** Producer side: enqueue or report Full - never blocks. */
    PushResult tryPush(const WriteEvent &event);

    /** Consumer side: expose the head without consuming it. */
    bool peek(WriteEvent *out) const;

    /** Consumer side: drop the head peek() exposed. */
    void popFront();

    /**
     * Entries currently queued. Exact from either endpoint's own
     * thread; a racing observer sees a value that was true at some
     * instant during the call.
     */
    std::size_t size() const;

    bool empty() const { return size() == 0; }

    // memcon:shard_scope - capacity is fixed at construction
    std::size_t capacity() const { return slots.size(); }

    /**
     * Copy the queued entries front-to-back. Only meaningful while
     * the ring is quiescent (between service rounds); the service
     * snapshot uses it to record the residue a crash would strand.
     */
    std::vector<WriteEvent> contents() const;

  private:
    // Slot payloads are published/consumed only through the
    // acquire/release head/tail protocol; the annotated accessors
    // are the closed set of functions touching them.
    // memcon:shard_local
    std::vector<WriteEvent> slots;
    std::size_t mask;

    // Head/tail are free-running indices (masked on access) so full
    // vs empty needs no wasted slot. Separate cache lines keep the
    // producer and consumer from false-sharing.
    alignas(64) std::atomic<std::uint64_t> head{0}; //!< consumer
    alignas(64) std::atomic<std::uint64_t> tail{0}; //!< producer
};

} // namespace memcon::service

#endif // MEMCON_SERVICE_INGEST_RING_HH
