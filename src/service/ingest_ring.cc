#include "service/ingest_ring.hh"

#include "common/logging.hh"

namespace memcon::service
{

namespace
{

std::size_t
roundUpPow2(std::size_t n)
{
    std::size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

} // namespace

// memcon:shard_scope - construction precedes any concurrent use
IngestRing::IngestRing(std::size_t capacity)
{
    fatal_if(capacity == 0, "ingest ring needs at least one slot");
    std::size_t cap = roundUpPow2(capacity);
    slots.resize(cap);
    mask = cap - 1;
}

// memcon:shard_scope - producer endpoint
PushResult
IngestRing::tryPush(const WriteEvent &event)
{
    const std::uint64_t t = tail.load(std::memory_order_relaxed);
    const std::uint64_t h = head.load(std::memory_order_acquire);
    if (t - h >= slots.size())
        return PushResult::Full;
    slots[t & mask] = event;
    tail.store(t + 1, std::memory_order_release);
    return PushResult::Ok;
}

// memcon:shard_scope - consumer endpoint
bool
IngestRing::peek(WriteEvent *out) const
{
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    const std::uint64_t t = tail.load(std::memory_order_acquire);
    if (h == t)
        return false;
    *out = slots[h & mask];
    return true;
}

void
IngestRing::popFront()
{
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    const std::uint64_t t = tail.load(std::memory_order_acquire);
    panic_if(h == t, "popFront() on an empty ingest ring");
    head.store(h + 1, std::memory_order_release);
}

// memcon:shard_scope - quiescent-only snapshot reader
std::vector<WriteEvent>
IngestRing::contents() const
{
    const std::uint64_t h = head.load(std::memory_order_acquire);
    const std::uint64_t t = tail.load(std::memory_order_acquire);
    std::vector<WriteEvent> out;
    out.reserve(static_cast<std::size_t>(t - h));
    for (std::uint64_t i = h; i != t; ++i)
        out.push_back(slots[i & mask]);
    return out;
}

std::size_t
IngestRing::size() const
{
    const std::uint64_t h = head.load(std::memory_order_acquire);
    const std::uint64_t t = tail.load(std::memory_order_acquire);
    return static_cast<std::size_t>(t - h);
}

} // namespace memcon::service
