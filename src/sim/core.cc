#include "sim/core.hh"

#include <algorithm>

#include "common/logging.hh"

namespace memcon::sim
{

SimpleCore::SimpleCore(int core_id, trace::CpuAccessStream stream_in,
                       MemoryController &controller,
                       std::uint64_t base_block, std::uint64_t total_blocks,
                       unsigned issue_width, unsigned window_size)
    : coreId(core_id), stream(std::move(stream_in)), mc(controller),
      baseBlock(base_block), totalBlocks(total_blocks),
      issueWidth(issue_width), windowSize(window_size),
      segments(window_size), shared(std::make_shared<Shared>())
{
    fatal_if(issue_width == 0 || window_size == 0,
             "issue width and window size must be positive");
    fatal_if(total_blocks == 0, "module must have at least one block");
}

std::uint64_t
SimpleCore::blockToAddr(std::uint64_t block_index) const
{
    return ((baseBlock + block_index) % totalBlocks) * 64;
}

void
SimpleCore::refillPending()
{
    if (pendingBubbles == 0 && !pendingAccessValid) {
        pendingAccess = stream.next();
        pendingBubbles = pendingAccess.bubbleInsts;
        pendingAccessValid = true;
    }
}

void
SimpleCore::appendReady(std::uint32_t n)
{
    windowCount += n;
    if (segCount > 0) {
        Segment &tail = segments[wrap(segHead + segCount - 1)];
        if (!tail.isLoad) {
            tail.slots += n;
            return;
        }
    }
    segments[wrap(segHead + segCount)] = {0, n, false, true};
    ++segCount;
}

void
SimpleCore::appendLoad(std::uint64_t addr)
{
    ++windowCount;
    segments[wrap(segHead + segCount)] = {addr, 1, true, false};
    ++segCount;
}

void
SimpleCore::tick(Tick now)
{
    ++cycles;

    // Mark loads completed by the controller since the last cycle:
    // each completion readies the oldest outstanding load of its
    // address.
    if (!shared->completedAddrs.empty()) {
        for (std::uint64_t addr : shared->completedAddrs) {
            for (std::size_t i = 0, s = segHead; i < segCount;
                 ++i, s = wrap(s + 1)) {
                Segment &seg = segments[s];
                if (!seg.ready && seg.addr == addr) {
                    seg.ready = true;
                    break;
                }
            }
        }
        shared->completedAddrs.clear();
    }

    // Retire in order, up to issueWidth per cycle; a run of ready
    // slots retires in one step. Only an outstanding load is unready.
    unsigned budget = issueWidth;
    while (budget > 0 && segCount > 0) {
        Segment &head = segments[segHead];
        if (!head.ready)
            break;
        const std::uint32_t n = std::min<std::uint32_t>(budget, head.slots);
        head.slots -= n;
        windowCount -= n;
        retired += n;
        budget -= n;
        if (head.slots == 0) {
            segHead = wrap(segHead + 1);
            --segCount;
        }
    }

    // Issue new instructions into the window.
    unsigned issued = 0;
    while (issued < issueWidth && windowCount < windowSize) {
        refillPending();
        if (pendingBubbles > 0) {
            // Bubbles retire trivially; each still takes one slot to
            // keep window pressure realistic.
            const auto n = static_cast<std::uint32_t>(std::min<std::uint64_t>(
                {pendingBubbles, issueWidth - issued,
                 windowSize - windowCount}));
            appendReady(n);
            pendingBubbles -= n;
            issued += n;
            continue;
        }
        panic_if(!pendingAccessValid, "trace refill failed");
        std::uint64_t addr = blockToAddr(pendingAccess.blockIndex);

        if (pendingAccess.isWrite) {
            // Posted write: counts as one instruction, does not
            // occupy a window slot waiting for data.
            Request req;
            req.type = Request::Type::Write;
            req.addr = addr;
            req.coreId = coreId;
            if (!mc.enqueue(std::move(req), now))
                break; // retry next cycle
            appendReady(1);
            pendingAccessValid = false;
            ++issued;
            continue;
        }

        Request req;
        req.type = Request::Type::Read;
        req.addr = addr;
        req.coreId = coreId;
        auto shared_ref = shared;
        req.onComplete = [shared_ref](const Request &done) {
            shared_ref->completedAddrs.push_back(done.addr);
        };
        if (!mc.enqueue(std::move(req), now))
            break; // queue full; retry next cycle
        appendLoad(addr);
        pendingAccessValid = false;
        ++issued;
    }
}

} // namespace memcon::sim
